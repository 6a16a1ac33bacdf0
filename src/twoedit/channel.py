"""Edit operations and edit distance.

An error pattern expresses all of its positions in the original word's frame:
substitutions and deletions name 1-based indices of the original word,
insertions name gaps 0..n (gap g sits between symbols g and g+1).  The fixed
application order is substitute, delete, insert.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .words import Word


@dataclass(frozen=True)
class ErrorPattern:
    """A concrete set of edits against a word of known length.

    substitutions: (position, new symbol) pairs; writing the original symbol
    is a legal (trivial) substitution.  deletions: positions.  insertions:
    (gap, symbol) pairs; entries at equal gaps are placed left to right in
    list order.
    """

    substitutions: tuple[tuple[int, int], ...] = ()
    deletions: tuple[int, ...] = ()
    insertions: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        subs = tuple(sorted(self.substitutions))
        dels = tuple(sorted(self.deletions))
        ins = tuple(sorted(self.insertions, key=lambda e: e[0]))
        object.__setattr__(self, "substitutions", subs)
        object.__setattr__(self, "deletions", dels)
        object.__setattr__(self, "insertions", ins)
        sub_positions = [p for p, _ in subs]
        if len(set(sub_positions)) != len(sub_positions):
            raise ValueError("duplicate substitution positions")
        if len(set(dels)) != len(dels):
            raise ValueError("duplicate deletion positions")
        if set(sub_positions) & set(dels):
            raise ValueError("substitution and deletion positions overlap")
        for _, sym in subs:
            if sym not in (0, 1):
                raise ValueError(f"invalid substitution symbol {sym!r}")
        for _, sym in ins:
            if sym not in (0, 1):
                raise ValueError(f"invalid insertion symbol {sym!r}")

    @property
    def counts(self) -> tuple[int, int, int]:
        """(insertions, deletions, substitutions)."""
        return (len(self.insertions), len(self.deletions), len(self.substitutions))

    def validate_for(self, n: int) -> None:
        for p, _ in self.substitutions:
            if not 1 <= p <= n:
                raise ValueError(f"substitution position {p} outside word of length {n}")
        for p in self.deletions:
            if not 1 <= p <= n:
                raise ValueError(f"deletion position {p} outside word of length {n}")
        for g, _ in self.insertions:
            if not 0 <= g <= n:
                raise ValueError(f"insertion gap {g} outside word of length {n}")


def _position(text: str, item: str) -> int:
    """Position ``text`` of ``item`` in ASCII digits (int() takes "+2", "1_0", ...)."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"malformed pattern item {item!r}")
    return int(text)


def parse_pattern(text: str) -> ErrorPattern:
    """Parse a pattern spec such as ``sub@4=1,del@2,ins@0=1`` ('' = no edits)."""
    subs: list[tuple[int, int]] = []
    dels: list[int] = []
    ins: list[tuple[int, int]] = []
    text = text.strip()
    if not text:
        return ErrorPattern()
    for item in text.split(","):
        item = item.strip()
        kind, at, rest = item.partition("@")
        if at != "@":
            raise ValueError(f"malformed pattern item {item!r}")
        if kind == "del":
            dels.append(_position(rest, item))
            continue
        pos_text, eq, sym_text = rest.partition("=")
        if eq != "=" or sym_text not in ("0", "1"):
            raise ValueError(f"malformed pattern item {item!r}")
        if kind == "sub":
            subs.append((_position(pos_text, item), int(sym_text)))
        elif kind == "ins":
            ins.append((_position(pos_text, item), int(sym_text)))
        else:
            raise ValueError(f"unknown edit kind {kind!r} in {item!r}")
    return ErrorPattern(tuple(subs), tuple(dels), tuple(ins))


def format_pattern(p: ErrorPattern) -> str:
    items = [f"sub@{pos}={sym}" for pos, sym in p.substitutions]
    items += [f"del@{pos}" for pos in p.deletions]
    items += [f"ins@{gap}={sym}" for gap, sym in p.insertions]
    return ",".join(items)


def apply_errors(x: Word, p: ErrorPattern) -> Word:
    """Apply a pattern to ``x``; result length is |x| + t - s.

    Each edit is a shift and a mask on the packed value.  Substitutions
    keep the length, so they act at once; deletions and insertions then go
    left to right, which leaves the bits to the right of each edit as they
    were in ``x``: an edit with k bits of ``x`` to its right acts at bit k.
    """
    n = len(x)
    p.validate_for(n)
    v = x.value
    for pos, sym in p.substitutions:
        v = v & ~(1 << (n - pos)) | sym << (n - pos)
    # symbol pos sits between gaps pos - 1 and pos; the sort is stable, so
    # insertions at one gap keep their order
    edits = [(2 * pos - 1, n - pos, None) for pos in p.deletions]
    edits += [(2 * gap, n - gap, sym) for gap, sym in p.insertions]
    edits.sort(key=lambda e: e[0])
    for _, k, sym in edits:
        low = v & ((1 << k) - 1)
        if sym is None:
            v = v >> (k + 1) << k | low
        else:
            v = (v >> k << 1 | sym) << k | low
    return Word.from_int(v, n + len(p.insertions) - len(p.deletions))


def edit_distance(x: Word, y: Word) -> int:
    """Unit-cost edit distance (insertions, deletions, substitutions).

    Myers' bit-parallel algorithm in Hyyrö's formulation: the longer word is
    the pattern, one bit per row of a DP column, held as its vertical +1 and
    -1 deltas, and each symbol of the shorter word advances the whole column
    by a few word operations.  Bit i of a packed value is the i-th symbol
    from the end, so both words are read reversed, which leaves the distance
    unchanged.
    """
    m, k = len(x), len(y)
    if m < k:
        x, y, m, k = y, x, k, m
    mask = (1 << m) - 1
    eq1 = x.value
    eq0 = eq1 ^ mask
    vp, vn = mask, 0
    t = y.value
    for _ in range(k):
        xv = (eq1 if t & 1 else eq0) | vn
        t >>= 1
        d0 = (((xv & vp) + vp) ^ vp) | xv
        hp = vn | ~(d0 | vp)
        # The top row's horizontal delta is +1.  Carries and left shifts only
        # move up, so bits at m and above never reach the column; masking vp
        # keeps the ints small.  vn stays below bit m: a carry into bit m
        # needs vp's top bit, which clears the top bit of hp.
        xh = (hp << 1) | 1
        vn = xh & d0
        vp = (((vp & d0) << 1) | ~(xh | d0)) & mask
    # The top cell of the last column is k; its deltas lead to the bottom one.
    return k + vp.bit_count() - vn.bit_count()


def random_pattern(rng: random.Random, n: int, max_edits: int = 2,
                   counts: tuple[int, int, int] | None = None) -> ErrorPattern:
    """Draw a pattern with t+s+r <= max_edits (or the exact given counts)."""
    if counts is None:
        triples = [
            (t, s, r)
            for t in range(max_edits + 1)
            for s in range(max_edits + 1 - t)
            for r in range(max_edits + 1 - t - s)
            if s + r <= n
        ]
        t, s, r = triples[rng.randrange(len(triples))]
    else:
        t, s, r = counts
    dels = tuple(sorted(rng.sample(range(1, n + 1), s)))
    sub_candidates = [p for p in range(1, n + 1) if p not in dels]
    subs = tuple((p, rng.randint(0, 1)) for p in sorted(rng.sample(sub_candidates, r)))
    ins = tuple((rng.randint(0, n), rng.randint(0, 1)) for _ in range(t))
    return ErrorPattern(subs, dels, ins)
