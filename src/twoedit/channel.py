"""Edit operations and edit distance.

An error pattern expresses all of its positions in the original word's frame:
substitutions and deletions name 1-based indices of the original word,
insertions name gaps 0..n (gap g sits between symbols g and g+1).  The fixed
application order is substitute, delete, insert.
"""

from __future__ import annotations

import random
import sys
from typing import NamedTuple, Sequence

from .syndrome import MAX_EDITS  # the channel's budget
from .words import Word


# A NamedTuple may not define __new__, so the subclass ErrorPattern checks the fields.
class _PatternFields(NamedTuple):
    substitutions: tuple[tuple[int, int], ...] = ()
    deletions: tuple[int, ...] = ()
    insertions: tuple[tuple[int, int], ...] = ()


class ErrorPattern(_PatternFields):
    """A concrete set of edits against a word of known length.

    substitutions: (position, new symbol) pairs; writing the original symbol
    is a legal (trivial) substitution.  deletions: positions.  insertions:
    (gap, symbol) pairs; entries at equal gaps are placed left to right in
    list order.
    """

    __slots__ = ()

    def __new__(
        cls,
        substitutions: tuple[tuple[int, int], ...] = (),
        deletions: tuple[int, ...] = (),
        insertions: tuple[tuple[int, int], ...] = (),
    ) -> "ErrorPattern":
        subs = tuple(sorted(substitutions))
        dels = tuple(sorted(deletions))
        ins = tuple(sorted(insertions, key=lambda e: e[0]))
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
        return tuple.__new__(cls, (subs, dels, ins))

    @classmethod
    def _make(cls, iterable) -> "ErrorPattern":
        return cls(*iterable)  # the checks above, for ``_replace`` too

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


def _columns(eq0: int, text: int, k: int, low: int, ones: int) -> tuple[int, int]:
    """Myers' bit-parallel edit distance in Hyyrö's formulation, on every
    field of a packed integer at once.

    Each field holds one pair: its low m bits are the pattern's DP column,
    held as its vertical +1 and -1 deltas ``vp`` and ``vn``, ``low`` is
    2^m - 1 and ``ones`` has bit 0 of every field set.  ``eq0`` holds, per
    field, the pattern bits that equal 0; bit j of a field of ``text`` is
    the text symbol that advances the column at step j, for k steps.  Each
    field also has a spare bit above the column: it takes the addition's
    carry and the left shifts, so no field spills into the next, and the
    top field's ``~`` bits never reach a column.  Returns ``(vp, vn)``.
    """
    mask = low * ones
    vp, vn = mask, 0
    for _ in range(k):
        # eq0 flipped in every field whose text symbol is 1: the pattern's 1s
        xv = (eq0 ^ (text & ones) * low) | vn
        text >>= 1
        d0 = (((xv & vp) + vp) ^ vp) | xv
        hp = vn | ~(d0 | vp)
        # The top row's horizontal delta is +1: it also overwrites bit 0,
        # which the shift filled from the field below.  vn stays in the
        # column: a carry into the spare bit needs vp's top bit, which
        # clears the top bit of hp.
        xh = (hp << 1) | ones
        vn = xh & d0
        vp = (((vp & d0) << 1) | ~(xh | d0)) & mask
    return vp, vn


def edit_distance(x: Word, y: Word) -> int:
    """Unit-cost edit distance (insertions, deletions, substitutions).

    The one-field case of ``_columns``, the loop that ``edit_distances``
    runs over many pairs at once: here the field is unbounded, so any
    lengths work.  The longer word is the pattern and each symbol of the
    shorter advances its column.  Bit i of a packed value is the i-th symbol
    from the end, so both words are read reversed, which leaves the distance
    unchanged.  The top cell of the last column is k; its deltas lead to the
    bottom one.
    """
    m, k = len(x), len(y)
    if m < k:
        x, y, m, k = y, x, k, m
    low = (1 << m) - 1
    vp, vn = _columns(x.value ^ low, y.value, k, low, 1)
    return k + vp.bit_count() - vn.bit_count()


def edit_distances(xs: Sequence[int], ys: Sequence[int], m: int, k: int) -> list[int]:
    """The edit distance of every pair ``(xs[i], ys[i])`` of packed values,
    the xs of length m and the ys of length k, in one pass of ``_columns``.

    Each pair gets one field of the narrowest ``array`` type that holds
    m + 1 bits (the pattern and the spare bit), so each step advances every
    pair's column by some twenty big-integer operations, and ``array`` unpacks
    the two delta rows.  Raises ValueError, before packing anything, if no
    type holds max(m, k) + 1 bits, if the lists differ in length, or if a
    value has more bits than its length.
    """
    from array import array  # here, so that importing the CLI does not load it

    if m < k:
        xs, ys, m, k = ys, xs, k, m
    for typecode in "BHIQ":
        width = 8 * array(typecode).itemsize
        if m < width:
            break
    else:
        raise ValueError(f"words of length {m} need {m + 1}-bit fields, above {width} bits")
    low = (1 << m) - 1
    if len(xs) != len(ys):
        raise ValueError(f"{len(xs)} patterns but {len(ys)} texts")
    if max(xs, default=0) >> m or max(ys, default=0) >> k:
        raise ValueError(f"a value does not fit its length ({m} or {k} bits)")
    ones = ((1 << width * len(xs)) - 1) // ((1 << width) - 1)

    def packed(values) -> int:
        return int.from_bytes(array(typecode, values).tobytes(), sys.byteorder)

    def fields(v: int) -> array:
        return array(typecode, v.to_bytes(width // 8 * len(xs), sys.byteorder))

    vp, vn = _columns(packed(xs) ^ low * ones, packed(ys), k, low, ones)
    return [k + p.bit_count() - q.bit_count() for p, q in zip(fields(vp), fields(vn))]


def random_pattern(
    rng: random.Random, n: int, counts: tuple[int, int, int] | None = None
) -> ErrorPattern:
    """Draw a pattern with t+s+r <= MAX_EDITS (or the exact given counts)."""
    if counts is None:
        triples = [
            (t, s, r)
            for t in range(MAX_EDITS + 1)
            for s in range(MAX_EDITS + 1 - t)
            for r in range(MAX_EDITS + 1 - t - s)
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
