"""Edit operations, error balls, and edit distance.

An error pattern expresses all of its positions in the original word's frame:
substitutions and deletions name 1-based indices of the original word,
insertions name gaps 0..n (gap g sits between symbols g and g+1).  The fixed
application order is substitute, delete, insert.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement, product

from .words import Word

MAX_BALL_EDITS = 4


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
            dels.append(int(rest))
            continue
        pos_text, eq, sym_text = rest.partition("=")
        if eq != "=" or sym_text not in ("0", "1"):
            raise ValueError(f"malformed pattern item {item!r}")
        if kind == "sub":
            subs.append((int(pos_text), int(sym_text)))
        elif kind == "ins":
            ins.append((int(pos_text), int(sym_text)))
        else:
            raise ValueError(f"unknown edit kind {kind!r} in {item!r}")
    return ErrorPattern(tuple(subs), tuple(dels), tuple(ins))


def format_pattern(p: ErrorPattern) -> str:
    items = [f"sub@{pos}={sym}" for pos, sym in p.substitutions]
    items += [f"del@{pos}" for pos in p.deletions]
    items += [f"ins@{gap}={sym}" for gap, sym in p.insertions]
    return ",".join(items)


def apply_errors(x: Word, p: ErrorPattern) -> Word:
    """Apply a pattern to ``x``; result length is |x| + t - s."""
    n = len(x)
    p.validate_for(n)
    subbed = dict(p.substitutions)
    deleted = set(p.deletions)
    by_gap: dict[int, list[int]] = {}
    for gap, sym in p.insertions:
        by_gap.setdefault(gap, []).append(sym)
    out: list[int] = []
    for g in range(n + 1):
        out.extend(by_gap.get(g, ()))
        pos = g + 1
        if pos <= n and pos not in deleted:
            out.append(subbed.get(pos, x[g]))
    return Word(out)


def _insertion_patterns(n: int, t: int):
    for gaps in combinations_with_replacement(range(n + 1), t):
        for syms in product((0, 1), repeat=t):
            yield tuple(zip(gaps, syms))


def exact_patterns(n: int, t: int, s: int, r: int):
    """Every pattern with exactly t insertions, s deletions, r substitutions
    against a word of length n."""
    if min(t, s, r) < 0:
        raise ValueError("edit counts must be non-negative")
    if s > n:
        raise ValueError(f"cannot delete {s} symbols from a word of length {n}")
    positions = range(1, n + 1)
    for dels in combinations(positions, s):
        remaining = [p for p in positions if p not in dels]
        for sub_pos in combinations(remaining, r):
            for syms in product((0, 1), repeat=r):
                for ins in _insertion_patterns(n, t):
                    yield ErrorPattern(tuple(zip(sub_pos, syms)), dels, ins)


def all_patterns(n: int, max_edits: int = 2):
    """Every pattern with t + s + r <= max_edits, in a fixed order."""
    for total in range(max_edits + 1):
        for t in range(total + 1):
            for s in range(total - t + 1):
                r = total - t - s
                if s > n:
                    continue
                yield from exact_patterns(n, t, s, r)


def error_ball(x: Word, t: int, s: int, r: int) -> set[Word]:
    """All words reachable from ``x`` by exactly t insertions, s deletions,
    and r substitutions (trivial substitutions included), deduplicated."""
    if t + s + r > MAX_BALL_EDITS:
        raise ValueError(f"ball enumeration is bounded at {MAX_BALL_EDITS} total edits")
    return {apply_errors(x, p) for p in exact_patterns(len(x), t, s, r)}


def edit_distance(x: Word, y: Word) -> int:
    """Unit-cost edit distance (insertions, deletions, substitutions)."""
    a, b = list(x), list(y)
    if len(a) < len(b):
        a, b = b, a
    prev = list(range(len(b) + 1))
    cur = [0] * (len(b) + 1)
    for i in range(1, len(a) + 1):
        cur[0] = i
        ai = a[i - 1]
        for j in range(1, len(b) + 1):
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ai != b[j - 1]))
        prev, cur = cur, prev
    return prev[len(b)]


def random_pattern(rng: random.Random, n: int, max_edits: int = 2,
                   counts: tuple[int, int, int] | None = None) -> ErrorPattern:
    """Draw a pattern with t+s+r <= max_edits (or the exact given counts)."""
    if counts is None:
        triples = [
            (t, s, r)
            for t in range(max_edits + 1)
            for s in range(max_edits + 1 - t)
            for r in range(max_edits + 1 - t - s)
            if s <= n
        ]
        t, s, r = triples[rng.randrange(len(triples))]
    else:
        t, s, r = counts
    dels = tuple(sorted(rng.sample(range(1, n + 1), s)))
    sub_candidates = [p for p in range(1, n + 1) if p not in dels]
    subs = tuple((p, rng.randint(0, 1)) for p in sorted(rng.sample(sub_candidates, r)))
    ins = tuple((rng.randint(0, n), rng.randint(0, 1)) for _ in range(t))
    return ErrorPattern(subs, dels, ins)
