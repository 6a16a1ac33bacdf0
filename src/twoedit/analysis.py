"""Classification and separation of error pairs on equal-length words.

Two equal-length words that share a common corruption (s deletions plus r
substitutions away from each) admit a monotone alignment whose unmatched and
mismatched positions are the errors.  When all error positions are pairwise
far apart, each error has a well-defined local type and type value: the
change it causes in the adjacent-pair count within a three-symbol window.
When errors sit too close together, a matched filler word can be spliced
into both sequences at a cut that no matched pair crosses; this pulls the
errors apart while preserving the adjacency-count difference exactly and
embedding the old profile difference into the new one as a subsequence.
An alignment is its error positions: the sorted U deletions, the U
positions of the substitutions, and the sorted V deletions.  The matching is
implied, since the t-th undeleted position of U is matched to the t-th
undeleted one of V, so checking an alignment costs O(#errors) operations on
the packed words: with the deletions shifted out, the two words may differ
only at the ranks of the substitutions, and classification reads each
error's three-symbol window as three bits of a packed word.  By the same
ranks, a cut (i, j) crosses no matched pair exactly when as many matched
positions of U lie at or before i as of V at or before j.

Separation sorts a pair's errors once.  A cut keeps the errors before it and
moves every error after it by the filler's length, so the order holds from
round to round and no gap left of the cut narrows again.  No position
between the last error kept and the first one moved is deleted, so the cut
is a few additions on the kept deletion counts.  A cut splices the filler
into both packed words with shifts and masks, so each round's words are the
next round's "before" words.  ``separate_errors`` does not check the
alignment ``find_relation`` just built; ``classify_errors`` checks the one it
is given, in O(#errors).

Separation needs no round budget.  A pair has at most four errors, so at
most three gaps.  Each round splices a filler of length >= 2 into the
leftmost gap below k and moves every later error by that length, so it ends
within the sum of ceil(max(0, k - gap) / 2) <= 3 * ceil(k / 2) rounds.

The relation of a pair comes from one family of reach sets for every shape.
A state (i, j, a) has consumed i symbols of x and j of y while x still owes
a deletions; y then owes b = a + i - j, because both sides have matched
i - (s - a) = j - (s - b) symbols.  Only 0 <= a, b <= 2 occur, giving nine
cells 3a + b, and since no cell depends on the total s, the cell a = b = s
of row 0 prices every shape with s deletions a side.  Only costs 0..4 are
ever read, so each cost t and cell is one integer: bit n - i of reach[t][k]
is set iff the state of row i in cell k can finish with at most t
mismatched pairs.  Each set is the least fixed point of its moves.  Its
seeds are row n of cell 0, a mismatch from reach[t - 1] of the same cell, a
V deletion from cell k - 1 in the same row and a U deletion from cell k - 3
one row down; a match then climbs a run of equal pairs, and one addition
carries every seed up its run at once (Myers' bit-parallel edit distance
works the same way).  The sets are built on demand: reading a cell first
builds the cells its seeds read, so a shape's test builds only the cells
(t, 3a + b) with t <= 2r and a, b <= s, and a pair answered by a small
shape never builds the others.  A walk along an optimal path reads the
move masks that seeded the sets: it takes a move only where the move's
mask holds the state's row, and asks whether the move's next state costs
exactly the remaining rem, less the move's price.  A state costs at most a
move's price plus the cost of the move's next state, so that next state
never costs less, and "exactly" is "at most": one bit of reach[rem], or of
reach[rem - 1] after a substitution.  A match changes neither the cell nor
rem, so the rows where a match is allowed and its next state is in
reach[rem] form runs, and the walk takes a whole run of matches in one
step, down to the run's first gap.

All positions below are 1-based, matching the convention used by error
patterns and reports.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import lru_cache
from itertools import islice
from operator import lt
from typing import NamedTuple

from .words import Word, pad

SUB = "sub"
DEL_OVER = "del_over"
DEL_UNDER = "del_under"

_VALUE_SETS = {SUB: (-2, 0, 2), DEL_OVER: (0, 2), DEL_UNDER: (-2, 0)}


class AlignmentError(ValueError):
    """An alignment is inconsistent with the words it claims to relate."""


class SeparationError(ValueError):
    """Error positions are too close for the requested operation."""


class NoRelationError(ValueError):
    """No deletion/substitution relation within the supported budget."""


# A NamedTuple may not define __new__, so the subclass ErrorTypeValue checks the fields.
class _ErrorTypeFields(NamedTuple):
    kind: str
    value: int
    position: int


class ErrorTypeValue(_ErrorTypeFields):
    """One classified error: its kind, value, and own-sequence position."""

    __slots__ = ()

    def __new__(cls, kind: str, value: int, position: int) -> "ErrorTypeValue":
        if kind not in _VALUE_SETS:
            raise ValueError(f"unknown error kind {kind!r}")
        if value not in _VALUE_SETS[kind]:
            raise ValueError(f"value {value} invalid for kind {kind}")
        return tuple.__new__(cls, (kind, value, position))

    @classmethod
    def _make(cls, iterable) -> "ErrorTypeValue":
        return cls(*iterable)  # the checks above, for ``_replace`` too


class Alignment(NamedTuple):
    """Monotone matching between two equal-length words U and V, given by its
    error positions, each tuple strictly ascending: ``dels_u`` and ``dels_v``
    are the deleted positions of U and of V, and ``subs`` the U positions of
    the substitution pairs (a substitution may join equal symbols, the
    trivial case).  The matching is implied: the t-th undeleted position of
    U is matched to the t-th undeleted position of V."""

    dels_u: tuple[int, ...]
    subs: tuple[int, ...]
    dels_v: tuple[int, ...]


def check_alignment(u: Word, v: Word, alignment: Alignment) -> None:
    """Raise AlignmentError unless each position tuple strictly ascends within
    [1, n], both words lose equally many symbols, no substitution sits on a
    deleted position, and every matched pair but the substitutions joins
    equal symbols."""
    n = len(u)
    if len(v) != n:
        raise AlignmentError("aligned words must have equal length")
    dels_u, subs, dels_v = alignment.dels_u, alignment.subs, alignment.dels_v
    for name, ps in (("U deletion", dels_u), ("substitution", subs), ("V deletion", dels_v)):
        if ps and not (1 <= ps[0] and ps[-1] <= n and all(map(lt, ps, ps[1:]))):
            raise AlignmentError(f"{name} positions {ps} do not ascend strictly within [1, {n}]")
    if len(dels_u) != len(dels_v):
        raise AlignmentError("a del/sub pair needs equally many deletions on each side")
    m = n - len(dels_u)  # matched pairs; the pair of rank k is bit m - k of a kept word
    allowed = 0
    for a in subs:
        t = bisect_right(dels_u, a)
        if t and dels_u[t - 1] == a:
            raise AlignmentError(f"substitution at U position {a} is deleted")
        allowed |= 1 << (m - a + t)
    wrong = (_kept(u.value, n, dels_u) ^ _kept(v.value, n, dels_v)) & ~allowed
    if wrong:
        k = m - wrong.bit_length() + 1
        a, b = _kth(k, dels_u), _kth(k, dels_v)
        raise AlignmentError(f"match at ({a}, {b}) joins unequal symbols")


def _kept(value: int, n: int, dels) -> int:
    """A packed n-symbol word with its symbols at the ascending 1-based
    positions ``dels`` shifted out."""
    for p in dels:  # ascending, so the n - p symbols after p are still there
        low = n - p
        value = (value >> (low + 1) << low) | (value & ((1 << low) - 1))
    return value


def _rank(p: int, dels: list[int]) -> int:
    """Matched positions at or before position ``p`` of a side whose sorted
    deletions are ``dels``."""
    return p - bisect_right(dels, p)


def _kth(k: int, dels: list[int]) -> int:
    """Position of the k-th matched (undeleted) symbol of a side whose sorted
    deletions are ``dels``."""
    for d in dels:
        if d > k:
            break
        k += 1
    return k


# f3 of a three-symbol window abc packed as 4a + 2b + c: its unequal adjacent
# pairs; deleting b gains f3 - f2, which is 2 exactly for 010 and 101
_F3 = (0, 1, 2, 1, 1, 2, 1, 0)
_DEL_GAIN = (0, 0, 2, 0, 0, 2, 0, 0)
_KINDS = (DEL_OVER, SUB, DEL_UNDER)


def _errors(alignment: Alignment) -> list[tuple[int, int]]:
    """The error positions tagged 0 (U deletion), 1 (substitution) or 2 (V
    deletion), sorted: a position holds at most one U error and one V
    deletion, the U error first."""
    return sorted(
        [(p, 0) for p in alignment.dels_u]
        + [(p, 1) for p in alignment.subs]
        + [(p, 2) for p in alignment.dels_v]
    )


def classify_errors(u: Word, v: Word, alignment: Alignment) -> list[ErrorTypeValue]:
    """Type and type value of every error, ordered by own-sequence position.

    Substitutions compare the three-symbol window around the error before and
    after writing the matched symbol; the left neighbour is read through the
    matching because it may itself be a substitution.  Deletions compare the
    window against the two-symbol remainder on their own side.  A window of
    position p is bits n - p + 1 .. n - p - 1 of its packed word.
    """
    check_alignment(u, v, alignment)
    return _classify(u, v, alignment)


def _classify(u: Word, v: Word, alignment: Alignment) -> list[ErrorTypeValue]:
    dels_u, dels_v = alignment.dels_u, alignment.dels_v
    s = len(dels_u)
    errors = _errors(alignment)
    for (a, _), (b, _) in zip(errors, errors[1:]):
        if b - a < 2 * s + 1:
            raise SeparationError(
                f"error positions {a} and {b} are closer than {2 * s + 1}; windows overlap"
            )
    n = len(u)
    uv, vv = u.value, v.value
    out = []
    for p, c in errors:
        if not 2 <= p <= n - 1:
            raise SeparationError(f"error position {p} outside the interior [2, {n - 1}]")
        if c == 1:  # left and tau: the V symbols matched to U positions p - 1 and p
            left = (vv >> (n - _kth(_rank(p - 1, dels_u), dels_v)) & 1) << 2
            tau = vv >> (n - _kth(_rank(p, dels_u), dels_v)) & 1
            w = uv >> (n - p - 1) & 3  # U symbols p and p + 1
            e = _F3[left | w] - _F3[left | tau << 1 | w & 1]
        elif c == 2:
            e = -_DEL_GAIN[vv >> (n - p - 1) & 7]
        else:
            e = _DEL_GAIN[uv >> (n - p - 1) & 7]
        # kind and value come from the tables, so the record skips the checks
        out.append(tuple.__new__(ErrorTypeValue, (_KINDS[c], e, p)))
    return out


def pair_type(u: Word, v: Word, alignment: Alignment) -> tuple[tuple[str, ...], tuple[int, ...]]:
    """The kinds and values of all errors in own-position order."""
    classified = classify_errors(u, v, alignment)
    return tuple(e.kind for e in classified), tuple(e.value for e in classified)


# --- segmentation ---------------------------------------------------------


def _cut_ok(alignment: Alignment, n: int, i: int, j: int) -> bool:
    """No matched pair crosses the cut (i, j) of two n-symbol words: as many
    lie at or before i in U as at or before j in V."""
    if not (1 <= i <= n - 1 and 1 <= j <= n - 1):
        return False
    return _rank(i, alignment.dels_u) == _rank(j, alignment.dels_v)


def _cut(x: Word, y: Word, n: int, i: int, j: int) -> tuple[Word, Word, Word]:
    """The n-symbol words ``x`` and ``y`` with the filler of the cut (i, j)
    spliced in, and the filler."""
    xv, yv = x.value, y.value
    if i == j:
        xt, yt = xv >> (n - i - 1), yv >> (n - i - 1)  # x[i - 1] x[i] are the low 2 bits
        z = _meet_filler((xt >> 1) & 1, xt & 1, (yt >> 1) & 1, yt & 1)
        zv, length = (z[0] << 1) | z[1], 2
    else:
        if i < j:  # x[i:j] + y[j - 1]
            t, width, body, last = n - j, j - i, xv, yv
        else:  # y[j:i] + x[i - 1]
            t, width, body, last = n - i, i - j, yv, xv
        zv, length = (((body >> t) & ((1 << width) - 1)) << 1) | ((last >> t) & 1), width + 1
    return (
        Word.from_int(_splice(xv, n - i, zv, length), n + length),
        Word.from_int(_splice(yv, n - j, zv, length), n + length),
        Word.from_int(zv, length),
    )


def _splice(value: int, tail: int, zv: int, length: int) -> int:
    """Insert the ``length``-bit ``zv`` into a packed word before its last
    ``tail`` symbols."""
    return (((value >> tail) << length | zv) << tail) | (value & ((1 << tail) - 1))


def _meet_filler(xi: int, xi1: int, yi: int, yi1: int) -> list[int]:
    """Length-2 filler for a cut at matching indices, chosen so the splice
    changes the adjacency count of both sequences by the same amount."""
    if xi == yi:
        return [xi, xi]
    if xi1 == yi1:
        return [xi1, xi1]
    if xi == yi1 and yi == xi1:
        return [xi, xi]
    return [xi, yi]


def segment_once(x: Word, y: Word, alignment: Alignment, cut: tuple[int, int]) -> tuple[Word, Word]:
    """Splice the cut's filler into both words; lengths grow by the filler's.

    The cut (i, j) inserts after position i of ``x`` and after position j of
    ``y``; it is rejected unless every matched pair lies entirely on one side.
    """
    check_alignment(x, y, alignment)
    i, j = cut
    if not _cut_ok(alignment, len(x), i, j):
        raise SeparationError(f"cut ({i}, {j}) crosses a matched pair or is out of range")
    return _cut(x, y, len(x), i, j)[:2]


# --- canonical alignment search -------------------------------------------

# (a, b, a - b + 2) of cell k = 3a + b: the debts and the index of the offset
# d = j - i = a - b in the per-offset masks
_CELLS = tuple((a, b, a - b + 2) for a in range(3) for b in range(3))
_MAX_COST = 4  # the 2r of the largest shape, r = 2


def _span(lo: int, hi: int) -> int:
    """Bits lo..hi set, none if hi < lo."""
    return ((1 << (hi - lo + 1)) - 1) << lo if lo <= hi else 0


@lru_cache(maxsize=256)
def _row_masks(n: int) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """Masks of the rows i (bit n - i) of length-n reach sets: those whose U
    symbol is interior, i in [1, n - 2]; and for each offset d = j - i in
    -2..2, those pairing two symbols, i and j in [0, n - 1], and those whose
    V symbol is interior, i in [0, n - 1] and j in [1, n - 2]."""
    pairs = tuple(_span(max(1, 1 + d), min(n, n + d)) for d in range(-2, 3))
    del_v = tuple(_span(max(1, 2 + d), min(n, n - 1 + d)) for d in range(-2, 3))
    return _span(2, n - 1), pairs, del_v


def _fill_runs(seed: int, runs: int) -> int:
    """``seed`` closed under "bit p set and bit p + 1 in ``runs`` sets bit
    p + 1": each seed bit climbs the run of ``runs`` bits just above it.
    One addition carries through every run that a seed bit enters."""
    carry = (seed << 1) & runs
    return seed | carry | (runs & ((runs + carry) ^ runs))


class _ReachSets:
    """The reach sets of one pair, each cell built on its first read.

    ``cell(t, 3a + b)``: bit n - i is set iff the alignment can be finished
    with at most t mismatched pairs after consuming i of x and j of y, while
    x still owes a deletions and y owes b = a + i - j, 0 <= a, b <= 2, for
    t = 0..4 (deletions and mismatches are restricted to interior
    positions).  No cell depends on s: bit n of cell(t, 4s) tells whether a
    shape with s deletions a side fits t mismatches.  Building a cell builds
    the cells its seeds read first, so ``built[t][k]`` holds a cell once the
    closure of a read reached it, else None.  Bit n - i of equal[d + 2],
    unequal[d + 2], interior or del_v[d + 2] allows that move out of row i,
    d = j - i."""

    __slots__ = ("built", "equal", "unequal", "interior", "del_v")

    def __init__(self, equal: list[int], unequal: list[int], interior: int, del_v) -> None:
        self.built: list[list[int | None]] = [[None] * 9 for _ in range(_MAX_COST + 1)]
        self.equal, self.unequal, self.interior, self.del_v = equal, unequal, interior, del_v

    def cell(self, t: int, k: int) -> int:
        got = self.built[t][k]
        if got is None:
            a, b, e = _CELLS[k]
            seed = 0 if k else 1  # row n with nothing owed
            if t:
                seed |= self.unequal[e] & (self.cell(t - 1, k) << 1)
            if b:
                seed |= self.del_v[e] & self.cell(t, k - 1)
            if a:
                seed |= self.interior & (self.cell(t, k - 3) << 1)
            got = self.built[t][k] = _fill_runs(seed, self.equal[e])
        return got


def _reach_sets(x: Word, y: Word) -> _ReachSets:
    """The pair's reach sets, none built yet, with the move masks that seed
    them."""
    interior, pairs, del_v = _row_masks(len(x))
    xv, yv = x.value << 1, y.value
    equal, unequal = [], []
    for e in range(5):  # the offset d = e - 2 puts y[i + d] beside x[i]
        diff = xv ^ (yv << (e - 1) if e else yv >> 1)
        equal.append(pairs[e] & ~diff)
        unequal.append(pairs[e] & diff & interior)
    return _ReachSets(equal, unequal, interior, del_v)


def _reconstruct(n: int, s: int, reach: _ReachSets) -> tuple[list[int], list[int], list[int]]:
    """U deletions, substitutions (U positions) and V deletions of the
    leftmost optimal alignment, preferring match > sub > del_u > del_v.
    The walk reads only cells (t, 3a + b) with t <= rem and a, b <= s, the
    closure of the first cell (rem, 4s) that admits row 0, so all are built."""
    rem = next(t for t in range(_MAX_COST + 1) if reach.cell(t, 4 * s) >> n & 1)
    built, equal, unequal, interior, del_v = (
        reach.built, reach.equal, reach.unequal, reach.interior, reach.del_v
    )
    i = j = 0
    a = b = s
    dels_u: list[int] = []
    subs: list[int] = []
    dels_v: list[int] = []
    while i < n or j < n:
        k, e, row = 3 * a + b, a - b + 2, n - i  # row i's bit; row i + 1's is row - 1
        run = equal[e] & (built[rem][k] << 1)  # rows whose match stays in reach
        if run >> row & 1:  # take every match down to the run's first gap
            step = row + 1 - (~run & ((2 << row) - 1)).bit_length()
            i += step
            j += step
        elif rem and unequal[e] >> row & 1 and built[rem - 1][k] >> (row - 1) & 1:
            subs.append(i + 1)
            i += 1
            j += 1
            rem -= 1
        elif a and interior >> row & 1 and built[rem][k - 3] >> (row - 1) & 1:
            dels_u.append(i + 1)
            i += 1
            a -= 1
        elif b and del_v[e] >> row & 1 and built[rem][k - 1] >> row & 1:
            dels_v.append(j + 1)
            j += 1
            b -= 1
        else:
            raise AssertionError("alignment reconstruction lost the optimal path")
    return dels_u, subs, dels_v


_RELATION_ORDER = ((0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0))


def find_relation(
    x: Word, y: Word, s: int | None = None, r: int | None = None
) -> tuple[int, int, Alignment]:
    """A relation carrying ``x`` to ``y``: s interior deletions on each side
    plus 2r substitution pairs (trivial fills added to reach an even count).
    By default the smallest relation (s + r, then s) is chosen; passing s
    and/or r pins the shape.  One family of reach sets is made per call
    and serves every shape, building each cell on its first read: s
    deletions a side fit 2r mismatches when row 0 of cell a = b = s is in
    reach[2r], where x still owes a = s deletions and y owes
    b = a + i - j = s.  The 2r substitutions, mismatches and fills, take
    interior U positions that are not deleted: whatever the alignment, those
    left over number n - 2 - s - 2r, so a shape with r >= 1 fits only if
    s + 2r <= n - 2.  Raises NoRelationError if nothing fits within
    s + r = 2."""
    if len(x) != len(y):
        raise ValueError("related words must have equal length")
    n = len(x)
    reach = _reach_sets(x, y)
    top = 1 << n
    for cs, cr in _RELATION_ORDER:
        if (
            (s is None or cs == s)
            and (r is None or cr == r)
            and reach.cell(2 * cr, 4 * cs) & top
            and (not cr or cs + 2 * cr <= n - 2)
        ):
            dels_u, subs, dels_v = _reconstruct(n, cs, reach)
            subs = _with_trivial_fills(subs, dels_u, 2 * cr, n)
            return cs, cr, Alignment(tuple(dels_u), subs, tuple(dels_v))
    shape = "" if s is None and r is None else f" of shape (s={s}, r={r})"
    raise NoRelationError(
        f"no relation{shape} with at most two deletions+substitutions joins {x} and {y}"
    )


def _with_trivial_fills(subs: list[int], dels_u: list[int], wanted: int, n: int) -> tuple[int, ...]:
    """``subs`` topped up to ``wanted`` with trivial substitutions at the
    first interior U positions that are neither deleted nor substituted."""
    need = wanted - len(subs)
    if need < 0:
        raise AssertionError("reconstruction used more substitutions than allowed")
    if need:
        free = (p for p in range(2, n) if p not in dels_u and p not in subs)
        subs = sorted(subs + list(islice(free, need)))
    return tuple(subs)


# --- full separation pipeline ----------------------------------------------


class SegmentationRound(NamedTuple):
    x_before: Word
    y_before: Word
    cut: tuple[int, int]
    filler: Word
    x_after: Word
    y_after: Word


class Separation(NamedTuple):
    """Outcome of pulling the errors of a word pair at least k apart."""

    u: Word
    v: Word
    s: int
    r: int
    alignment: Alignment
    rounds: tuple[SegmentationRound, ...]

    @property
    def positions(self) -> tuple[int, ...]:
        """The error positions as one block: U deletions, substitutions, V
        deletions."""
        a = self.alignment
        return a.dels_u + a.subs + a.dels_v


def _find_cut(errors: list[tuple[int, int]], m: int, n: int, s: int):
    """A cut of two n-symbol words with s deletions a side that keeps
    errors[:m] in place and shifts errors[m:], or None.

    A U cut i lies at or after the last U error kept, i_lo, and before the
    first one shifted, i_hi + 1.  No position between them is deleted, so i
    has i - du matched positions at or before it, du being the U deletions
    kept; likewise for V.  The cut is (k + du, k + dv) for the smallest
    k >= 1 that fits both ranges and leaves a matched pair after it."""
    i_lo = j_lo = 1
    i_hi = j_hi = n
    du = dv = 0
    for p, c in errors[:m]:
        if c == 2:
            j_lo, dv = p, dv + 1
        else:
            i_lo, du = p, du + 1 - c
    for p, c in reversed(errors[m:]):
        if c == 2:
            j_hi = p
        else:
            i_hi = p
    k = max(1, i_lo - du, j_lo - dv)
    if k > min(n - s - 1, i_hi - 1 - du, j_hi - 1 - dv):
        return None
    return k + du, k + dv


def separate_errors(
    x: Word,
    y: Word,
    k: int,
    s: int | None = None,
    r: int | None = None,
) -> Separation:
    """Pad ``x`` and ``y``, find their smallest deletion/substitution
    relation (or the pinned one), and splice fillers until all error
    positions are pairwise at distance >= k.  Each round preserves the
    adjacency-count difference and never decreases the sign-preserving number
    of the profile difference."""
    if k < 1:
        raise ValueError("separation distance must be at least 1")
    if len(x) != len(y):
        raise ValueError("words must have equal length")
    u, v = pad(x), pad(y)
    s, r, alignment = find_relation(u, v, s, r)
    errors = _errors(alignment)
    rounds: list[SegmentationRound] = []
    n, m, end = len(u), 1, len(errors)  # a cut moves no gap left of its own: resume there
    while True:
        while m < end and errors[m][0] - errors[m - 1][0] >= k:
            m += 1
        if m >= end:
            break
        cut = _find_cut(errors, m, n, s)
        if cut is None and errors[m - 1][0] == errors[m][0]:  # either may go first
            errors[m - 1], errors[m] = errors[m], errors[m - 1]
            cut = _find_cut(errors, m, n, s)
            if cut is None:
                errors[m - 1], errors[m] = errors[m], errors[m - 1]
        if cut is None:
            shown = [(p, "v" if c == 2 else "u") for p, c in errors]
            raise SeparationError(f"no matched cut separates errors {shown} in {u} / {v}")
        x_after, y_after, z = _cut(u, v, n, *cut)
        rounds.append(SegmentationRound(u, v, cut, z, x_after, y_after))
        u, v, length = x_after, y_after, len(z)
        n += length
        errors[m:] = [(p + length, c) for p, c in errors[m:]]  # the order stays sorted
    kinds: tuple[list[int], ...] = ([], [], [])
    for p, c in errors:
        kinds[c].append(p)
    alignment = Alignment(*map(tuple, kinds))
    return Separation(u=u, v=v, s=s, r=r, alignment=alignment, rounds=tuple(rounds))
