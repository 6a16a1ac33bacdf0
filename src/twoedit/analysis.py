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
only at the ranks of the substitutions.  By the same ranks, a cut (i, j)
crosses no matched pair exactly when as many matched positions of U lie at
or before i as of V at or before j, and both counts and the cut search cost
O(#errors), not O(n).  A cut splices the filler into both packed words with
shifts and masks, so each round's words are the next round's "before"
words.  Only alignments from outside are checked: ``separate_errors`` trusts
the one ``find_relation`` just built.

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
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice

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


@dataclass(frozen=True)
class ErrorTypeValue:
    """One classified error: its kind, value, and own-sequence position."""

    kind: str
    value: int
    position: int

    def __post_init__(self) -> None:
        if self.kind not in _VALUE_SETS:
            raise ValueError(f"unknown error kind {self.kind!r}")
        if self.value not in _VALUE_SETS[self.kind]:
            raise ValueError(f"value {self.value} invalid for kind {self.kind}")


@dataclass(frozen=True)
class Alignment:
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
        if ps and not (1 <= ps[0] and ps[-1] <= n and all(a < b for a, b in zip(ps, ps[1:]))):
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


def _f2(a: str, b: str) -> int:
    return int(a != b)


def _f3(a: str, b: str, c: str) -> int:
    return int(a != b) + int(b != c)


def classify_errors(u: Word, v: Word, alignment: Alignment) -> list[ErrorTypeValue]:
    """Type and type value of every error, ordered by own-sequence position.

    Substitutions compare the three-symbol window around the error before and
    after writing the matched symbol; the left neighbour is read through the
    matching because it may itself be a substitution.  Deletions compare the
    window against the two-symbol remainder on their own side.
    """
    check_alignment(u, v, alignment)
    dels_u, subs, dels_v = alignment.dels_u, alignment.subs, alignment.dels_v
    s = len(dels_u)
    entries = sorted(
        [(p, DEL_OVER) for p in dels_u]
        + [(p, SUB) for p in subs]
        + [(p, DEL_UNDER) for p in dels_v]
    )
    values = [p for p, _ in entries]
    for a, b in zip(values, values[1:]):
        if b - a < 2 * s + 1:
            raise SeparationError(
                f"error positions {a} and {b} are closer than {2 * s + 1}; windows overlap"
            )
    n = len(u)
    su, sv = str(u), str(v)

    def tau_u(p: int) -> str:
        """The V symbol matched to (undeleted) U position ``p``."""
        return sv[_kth(_rank(p, dels_u), dels_v) - 1]

    out = []
    for p, kind in entries:
        if not 2 <= p <= n - 1:
            raise SeparationError(f"error position {p} outside the interior [2, {n - 1}]")
        if kind == SUB:
            left = tau_u(p - 1)
            e = _f3(left, su[p - 1], su[p]) - _f3(left, tau_u(p), su[p])
        elif kind == DEL_OVER:
            e = _f3(su[p - 2], su[p - 1], su[p]) - _f2(su[p - 2], su[p])
        else:
            e = _f2(sv[p - 2], sv[p]) - _f3(sv[p - 2], sv[p - 1], sv[p])
        out.append(ErrorTypeValue(kind, e, p))
    return out


def pair_type(u: Word, v: Word, alignment: Alignment) -> tuple[tuple[str, ...], tuple[int, ...]]:
    """The kinds and values of all errors in own-position order."""
    classified = classify_errors(u, v, alignment)
    return tuple(e.kind for e in classified), tuple(e.value for e in classified)


# --- segmentation ---------------------------------------------------------


class _PairState:
    """A word pair and its error positions; the t-th undeleted position of
    ``x`` is matched to the t-th undeleted one of ``y``.

    The alignment must already be known valid (checked, or built by
    ``find_relation``), so its position tuples arrive sorted."""

    __slots__ = ("x", "y", "subs", "dels_u", "dels_v")

    def __init__(self, x: Word, y: Word, alignment: Alignment):
        self.x = x
        self.y = y
        self.subs = alignment.subs
        self.dels_u = alignment.dels_u
        self.dels_v = alignment.dels_v

    def error_entries(self) -> list[tuple[int, str]]:
        """Error positions tagged by owning side, sorted by (position, side)."""
        return sorted(
            [(p, "u") for p in self.dels_u]
            + [(p, "u") for p in self.subs]
            + [(p, "v") for p in self.dels_v]
        )

    def cut_ok(self, i: int, j: int) -> bool:
        """No matched pair crosses the cut: as many lie at or before i in U
        as at or before j in V."""
        if not (1 <= i <= len(self.x) - 1 and 1 <= j <= len(self.y) - 1):
            return False
        return _rank(i, self.dels_u) == _rank(j, self.dels_v)

    def filler(self, i: int, j: int) -> tuple[int, int]:
        """Packed value and length of the filler for the cut (i, j)."""
        n = len(self.x)
        xv, yv = self.x.value, self.y.value
        if i == j:
            xt, yt = xv >> (n - i - 1), yv >> (n - i - 1)  # x[i - 1] x[i] are the low 2 bits
            z = _meet_filler((xt >> 1) & 1, xt & 1, (yt >> 1) & 1, yt & 1)
            return (z[0] << 1) | z[1], 2
        if i < j:  # x[i:j] + y[j - 1]
            t, width, body, last = n - j, j - i, xv, yv
        else:  # y[j:i] + x[i - 1]
            t, width, body, last = n - i, i - j, yv, xv
        return (((body >> t) & ((1 << width) - 1)) << 1) | ((last >> t) & 1), width + 1

    def apply_cut(self, i: int, j: int) -> Word:
        zv, length = self.filler(i, j)
        n = len(self.x)
        self.x = Word.from_int(_splice(self.x.value, n - i, zv, length), n + length)
        self.y = Word.from_int(_splice(self.y.value, n - j, zv, length), n + length)
        self.subs = [p + length if p > i else p for p in self.subs]
        self.dels_u = [p + length if p > i else p for p in self.dels_u]
        self.dels_v = [p + length if p > j else p for p in self.dels_v]
        return Word.from_int(zv, length)


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
    state = _PairState(x, y, alignment)
    i, j = cut
    if not state.cut_ok(i, j):
        raise SeparationError(f"cut ({i}, {j}) crosses a matched pair or is out of range")
    state.apply_cut(i, j)
    return state.x, state.y


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
    b = a + i - j = s.  Raises NoRelationError if nothing fits within
    s + r = 2."""
    if len(x) != len(y):
        raise ValueError("related words must have equal length")
    reach = _reach_sets(x, y)
    top = 1 << len(x)
    for cs, cr in _RELATION_ORDER:
        if (s is None or cs == s) and (r is None or cr == r) and reach.cell(2 * cr, 4 * cs) & top:
            dels_u, subs, dels_v = _reconstruct(len(x), cs, reach)
            subs = _with_trivial_fills(subs, dels_u, 2 * cr, len(x))
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
        fills = list(islice(free, need))
        if len(fills) < need:
            raise NoRelationError("not enough interior matches for trivial substitution fills")
        subs = sorted(subs + fills)
    return tuple(subs)


# --- full separation pipeline ----------------------------------------------


@dataclass(frozen=True)
class SegmentationRound:
    x_before: Word
    y_before: Word
    cut: tuple[int, int]
    filler: Word
    x_after: Word
    y_after: Word


@dataclass(frozen=True)
class Separation:
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


def _find_cut(state: _PairState, errors, m: int):
    """A cut keeping errors[:m] in place and shifting errors[m:], or None.

    With (a_k, b_k) the k-th matched pair, the cut is (max(a_k, i_lo),
    max(b_k, j_lo)) for the smallest k that puts i_lo and j_lo before the
    (k+1)-th pair and the k-th pair at or before i_hi and j_hi."""
    big = len(state.x)
    lo = {"u": 1, "v": 1}
    hi = {"u": big, "v": big}
    for p, side in errors[:m]:
        if p > lo[side]:
            lo[side] = p
    for p, side in errors[m:]:
        if p < hi[side]:
            hi[side] = p
    i_lo, j_lo = lo["u"], lo["v"]
    i_hi, j_hi = hi["u"] - 1, hi["v"] - 1
    if i_lo > i_hi or j_lo > j_hi:
        return None
    dels_u, dels_v = state.dels_u, state.dels_v
    k = max(1, _rank(i_lo, dels_u), _rank(j_lo, dels_v))
    if k > min(big - len(dels_u) - 1, _rank(i_hi, dels_u), _rank(j_hi, dels_v)):
        return None
    return max(_kth(k, dels_u), i_lo), max(_kth(k, dels_v), j_lo)


def _next_cut(state: _PairState, k: int):
    """Cut widening the leftmost gap below k between adjacent errors, or None
    if there is none; two errors at one position may be cut in either order."""
    errors = state.error_entries()
    m = next((m for m in range(1, len(errors)) if errors[m][0] - errors[m - 1][0] < k), None)
    if m is None:
        return None
    cut = _find_cut(state, errors, m)
    if cut is None and errors[m - 1][0] == errors[m][0]:
        swapped = errors[:m - 1] + [errors[m], errors[m - 1]] + errors[m + 1 :]
        cut = _find_cut(state, swapped, m)
    if cut is None:
        raise SeparationError(
            f"no matched cut separates errors {errors} in {state.x} / {state.y}"
        )
    return cut


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
    big_x, big_y = pad(x), pad(y)
    s, r, alignment = find_relation(big_x, big_y, s, r)
    state = _PairState(big_x, big_y, alignment)
    rounds: list[SegmentationRound] = []
    while (cut := _next_cut(state, k)) is not None:
        x_before, y_before = state.x, state.y
        z = state.apply_cut(*cut)
        rounds.append(SegmentationRound(x_before, y_before, cut, z, state.x, state.y))
    return Separation(
        u=state.x,
        v=state.y,
        s=s,
        r=r,
        alignment=Alignment(tuple(state.dels_u), tuple(state.subs), tuple(state.dels_v)),
        rounds=tuple(rounds),
    )
