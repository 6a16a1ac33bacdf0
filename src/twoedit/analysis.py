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
Separation state holds the two words themselves; a cut builds the longer
words by slicing and concatenation, so each round's words are the next
round's "before" words.  Only alignments from outside are checked:
``separate_errors`` trusts the one ``find_relation`` just built.

The relation of a pair comes from one suffix-cost table for every shape.
Its cell (i, j, a) is reached after consuming i symbols of x and j of y
while x still owes a deletions; y then owes b = a + i - j, because both
sides have matched i - (s - a) = j - (s - b) symbols.  Only 0 <= a, b <= 2
occur, so a table has at most 9(n+1) cells, and since no cell depends on
the total s, the cell (0, 0, s) prices every shape with s deletions a side.

All positions below are 1-based, matching the convention used by error
patterns and reports.
"""

from __future__ import annotations

from dataclasses import dataclass

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


class RoundBudgetError(RuntimeError):
    """Separation did not converge within the round budget."""


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
    """Monotone matching between two equal-length words U and V.

    ``ops`` consumes both words left to right: ("match", u, v) and
    ("sub", u, v) consume one position of each (a sub marks the pair as a
    substitution and may carry equal symbols, the trivial case), ("del_u", u)
    consumes a position of U only, ("del_v", v) one of V only.
    """

    ops: tuple[tuple, ...]

    def matched_pairs(self) -> list[tuple[int, int]]:
        return [(op[1], op[2]) for op in self.ops if op[0] in ("match", "sub")]

    def sub_positions(self) -> list[int]:
        return [op[1] for op in self.ops if op[0] == "sub"]

    def dels_u(self) -> list[int]:
        return [op[1] for op in self.ops if op[0] == "del_u"]

    def dels_v(self) -> list[int]:
        return [op[1] for op in self.ops if op[0] == "del_v"]


def check_alignment(u: Word, v: Word, alignment: Alignment) -> None:
    """Raise AlignmentError unless the alignment consumes ``u`` and ``v``
    exactly once each, in order, with equal symbols on plain matches."""
    if len(u) != len(v):
        raise AlignmentError("aligned words must have equal length")
    next_u = next_v = 1
    for op in alignment.ops:
        kind = op[0]
        if kind in ("match", "sub"):
            _, a, b = op
            if a != next_u or b != next_v:
                raise AlignmentError(f"op {op} breaks monotone consumption")
            if kind == "match" and u[a - 1] != v[b - 1]:
                raise AlignmentError(f"match at ({a}, {b}) joins unequal symbols")
            next_u += 1
            next_v += 1
        elif kind == "del_u":
            if op[1] != next_u:
                raise AlignmentError(f"op {op} breaks monotone consumption")
            next_u += 1
        elif kind == "del_v":
            if op[1] != next_v:
                raise AlignmentError(f"op {op} breaks monotone consumption")
            next_v += 1
        else:
            raise AlignmentError(f"unknown op kind {kind!r}")
    if next_u != len(u) + 1 or next_v != len(v) + 1:
        raise AlignmentError("alignment does not consume both words exactly")


def _merge_ops(pairs, subs, dels_u: list[int], dels_v: list[int]) -> Alignment:
    """Alignment of matched ``pairs`` in order, each preceded by the sorted
    deletions that come before it; a pair whose U position is in ``subs`` is
    a substitution."""
    sub_set = set(subs)
    ops: list[tuple] = []
    du = dv = 0
    for a, b in pairs:
        while du < len(dels_u) and dels_u[du] < a:
            ops.append(("del_u", dels_u[du]))
            du += 1
        while dv < len(dels_v) and dels_v[dv] < b:
            ops.append(("del_v", dels_v[dv]))
            dv += 1
        ops.append(("sub" if a in sub_set else "match", a, b))
    return Alignment(tuple(ops))


def _f2(a: int, b: int) -> int:
    return int(a != b)


def _f3(a: int, b: int, c: int) -> int:
    return int(a != b) + int(b != c)


def classify_errors(u: Word, v: Word, alignment: Alignment) -> list[ErrorTypeValue]:
    """Type and type value of every error, ordered by own-sequence position.

    Substitutions compare the three-symbol window around the error before and
    after writing the matched symbol; the left neighbour is read through the
    matching because it may itself be a substitution.  Deletions compare the
    window against the two-symbol remainder on their own side.
    """
    check_alignment(u, v, alignment)
    dels_u = alignment.dels_u()
    dels_v = alignment.dels_v()
    subs = alignment.sub_positions()
    if len(dels_u) != len(dels_v):
        raise AlignmentError("a del/sub pair needs equally many deletions on each side")
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
    u_to_v = dict(alignment.matched_pairs())
    del_u_set = set(dels_u)
    del_v_set = set(dels_v)

    def tau_u(p: int) -> int:
        if p in del_u_set:
            raise SeparationError(f"U position {p} adjoins an error but is deleted")
        return v[u_to_v[p] - 1]

    out = []
    for p, kind in entries:
        if not 2 <= p <= n - 1:
            raise SeparationError(f"error position {p} outside the interior [2, {n - 1}]")
        if kind == SUB:
            left = tau_u(p - 1)
            e = _f3(left, u[p - 1], u[p]) - _f3(left, tau_u(p), u[p])
        elif kind == DEL_OVER:
            if p - 1 in del_u_set or p + 1 in del_u_set:
                raise SeparationError(f"deletion at U position {p} has a deleted neighbour")
            e = _f3(u[p - 2], u[p - 1], u[p]) - _f2(u[p - 2], u[p])
        else:
            if p - 1 in del_v_set or p + 1 in del_v_set:
                raise SeparationError(f"deletion at V position {p} has a deleted neighbour")
            e = _f2(v[p - 2], v[p]) - _f3(v[p - 2], v[p - 1], v[p])
        out.append(ErrorTypeValue(kind, e, p))
    return out


def pair_type(u: Word, v: Word, alignment: Alignment) -> tuple[tuple[str, ...], tuple[int, ...]]:
    """The kinds and values of all errors in own-position order."""
    classified = classify_errors(u, v, alignment)
    return tuple(e.kind for e in classified), tuple(e.value for e in classified)


# --- segmentation ---------------------------------------------------------


class _PairState:
    """A word pair, its matching, and its error positions.

    The alignment must already be known monotone (checked, or built by
    ``find_relation``), so its position lists arrive sorted."""

    __slots__ = ("x", "y", "pairs", "subs", "dels_u", "dels_v")

    def __init__(self, x: Word, y: Word, alignment: Alignment):
        self.x = x
        self.y = y
        self.pairs = alignment.matched_pairs()
        self.subs = alignment.sub_positions()
        self.dels_u = alignment.dels_u()
        self.dels_v = alignment.dels_v()

    def alignment(self) -> Alignment:
        return _merge_ops(self.pairs, self.subs, self.dels_u, self.dels_v)

    def error_entries(self) -> list[tuple[int, str]]:
        """Error positions tagged by owning side, sorted by (position, side)."""
        return sorted(
            [(p, "u") for p in self.dels_u]
            + [(p, "u") for p in self.subs]
            + [(p, "v") for p in self.dels_v]
        )

    def cut_ok(self, i: int, j: int) -> bool:
        if not (1 <= i <= len(self.x) - 1 and 1 <= j <= len(self.y) - 1):
            return False
        return all((a <= i and b <= j) or (a > i and b > j) for a, b in self.pairs)

    def filler(self, i: int, j: int) -> Word:
        x, y = self.x, self.y
        if i == j:
            return Word(_meet_filler(x[i - 1], x[i], y[i - 1], y[i]))
        if i < j:
            return x[i:j] + y[j - 1 : j]
        return y[j:i] + x[i - 1 : i]

    def apply_cut(self, i: int, j: int) -> Word:
        z = self.filler(i, j)
        length = len(z)
        self.x = self.x[:i] + z + self.x[i:]
        self.y = self.y[:j] + z + self.y[j:]
        shifted = [(a + length if a > i else a, b + length if b > j else b) for a, b in self.pairs]
        shifted.extend((i + t, j + t) for t in range(1, length + 1))
        self.pairs = sorted(shifted)
        self.subs = [p + length if p > i else p for p in self.subs]
        self.dels_u = [p + length if p > i else p for p in self.dels_u]
        self.dels_v = [p + length if p > j else p for p in self.dels_v]
        return z


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

_INF = 1 << 20


# (a, b, index of the cell in its row), b ascending within each a
_CELLS = tuple((a, b, 3 * a + b) for a in range(3) for b in range(3))


def _suffix_costs(x: Word, y: Word) -> list[list[int]]:
    """g[i][3a + b]: fewest mismatched pairs finishing the alignment after
    consuming i of x and j of y, while x still owes a deletions and y owes
    b = a + i - j, 0 <= a, b <= 2 (deletions and mismatches are restricted
    to interior positions).  No cell depends on s: g[0][4s] is the cost of
    every shape with s deletions a side."""
    n = len(x)
    xb, yb = tuple(x), tuple(y)
    g = [[_INF] * 9 for _ in range(n + 1)]
    # Row n: with x consumed, y can only finish by deletions, and its last
    # symbol is not interior, so every cell but the final one stays infinite.
    g[n][0] = 0
    for i in range(n - 1, -1, -1):
        gi, gi1 = g[i], g[i + 1]
        interior_u = 2 <= i + 1 <= n - 1
        for a, b, k in _CELLS:
            j = i + a - b
            if not 0 <= j <= n:
                continue
            best = _INF
            if j < n:
                if xb[i] == yb[j]:
                    best = gi1[k]
                elif interior_u:
                    best = 1 + gi1[k]
                if b and 2 <= j + 1 <= n - 1 and gi[k - 1] < best:
                    best = gi[k - 1]
            if a and interior_u and gi1[k - 3] < best:
                best = gi1[k - 3]
            gi[k] = best
    return g


def _reconstruct(x: Word, y: Word, s: int, g) -> list[tuple]:
    """Leftmost optimal alignment, preferring match > sub > del_u > del_v."""
    n = len(x)
    xb, yb = tuple(x), tuple(y)
    i = j = 0
    a = b = s
    rem = g[0][4 * s]
    ops: list[tuple] = []
    while i < n or j < n:
        if i < n and j < n and xb[i] == yb[j] and g[i + 1][3 * a + b] == rem:
            ops.append(("match", i + 1, j + 1))
            i += 1
            j += 1
            continue
        if (
            i < n
            and j < n
            and xb[i] != yb[j]
            and 2 <= i + 1 <= n - 1
            and g[i + 1][3 * a + b] == rem - 1
        ):
            ops.append(("sub", i + 1, j + 1))
            i += 1
            j += 1
            rem -= 1
            continue
        if i < n and a and 2 <= i + 1 <= n - 1 and g[i + 1][3 * a - 3 + b] == rem:
            ops.append(("del_u", i + 1))
            i += 1
            a -= 1
            continue
        if j < n and b and 2 <= j + 1 <= n - 1 and g[i][3 * a + b - 1] == rem:
            ops.append(("del_v", j + 1))
            j += 1
            b -= 1
            continue
        raise AssertionError("alignment reconstruction lost the optimal path")
    return ops


_RELATION_ORDER = ((0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0))


def find_relation(
    x: Word, y: Word, s: int | None = None, r: int | None = None
) -> tuple[int, int, Alignment]:
    """A relation carrying ``x`` to ``y``: s interior deletions on each side
    plus 2r substitution pairs (trivial fills added to reach an even count).
    By default the smallest relation (s + r, then s) is chosen; passing s
    and/or r pins the shape.  One cost table is built per call and serves
    every shape: the fewest mismatches with s deletions a side is its cell
    (0, 0, s), where x still owes a = s deletions and y owes
    b = a + i - j = s.  Raises NoRelationError if nothing fits within
    s + r = 2."""
    if len(x) != len(y):
        raise ValueError("related words must have equal length")
    g = _suffix_costs(x, y)
    for cs, cr in _RELATION_ORDER:
        if (s is None or cs == s) and (r is None or cr == r) and g[0][4 * cs] <= 2 * cr:
            ops = _reconstruct(x, y, cs, g)
            return cs, cr, _with_trivial_fills(ops, 2 * cr, len(x))
    shape = "" if s is None and r is None else f" of shape (s={s}, r={r})"
    raise NoRelationError(
        f"no relation{shape} with at most two deletions+substitutions joins {x} and {y}"
    )


def _with_trivial_fills(ops: list[tuple], wanted: int, n: int) -> Alignment:
    have = sum(1 for op in ops if op[0] == "sub")
    if have > wanted:
        raise AssertionError("reconstruction used more substitutions than allowed")
    need = wanted - have
    if need:
        taken = {op[1] for op in ops if op[0] in ("sub", "del_u")}
        out = []
        for op in ops:
            if need and op[0] == "match" and 2 <= op[1] <= n - 1 and op[1] not in taken:
                out.append(("sub", op[1], op[2]))
                need -= 1
            else:
                out.append(op)
        ops = out
    if need:
        raise NoRelationError("not enough interior matches for trivial substitution fills")
    return Alignment(tuple(ops))


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
    dels_u: tuple[int, ...]
    subs_u: tuple[int, ...]
    dels_v: tuple[int, ...]
    alignment: Alignment
    rounds: tuple[SegmentationRound, ...]

    @property
    def positions(self) -> tuple[int, ...]:
        return self.dels_u + self.subs_u + self.dels_v


def _find_cut(state: _PairState, errors, m: int):
    """A cut keeping errors[:m] in place and shifting errors[m:], or None."""
    left, right = errors[:m], errors[m:]
    big = len(state.x)
    i_lo = max([p for p, side in left if side == "u"], default=1)
    i_hi = min([p for p, side in right if side == "u"], default=big) - 1
    j_lo = max([p for p, side in left if side == "v"], default=1)
    j_hi = min([p for p, side in right if side == "v"], default=big) - 1
    if i_lo > i_hi or j_lo > j_hi:
        return None
    for (a1, b1), (a2, b2) in zip(state.pairs, state.pairs[1:]):
        i = max(a1, i_lo)
        j = max(b1, j_lo)
        if i <= min(a2 - 1, i_hi) and j <= min(b2 - 1, j_hi):
            return i, j
    return None


def _next_cut(state: _PairState, k: int):
    """Cut widening the leftmost too-narrow gap between adjacent errors."""
    errors = state.error_entries()
    saw_violation = False
    for m in range(1, len(errors)):
        gap = errors[m][0] - errors[m - 1][0]
        if gap >= k:
            continue
        saw_violation = True
        cut = _find_cut(state, errors, m)
        if cut is None and errors[m - 1][0] == errors[m][0]:
            swapped = errors[:m - 1] + [errors[m], errors[m - 1]] + errors[m + 1 :]
            cut = _find_cut(state, swapped, m)
        if cut is not None:
            return cut
    if saw_violation:
        raise SeparationError(
            f"no matched cut separates errors {errors} in {state.x} / {state.y}"
        )
    return None


def separate_errors(
    x: Word,
    y: Word,
    k: int,
    round_budget: int | None = None,
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
    budget = 4 * k if round_budget is None else round_budget
    rounds: list[SegmentationRound] = []
    while True:
        cut = _next_cut(state, k)
        if cut is None:
            break
        if len(rounds) >= budget:
            raise RoundBudgetError(f"separation exceeded the budget of {budget} rounds")
        x_before, y_before = state.x, state.y
        z = state.apply_cut(*cut)
        rounds.append(SegmentationRound(x_before, y_before, cut, z, state.x, state.y))
    return Separation(
        u=state.x,
        v=state.y,
        s=s,
        r=r,
        dels_u=tuple(state.dels_u),
        subs_u=tuple(state.subs),
        dels_v=tuple(state.dels_v),
        alignment=state.alignment(),
        rounds=tuple(rounds),
    )
