"""Independent reference implementations used to check the library.

Everything here is deliberately written against plain strings, lists, and
exhaustive enumeration, not against the package's own code paths.
"""

from __future__ import annotations

import random
from itertools import combinations, combinations_with_replacement, product
from typing import Sequence

from twoedit.analysis import (
    _RELATION_ORDER,
    Alignment,
    NoRelationError,
    RoundBudgetError,
    SegmentationRound,
    Separation,
    SeparationError,
    _meet_filler,
    _merge_ops,
    _with_trivial_fills,
    check_alignment,
    find_relation,
)
from twoedit.channel import ErrorPattern, apply_errors, random_pattern
from twoedit.code import MODE_EXACT, DistanceViolation, SweepReport
from twoedit.decoder import MAX_EDITS, ReceivedLengthError
from twoedit.syndrome import (
    MIN_CODE_LENGTH,
    SyndromeTuple,
    moduli,
    padded_weight_sums,
    sign_preserving_number,
)
from twoedit.words import Word, adjacency_count, adjacency_profile, pad


def transitions(s: str) -> int:
    return sum(1 for a, b in zip(s, s[1:]) if a != b)


def prefix_transitions(s: str) -> tuple[int, ...]:
    """``transitions`` of every prefix, by one running count."""
    out = []
    count = 0
    for i, ch in enumerate(s):
        if i and ch != s[i - 1]:
            count += 1
        out.append(count)
    return tuple(out)


def profile_difference(x: Word, y: Word) -> tuple[int, ...]:
    fx = prefix_transitions(str(x))
    fy = prefix_transitions(str(y))
    return tuple(a - b for a, b in zip(fx, fy))


def sigma_exhaustive(z) -> int:
    """Minimum over every cut mask of the number of single-signed segments."""
    n = len(z)
    best = n
    for mask in range(1 << (n - 1)):
        count = 0
        start = 0
        ok = True
        for i in range(n):
            if i == n - 1 or (mask >> i) & 1:
                seg = z[start : i + 1]
                if not (all(v >= 0 for v in seg) or all(v <= 0 for v in seg)):
                    ok = False
                    break
                count += 1
                start = i + 1
        if ok and count < best:
            best = count
    return best


def sigma_partition_dp(z) -> int:
    """Partition minimum by interval dynamic programming (handles long z)."""
    n = len(z)
    inf = n + 1
    best = [inf] * (n + 1)
    best[0] = 0
    for start in range(n):
        if best[start] == inf:
            continue
        has_pos = has_neg = False
        for end in range(start, n):
            if z[end] > 0:
                has_pos = True
            elif z[end] < 0:
                has_neg = True
            if has_pos and has_neg:
                break
            if best[start] + 1 < best[end + 1]:
                best[end + 1] = best[start] + 1
    return best[n]


def is_subsequence(small, big) -> bool:
    it = iter(big)
    return all(any(a == b for b in it) for a in small)


def hamming(x: Word, y: Word) -> int:
    return sum(1 for a, b in zip(x, y) if a != b)


def edit_distance_dp(x: Word, y: Word) -> int:
    """Unit-cost edit distance by the row-by-row dynamic program."""
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


def zeros(length: int) -> Word:
    return Word.from_int(0, length)


def invert(z):
    """Reversal; accepts a Word or an integer sequence and returns its kind."""
    if isinstance(z, Word):
        v = 0
        u = z.value
        for _ in range(len(z)):
            v = (v << 1) | (u & 1)
            u >>= 1
        return Word.from_int(v, len(z))
    return tuple(reversed(z))


def write_words(words) -> str:
    """Serialize words one per line, newline-terminated."""
    return "".join(f"{w}\n" for w in words)


def _split_positions(u, v, positions, s, r):
    if len(u) != len(v):
        raise ValueError("words of a pair must have equal length")
    positions = tuple(positions)
    if len(positions) != 2 * s + 2 * r:
        raise ValueError(f"expected {2 * s + 2 * r} positions, got {len(positions)}")
    n = len(u)
    for p in positions:
        if not 2 <= p <= n - 1:
            raise ValueError(f"position {p} outside the interior [2, {n - 1}]")
    dels_u = positions[:s]
    subs_u = positions[s : s + 2 * r]
    dels_v = positions[s + 2 * r :]
    if len(set(dels_u) | set(subs_u)) != s + 2 * r:
        raise ValueError("U-side positions must be distinct")
    if len(set(dels_v)) != s:
        raise ValueError("V-side positions must be distinct")
    return dels_u, subs_u, dels_v


def is_good_pair(u: Word, v: Word, positions, s: int, r: int) -> bool:
    """True iff the positions are pairwise at distance >= 2s+1 and deleting /
    substituting U at them matches V with its own deletions removed."""
    dels_u, subs_u, dels_v = _split_positions(u, v, positions, s, r)
    values = sorted(positions)
    for a, b in zip(values, values[1:]):
        if b - a < 2 * s + 1:
            return False
    sub_set = set(subs_u)
    del_u_set = set(dels_u)
    del_v_set = set(dels_v)
    kept_u = [p for p in range(1, len(u) + 1) if p not in del_u_set]
    kept_v = [p for p in range(1, len(v) + 1) if p not in del_v_set]
    for a, b in zip(kept_u, kept_v):
        if a not in sub_set and u[a - 1] != v[b - 1]:
            return False
    return True


def alignment_from_positions(
    u: Word, v: Word, positions: tuple[int, ...] | list[int], s: int, r: int
) -> Alignment:
    """Alignment induced by error positions given as the usual ordered block
    (s deletions in U, then 2r substitutions in U, then s deletions in V)."""
    dels_u, subs_u, dels_v = _split_positions(u, v, positions, s, r)
    n = len(u)
    remaining_u = [p for p in range(1, n + 1) if p not in dels_u]
    remaining_v = [p for p in range(1, n + 1) if p not in dels_v]
    return _merge_ops(zip(remaining_u, remaining_v), subs_u, sorted(dels_u), sorted(dels_v))


def random_confusable_pair(rng: random.Random, n: int) -> tuple[Word, Word]:
    """Two distinct equal-length words sharing a common corruption reachable
    with s deletions and r substitutions from each, s + r = 2."""
    while True:
        s, r = rng.choice(((0, 2), (1, 1), (2, 0)))
        x = Word.from_int(rng.getrandbits(n), n)
        w = apply_errors(x, random_pattern(rng, n, counts=(0, s, r)))
        bits = list(w)
        for _ in range(s):
            bits.insert(rng.randint(0, len(bits)), rng.randint(0, 1))
        for _ in range(r):
            p = rng.randrange(len(bits))
            bits[p] = rng.randint(0, 1)
        y = Word(bits)
        if y != x:
            return x, y


MAX_BALL_EDITS = 4


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


def candidate_preimages_ball(received: Word, n: int) -> set[Word]:
    """All length-n words that can reach ``received`` with at most two edits.

    Inverse edits are applied to the received word: a deletion is undone by
    an insertion, an insertion by a deletion, a substitution by a
    substitution.
    """
    delta = len(received) - n
    if abs(delta) > MAX_EDITS:
        raise ReceivedLengthError(
            f"received length {len(received)} outside [{n - MAX_EDITS}, {n + MAX_EDITS}]"
        )
    out: set[Word] = set()
    for t in range(MAX_EDITS + 1):
        s = t - delta
        if s < 0:
            continue
        for r in range(MAX_EDITS + 1 - t - s):
            # received in ball(x; t ins, s del, r sub)  <=>
            # x in ball(received; s ins, t del, r sub)
            out |= error_ball(received, s, t, r)
    return out


def vt_weight_vector(order: int, n: int) -> tuple[int, ...]:
    """The weight vector (1^order, 2^order, ..., n^order)."""
    if order not in (0, 1, 2):
        raise ValueError(f"weight order must be 0, 1 or 2, got {order}")
    if n < 1:
        raise ValueError("weight vector length must be positive")
    return tuple(j**order for j in range(1, n + 1))


def syndrome_tuple_naive(x: Word) -> SyndromeTuple:
    """Reference path: materialized profile dotted with materialized weights."""
    n = len(x)
    if n < MIN_CODE_LENGTH:
        raise ValueError(f"syndromes are defined for length >= {MIN_CODE_LENGTH}, got {n}")
    padded = pad(x)
    profile = adjacency_profile(padded)
    m0, m1, m2, m3 = moduli(n)
    sums = []
    for order in (0, 1, 2):
        weights = vt_weight_vector(order, n + 2)
        sums.append(sum(f * w for f, w in zip(profile, weights)))
    return SyndromeTuple(n, sums[0] % m0, sums[1] % m1, sums[2] % m2, adjacency_count(padded) % m3)


def zero_syndrome_forces_zero(z: Sequence[int]) -> bool:
    """Check one vector against the zero-forcing property.

    True unless ``z`` is nonzero yet orthogonal to every weight vector of
    order below its sign-preserving number.  Expected to hold for every
    input.
    """
    if len(z) == 0:
        raise ValueError("empty sequence")
    if not any(z):
        return True
    sigma = sign_preserving_number(z)
    for order in range(sigma):
        if sum(v * (j + 1) ** order for j, v in enumerate(z)) != 0:
            return True
    return False


def confusable_within(x: Word, y: Word, budget: int) -> bool:
    """True iff some word is reachable from both ``x`` and ``y`` with at most
    ``budget`` total edits each, i.e. edit distance <= 2 * budget."""
    if budget < 1:
        raise ValueError("budget must be at least 1")
    return edit_distance_dp(x, y) <= 2 * budget


def sweep_keys(n: int, exact: bool) -> list[tuple[int, int, int, int]]:
    """Per word, in ascending packed value: the four weight sums, reduced by
    ``moduli(n)`` unless ``exact``: the word-by-word sweep over
    ``padded_weight_sums``, whose residues test_syndrome checks against the
    naive profile path."""
    m0, m1, m2, m3 = moduli(n)
    keys = []
    for v in range(1 << n):
        s0, s1, s2, count = padded_weight_sums(v, n)
        if exact:
            keys.append((s0, s1, s2, count))
        else:
            keys.append((s0 % m0, s1 % m1, s2 % m2, count % m3))
    return keys


def census_counts(n: int) -> dict[int, int]:
    """Class sizes keyed by ``SyndromeTuple.pack``, word by word."""
    counts: dict[int, int] = {}
    for key in sweep_keys(n, exact=False):
        packed = SyndromeTuple(n, *key).pack()
        counts[packed] = counts.get(packed, 0) + 1
    return counts


def syndrome_groups(n: int, exact: bool) -> dict[tuple[int, ...], list[int]]:
    """Words grouped by residue tuple (or exact sums), word by word."""
    groups: dict[tuple[int, ...], list[int]] = {}
    for v, key in enumerate(sweep_keys(n, exact)):
        groups.setdefault(key, []).append(v)
    return groups


def scan_pairwise_distance(n: int, mode: str) -> SweepReport:
    """``code.scan_pairwise_distance`` from every word-by-word group and the
    DP distance of every pair in it."""
    groups = syndrome_groups(n, exact=mode == MODE_EXACT)
    distances = []
    violations = []
    for key in sorted(groups):
        for a, b in combinations(groups[key], 2):
            x, y = Word.from_int(a, n), Word.from_int(b, n)
            d = edit_distance_dp(x, y)
            distances.append(d)
            if d <= 4:
                violations.append(DistanceViolation(x, y, d, key))
    violations.sort(key=lambda v: (v.x.value, v.y.value))
    return SweepReport(
        n=n,
        mode=mode,
        words=1 << n,
        groups=len(groups),
        pairs=len(distances),
        min_distance=min(distances, default=None),
        violations=tuple(violations),
    )


# --- relation search, one table per shape ----------------------------------
# The reference for analysis.find_relation's single banded table.  The shape
# order and the trivial fills are the library's own.

_INF = 1 << 20


def _suffix_costs(x: Word, y: Word, s: int) -> list[list[list[int]]]:
    """g[i][j][d]: fewest mismatched pairs finishing the alignment after
    consuming i of x and j of y with d deletions taken from x (deletions and
    mismatches are restricted to interior positions)."""
    n = len(x)
    xb, yb = tuple(x), tuple(y)
    g = [[[_INF] * (s + 1) for _ in range(n + 1)] for _ in range(n + 1)]
    g[n][n][s] = 0
    for i in range(n, -1, -1):
        gi = g[i]
        gi1 = g[i + 1] if i < n else None
        for j in range(n, -1, -1):
            for d in range(s, -1, -1):
                if i == n and j == n:
                    continue
                e = d - (i - j)
                if e < 0 or e > s:
                    continue
                best = _INF
                interior_u = 2 <= i + 1 <= n - 1
                if i < n and j < n:
                    if xb[i] == yb[j]:
                        best = gi1[j + 1][d]
                    elif interior_u:
                        best = 1 + gi1[j + 1][d]
                if i < n and d < s and interior_u:
                    best = min(best, gi1[j][d + 1])
                if j < n and e < s and 2 <= j + 1 <= n - 1:
                    best = min(best, gi[j + 1][d])
                gi[j][d] = best
    return g


def _reconstruct(x: Word, y: Word, s: int, g) -> list[tuple]:
    """Leftmost optimal alignment, preferring match > sub > del_u > del_v."""
    n = len(x)
    xb, yb = tuple(x), tuple(y)
    i = j = d = 0
    rem = g[0][0][0]
    ops: list[tuple] = []
    while i < n or j < n:
        if i < n and j < n and xb[i] == yb[j] and g[i + 1][j + 1][d] == rem:
            ops.append(("match", i + 1, j + 1))
            i += 1
            j += 1
            continue
        if (
            i < n
            and j < n
            and xb[i] != yb[j]
            and 2 <= i + 1 <= n - 1
            and g[i + 1][j + 1][d] == rem - 1
        ):
            ops.append(("sub", i + 1, j + 1))
            i += 1
            j += 1
            rem -= 1
            continue
        if i < n and d < s and 2 <= i + 1 <= n - 1 and g[i + 1][j][d + 1] == rem:
            ops.append(("del_u", i + 1))
            i += 1
            d += 1
            continue
        e = d - (i - j)
        if j < n and e < s and 2 <= j + 1 <= n - 1 and g[i][j + 1][d] == rem:
            ops.append(("del_v", j + 1))
            j += 1
            continue
        raise AssertionError("alignment reconstruction lost the optimal path")
    return ops


def _substitution_only_ops(x: Word, y: Word, r: int) -> list[tuple] | None:
    """Identity matching with subs at the mismatches, or None if more than
    2r mismatches or a mismatch at a non-interior position."""
    n = len(x)
    xb, yb = tuple(x), tuple(y)
    mismatches = [p + 1 for p in range(n) if xb[p] != yb[p]]
    if len(mismatches) > 2 * r:
        return None
    if mismatches and not 2 <= mismatches[0] <= mismatches[-1] <= n - 1:
        return None
    wrong = set(mismatches)
    return [("sub" if p in wrong else "match", p, p) for p in range(1, n + 1)]


def find_relation_per_shape(
    x: Word, y: Word, s: int | None = None, r: int | None = None
) -> tuple[int, int, Alignment]:
    """``analysis.find_relation`` by one search per shape: the identity
    matching for s = 0, and a full (n+1)^2 (s+1) cost table for each s >= 1,
    cached for the call."""
    if len(x) != len(y):
        raise ValueError("related words must have equal length")
    candidates = [
        (cs, cr)
        for cs, cr in _RELATION_ORDER
        if (s is None or cs == s) and (r is None or cr == r)
    ]
    tables: dict[int, list] = {}
    for cs, cr in candidates:
        if cs == 0:
            ops = _substitution_only_ops(x, y, cr)
            if ops is not None:
                return cs, cr, _with_trivial_fills(ops, 2 * cr, len(x))
            continue
        if cs not in tables:
            tables[cs] = _suffix_costs(x, y, cs)
        if tables[cs][0][0][0] <= 2 * cr:
            ops = _reconstruct(x, y, cs, tables[cs])
            return cs, cr, _with_trivial_fills(ops, 2 * cr, len(x))
    shape = "" if s is None and r is None else f" of shape (s={s}, r={r})"
    raise NoRelationError(
        f"no relation{shape} with at most two deletions+substitutions joins {x} and {y}"
    )

# --- separation on int lists ------------------------------------------------
# The reference for analysis.separate_errors: the state copies both words into
# int lists, re-checks find_relation's alignment, and builds Words per round.


class _ListPairState:
    """Mutable view of a word pair, its matching, and its error positions."""

    __slots__ = ("x", "y", "pairs", "subs", "dels_u", "dels_v")

    def __init__(self, x, y, pairs, subs, dels_u, dels_v):
        self.x = list(x)
        self.y = list(y)
        self.pairs = sorted(pairs)
        self.subs = sorted(subs)
        self.dels_u = sorted(dels_u)
        self.dels_v = sorted(dels_v)

    @classmethod
    def from_alignment(cls, u: Word, v: Word, alignment: Alignment) -> "_ListPairState":
        check_alignment(u, v, alignment)
        return cls(
            u,
            v,
            alignment.matched_pairs(),
            alignment.sub_positions(),
            alignment.dels_u(),
            alignment.dels_v(),
        )

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

    def filler(self, i: int, j: int) -> list[int]:
        x, y = self.x, self.y
        if i == j:
            return _meet_filler(x[i - 1], x[i], y[i - 1], y[i])
        if i < j:
            return x[i:j] + [y[j - 1]]
        return y[j:i] + [x[i - 1]]

    def apply_cut(self, i: int, j: int) -> list[int]:
        z = self.filler(i, j)
        length = len(z)
        self.x[i:i] = z
        self.y[j:j] = z
        shifted = [(a + length if a > i else a, b + length if b > j else b) for a, b in self.pairs]
        shifted.extend((i + t, j + t) for t in range(1, length + 1))
        self.pairs = sorted(shifted)
        self.subs = [p + length if p > i else p for p in self.subs]
        self.dels_u = [p + length if p > i else p for p in self.dels_u]
        self.dels_v = [p + length if p > j else p for p in self.dels_v]
        return z


def _list_find_cut(state: _ListPairState, errors, m: int):
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


def _list_next_cut(state: _ListPairState, k: int):
    """Cut widening the leftmost too-narrow gap between adjacent errors."""
    errors = state.error_entries()
    saw_violation = False
    for m in range(1, len(errors)):
        gap = errors[m][0] - errors[m - 1][0]
        if gap >= k:
            continue
        saw_violation = True
        cut = _list_find_cut(state, errors, m)
        if cut is None and errors[m - 1][0] == errors[m][0]:
            swapped = errors[:m - 1] + [errors[m], errors[m - 1]] + errors[m + 1 :]
            cut = _list_find_cut(state, swapped, m)
        if cut is not None:
            return cut
    if saw_violation:
        raise SeparationError(
            f"no matched cut separates errors {errors} in {Word(state.x)} / {Word(state.y)}"
        )
    return None


def separate_errors_lists(
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
    state = _ListPairState.from_alignment(big_x, big_y, alignment)
    budget = 4 * k if round_budget is None else round_budget
    rounds: list[SegmentationRound] = []
    while True:
        cut = _list_next_cut(state, k)
        if cut is None:
            break
        if len(rounds) >= budget:
            raise RoundBudgetError(f"separation exceeded the budget of {budget} rounds")
        x_before, y_before = Word(state.x), Word(state.y)
        z = state.apply_cut(*cut)
        rounds.append(
            SegmentationRound(x_before, y_before, cut, Word(z), Word(state.x), Word(state.y))
        )
    return Separation(
        u=Word(state.x),
        v=Word(state.y),
        s=s,
        r=r,
        dels_u=tuple(state.dels_u),
        subs_u=tuple(state.subs),
        dels_v=tuple(state.dels_v),
        alignment=state.alignment(),
        rounds=tuple(rounds),
    )
