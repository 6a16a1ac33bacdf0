"""Independent reference implementations used to check the library.

Everything here is deliberately written against plain strings, lists, and
exhaustive enumeration, not against the package's own code paths.
"""

from __future__ import annotations

import random
from itertools import combinations, combinations_with_replacement, product
from typing import Sequence

from twoedit.analysis import _RELATION_ORDER, Alignment, NoRelationError, _with_trivial_fills
from twoedit.channel import ErrorPattern, apply_errors, edit_distance, random_pattern
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
    return tuple(transitions(s[: i + 1]) for i in range(len(s)))


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
    return edit_distance(x, y) <= 2 * budget


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
