"""Independent reference implementations used to check the library.

Everything here is deliberately written against plain strings, lists, and
exhaustive enumeration, not against the package's own code paths.
"""

from __future__ import annotations

import random
from typing import Sequence

from twoedit.channel import apply_errors, edit_distance, error_ball, random_pattern
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
