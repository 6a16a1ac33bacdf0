"""The code family: membership, enumeration, census, and index coding.

For length n >= 7 a parameter choice is one residue tuple; the code is the
set of words whose syndrome tuple equals it.

Pairwise verification counts, then collects.  A first sweep counts every
class; a second keeps members only for the classes that hold two or more
words, since only those hold a pair to check.  The classes partition
{0,1}^n, so those pairs are sharded over disjoint classes and the shard
results merged associatively.

Census, grouping and enumeration share one split-word sweep.  A word is a
head ``hi`` of h = n // 2 bits followed by a tail ``lo`` of t = n - h bits.
From weight h + 2 on, the padded profile is the head's adjacency count
``c_hi`` plus the profile of ``lo`` entered after the last bit of ``hi``
(with the right pad appended), so each weighted sum splits as

    S_k(hi) + c_hi * W_k + L_k(lastbit(hi), lo),   W_k = sum of j^k, j = h+2..n+2

and the padded adjacency count as ``c_hi + L_c(lastbit(hi), lo)``.  The tail
table L is built once per sweep, one row of 2^t entries for each head count
c = 0..h (c fixes the head's last bit: it is odd iff that bit is 1).  Each
word then costs additions and one mixed-radix pack of its four reduced sums.
With the moduli of ``moduli(n)`` as radices the pack is
``SyndromeTuple.pack``.  The exact sweep packs with radices (n+2)^2,
(n+2)^3, (n+2)^4 and n+2: the count is at most n+1 and sum k is below
(n+1) * (n+2)^(k+1), so every reduction is the identity and the key holds
the unreduced sums.
"""

from __future__ import annotations

import math
import os
from bisect import bisect_left
from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

from .channel import edit_distance
from .syndrome import (
    COUNT_MODULUS,
    MIN_CODE_LENGTH,
    SyndromeTuple,
    moduli,
    padded_weight_sums,
    profile_sums,
)
from .words import Word

DEFAULT_ENUMERATION_CAP = 24
ENUM_CAP_ENV = "TWOEDIT_ENUM_CAP"


class ResourceCapError(RuntimeError):
    """An enumeration or budget cap was exceeded."""


def enumeration_cap(cap: int | None = None) -> int:
    if cap is not None:
        return cap
    env = os.environ.get(ENUM_CAP_ENV)
    return int(env) if env else DEFAULT_ENUMERATION_CAP


def _check_cap(n: int, cap: int | None) -> None:
    limit = enumeration_cap(cap)
    if n > limit:
        raise ResourceCapError(f"length {n} exceeds enumeration cap {limit}")
    if n < MIN_CODE_LENGTH:
        raise ValueError(f"length must be at least {MIN_CODE_LENGTH}, got {n}")


@dataclass(frozen=True)
class CodeParams:
    """A code length together with the four residues selecting one code."""

    residues: SyndromeTuple

    @property
    def n(self) -> int:
        return self.residues.n

    @classmethod
    def from_values(cls, n: int, k1: int, k2: int, k3: int, k4: int) -> "CodeParams":
        m0, m1, m2, m3 = moduli(n)
        return cls(SyndromeTuple(n, k1 % m0, k2 % m1, k3 % m2, k4 % m3))


def member_value(v: int, p: CodeParams) -> bool:
    """Whether the length-n word with packed value ``v`` lies in the code.

    The padded adjacency count is a popcount: ``v ^ (v << 1)`` has one bit
    per unequal neighbour pair of ``0 v 0``.  Words failing its residue skip
    the weighted sums.
    """
    r = p.residues
    if (v ^ (v << 1)).bit_count() % COUNT_MODULUS != r.s3:
        return False
    s0, s1, s2, _ = padded_weight_sums(v, r.n)
    m0, m1, m2, _ = moduli(r.n)
    return s0 % m0 == r.s0 and s1 % m1 == r.s1 and s2 % m2 == r.s2


def is_codeword(x: Word, p: CodeParams) -> bool:
    if len(x) != p.n:
        raise ValueError(f"word length {len(x)} does not match code length {p.n}")
    return member_value(x.value, p)


def _codeword_values(p: CodeParams, cap: int | None) -> tuple[int, ...]:
    # The cap is checked on every call, cache hit or not.
    _check_cap(p.n, cap)
    return _member_values(p)


@lru_cache(maxsize=8)
def _member_values(p: CodeParams) -> tuple[int, ...]:
    target = p.residues.pack()
    return tuple(
        v
        for base, keys in _split_keys(p.n, moduli(p.n))
        if target in keys
        for v, key in enumerate(keys, base)
        if key == target
    )


def enumerate_codewords(p: CodeParams, cap: int | None = None) -> list[Word]:
    """All codewords in lexicographic order."""
    return [Word.from_int(v, p.n) for v in _codeword_values(p, cap)]


def _split_keys(n: int, radices: tuple[int, int, int, int]) -> Iterator[tuple[int, list[int]]]:
    """For each head, ascending, yield ``(base, keys)``: the packed value of
    the head's first word and the packed keys of its 2^t words in ascending
    order (see the module docstring).
    Key = ((s0 % r0 * r1 + s1 % r1) * r2 + s2 % r2) * r3 + c % r3.
    """
    h = n // 2
    t = n - h
    r0, r1, r2, r3 = radices
    # Each sum is scaled to its place in the pack in advance, since
    # (s % r) * p == (s * p) % (r * p).
    p2 = r3
    p1 = r2 * p2
    p0 = r1 * p1
    q0, q1, q2 = r0 * p0, r1 * p1, r2 * p2
    w0, w1, w2 = (sum(j**k for j in range(h + 2, n + 3)) for k in range(3))
    # each tail with the right pad appended, entered after each last head bit
    tails = [
        [profile_sums(lo << 1, t + 1, last, h + 2) for lo in range(1 << t)] for last in (0, 1)
    ]
    # One row per head count c, which fixes the head's last bit; the reduced
    # count (c + lc) % r3 is below p2, so it rides in the third term.
    rows = [
        [(l0 * p0, l1 * p1, l2 * p2 + (c + lc) % r3) for l0, l1, l2, lc in tails[c & 1]]
        for c in range(h + 1)
    ]
    for hi in range(1 << h):
        a0, a1, a2, c = profile_sums(hi, h, 0, 2)
        a0 = (a0 + c * w0) * p0
        a1 = (a1 + c * w1) * p1
        a2 = (a2 + c * w2) * p2
        yield hi << t, [(a0 + l0) % q0 + (a1 + l1) % q1 + (a2 + l2) % q2 for l0, l1, l2 in rows[c]]


@dataclass(frozen=True)
class Census:
    """Occupied syndrome classes of {0,1}^n with their sizes."""

    n: int
    counts: dict[int, int]  # packed residue key -> class size

    def total(self) -> int:
        return sum(self.counts.values())

    def class_count(self) -> int:
        return len(self.counts)

    def top(self, k: int) -> list[tuple[SyndromeTuple, int]]:
        """Largest k classes, ties broken by ascending packed key."""
        if k < 0:
            raise ValueError(f"k must be at least 0, got {k}")
        from heapq import nsmallest  # here, so that importing the CLI does not load it

        ranked = nsmallest(k, ((-count, key) for key, count in self.counts.items()))
        return [(SyndromeTuple.unpack(key, self.n), -neg) for neg, key in ranked]

    def largest(self) -> tuple[SyndromeTuple, int]:
        """The largest class, ties broken by ascending packed key."""
        count = max(self.counts.values())
        key = min(key for key, size in self.counts.items() if size == count)
        return SyndromeTuple.unpack(key, self.n), count


def bucket_census(n: int, cap: int | None = None) -> Census:
    """Class sizes over all of {0,1}^n, in one process: shipping the
    per-shard counts back from a pool costs more than the sweep saves."""
    _check_cap(n, cap)
    counts: Counter = Counter()
    for _, keys in _split_keys(n, moduli(n)):
        counts.update(keys)
    return Census(n, dict(counts))


def best_params(n: int, cap: int | None = None) -> tuple[CodeParams, int]:
    """Parameters of the largest syndrome class and its size."""
    residues, count = bucket_census(n, cap).largest()
    return CodeParams(residues), count


def redundancy(p: CodeParams, size: int | None = None, cap: int | None = None) -> float:
    """n minus the base-2 logarithm of the code size."""
    if size is None:
        size = len(_codeword_values(p, cap))
    if size < 1:
        raise ValueError("redundancy of an empty code is undefined")
    return p.n - math.log2(size)


def redundancy_bound(n: int) -> float:
    """The guaranteed ceiling for the best parameter choice."""
    return 6 * math.log2(n) + 8


def pigeonhole_floor(n: int) -> int:
    """Least possible size of the largest class: ceil(2^n / (144 n^6))."""
    return -((1 << n) // -(144 * n**6))


def encode_index(m: int, p: CodeParams, cap: int | None = None) -> Word:
    """The m-th codeword in lexicographic order."""
    values = _codeword_values(p, cap)
    if not 0 <= m < len(values):
        raise ValueError(f"index {m} outside [0, {len(values)})")
    return Word.from_int(values[m], p.n)


def decode_index(x: Word, p: CodeParams, cap: int | None = None) -> int:
    """Lexicographic rank of a codeword; exact inverse of encode_index."""
    values = _codeword_values(p, cap)
    i = bisect_left(values, x.value)
    if i == len(values) or values[i] != x.value or len(x) != p.n:
        raise ValueError(f"{x} is not a codeword of the given parameters")
    return i


# Pairwise verification sweeps.  Both group {0,1}^n -- by residue tuple, or
# by the exact (unreduced) weight sums -- and require every within-group pair
# to be at edit distance >= 5.

MODE_BUCKET = "bucket"
MODE_EXACT = "exact"


@dataclass(frozen=True)
class DistanceViolation:
    x: Word
    y: Word
    distance: int
    key: tuple[int, ...]


@dataclass(frozen=True)
class SweepReport:
    n: int
    mode: str
    words: int
    groups: int
    pairs: int
    min_distance: int | None
    violations: tuple[DistanceViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def _shared_classes(
    n: int, mode: str, cap: int | None = None
) -> tuple[int, list[tuple[tuple[int, ...], list[int]]]]:
    """The number of occupied classes, and the classes holding two or more
    words as ascending ``(key, members)`` pairs: a residue tuple, or the
    exact weight sums, with its members in ascending packed value."""
    _check_cap(n, cap)
    if mode not in (MODE_BUCKET, MODE_EXACT):
        raise ValueError(f"unknown sweep mode {mode!r}")
    if mode == MODE_BUCKET:
        radices = moduli(n)
    else:  # above every unreduced sum (see the module docstring)
        radices = ((n + 2) ** 2, (n + 2) ** 3, (n + 2) ** 4, n + 2)
    counts: Counter = Counter()
    for _, keys in _split_keys(n, radices):
        counts.update(keys)
    shared = {key for key, count in counts.items() if count > 1}
    members: defaultdict[int, list[int]] = defaultdict(list)
    for base, keys in _split_keys(n, radices):
        if shared.isdisjoint(keys):
            continue
        for v, key in enumerate(keys, base):
            if key in shared:
                members[key].append(v)
    _, r1, r2, r3 = radices
    below_s1 = r2 * r3
    below_s0 = r1 * below_s1
    # the mixed-radix pack orders keys as their tuples
    return len(counts), [
        ((key // below_s0, key // below_s1 % r1, key // r3 % r2, key % r3), values)
        for key, values in sorted(members.items())
    ]


def _distance_shard(args: tuple[int, list[tuple[tuple[int, ...], list[int]]]]):
    n, items = args
    pairs = 0
    min_distance: int | None = None
    violations = []
    for key, values in items:
        members = [Word.from_int(v, n) for v in values]
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                d = edit_distance(members[i], members[j])
                pairs += 1
                if min_distance is None or d < min_distance:
                    min_distance = d
                if d <= 4:
                    violations.append(DistanceViolation(members[i], members[j], d, key))
    return pairs, min_distance, violations


def scan_pairwise_distance(
    n: int, mode: str = MODE_BUCKET, workers: int = 1, cap: int | None = None
) -> SweepReport:
    """Check the distance >= 5 requirement in every group; worker-count
    independent by construction (groups are split deterministically and the
    merge is associative)."""
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    groups, items = _shared_classes(n, mode, cap)
    if workers == 1 or len(items) < 2:
        shards = [_distance_shard((n, items))]
    else:
        chunk = (len(items) + workers - 1) // workers
        tasks = [(n, items[i : i + chunk]) for i in range(0, len(items), chunk)]
        import multiprocessing  # here, so that importing the CLI does not load it

        with multiprocessing.Pool(len(tasks)) as pool:  # at most `workers` tasks
            shards = pool.map(_distance_shard, tasks)
    pairs = sum(s[0] for s in shards)
    mins = [s[1] for s in shards if s[1] is not None]
    violations: list[DistanceViolation] = []
    for s in shards:
        violations.extend(s[2])
    violations.sort(key=lambda v: (v.x.value, v.y.value))
    return SweepReport(
        n=n,
        mode=mode,
        words=1 << n,
        groups=groups,
        pairs=pairs,
        min_distance=min(mins) if mins else None,
        violations=tuple(violations),
    )
