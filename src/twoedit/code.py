"""The code family: membership, enumeration, census, and index coding.

For length n >= 7 a parameter choice is one residue tuple; the code is the
set of words whose syndrome tuple equals it.  The syndrome classes partition
{0,1}^n, so census and pairwise verification sweeps are sharded over disjoint
word ranges and merged associatively.
"""

from __future__ import annotations

import math
import multiprocessing
import os
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

from .channel import edit_distance
from .syndrome import COUNT_MODULUS, MIN_CODE_LENGTH, SyndromeTuple, moduli, padded_weight_sums
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
    return tuple(v for v in range(1 << p.n) if member_value(v, p))


def enumerate_codewords(p: CodeParams, cap: int | None = None) -> list[Word]:
    """All codewords in lexicographic order."""
    return [Word.from_int(v, p.n) for v in _codeword_values(p, cap)]


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
        ranked = sorted(self.counts.items(), key=lambda kv: (-kv[1], kv[0]))
        return [(SyndromeTuple.unpack(key, self.n), count) for key, count in ranked[:k]]

    def largest(self) -> tuple[SyndromeTuple, int]:
        return self.top(1)[0]


def _census_shard(args: tuple[int, int, int]) -> Counter:
    n, lo, hi = args
    m0, m1, m2, m3 = moduli(n)
    counts: Counter = Counter()
    for v in range(lo, hi):
        s0, s1, s2, count = padded_weight_sums(v, n)
        key = (((s0 % m0) * m1 + s1 % m1) * m2 + s2 % m2) * m3 + count % m3
        counts[key] += 1
    return counts


def _shard_ranges(total: int, workers: int) -> list[tuple[int, int]]:
    step = (total + workers - 1) // workers
    return [(lo, min(lo + step, total)) for lo in range(0, total, step)]


def _check_workers(workers: int) -> None:
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")


def bucket_census(n: int, cap: int | None = None, workers: int = 1) -> Census:
    """Class sizes over all of {0,1}^n; identical for any worker count."""
    _check_workers(workers)
    _check_cap(n, cap)
    total = 1 << n
    if workers == 1:
        merged = _census_shard((n, 0, total))
    else:
        merged = Counter()
        tasks = [(n, lo, hi) for lo, hi in _shard_ranges(total, workers)]
        # ceil-sized shards: at most `workers` of them, one process each
        with multiprocessing.Pool(len(tasks)) as pool:
            for part in pool.map(_census_shard, tasks):
                merged.update(part)
    return Census(n, dict(merged))


def best_params(n: int, cap: int | None = None, workers: int = 1) -> tuple[CodeParams, int]:
    """Parameters of the largest syndrome class and its size."""
    residues, count = bucket_census(n, cap, workers).largest()
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


def syndrome_groups(
    n: int, mode: str = MODE_BUCKET, cap: int | None = None
) -> dict[tuple[int, ...], list[int]]:
    """Group every word of {0,1}^n by residue tuple or exact weight sums."""
    _check_cap(n, cap)
    if mode not in (MODE_BUCKET, MODE_EXACT):
        raise ValueError(f"unknown sweep mode {mode!r}")
    m0, m1, m2, m3 = moduli(n)
    groups: dict[tuple[int, ...], list[int]] = {}
    for v in range(1 << n):
        s0, s1, s2, count = padded_weight_sums(v, n)
        if mode == MODE_BUCKET:
            key = (s0 % m0, s1 % m1, s2 % m2, count % m3)
        else:
            key = (s0, s1, s2, count)
        groups.setdefault(key, []).append(v)
    return groups


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
    _check_workers(workers)
    groups = syndrome_groups(n, mode, cap)
    items = sorted((key, values) for key, values in groups.items() if len(values) > 1)
    if workers == 1 or len(items) < 2:
        shards = [_distance_shard((n, items))]
    else:
        chunk = (len(items) + workers - 1) // workers
        tasks = [(n, items[i : i + chunk]) for i in range(0, len(items), chunk)]
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
        groups=len(groups),
        pairs=pairs,
        min_distance=min(mins) if mins else None,
        violations=tuple(violations),
    )
