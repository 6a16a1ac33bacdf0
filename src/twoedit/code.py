"""The code family: membership, enumeration, census, and index coding.

For length n >= 7 a parameter choice is one residue tuple; the code is the
set of words whose syndrome tuple equals it.

Pairwise verification collects in one sweep.  It keeps the first word of
every class and starts a member list only when a second word arrives, since
only classes of two or more words hold a pair to check.  The classes
partition {0,1}^n, so those pairs are sharded over disjoint classes and the
shard results merged associatively.

Census, grouping and enumeration share one split-word sweep.  A word is a
head ``hi`` of h = n // 2 bits followed by a tail ``lo`` of t = n - h bits.
Each weighted sum is ``count * P_k(n + 2)`` minus a sum over the word's
transition bits (see ``syndrome``), and both split at the head: the h bits
of ``hi ^ (hi >> 1)`` are the transitions into the head, and the low t + 1
bits of ``v ^ (v << 1)`` those into the tail and the right pad, which depend
only on ``lo`` and the last bit of ``hi``.  With ``c_hi`` and ``lc`` the
popcounts of the two masks and ``H_k`` and ``L_k`` their transition sums,

    s_k = (c_hi * P_k(n + 2) - H_k(hi)) + (lc * P_k(n + 2) - L_k(lastbit(hi), lo))

and the padded adjacency count is ``c_hi + lc``.  A word's key is the
mixed-radix pack of its four reduced sums, each reduced sum scaled to its
place: k_j = (s_j % r_j) * p_j, below q_j = r_j * p_j.  With the moduli of
``moduli(n)`` as radices the pack is ``SyndromeTuple.pack``.  The exact
sweep packs with radices (n+2)^2, (n+2)^3, (n+2)^4 and n+2: the count is at
most n+1 and sum k is below (n+1) * (n+2)^(k+1), so every reduction is the
identity and the key holds the unreduced sums.

The sweep works on whole tail rows, each packed into one integer with one
fixed-width field per tail (SIMD within a register, Lamport 1975).  Once per
sweep each tail's scaled, reduced terms l_j are packed into one integer per
component and last head bit, and the four components into one row sum for
each head count c = 0..h (c fixes the head's last bit: it is odd iff that
bit is 1).  A head's scaled, reduced terms a_j then give the keys of all 2^t
of its words by a dozen big-integer operations: for reduced a and l,
(a + l) % q == a + l - q * [l >= q - a], so the head adds a_0 + a_1 + a_2 to
every field of its row sum, and for each component j subtracts q_j from the
fields where l_j >= q_j - a_j, which a subtraction marks in each field's
top bit.  The fields are 32 or 64 bits wide, whichever holds every key at
the radices (``_field_type``), and ``array`` unpacks them into the list of
keys.
"""

from __future__ import annotations

import math
import os
import sys
from bisect import bisect_left
from collections import Counter
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
    power_sums,
    transition_sums,
)
from .words import Word

DEFAULT_ENUMERATION_CAP = 24


class ResourceCapError(RuntimeError):
    """A length exceeds the enumeration cap."""


def _check_cap(n: int, cap: int | None) -> None:
    if cap is None:
        cap = DEFAULT_ENUMERATION_CAP
    elif cap < 0:
        raise ValueError(f"enumeration cap must be at least 0, got {cap}")
    if n > cap:
        raise ResourceCapError(f"length {n} exceeds enumeration cap {cap}")
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


def _field_type(radices: tuple[int, int, int, int]) -> str:
    """The ``array`` type code of the packed rows' fields: the narrower of
    "I" and "Q" that holds every key at these radices.

    A field holds a key plus up to three unreduced overflows, so it stays
    below 2 * (q0 + q1 + q2), q_k being the pack's place value above
    component k; that bound also keeps every q_k below the field's top bit,
    which flags the overflows.  Raises if even "Q" is too narrow.
    """
    from array import array  # here, so that importing the CLI does not load it

    r0, r1, r2, r3 = radices
    q2 = r2 * r3
    q1 = r1 * q2
    for typecode in "IQ":
        bits = 8 * array(typecode).itemsize
        if 2 * (r0 * q1 + q1 + q2) <= 1 << bits:
            return typecode
    raise ValueError(f"keys at radices {radices} do not fit {bits}-bit fields")


def _split_keys(n: int, radices: tuple[int, int, int, int]) -> Iterator[tuple[int, list[int]]]:
    """For each head, ascending, yield ``(base, keys)``: the packed value of
    the head's first word and the packed keys of its 2^t words in ascending
    order (see the module docstring).
    Key = ((s0 % r0 * r1 + s1 % r1) * r2 + s2 % r2) * r3 + c % r3.
    Raises ValueError before the first head if no field type holds the keys.
    """
    from array import array  # as in _field_type

    typecode = _field_type(radices)
    bits = 8 * array(typecode).itemsize
    h = n // 2
    t = n - h
    r0, r1, r2, r3 = radices
    p2 = r3
    p1 = r2 * p2
    p0 = r1 * p1
    q0, q1, q2 = r0 * p0, r1 * p1, r2 * p2
    f0, f1, f2 = power_sums(n + 2)
    size = bits >> 3 << t  # bytes per packed row
    ones = (1 << (bits << t)) // ((1 << bits) - 1)  # 1 in every field
    top = bits - 1

    def packed(values) -> int:
        return int.from_bytes(array(typecode, values).tobytes(), sys.byteorder)

    # Each tail's terms after a last head bit 0: the transitions into the
    # tail and the right pad, at their places in the n + 1 bit mask.
    low = (1 << (t + 1)) - 1
    terms = []
    for lo in range(1 << t):
        m = (lo ^ (lo << 1)) & low
        c = m.bit_count()
        s0, s1, s2 = transition_sums(m, n + 1)
        terms.append((c * f0 - s0, c * f1 - s1, c * f2 - s2, c))
    # After a last head bit 1 the transition into the tail, at position h,
    # flips: it joins the tails that start with 0 and leaves the others.
    d0, d1, d2 = (f - w for f, w in zip((f0, f1, f2), power_sums(h + 1)))
    flipped = [(x0 + d0, x1 + d1, x2 + d2, c + 1) for x0, x1, x2, c in terms[: 1 << t - 1]]
    flipped += [(x0 - d0, x1 - d1, x2 - d2, c - 1) for x0, x1, x2, c in terms[1 << t - 1 :]]
    # Per last head bit, one packed column per component, reduced and scaled.
    columns = []
    for tails in (terms, flipped):
        x0, x1, x2, lc = zip(*tails)
        b0 = packed([x % r0 * p0 for x in x0])
        b1 = packed([x % r1 * p1 for x in x1])
        b2 = packed([x % r2 * p2 for x in x2])
        columns.append((b0, b1, b2, lc))
    # One row sum per head count c, which fixes the head's last bit; the
    # reduced count (c + lc) % r3 is its own component, below p2.
    rows = []
    for c in range(h + 1):
        b0, b1, b2, lc = columns[c & 1]
        rows.append(b0 + b1 + b2 + packed([(c + x) % r3 for x in lc]))
    # The columns with the top bit of every field set: subtracting q - a
    # leaves that bit set exactly where l >= q - a, and since for reduced a
    # and l, (a + l) % q == a + l - q * [l >= q - a], each head reduces all
    # its fields at once.
    half = ones << top
    bounds = [(b0 + half, b1 + half, b2 + half) for b0, b1, b2, _ in columns]
    for hi in range(1 << h):
        m = hi ^ (hi >> 1)
        c = m.bit_count()
        a0, a1, a2 = transition_sums(m, h)
        a0 = (c * f0 - a0) % r0 * p0
        a1 = (c * f1 - a1) % r1 * p1
        a2 = (c * f2 - a2) % r2 * p2
        b0, b1, b2 = bounds[c & 1]
        keys = rows[c] + (a0 + a1 + a2) * ones
        keys -= ((b0 - (q0 - a0) * ones) >> top & ones) * q0
        keys -= ((b1 - (q1 - a1) * ones) >> top & ones) * q1
        keys -= ((b2 - (q2 - a2) * ones) >> top & ones) * q2
        yield hi << t, array(typecode, keys.to_bytes(size, sys.byteorder)).tolist()


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


def _radices(n: int, mode: str) -> tuple[int, int, int, int]:
    """The radices a sweep packs its keys with: the moduli, or in exact mode
    radices above every unreduced sum (see the module docstring)."""
    if mode == MODE_BUCKET:
        return moduli(n)
    if mode == MODE_EXACT:
        return ((n + 2) ** 2, (n + 2) ** 3, (n + 2) ** 4, n + 2)
    raise ValueError(f"unknown sweep mode {mode!r}")


def _shared_classes(
    n: int, mode: str, cap: int | None = None
) -> tuple[int, list[tuple[tuple[int, ...], list[int]]]]:
    """The number of occupied classes, and the classes holding two or more
    words as ascending ``(key, members)`` pairs: a residue tuple, or the
    exact weight sums, with its members in ascending packed value."""
    _check_cap(n, cap)
    radices = _radices(n, mode)
    first: dict[int, int] = {}
    members: dict[int, list[int]] = {}
    for base, keys in _split_keys(n, radices):
        for v, key in enumerate(keys, base):
            if key not in first:
                first[key] = v
            elif key in members:
                members[key].append(v)
            else:
                members[key] = [first[key], v]
    _, r1, r2, r3 = radices
    below_s1 = r2 * r3
    below_s0 = r1 * below_s1
    # the mixed-radix pack orders keys as their tuples
    return len(first), [
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

        # the shards stay as `workers` asks, so the output does not depend on
        # how many of them run at once
        with multiprocessing.Pool(min(len(tasks), os.cpu_count() or 1)) as pool:
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
