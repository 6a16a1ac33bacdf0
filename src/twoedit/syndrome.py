"""Weighted checksums of adjacency profiles and sign-preserving numbers.

A word of length n >= 7 is summarized by four residues computed from the
adjacency profile of its padded form: the profile dotted with the weight
vectors (1^i, 2^i, ..., (n+2)^i) for i = 0, 1, 2, reduced mod 4n, 2n^2 and
2n^3, plus the padded adjacency count mod 9.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .words import Word

MIN_CODE_LENGTH = 7
COUNT_MODULUS = 9  # the fourth modulus, the same at every length


def moduli(n: int) -> tuple[int, int, int, int]:
    """The four residue moduli used at length n."""
    return (4 * n, 2 * n * n, 2 * n * n * n, COUNT_MODULUS)


@dataclass(frozen=True)
class SyndromeTuple:
    """The four residues identifying one syndrome class at length ``n``."""

    n: int
    s0: int
    s1: int
    s2: int
    s3: int

    def __post_init__(self) -> None:
        if self.n < MIN_CODE_LENGTH:
            raise ValueError(f"length must be at least {MIN_CODE_LENGTH}, got {self.n}")
        for value, modulus, name in zip(
            (self.s0, self.s1, self.s2, self.s3), moduli(self.n), ("s0", "s1", "s2", "s3")
        ):
            if not 0 <= value < modulus:
                raise ValueError(f"{name}={value} outside [0, {modulus})")

    @property
    def moduli(self) -> tuple[int, int, int, int]:
        return moduli(self.n)

    def pack(self) -> int:
        """Pack the residues into one integer key (dense row-major order)."""
        _, m1, m2, m3 = self.moduli
        return ((self.s0 * m1 + self.s1) * m2 + self.s2) * m3 + self.s3

    @classmethod
    def unpack(cls, key: int, n: int) -> "SyndromeTuple":
        _, m1, m2, m3 = moduli(n)
        key, s3 = divmod(key, m3)
        key, s2 = divmod(key, m2)
        s0, s1 = divmod(key, m1)
        return cls(n, s0, s1, s2, s3)

    def to_kv(self) -> str:
        return f"n={self.n} s0={self.s0} s1={self.s1} s2={self.s2} s3={self.s3}"


def profile_sums(value: int, length: int, prev: int, j: int) -> tuple[int, int, int, int]:
    """Sums of the adjacency profile of the ``length`` bits of ``value`` (first
    bit most significant) entered after symbol ``prev``, at weights j, j+1, ...
    with powers 0, 1, 2; the fourth entry is the adjacency count."""
    count = s0 = s1 = s2 = 0
    for shift in range(length - 1, -1, -1):
        bit = (value >> shift) & 1
        if bit != prev:
            count += 1
        prev = bit
        s0 += count
        s1 += count * j
        s2 += count * j * j
        j += 1
    return s0, s1, s2, count


def padded_weight_sums(value: int, n: int) -> tuple[int, int, int, int]:
    """Exact dot products of the padded profile with the three weight vectors.

    ``value`` is the packed word (first symbol = most significant bit).
    Returns (sum0, sum1, sum2, padded adjacency count), unreduced.  Single
    pass; the profile and weight vectors are never materialized.  The left
    pad only sets the first ``prev``: its profile entry, at weight 1, is 0.
    """
    return profile_sums(value << 1, n + 1, 0, 2)


def syndrome_tuple(x: Word) -> SyndromeTuple:
    """The four residues of ``x``.  Rejects lengths below 7."""
    n = len(x)
    if n < MIN_CODE_LENGTH:
        raise ValueError(f"syndromes are defined for length >= {MIN_CODE_LENGTH}, got {n}")
    s0, s1, s2, count = padded_weight_sums(x.value, n)
    m0, m1, m2, m3 = moduli(n)
    return SyndromeTuple(n, s0 % m0, s1 % m1, s2 % m2, count % m3)


def sign_preserving_number(z: Sequence[int]) -> int:
    """Minimum number of contiguous segments, each all >= 0 or all <= 0.

    Single left-to-right greedy scan.  Zeros extend either polarity; a value
    conflicting with the open segment's polarity starts a new segment.
    """
    if len(z) == 0:
        raise ValueError("sign-preserving number of the empty sequence is undefined")
    segments = 1
    polarity = 0
    for v in z:
        if v == 0:
            continue
        sign = 1 if v > 0 else -1
        if polarity == 0:
            polarity = sign
        elif sign != polarity:
            segments += 1
            polarity = sign
    return segments
