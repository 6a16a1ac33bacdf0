"""Weighted checksums of adjacency profiles and sign-preserving numbers.

A word of length n >= 7 is summarized by four residues computed from the
adjacency profile of its padded form: the profile dotted with the weight
vectors (1^i, 2^i, ..., (n+2)^i) for i = 0, 1, 2, reduced mod 4n, 2n^2 and
2n^3, plus the padded adjacency count mod 9.

The weighted sums are linear in the transition bits.  Entry F_j of the padded
word's profile (indices 1..N, N = n + 2) counts the transitions into indices
t <= j, so with P_k(x) = 1^k + 2^k + ... + x^k and T the set of those t,

    s_k = |T| * P_k(N) - sum of P_k(t - 1) over t in T.

The subtracted sum depends only on each transition's position from the left,
not on n, so one set of byte tables serves every length: a word costs one
lookup per byte of its transition mask, a popcount and three multiply-subtracts.
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


def power_sums(x: int) -> tuple[int, int, int]:
    """P_k(x) = 1^k + 2^k + ... + x^k for k = 0, 1, 2."""
    return x, x * (x + 1) // 2, x * (x + 1) * (2 * x + 1) // 6


# A packed entry holds three sums, sum k in bits [k * _FIELD_BITS, (k + 1) *
# _FIELD_BITS).  All are non-negative, so the fields never borrow; the
# largest is sum 2 over every position of a length-m mask, m(m+1)^2(m+2)/12,
# which stays below 2^128 while m <= 7 993 834 869: a word of about 8e9 bits,
# whose 1e9 rows could never be held in memory.
_FIELD_BITS = 128
_FIELD = (1 << _FIELD_BITS) - 1
_rows: tuple[list[int], ...] = ()  # row c: byte c of a mask from the left
# Rows kept for later calls: masks up to 2 048 bits, about 5.0 MB.  A longer
# mask builds its further rows for that call alone, so one long word does
# not pin their memory (about 19.5 KB a row) for the life of the process.
_KEPT_ROWS = 256
_entry = list.__getitem__


def _row(c: int) -> list[int]:
    """Packed sums of every byte whose leftmost bit sits at position 8c."""
    row = [0]
    for i in range(8):  # bit i of the byte, at position p = 8c + 7 - i, weighs P_k(p + 1)
        s0, s1, s2 = power_sums(8 * c + 8 - i)
        w = s0 | s1 << _FIELD_BITS | s2 << 2 * _FIELD_BITS
        row += [e + w for e in row]
    return row


def transition_sums(mask: int, length: int) -> tuple[int, int, int]:
    """Sum of P_k(p + 1) over the set bits of the ``length``-bit ``mask``,
    p being a bit's 0-based position from the left, for k = 0, 1, 2.

    One table lookup per byte: the rows depend only on the position, so
    every length shares them, and they are built up to the longest mask
    seen, or up to ``_KEPT_ROWS`` rows (see there).
    """
    global _rows
    chunks = (length + 7) >> 3
    rows = _rows
    if len(rows) < chunks:
        # a new tuple, never one extended in place, keeps row c at index c
        # even if two threads grow the rows at once
        kept = range(len(rows), min(chunks, _KEPT_ROWS))
        _rows = rows = rows + tuple(_row(c) for c in kept)
        rows += tuple(_row(c) for c in range(len(rows), chunks))
    packed = sum(map(_entry, rows, (mask << (-length & 7)).to_bytes(chunks, "big")))
    return packed & _FIELD, packed >> _FIELD_BITS & _FIELD, packed >> 2 * _FIELD_BITS


def padded_weight_sums(value: int, n: int) -> tuple[int, int, int, int]:
    """Exact dot products of the padded profile with the three weight vectors.

    ``value`` is the packed word (first symbol = most significant bit).
    Returns (sum0, sum1, sum2, padded adjacency count), unreduced.  Bit b of
    ``value ^ (value << 1)`` marks a transition into padded index t = n + 2 - b,
    which adds 1 to F_j for every j >= t, so sum k is
    count * P_k(n + 2) - (sum of P_k(t - 1) over the transitions), the
    subtracted part read off the mask's n + 1 bits by ``transition_sums``.
    """
    mask = value ^ (value << 1)
    q0, q1, q2 = transition_sums(mask, n + 1)
    count = mask.bit_count()
    f0, f1, f2 = power_sums(n + 2)
    return count * f0 - q0, count * f1 - q1, count * f2 - q2, count


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
