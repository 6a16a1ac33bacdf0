"""Unique decoding of words hit by at most two total edits.

Candidates are packed values (first symbol = most significant bit).  A
length-n preimage of the received word (length m) is two edits away from it:
a first edit onto a word ``v1`` of length m1, then a second onto length n.
Edits of different kinds commute, so one order of them serves each length
change, and two flips serve m = n:

- m = n: a deletion, then an insertion (m1 = n - 1).  This also gives the
  received word (the deleted symbol put back), a single substitution (the
  other symbol put in its place) and a deletion and an insertion in either
  order.  Two flips have m1 = n.
- m = n + 1: a deletion, then a flip (m1 = n).  A single deletion is
  another deletion and a flip, except in a constant word, where every
  deletion gives the same word; so a first-edit word of length n that fits
  s3 and s0 is also placed as it is.
- m = n - 1: an insertion, then a flip (m1 = n); a single insertion is the
  other symbol inserted and then flipped.
- m = n +- 2: two deletions or two insertions (m1 = n +- 1).

The first edits along this schedule are all built; the second is placed by
the code's residues, so only words that already fit the padded adjacency
count (s3) and the first moment (s0) are built.

Both edits are one formula.  An edit at bit or gap k (k bits to its right)
turns v into ``v ^ (w & -(1 << k)) ^ (f << k)``: w = ``v ^ (v << 1 >> i)``
takes the bits from k up from ``v << 1`` (an insertion, i = 0), v (a flip,
i = 1) or ``v >> 1`` (a deletion, i = 2), i being the source length minus
the target length plus one, and f = 1 flips bit k (a flip, or an inserted
bit made the other symbol, not a copy of its right neighbour).  Row i of
``_KINDS`` holds the edit's positions beyond the source length, its values
of f and its families by count residue.

With T = ``v1 ^ (v1 << 1)``, bit b of T marks an unequal neighbour pair of
``0 v1 0``; the count is popcount(T) and s0 is the sum of b + 1 over T's set
bits, at every length.  An edit at k rewrites T near k and shifts the bits
above it, so its change is read off (T_k, T_{k+1}) and A_j = popcount(T >> j);
``_FLIPS``, ``_DELETIONS``, ``_COPIES`` and ``_COMPLEMENTS`` list the closed
forms.

- Count: one edit changes the count by -2, 0 or +2, which differ mod 9, so
  s3 and v1's count fix the second edit's change.
- First moment: within one family the change is +-(slope * k + offset +
  A_{k+shift}), monotone in k and spanning fewer than 4n values, so s0 fixes
  it and a binary search over k finds the one position, or the one run of
  positions that all give the same word.
- A flip that keeps the count moves one transition by one place: s0 moves by
  +-1 wherever it applies, but s1 moves by +-(n + 1 - k), which fixes k.

``candidate_preimages`` is one flat loop: per first-edit length it builds
the first edits in one set and the position masks for s0 once; per
first-edit word it takes s0 inline, solves each family in place (a binary
search, a division, or the s1 step) and adds each placed word straight to
the set.  Every placed word still gets the full residue check, so a wrong
placement could only lose a candidate, never admit a wrong one.  Verified
parameters allow at most one survivor.
"""

from __future__ import annotations

from functools import cache

from .code import is_codeword, member_value
from .syndrome import COUNT_MODULUS, MAX_EDITS, SyndromeTuple, moduli, padded_weight_sums
from .words import Word


class DecodeError(ValueError):
    pass


class NoCandidateError(DecodeError):
    """Received word is not within two edits of any codeword."""


class AmbiguousDecodeError(DecodeError):
    """More than one codeword fits; signals invalid or unverified parameters."""


class ReceivedLengthError(DecodeError):
    """Received length differs from the code length by more than two."""


# An edit family applies at k where (T >> k) & mask == bits.  There it changes
# the count by dcount and s0 by sign * (slope * k + offset + A_{k+shift}),
# with no A term where shift is None.  Fields: mask, bits, dcount, sign,
# slope, offset, shift.  The bits read (T_k, T_{k+1}) as T_k + 2 * T_{k+1}.
_FLIPS = (
    (3, 0b00, 2, 1, 2, 3, None),  # (0, 0): +(2k + 3)
    (3, 0b11, -2, -1, 2, 3, None),  # (1, 1): -(2k + 3)
    (3, 0b01, 0, 1, 0, 1, None),  # (1, 0): +1
    (3, 0b10, 0, -1, 0, 1, None),  # (0, 1): -1
)
_DELETIONS = (
    (2, 0b00, 0, -1, 0, 0, 2),  # (0, 0) or (1, 0): -A_{k+2}
    (3, 0b10, 0, -1, 0, 1, 2),  # (0, 1): -1 - A_{k+2}
    (3, 0b11, -2, -1, 2, 3, 2),  # (1, 1): -(2k + 3) - A_{k+2}
)
_COPIES = ((0, 0, 0, 1, 0, 0, 0),)  # a copy of the right neighbour: +A_k
_COMPLEMENTS = (  # the other symbol
    (1, 0, 2, 1, 2, 3, 1),  # T_k = 0: +(2k + 3) + A_{k+1}
    (1, 1, 0, 1, 0, 0, 1),  # T_k = 1: +A_{k+1}
)


def _by_count(*kinds) -> dict[int, tuple]:
    """(s3 - count) % 9 -> the families, each with its f last, whose count
    change that residue asks for."""
    table: dict[int, tuple] = {}
    for f, families in kinds:
        for family in families:
            key = family[2] % COUNT_MODULUS
            table[key] = table.get(key, ()) + ((*family, f),)
    return table


# rows i = 0 (an insertion), 1 (a flip), 2 (a deletion): see the module docstring
_KINDS = (
    (1, (0, 1), _by_count((0, _COPIES), (1, _COMPLEMENTS))),
    (0, (1,), _by_count((1, _FLIPS))),
    (0, (0,), _by_count((0, _DELETIONS))),
)


@cache
def _position_masks(width: int) -> tuple[int, ...]:
    """Mask i has bit b set iff bit i of b is, for every b < 2^width."""
    ones = (1 << (1 << width)) - 1
    return tuple(
        ones // ((1 << (2 << i)) - 1) * (((1 << (1 << i)) - 1) << (1 << i)) for i in range(width)
    )


def candidate_preimages(received: Word, p: SyndromeTuple) -> set[int]:
    """Packed values of the length-n words within two edits of ``received``
    that the placement by s3, s0 and s1 keeps (see the module docstring).

    Edit distance is symmetric, so the preimages are the words reachable from
    ``received`` itself, along the module docstring's one edit order per
    length change; the second edit must land on length n.  The result holds
    every codeword within two edits of ``received``.
    """
    v, m, n = received.value, len(received), p.n
    if abs(m - n) > MAX_EDITS:
        raise ReceivedLengthError(
            f"received length {m} outside [{n - MAX_EDITS}, {n + MAX_EDITS}]"
        )
    m0, m1_mod, _, _ = moduli(n)
    s0, s1, s3 = p.s0, p.s1, p.s3
    out: set[int] = set()
    add = out.add
    for m1 in (n - 1, n) if m == n else (m + 1 if m < n else m - 1,):
        first, second = m - m1 + 1, m1 - n + 1
        extra1, fs, _ = _KINDS[first]
        w = v ^ (v << 1 >> first)
        extra, _, by_count = _KINDS[second]
        size = m1 + extra
        # s0 = popcount(T) plus 2^i times the set bits of T (bits 0..m1) whose position has bit i
        weights = tuple(enumerate(_position_masks(m1.bit_length())))
        # a run of equal bits gives the same deletion, so dedupe before expanding
        for v1 in {v ^ (w & -(1 << k)) ^ (f << k) for f in fs for k in range(m + extra1)}:
            t = v1 ^ (v1 << 1)
            count = t.bit_count()
            residue = (s3 - count) % COUNT_MODULUS
            families = by_count.get(residue)
            if families is None:
                continue
            d0 = s0 - count
            for i, mask in weights:
                d0 -= (t & mask).bit_count() << i
            if m1 == n and not residue and not d0 % m0:
                add(v1)  # no second edit: a single deletion of a constant word
            for mask, bits, _, sign, slope, offset, shift, f in families:
                goal = sign * d0 % m0 - offset
                if shift is None:  # a flip: slope * k == goal
                    k, rest = divmod(goal, slope) if slope else (0, goal)
                    if rest:
                        continue
                    if not slope:  # it keeps the count: s1 moves by sign * (n + 1 - k)
                        k = n + 1 - sign * (s1 - padded_weight_sums(v1, n)[1]) % m1_mod
                else:
                    # the lowest k where slope * k + A_{k+shift} reaches goal: the
                    # sum rises strictly for slope 2 and never rises for slope 0
                    lo, hi = 0, size
                    while lo < hi:
                        mid = (lo + hi) >> 1
                        a = (t >> (mid + shift)).bit_count()
                        if slope * mid + a >= goal if slope else a <= goal:
                            hi = mid
                        else:
                            lo = mid + 1
                    # goal holds at lo + 1 only if at lo: a slope-0 run of clear T bits,
                    # where a family applies only at lo, or from lo or lo + 1 on,
                    # giving one word; so k is lo where the family applies there
                    k = lo + (t >> lo & mask != bits)
                    if slope * k + (t >> (k + shift)).bit_count() != goal:
                        continue
                if 0 <= k < size and t >> k & mask == bits:
                    w1 = v1 ^ (v1 << 1 >> second)
                    add(v1 ^ (w1 & -(1 << k)) ^ (f << k))
    return out


def decode(received: Word, p: SyndromeTuple) -> Word:
    """The unique codeword within two edits of ``received``."""
    if len(received) == p.n and is_codeword(received, p):
        return received
    survivors = [v for v in candidate_preimages(received, p) if member_value(v, p)]
    if not survivors:
        raise NoCandidateError(f"{received} is not within {MAX_EDITS} edits of any codeword")
    if len(survivors) > 1:
        raise AmbiguousDecodeError(
            f"{received} decodes to {len(survivors)} codewords; parameters unverified?"
        )
    return Word.from_int(survivors[0], p.n)
