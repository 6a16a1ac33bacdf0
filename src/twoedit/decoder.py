"""Unique decoding of words hit by at most two total edits.

Candidates are packed values (first symbol = most significant bit).  A
length-n preimage of the received word is two edits away from it: a first
edit onto a word ``v1`` of length m1 within one of n, then a second onto
length n.  Fewer edits need no pass of their own, since a word within one
edit is also exactly two edits away.  The first edits are all built; the
second is placed by the code's residues, so only words that already fit the
padded adjacency count (s3) and the first moment (s0) are built.

With T = ``v1 ^ (v1 << 1)``, bit b of T marks an unequal neighbour pair of
``0 v1 0``; the count is popcount(T) and s0 is the sum of b + 1 over T's set
bits, at every length.  An edit at bit or gap k (k bits to its right)
rewrites T near k and shifts the bits above it, so its change is read off
(T_k, T_{k+1}) and A_j = popcount(T >> j); ``_FLIPS``, ``_DELETIONS``,
``_COPIES`` and ``_COMPLEMENTS`` list the closed forms.

- Count: one edit changes the count by -2, 0 or +2, which differ mod 9, so
  s3 and v1's count fix the second edit's change.
- First moment: within one family the change is +-(slope * k + offset +
  A_{k+shift}), monotone in k and spanning fewer than 4n values, so s0 fixes
  it and a binary search over k finds the one position, or the one run of
  positions that all give the same word.
- A flip that keeps the count moves one transition by one place: s0 moves by
  +-1 wherever it applies, but s1 moves by +-(n + 1 - k), which fixes k.

Every placed word still gets the full residue check, so a wrong placement
could only lose a candidate, never admit a wrong one.  Verified parameters
guarantee at most one survivor.
"""

from __future__ import annotations

from functools import cache

from .code import CodeParams, is_codeword, member_value
from .syndrome import COUNT_MODULUS, moduli, padded_weight_sums
from .words import Word

MAX_EDITS = 2


class DecodeError(ValueError):
    pass


class NoCandidateError(DecodeError):
    """Received word is not within two edits of any codeword."""


class AmbiguousDecodeError(DecodeError):
    """More than one codeword fits; signals invalid or unverified parameters."""


class ReceivedLengthError(DecodeError):
    """Received length differs from the code length by more than two."""


def _single_edits(v: int, m: int, target: int) -> list[int]:
    """The words of length ``target`` (m - 1, m or m + 1) one edit away from
    the length-m word ``v``, with repeats.

    ``k`` counts the bits to the right of the edited position or gap: flip
    bit k, delete it, or insert a bit with k bits to its right.  A deletion
    or insertion keeps v's bits below k and takes the bits from k up from
    ``v >> 1`` or ``v << 1``: with ``w`` that word xor ``v``,
    ``v ^ (w & -(1 << k))`` does both.  An inserted bit comes out a copy of
    its right neighbour; flipping it gives the other symbol.
    """
    if target == m:
        return [v ^ (1 << k) for k in range(m)]
    if target == m - 1:
        w = v ^ (v >> 1)
        return [v ^ (w & -(1 << k)) for k in range(m)]
    w = v ^ (v << 1)
    copies = [v ^ (w & -(1 << k)) for k in range(m + 1)]
    return copies + [c ^ (1 << k) for k, c in enumerate(copies)]


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


def _flip(v: int, t: int, k: int) -> int:
    return v ^ (1 << k)


def _delete(v: int, t: int, k: int) -> int:
    return v ^ ((v ^ (v >> 1)) & -(1 << k))


def _copy(v: int, t: int, k: int) -> int:
    return v ^ (t & -(1 << k))


def _complement(v: int, t: int, k: int) -> int:
    return v ^ (t & -(1 << k)) ^ (1 << k)


def _by_count(*kinds) -> dict[int, tuple]:
    """(s3 - count) % 9 -> the families, each with its word builder first,
    whose count change that residue asks for."""
    table: dict[int, tuple] = {}
    for build, families in kinds:
        for family in families:
            key = family[2] % COUNT_MODULUS
            table[key] = table.get(key, ()) + ((build, *family),)
    return table


# per second edit, indexed by m1 - n + 1 (an insertion, a flip, a deletion):
# how many positions beyond m1 it has, and its families by count residue
_KINDS = (
    (1, _by_count((_copy, _COPIES), (_complement, _COMPLEMENTS))),
    (0, _by_count((_flip, _FLIPS))),
    (0, _by_count((_delete, _DELETIONS))),
)


@cache
def _position_masks(width: int) -> tuple[int, ...]:
    """Mask i has bit b set iff bit i of b is, for every b < 2^width."""
    ones = (1 << (1 << width)) - 1
    return tuple(
        ones // ((1 << (2 << i)) - 1) * (((1 << (1 << i)) - 1) << (1 << i)) for i in range(width)
    )


def _first_moment(t: int) -> int:
    """The sum of b + 1 over the set bits b of ``t``: popcount(t) plus, for
    each bit i of a position, 2^i times the set bits whose position has it."""
    s = t.bit_count()
    for i, mask in enumerate(_position_masks((t.bit_length() - 1).bit_length())):
        s += (t & mask).bit_count() << i
    return s


def _positions(t: int, size: int, slope: int, offset: int, shift: int, target: int) -> list[int]:
    """The k < ``size`` with slope * k + offset + A_{k+shift} == ``target``
    that a family can use, A_j being popcount(t >> j).

    The sum is strictly increasing in k for slope 2 and non-increasing for
    slope 0, so a binary search finds the lowest k that reaches ``target``.
    Only it and the next k matter.  A slope-2 solution is unique.  Where a
    slope-0 sum stays at ``target`` from lo to some k', T is clear from bit
    lo + shift to bit k' + shift - 1, so a family applies there only at lo,
    or (copies, and deletions where T_{k+1} = 0) at each k of one run from
    lo or lo + 1 on, and every k of a run gives the same word.
    """
    lo, hi = 0, size
    while lo < hi:
        mid = (lo + hi) >> 1
        g = slope * mid + offset + (t >> (mid + shift)).bit_count()
        if g >= target if slope else g <= target:
            hi = mid
        else:
            lo = mid + 1
    return [
        k for k in (lo, lo + 1) if slope * k + offset + (t >> (k + shift)).bit_count() == target
    ]


def candidate_preimages(received: Word, p: CodeParams) -> set[int]:
    """Packed values of the length-n words within two edits of ``received``
    that the placement by s3, s0 and s1 keeps (see the module docstring).

    Edit distance is symmetric, so the preimages are the words reachable from
    ``received`` itself.  A first edit is kept only if its length is within
    one of n; the second must land on length n.  The result holds every
    codeword within two edits of ``received``.
    """
    v, m, n = received.value, len(received), p.n
    if abs(m - n) > MAX_EDITS:
        raise ReceivedLengthError(
            f"received length {m} outside [{n - MAX_EDITS}, {n + MAX_EDITS}]"
        )
    r = p.residues
    m0, m1_mod, _, _ = moduli(n)
    out: set[int] = set()
    for m1 in range(max(m, n) - 1, min(m, n) + 2):
        extra, by_count = _KINDS[m1 - n + 1]
        size = m1 + extra
        # a run of equal bits gives the same deletion, so dedupe before expanding
        for v1 in set(_single_edits(v, m, m1)):
            t = v1 ^ (v1 << 1)
            families = by_count.get((r.s3 - t.bit_count()) % COUNT_MODULUS)
            if families is None:
                continue
            d0 = r.s0 - _first_moment(t)
            for build, mask, bits, _, sign, slope, offset, shift in families:
                target = sign * d0 % m0
                if shift is not None:
                    ks = _positions(t, size, slope, offset, shift, target)
                elif slope:  # a flip changing the count
                    k, rest = divmod(target - offset, slope)
                    ks = () if rest else (k,)
                elif target == offset:  # a flip keeping it: s1 moves by sign * (n + 1 - k)
                    ks = (n + 1 - sign * (r.s1 - padded_weight_sums(v1, n)[1]) % m1_mod,)
                else:
                    continue
                out.update(build(v1, t, k) for k in ks if 0 <= k < size and t >> k & mask == bits)
    return out


def decode(received: Word, p: CodeParams) -> Word:
    """The unique codeword within two edits of ``received``."""
    if len(received) == p.n and is_codeword(received, p):
        return received
    survivors = sorted(v for v in candidate_preimages(received, p) if member_value(v, p))
    if not survivors:
        raise NoCandidateError(f"{received} is not within {MAX_EDITS} edits of any codeword")
    if len(survivors) > 1:
        raise AmbiguousDecodeError(
            f"{received} decodes to {len(survivors)} codewords; parameters unverified?"
        )
    return Word.from_int(survivors[0], p.n)
