"""Unique decoding of words hit by at most two total edits.

The decoder enumerates every length-n preimage of the received word under at
most two insertions/deletions/substitutions and keeps the ones lying in the
code.  Candidates are packed values (first symbol = most significant bit):
the words one edit away are built per edit kind as one list of shifts and
masks on the value.  Membership is tested on the value too: the padded
adjacency count (a popcount) rejects most candidates, and the rest cost one
table lookup per byte for the weighted sums (see ``syndrome``), so only the
surviving codeword becomes a ``Word``.  Verified parameters guarantee at
most one survivor.
"""

from __future__ import annotations

from .code import CodeParams, is_codeword, member_value
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


def candidate_preimages(received: Word, n: int) -> set[int]:
    """Packed values of all length-n words within two edits of ``received``.

    Edit distance is symmetric, so the preimages are the words reachable from
    ``received`` itself.  Fewer than two edits need no pass of their own:
    every word within one edit is also exactly two edits away (flip a bit
    twice; flip a bit, then delete it; insert a bit, then flip it; delete a
    bit, then insert its complement there).  A first edit is kept only if its
    length is within one of n; the second must land on length n.
    """
    v, m = received.value, len(received)
    if abs(m - n) > MAX_EDITS:
        raise ReceivedLengthError(
            f"received length {m} outside [{n - MAX_EDITS}, {n + MAX_EDITS}]"
        )
    out: set[int] = set()
    for m1 in range(max(m, n) - 1, min(m, n) + 2):
        # a run of equal bits gives the same deletion, so dedupe before expanding
        for v1 in set(_single_edits(v, m, m1)):
            out.update(_single_edits(v1, m1, n))
    return out


def decode(received: Word, p: CodeParams) -> Word:
    """The unique codeword within two edits of ``received``."""
    if len(received) == p.n and is_codeword(received, p):
        return received
    survivors = sorted(v for v in candidate_preimages(received, p.n) if member_value(v, p))
    if not survivors:
        raise NoCandidateError(f"{received} is not within {MAX_EDITS} edits of any codeword")
    if len(survivors) > 1:
        raise AmbiguousDecodeError(
            f"{received} decodes to {len(survivors)} codewords; parameters unverified?"
        )
    return Word.from_int(survivors[0], p.n)
