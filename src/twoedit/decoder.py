"""Unique decoding of words hit by at most two total edits.

The decoder enumerates every length-n preimage of the received word under at
most two insertions/deletions/substitutions and keeps the ones lying in the
code.  Candidates are packed values (first symbol = most significant bit):
each edit is a shift and a mask on the received word's value, and membership
is tested on the value, so only the surviving codeword becomes a ``Word``.
Verified parameters guarantee at most one survivor.
"""

from __future__ import annotations

from typing import Iterator

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


def _single_edits(v: int, m: int, lo: int, hi: int) -> Iterator[tuple[int, int]]:
    """Every ``(value, length)`` one edit away from the length-m word ``v``
    whose length lies in [lo, hi].

    ``k`` counts the bits to the right of the edited position or gap: delete
    bit k, flip bit k, or insert 0 or 1 with k bits to its right.
    """
    if lo <= m - 1 <= hi:
        for k in range(m):
            yield (v >> (k + 1) << k) | (v & ((1 << k) - 1)), m - 1
    if lo <= m <= hi:
        for k in range(m):
            yield v ^ (1 << k), m
    if lo <= m + 1 <= hi:
        for k in range(m + 1):
            spread = (v >> k << (k + 1)) | (v & ((1 << k) - 1))
            yield spread, m + 1
            yield spread | (1 << k), m + 1


def candidate_preimages(received: Word, n: int) -> set[int]:
    """Packed values of all length-n words within two edits of ``received``.

    Edit distance is symmetric, so the preimages are the words reachable from
    ``received`` itself.  Fewer than two edits need no pass of their own:
    every word within one edit is also exactly two edits away (flip a bit
    twice; flip a bit, then delete it; insert a bit, then flip it; delete a
    bit, then insert its complement there).  A first edit is kept only if its
    length is within one of n; the second must land on length n and streams
    straight into the result.
    """
    v, m = received.value, len(received)
    if abs(m - n) > MAX_EDITS:
        raise ReceivedLengthError(
            f"received length {m} outside [{n - MAX_EDITS}, {n + MAX_EDITS}]"
        )
    out: set[int] = set()
    # a run of equal bits gives the same deletion, so dedupe before expanding
    for v1, m1 in set(_single_edits(v, m, n - 1, n + 1)):
        out.update(v2 for v2, _ in _single_edits(v1, m1, n, n))
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
