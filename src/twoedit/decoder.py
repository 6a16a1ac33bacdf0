"""Unique decoding of words hit by at most two total edits.

The decoder enumerates every length-n preimage of the received word under at
most two insertions/deletions/substitutions and keeps the ones lying in the
code.  Verified parameters guarantee at most one survivor.
"""

from __future__ import annotations

from .channel import error_ball
from .code import CodeParams, is_codeword
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


def candidate_preimages(received: Word, n: int) -> set[Word]:
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


def decode(received: Word, p: CodeParams) -> Word:
    """The unique codeword within two edits of ``received``."""
    if len(received) == p.n and is_codeword(received, p):
        return received
    survivors = sorted(c for c in candidate_preimages(received, p.n) if is_codeword(c, p))
    if not survivors:
        raise NoCandidateError(f"{received} is not within {MAX_EDITS} edits of any codeword")
    if len(survivors) > 1:
        raise AmbiguousDecodeError(
            f"{received} decodes to {len(survivors)} codewords; parameters unverified?"
        )
    return survivors[0]
