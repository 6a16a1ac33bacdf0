"""Binary codes correcting any two insertions, deletions, or substitutions.

Words are summarized by weighted checksums of the adjacency profile of their
zero-padded form; words sharing all four residues form codes whose members
are pairwise at edit distance at least five, so any two total edits can be
undone uniquely.  The package carries the full toolchain: word and profile
primitives, syndromes, the edit channel, code membership / enumeration /
census, a unique decoder, error classification and separation machinery, and
a batch CLI.
"""

from .analysis import (
    Alignment,
    ErrorTypeValue,
    Separation,
    classify_errors,
    is_good_pair,
    pair_type,
    segment_once,
    separate_errors,
)
from .channel import (
    ErrorPattern,
    apply_errors,
    edit_distance,
    parse_pattern,
)
from .code import (
    CodeParams,
    bucket_census,
    best_params,
    decode_index,
    encode_index,
    enumerate_codewords,
    is_codeword,
    redundancy,
    scan_pairwise_distance,
)
from .decoder import AmbiguousDecodeError, NoCandidateError, candidate_preimages, decode
from .syndrome import SyndromeTuple, sign_preserving_number, syndrome_tuple
from .words import Word, adjacency_count, adjacency_profile, pad

__version__ = "0.1.0"

__all__ = [
    "Alignment",
    "AmbiguousDecodeError",
    "CodeParams",
    "ErrorPattern",
    "ErrorTypeValue",
    "NoCandidateError",
    "Separation",
    "SyndromeTuple",
    "Word",
    "adjacency_count",
    "adjacency_profile",
    "apply_errors",
    "best_params",
    "bucket_census",
    "candidate_preimages",
    "classify_errors",
    "decode",
    "decode_index",
    "edit_distance",
    "encode_index",
    "enumerate_codewords",
    "is_codeword",
    "is_good_pair",
    "pad",
    "pair_type",
    "parse_pattern",
    "redundancy",
    "scan_pairwise_distance",
    "segment_once",
    "separate_errors",
    "sign_preserving_number",
    "syndrome_tuple",
]
