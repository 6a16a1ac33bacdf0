"""Binary codes correcting any two insertions, deletions, or substitutions.

Words are summarized by weighted checksums of the adjacency profile of their
zero-padded form; words sharing all four residues form codes whose members
are pairwise at edit distance at least five, so any two total edits can be
undone uniquely.  The package carries the full toolchain: word and profile
primitives, syndromes, the edit channel, code membership / enumeration /
census, a unique decoder, error classification and separation machinery, and
a batch CLI.

The names below are loaded on first use (PEP 562), so importing one module,
such as ``twoedit.cli`` for one command, loads only the modules it needs.
"""

from importlib import import_module

__version__ = "0.1.0"

# exported name -> the module that defines it
_EXPORTS = {
    "Alignment": "analysis",
    "ErrorTypeValue": "analysis",
    "Separation": "analysis",
    "classify_errors": "analysis",
    "pair_type": "analysis",
    "segment_once": "analysis",
    "separate_errors": "analysis",
    "ErrorPattern": "channel",
    "apply_errors": "channel",
    "edit_distance": "channel",
    "parse_pattern": "channel",
    "bucket_census": "code",
    "best_params": "code",
    "decode_index": "code",
    "encode_index": "code",
    "enumerate_codewords": "code",
    "is_codeword": "code",
    "redundancy": "code",
    "scan_pairwise_distance": "code",
    "AmbiguousDecodeError": "decoder",
    "NoCandidateError": "decoder",
    "candidate_preimages": "decoder",
    "decode": "decoder",
    "SyndromeTuple": "syndrome",
    "sign_preserving_number": "syndrome",
    "syndrome_tuple": "syndrome",
    "Word": "words",
    "adjacency_count": "words",
    "adjacency_profile": "words",
    "pad": "words",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
