import ast
from pathlib import Path

# What tests/oracles.py may import from the library.  A reference that calls
# the code it checks agrees with it by construction, so an oracle may share
# only names that carry no logic under test (constants, exceptions, result
# types), the relation search and filler rule that the separation reference
# starts from, and the primitives the references build their inputs from,
# each checked against a reference of its own elsewhere.
ALLOWED = {
    "twoedit.analysis": {
        # constants
        "_RELATION_ORDER",
        "DEL_OVER",
        "DEL_UNDER",
        "SUB",
        # exceptions
        "AlignmentError",
        "NoRelationError",
        "SeparationError",
        # result dataclasses
        "Alignment",
        "ErrorTypeValue",
        "SegmentationRound",
        "Separation",
        # checked by find_relation_per_shape and the sixteen-case filler test
        "find_relation",
        "_meet_filler",
    },
    # random_pattern and apply_errors build corrupted inputs; apply_errors
    # against apply_errors_list (test_channel)
    "twoedit.channel": {"ErrorPattern", "apply_errors", "random_pattern"},
    "twoedit.code": {"MODE_EXACT", "DistanceViolation", "SweepReport"},
    "twoedit.decoder": {"MAX_EDITS", "ReceivedLengthError"},
    # sign_preserving_number against sigma_exhaustive (test_syndrome)
    "twoedit.syndrome": {"MIN_CODE_LENGTH", "SyndromeTuple", "moduli", "sign_preserving_number"},
    # the word type and its profile helpers (test_words)
    "twoedit.words": {"Word", "adjacency_count", "adjacency_profile", "pad"},
}


def test_oracles_import_only_allowed_library_names():
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {(a.name, None) for a in node.names if a.name.split(".")[0] == "twoedit"}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "twoedit":
            imported |= {(node.module, a.name) for a in node.names}
    assert imported, "oracles.py imports nothing from twoedit"
    outside = {(m, name) for m, name in imported if name not in ALLOWED.get(m, ())}
    assert not outside, f"oracles.py imports library code it may check: {sorted(outside, key=str)}"
