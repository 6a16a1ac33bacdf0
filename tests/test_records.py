"""The library's result records: named tuples that keep the field order,
values, text and checks they had as frozen dataclasses."""

import dataclasses
import pickle

import pytest

from twoedit.analysis import Alignment, ErrorTypeValue, SegmentationRound, Separation
from twoedit.channel import ErrorPattern
from twoedit.code import Census, DistanceViolation, SweepReport
from twoedit.syndrome import SyndromeTuple
from twoedit.words import Word

X, Y = Word("0110100"), Word("0111100")
ROUND = SegmentationRound(X, Y, (3, 3), Word("11"), Word("011110100"), Word("011111100"))
ALIGNMENT = Alignment((2,), (4, 5), (3,))

# (record, field order of the frozen dataclass it replaces, sample values)
RECORDS = [
    (SyndromeTuple, ("n", "s0", "s1", "s2", "s3"), (7, 1, 2, 3, 4)),
    (ErrorPattern, ("substitutions", "deletions", "insertions"), (((2, 1),), (4,), ((0, 1),))),
    (Census, ("n", "counts"), (7, {5: 2, 9: 1})),
    (DistanceViolation, ("x", "y", "distance", "key"), (X, Y, 1, (28, 1, 2, 3))),
    (
        SweepReport,
        ("n", "mode", "words", "groups", "pairs", "min_distance", "violations"),
        (7, "bucket", 128, 100, 3, 5, ()),
    ),
    (ErrorTypeValue, ("kind", "value", "position"), ("sub", 2, 4)),
    (Alignment, ("dels_u", "subs", "dels_v"), ((2,), (4, 5), (3,))),
    (
        SegmentationRound,
        ("x_before", "y_before", "cut", "filler", "x_after", "y_after"),
        tuple(ROUND),
    ),
    (Separation, ("u", "v", "s", "r", "alignment", "rounds"), (X, Y, 1, 1, ALIGNMENT, (ROUND,))),
]

# (record, field, invalid value, message) for the records that check their
# fields; ErrorPattern's cases are in test_channel.test_pattern_validation
INVALID = [
    (SyndromeTuple, "n", 6, "length must be at least 7, got 6"),
    (SyndromeTuple, "s0", 28, r"s0=28 outside \[0, 28\)"),
    (SyndromeTuple, "s3", -1, r"s3=-1 outside \[0, 9\)"),
    (ErrorTypeValue, "kind", "swap", "unknown error kind 'swap'"),
    (ErrorTypeValue, "value", 1, "value 1 invalid for kind sub"),
]


def frozen_dataclass(cls, fields, values):
    """The same values in a frozen dataclass of the same name and fields,
    the type each record was before it became a named tuple."""
    return dataclasses.make_dataclass(cls.__name__, fields, frozen=True)(*values)


@pytest.mark.parametrize("cls, fields, values", RECORDS, ids=[c.__name__ for c, *_ in RECORDS])
def test_record_contract(cls, fields, values):
    record = cls(*values)
    old = frozen_dataclass(cls, fields, values)
    assert cls._fields == fields
    assert record == cls(**dict(zip(fields, values))) == cls._make(values)
    assert record == values and tuple(record) == values
    assert repr(record) == repr(old)
    try:
        old_hash = hash(old)
    except TypeError:  # a field holds a dict
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == old_hash == hash(cls(*values))
    with pytest.raises(AttributeError):
        setattr(record, fields[0], values[0])
    assert not hasattr(record, "__dict__")
    assert pickle.loads(pickle.dumps(record)) == record


@pytest.mark.parametrize("cls, field, bad, message", INVALID)
def test_invalid_record_values_raise_on_every_path(cls, field, bad, message):
    fields, values = next((f, v) for c, f, v in RECORDS if c is cls)
    wrong = tuple(bad if f == field else v for f, v in zip(fields, values))
    with pytest.raises(ValueError, match=f"^{message}$"):
        cls(*wrong)
    with pytest.raises(ValueError, match=f"^{message}$"):
        cls(*values)._replace(**{field: bad})
    with pytest.raises(ValueError, match=f"^{message}$"):
        cls._make(wrong)


def test_records_unpack_index_and_replace_as_tuples():
    st = SyndromeTuple(7, 1, 2, 3, 4)
    n, *residues = st
    assert (n, residues, st[1]) == (7, [1, 2, 3, 4], 1)
    assert st._replace(s1=5) == SyndromeTuple(7, 1, 5, 3, 4)
    assert ErrorPattern._field_defaults == dict.fromkeys(ErrorPattern._fields, ())
    assert ErrorPattern() == ((), (), ())
