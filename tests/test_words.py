import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from oracles import invert, write_words
from twoedit.words import (
    Word,
    adjacency_count,
    adjacency_profile,
    pad,
    parse_word,
)

random_words = st.integers(min_value=1, max_value=14).flatmap(
    lambda n: st.integers(min_value=0, max_value=(1 << n) - 1).map(lambda v: Word.from_int(v, n))
)


def test_word_construction_and_rendering():
    assert str(Word("0101")) == "0101"
    assert Word([0, 1, 0, 1]) == Word("0101")
    assert Word("") == oracles.zeros(0)
    assert Word.from_int(5, 4) == Word("0101")
    assert Word("0101").value == 5
    assert list(Word("110")) == [1, 1, 0]
    assert Word("110")[0] == 1 and Word("110")[2] == 0
    assert Word("110")[-1] == 0
    assert Word("01101")[1:4] == Word("110")
    assert Word("01101")[3:1] == Word("") == Word("01101")[5:]
    assert Word(Word("0110")) == Word("0110")
    assert repr(Word("0110")) == "Word('0110')" and repr(Word("")) == "Word('')"


def test_word_rejects_garbage():
    with pytest.raises(ValueError):
        Word("01x")
    # strings that int(text, 2) alone would accept or misread
    cases = {"0_1": "_", "+01": "+", " 01": " ", "01\n": "\n", "0b1": "b", "\uff101": "\uff10"}
    for text, bad in cases.items():
        with pytest.raises(ValueError, match=re.escape(f"invalid symbol {bad!r} in word")):
            Word(text)
    with pytest.raises(ValueError):
        Word([0, 2])
    with pytest.raises(ValueError):
        Word.from_int(4, 2)
    with pytest.raises(ValueError, match="non-negative"):
        Word.from_int(0, -1)
    with pytest.raises(ValueError, match="contiguous"):
        Word("0110")[::2]
    for index in (4, -5):
        with pytest.raises(IndexError):
            Word("0110")[index]


def test_word_ordering_is_lexicographic_on_equal_lengths():
    # words of one length in packed-value order, as enumeration lists them
    ws = [Word.from_int(v, 4) for v in range(16)]
    assert [str(w) for w in ws] == sorted(str(w) for w in ws)


def test_pad_examples():
    assert str(pad(Word("110"))) == "01100"
    assert str(pad(Word(""))) == "00"
    assert str(pad(Word("0"))) == "000"


@given(random_words)
def test_pad_shape(w):
    p = pad(w)
    assert len(p) == len(w) + 2
    assert p[0] == 0 and p[len(p) - 1] == 0
    assert p[1 : len(p) - 1] == w


def test_adjacency_count_examples():
    assert adjacency_count(Word("000100")) == 2
    assert adjacency_count(Word("0000")) == 0
    assert adjacency_count(Word("01100")) == 2
    assert adjacency_count(Word("")) == 0
    assert adjacency_count(Word("1")) == 0


@given(random_words)
def test_adjacency_count_matches_string_oracle(w):
    assert adjacency_count(w) == oracles.transitions(str(w))


def test_adjacency_profile_examples():
    assert adjacency_profile(Word("000100")) == (0, 0, 0, 1, 2, 2)
    assert adjacency_profile(Word("1")) == (0,)
    assert adjacency_profile(Word("01100")) == oracles.prefix_transitions("01100") == (0, 1, 1, 2, 2)


@pytest.mark.parametrize("n", range(9))
def test_profile_difference_matches_the_quadratic_form(n):
    # the running count against a rescan of every prefix
    words = [Word.from_int(v, n) for v in range(1 << n)]
    rescan = {w: [oracles.transitions(str(w)[: i + 1]) for i in range(n)] for w in words}
    for x in words:
        for y in words:
            expected = tuple(a - b for a, b in zip(rescan[x], rescan[y]))
            assert oracles.profile_difference(x, y) == expected


def test_adjacency_profile_rejects_empty():
    with pytest.raises(ValueError):
        adjacency_profile(Word(""))


@given(random_words)
def test_adjacency_profile_steps(w):
    profile = adjacency_profile(w)
    assert profile[0] == 0
    assert all(b - a in (0, 1) for a, b in zip(profile, profile[1:]))
    assert profile[-1] == adjacency_count(w)


@pytest.mark.parametrize("m", range(1, 13))
def test_padded_profiles_separate_all_words(m):
    profiles = {adjacency_profile(pad(Word.from_int(v, m))) for v in range(1 << m)}
    assert len(profiles) == 1 << m


def test_invert_examples():
    assert invert((1, 2, 3)) == (3, 2, 1)
    assert invert(Word("110")) == Word("011")
    assert invert(Word("010")) == Word("010")


@given(random_words)
def test_invert_involution_and_count(w):
    assert invert(invert(w)) == w
    assert adjacency_count(invert(w)) == adjacency_count(w)


def test_word_line_serialization():
    ws = [Word("0101"), Word("1"), Word("000")]
    text = write_words(ws)
    assert text == "0101\n1\n000\n"
    assert [parse_word(line) for line in text.splitlines()] == ws
    assert parse_word("  0101\n") == Word("0101")
    with pytest.raises(ValueError) as err:
        parse_word("01a1\n", 2)
    assert "line 2" in str(err.value)
