import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import all_patterns, candidate_preimages_ball, error_ball, padded_weight_sums_loop
from twoedit.channel import apply_errors, edit_distance, random_pattern
from twoedit.code import CodeParams, best_params, enumerate_codewords, member_value
from twoedit.decoder import (
    AmbiguousDecodeError,
    NoCandidateError,
    ReceivedLengthError,
    candidate_preimages,
    decode,
)
from twoedit.syndrome import moduli, syndrome_tuple
from twoedit.words import Word


def union_ball(x):
    out = set()
    for t in range(3):
        for s in range(3 - t):
            for r in range(3 - t - s):
                if s <= len(x):
                    out |= error_ball(x, t, s, r)
    return out


def test_zero_edit_preimage():
    w = Word("010011")
    assert w.value in candidate_preimages(w, 6)


def test_single_deletion_preimages_example():
    got = candidate_preimages(Word("01"), 3)
    by_deletion = {x for x in (Word.from_int(v, 3) for v in range(8)) if Word("01") in error_ball(x, 0, 1, 0)}
    assert by_deletion == {Word("001"), Word("010"), Word("011"), Word("101")}
    assert {x.value for x in by_deletion} <= got


@pytest.mark.parametrize("n", (4, 5))
def test_preimages_match_forward_enumeration_exhaustively(n):
    words = [Word.from_int(v, n) for v in range(1 << n)]
    balls = {x: union_ball(x) for x in words}
    for m in range(n - 2, n + 3):
        for v in range(1 << m):
            received = Word.from_int(v, m)
            expected = {x.value for x in words if received in balls[x]}
            assert candidate_preimages(received, n) == expected


def test_forward_backward_consistency_randomized():
    rng = random.Random(17)
    for _ in range(300):
        x = Word.from_int(rng.getrandbits(9), 9)
        pattern = random_pattern(rng, 9)
        received = apply_errors(x, pattern)
        assert x.value in candidate_preimages(received, 9)


@pytest.mark.parametrize("n", (4, 5, 6))
def test_preimages_match_ball_oracle_exhaustively(n):
    for m in range(n - 2, n + 3):
        for v in range(1 << m):
            received = Word.from_int(v, m)
            oracle = candidate_preimages_ball(received, n)
            assert candidate_preimages(received, n) == {w.value for w in oracle}


@pytest.mark.parametrize("n, count", ((16, 40), (32, 40), (64, 3)))
def test_preimages_match_ball_oracle_randomized(n, count):
    rng = random.Random(n)
    for _ in range(count):
        m = rng.randint(n - 2, n + 2)
        received = Word.from_int(rng.getrandbits(m), m)
        oracle = candidate_preimages_ball(received, n)
        assert candidate_preimages(received, n) == {w.value for w in oracle}


@given(st.sampled_from((16, 32, 64)), st.randoms(use_true_random=False))
def test_sent_word_is_a_preimage_past_the_cap(n, rng):
    x = Word.from_int(rng.getrandbits(n), n)
    received = apply_errors(x, random_pattern(rng, n))
    assert x.value in candidate_preimages(received, n)


@pytest.mark.parametrize("n", (16, 32, 64))
def test_decode_round_trip_past_the_cap(n):
    # every residue class is a code, so the sent word's own class decodes it
    rng = random.Random(1000 + n)
    for _ in range(20):
        x = Word.from_int(rng.getrandbits(n), n)
        received = apply_errors(x, random_pattern(rng, n))
        assert decode(received, CodeParams(syndrome_tuple(x))) == x


EDIT_KINDS = [(t, s, r) for t in range(3) for s in range(3 - t) for r in range(3 - t - s)][1:]


@pytest.mark.parametrize("n, sample", ((64, None), (128, None), (256, 1500)))
def test_decode_round_trip_every_edit_kind_long(n, sample):
    # every one- and two-edit kind (t insertions, s deletions, r
    # substitutions).  The filter keeps what the bit-loop residues keep, on
    # every candidate, or at n = 256, where a kind has up to ~68 000
    # candidates and the loop is linear in n, on a seeded sample and the
    # sent word.
    rng = random.Random(n)
    m = moduli(n)
    for counts in EDIT_KINDS:
        x = Word.from_int(rng.getrandbits(n), n)
        params = CodeParams(syndrome_tuple(x))
        r = params.residues
        target = (r.s0, r.s1, r.s2, r.s3)
        received = apply_errors(x, random_pattern(rng, n, counts=counts))
        candidates = sorted(candidate_preimages(received, n))
        assert [v for v in candidates if member_value(v, params)] == [x.value], counts
        assert decode(received, params) == x
        checked = candidates if sample is None else rng.sample(candidates, sample) + [x.value]
        by_loop = [
            tuple(s % k for s, k in zip(padded_weight_sums_loop(v, n), m)) == target
            for v in checked
        ]
        assert [member_value(v, params) for v in checked] == by_loop, counts


def test_preimage_length_window():
    with pytest.raises(ReceivedLengthError):
        candidate_preimages(Word("0101"), 9)
    with pytest.raises(ReceivedLengthError):
        candidate_preimages(Word("0101010101010"), 9)


def test_decode_identity_on_codewords():
    params, _ = best_params(11)
    for c in enumerate_codewords(params):
        assert decode(c, params) == c


def test_decode_round_trip_on_colliding_code():
    params, count = best_params(11)
    assert count >= 2
    codewords = enumerate_codewords(params)
    rng = random.Random(23)
    for c in codewords:
        for _ in range(120):
            received = apply_errors(c, random_pattern(rng, len(c)))
            assert decode(received, params) == c


def test_decode_all_double_deletions():
    params, _ = best_params(11)
    c = enumerate_codewords(params)[0]
    for received in error_ball(c, 0, 2, 0):
        assert decode(received, params) == c


def test_decode_round_trip_all_patterns_small():
    params, _ = best_params(8)
    for c in enumerate_codewords(params):
        for pattern in all_patterns(8, 2):
            assert decode(apply_errors(c, pattern), params) == c


def test_decode_no_candidate():
    params = CodeParams.from_values(9, 0, 0, 0, 0)
    with pytest.raises(NoCandidateError):
        decode(Word("111111111"), params)


def test_decode_never_ambiguous_for_verified_params():
    params, _ = best_params(11)
    c = enumerate_codewords(params)[1]
    for pattern in all_patterns(11, 2):
        received = apply_errors(c, pattern)
        try:
            assert decode(received, params) == c
        except AmbiguousDecodeError:  # pragma: no cover - must never happen
            pytest.fail(f"ambiguous decode for pattern {pattern}")


def test_decode_agrees_with_nearest_codeword_search():
    # independent oracle: scan the enumerated code for members within two
    # edits of the received word
    params, _ = best_params(11)
    codewords = enumerate_codewords(params)
    rng = random.Random(41)
    for _ in range(150):
        c = codewords[rng.randrange(len(codewords))]
        received = apply_errors(c, random_pattern(rng, len(c)))
        near = [w for w in codewords if edit_distance(w, received) <= 2]
        assert near == [decode(received, params)]
