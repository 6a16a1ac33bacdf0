import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import (
    all_patterns,
    candidate_preimages_ball,
    error_ball,
    padded_weight_sums_loop,
    placed_preimages,
    preimage_values_ball,
    second_edit_sums,
)
from twoedit.channel import apply_errors, edit_distance, random_pattern
from twoedit.code import CodeParams, best_params, enumerate_codewords, member_value
from twoedit.decoder import (
    _COMPLEMENTS,
    _COPIES,
    _DELETIONS,
    _FLIPS,
    AmbiguousDecodeError,
    DecodeError,
    NoCandidateError,
    ReceivedLengthError,
    candidate_preimages,
    decode,
)
from twoedit.syndrome import SyndromeTuple, moduli, syndrome_tuple
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
    w = Word("0100110")
    assert w.value in candidate_preimages(w, CodeParams(syndrome_tuple(w)))


def test_single_deletion_preimages_example():
    got = preimage_values_ball(Word("01"), 3)
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
            assert preimage_values_ball(received, n) == expected


def test_forward_backward_consistency_randomized():
    rng = random.Random(17)
    for _ in range(300):
        x = Word.from_int(rng.getrandbits(9), 9)
        pattern = random_pattern(rng, 9)
        received = apply_errors(x, pattern)
        assert x.value in candidate_preimages(received, CodeParams(syndrome_tuple(x)))


@pytest.mark.parametrize("n", (4, 5, 6))
def test_preimages_match_ball_oracle_exhaustively(n):
    for m in range(n - 2, n + 3):
        for v in range(1 << m):
            received = Word.from_int(v, m)
            oracle = candidate_preimages_ball(received, n)
            assert preimage_values_ball(received, n) == {w.value for w in oracle}


@pytest.mark.parametrize("n, count", ((16, 40), (32, 40), (64, 3)))
def test_preimages_match_ball_oracle_randomized(n, count):
    rng = random.Random(n)
    for _ in range(count):
        m = rng.randint(n - 2, n + 2)
        received = Word.from_int(rng.getrandbits(m), m)
        oracle = candidate_preimages_ball(received, n)
        assert preimage_values_ball(received, n) == {w.value for w in oracle}


@given(st.sampled_from((16, 32, 64)), st.randoms(use_true_random=False))
def test_sent_word_is_a_preimage_past_the_cap(n, rng):
    x = Word.from_int(rng.getrandbits(n), n)
    received = apply_errors(x, random_pattern(rng, n))
    assert x.value in candidate_preimages(received, CodeParams(syndrome_tuple(x)))


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
    # every candidate, or, where there are more than ``sample``, on a
    # seeded sample and the sent word.
    rng = random.Random(n)
    m = moduli(n)
    for counts in EDIT_KINDS:
        x = Word.from_int(rng.getrandbits(n), n)
        params = CodeParams(syndrome_tuple(x))
        r = params.residues
        target = (r.s0, r.s1, r.s2, r.s3)
        received = apply_errors(x, random_pattern(rng, n, counts=counts))
        candidates = sorted(candidate_preimages(received, params))
        assert [v for v in candidates if member_value(v, params)] == [x.value], counts
        assert decode(received, params) == x
        if sample is None or len(candidates) <= sample:
            checked = candidates
        else:
            checked = rng.sample(candidates, sample) + [x.value]
        by_loop = [
            tuple(s % k for s, k in zip(padded_weight_sums_loop(v, n), m)) == target
            for v in checked
        ]
        assert [member_value(v, params) for v in checked] == by_loop, counts


def test_preimage_length_window():
    params = CodeParams.from_values(9, 0, 0, 0, 0)
    with pytest.raises(ReceivedLengthError):
        candidate_preimages(Word("0101"), params)
    with pytest.raises(ReceivedLengthError):
        candidate_preimages(Word("0101010101010"), params)


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


# -- placement of the second edit by the residues ------------------------------

FAMILIES = {"flip": _FLIPS, "delete": _DELETIONS, "copy": _COPIES, "complement": _COMPLEMENTS}


def edited(bits: str, kind: str, k: int) -> str:
    """``bits`` after one edit with k symbols to its right: a flip or a
    deletion of that symbol, or an inserted copy of the right neighbour (the
    right pad 0 at k = 0) or of the other symbol."""
    if kind in ("flip", "delete"):
        i = len(bits) - 1 - k
        return bits[:i] + ("10"[int(bits[i])] if kind == "flip" else "") + bits[i + 1 :]
    g = len(bits) - k
    right = bits[g] if k else "0"
    return bits[:g] + (right if kind == "copy" else "10"[int(right)]) + bits[g:]


def family_step(family: tuple, t: int, k: int) -> tuple[int, int]:
    """(change in count, change in s0) of an edit of ``family`` at k, as its
    closed form states them for the transition mask ``t``."""
    _, _, dcount, sign, slope, offset, shift = family
    a = 0 if shift is None else (t >> (k + shift)).bit_count()
    return dcount, sign * (slope * k + offset + a)


def one_edit_steps(bits: str, kind: str):
    """Per position: the family that applies, its closed-form steps, and the
    brute-force changes in count, s0 and s1 (s1 at equal lengths only)."""
    m = len(bits)
    v = int(bits or "0", 2)
    t = v ^ (v << 1)
    before = padded_weight_sums_loop(v, m)
    for k in range(m + (kind in ("copy", "complement"))):
        out = edited(bits, kind, k)
        after = padded_weight_sums_loop(int(out or "0", 2), len(out))
        applies = [f for f in FAMILIES[kind] if t >> k & f[0] == f[1]]
        assert len(applies) == 1, (bits, kind, k)
        yield k, applies[0], family_step(applies[0], t, k), (
            after[3] - before[3],
            after[0] - before[0],
            after[1] - before[1] if len(out) == m else None,
        )


@pytest.mark.parametrize("kind", sorted(FAMILIES))
def test_closed_forms_match_brute_force(kind):
    # every word of length <= 10, every position: the families partition the
    # positions, and the closed forms give the count and s0 changes; a flip
    # that keeps the count changes s1 by sign * (n + 1 - k)
    for m in range(11):
        for v in range(1 << m):
            bits = format(v, f"0{m}b") if m else ""
            for k, family, (dcount, ds0), (bf_count, bf_s0, bf_s1) in one_edit_steps(bits, kind):
                assert (dcount, ds0) == (bf_count, bf_s0), (bits, kind, k)
                if kind == "flip" and dcount == 0:
                    assert bf_s1 == family[3] * (m + 1 - k), (bits, k)


@pytest.mark.parametrize("kind", sorted(FAMILIES))
def test_moment_changes_fit_the_s0_modulus(kind):
    # for one kind and one count change the s0 changes of a word span at most
    # 2n + 1 < 4n (n the length after the edit), so s0 fixes the change; and
    # every unsigned family sum the placement solves for lies in [0, 4n)
    for m in range(1, 11):
        for v in range(1 << m):
            bits = format(v, f"0{m}b")
            n = len(edited(bits, kind, 0))
            if n < 2:
                continue
            by_count: dict[int, list[int]] = {}
            for k, family, (dcount, ds0), _ in one_edit_steps(bits, kind):
                by_count.setdefault(dcount, []).append(ds0)
                assert 0 <= ds0 * family[3] < 4 * n, (bits, k)
            for dcount, steps in by_count.items():
                assert max(steps) - min(steps) <= 2 * n + 1 < 4 * n, (bits, kind, dcount)


def _s1_to_place(rng, paths, s3, s0, n):
    """An s1 residue that some count-keeping flip among ``paths`` reaches with
    these s3 and s0 residues, so the s1 placement has a word to find; a
    random one where there is none."""
    m0, m1, _, _ = moduli(n)
    hits = sorted(
        sums[1] % m1
        for _, sums, keeps in paths
        if keeps and sums[3] % 9 == s3 and sums[0] % m0 == s0
    )
    return rng.choice(hits) if hits else rng.randrange(m1)


@pytest.mark.parametrize("n, s0_sample", ((7, None), (8, 6)))
def test_placement_matches_the_path_oracle_exhaustively(n, s0_sample):
    # every received length n - 2..n + 2, every received word, every s3, and
    # every s0 (a seeded sample of them at n = 8): the placed set is the
    # two-edit ball filtered path by path by count and s0, and, after a flip
    # that keeps the count, by s1, the sums taken by the bit loop
    rng = random.Random(n)
    m0, _, m2, _ = moduli(n)
    for m in range(n - 2, n + 3):
        for v in range(1 << m):
            received = Word.from_int(v, m)
            paths = second_edit_sums(received, n)
            for s3 in range(9):
                s0s = range(m0) if s0_sample is None else rng.sample(range(m0), s0_sample)
                for s0 in s0s:
                    s1 = _s1_to_place(rng, paths, s3, s0, n)
                    r = SyndromeTuple(n, s0, s1, rng.randrange(m2), s3)
                    got = candidate_preimages(received, CodeParams(r))
                    assert got == placed_preimages(paths, r), (received, r)


@pytest.mark.parametrize("n, count", ((16, 30), (32, 15)))
def test_placement_lies_between_the_code_and_the_count_and_s0_ball(n, count):
    # the placed set holds every ball word in the code and only ball words
    # with the code's count and s0 residues, on seeded requests near a
    # codeword and on random received words
    rng = random.Random(n + 1)
    m0, _, _, _ = moduli(n)
    for i in range(count):
        x = Word.from_int(rng.getrandbits(n), n)
        params = CodeParams(syndrome_tuple(x))
        r = params.residues
        if i % 2:
            received = apply_errors(x, random_pattern(rng, n))
        else:
            m = rng.randint(n - 2, n + 2)
            received = Word.from_int(rng.getrandbits(m), m)
        ball = preimage_values_ball(received, n)
        got = candidate_preimages(received, params)
        paths = second_edit_sums(received, n)
        assert got == placed_preimages(paths, r)
        assert {v for v in ball if member_value(v, params)} <= got
        assert all(
            (c ^ (c << 1)).bit_count() % 9 == r.s3 and padded_weight_sums_loop(c, n)[0] % m0 == r.s0
            for c in got
        )
        assert got <= ball


def _outcome(fn):
    try:
        return "decode", fn().value
    except DecodeError as exc:
        return {
            NoCandidateError: "no_candidate",
            AmbiguousDecodeError: "ambiguous",
            ReceivedLengthError: "length",
        }[type(exc)], None


def _decode_by_ball(received: Word, params: CodeParams) -> Word:
    """``decode`` with the whole two-edit ball as its candidates."""
    n = params.n
    if len(received) == n and member_value(received.value, params):
        return received
    survivors = sorted(v for v in preimage_values_ball(received, n) if member_value(v, params))
    if not survivors:
        raise NoCandidateError
    if len(survivors) > 1:
        raise AmbiguousDecodeError
    return Word.from_int(survivors[0], n)


@pytest.mark.parametrize("n, count", ((16, 40), (32, 24), (64, 12), (128, 8), (256, 4)))
def test_decode_outcomes_match_the_ball_oracle(n, count):
    # seeded requests of four sorts: two edits or fewer from a codeword, a
    # random word of a fitting length against the class of another, a
    # codeword with three edits, and a length outside the window
    rng = random.Random(2000 + n)
    seen = set()
    for i in range(count):
        x = Word.from_int(rng.getrandbits(n), n)
        params = CodeParams(syndrome_tuple(x))
        sort = i % 4
        if sort == 0:
            received = apply_errors(x, random_pattern(rng, n))
        elif sort == 1:
            m = rng.randint(n - 2, n + 2)
            received = Word.from_int(rng.getrandbits(m), m)
        elif sort == 2:
            received = apply_errors(x, random_pattern(rng, n, counts=(1, 1, 1)))
        else:
            m = rng.choice((n - 3, n + 3))
            received = Word.from_int(rng.getrandbits(m), m)
        expected = _outcome(lambda: _decode_by_ball(received, params))
        assert _outcome(lambda: decode(received, params)) == expected, (received, params)
        seen.add(expected[0])
    assert {"decode", "no_candidate", "length"} <= seen


def test_decode_round_trip_at_1024():
    # one two-edit pattern of each kind, where the ball (about 4 M words)
    # is out of reach
    rng = random.Random(1024)
    for counts in EDIT_KINDS:
        if sum(counts) != 2:
            continue
        x = Word.from_int(rng.getrandbits(1024), 1024)
        received = apply_errors(x, random_pattern(rng, 1024, counts=counts))
        assert decode(received, CodeParams(syndrome_tuple(x))) == x, counts
