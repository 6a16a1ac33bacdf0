import random
from itertools import product

import pytest

import oracles
from oracles import alignment_from_positions, is_good_pair
from twoedit import analysis
from twoedit.analysis import (
    Alignment,
    AlignmentError,
    DEL_OVER,
    DEL_UNDER,
    ErrorTypeValue,
    NoRelationError,
    RoundBudgetError,
    SUB,
    SeparationError,
    _meet_filler,
    check_alignment,
    classify_errors,
    find_relation,
    pair_type,
    segment_once,
    separate_errors,
)
from twoedit.channel import edit_distance
from twoedit.syndrome import padded_weight_sums, sign_preserving_number
from twoedit.words import Word, adjacency_count, pad

# Reference pair A: one deletion on each side plus two substitutions,
# positions (2, 6, 12, 9).
PAIR_A = (Word("0100000000010"), Word("0000100010000"))
PAIR_A_POSITIONS = (2, 6, 12, 9)

# Reference pair B: four substitutions at positions (2, 3, 6, 7).
PAIR_B = (Word("00000110"), Word("01100000"))
PAIR_B_POSITIONS = (2, 3, 6, 7)


def test_reference_pair_a_is_good():
    u, v = PAIR_A
    assert is_good_pair(u, v, PAIR_A_POSITIONS, s=1, r=1)


def test_reference_pair_a_classification():
    u, v = PAIR_A
    al = alignment_from_positions(u, v, PAIR_A_POSITIONS, s=1, r=1)
    kinds, values = pair_type(u, v, al)
    assert kinds == (DEL_OVER, SUB, DEL_UNDER, SUB)
    assert values == (2, -2, -2, 2)
    detailed = classify_errors(u, v, al)
    assert [e.position for e in detailed] == [2, 6, 9, 12]


def test_reference_pair_b_is_good_and_classified():
    u, v = PAIR_B
    assert is_good_pair(u, v, PAIR_B_POSITIONS, s=0, r=2)
    al = alignment_from_positions(u, v, PAIR_B_POSITIONS, s=0, r=2)
    kinds, values = pair_type(u, v, al)
    assert kinds == (SUB, SUB, SUB, SUB)
    assert values == (-2, 0, 0, 2)


def test_identical_words_with_trivial_substitutions():
    u = Word("00110100")
    assert is_good_pair(u, u, (2, 4, 6, 7), s=0, r=2)
    al = alignment_from_positions(u, u, (2, 4, 6, 7), s=0, r=2)
    kinds, values = pair_type(u, u, al)
    assert kinds == (SUB, SUB, SUB, SUB)
    assert values == (0, 0, 0, 0)
    # and with a single pair of trivial substitutions
    assert is_good_pair(u, u, (3, 5), s=0, r=1)
    al2 = alignment_from_positions(u, u, (3, 5), s=0, r=1)
    assert pair_type(u, u, al2) == ((SUB, SUB), (0, 0))


def test_good_pair_rejects_malformed_positions():
    u, v = PAIR_A
    with pytest.raises(ValueError):
        is_good_pair(u, v, (2, 6, 12), s=1, r=1)
    with pytest.raises(ValueError):
        is_good_pair(u, v, (1, 6, 12, 9), s=1, r=1)
    with pytest.raises(ValueError):
        is_good_pair(u, v, (2, 2, 12, 9), s=1, r=1)


def test_good_pair_fails_on_close_or_mismatched_positions():
    u, v = PAIR_A
    # distances below 2s+1 = 3
    assert not is_good_pair(u, v, (2, 3, 12, 9), s=1, r=1)
    # right structure, wrong spots
    assert not is_good_pair(u, v, (3, 6, 12, 9), s=1, r=1)


def test_error_type_value_row_sets():
    with pytest.raises(ValueError):
        ErrorTypeValue(DEL_OVER, -2, 4)
    with pytest.raises(ValueError):
        ErrorTypeValue(DEL_UNDER, 2, 4)
    with pytest.raises(ValueError):
        ErrorTypeValue("insertion", 0, 4)


def test_classify_rejects_overlapping_windows():
    u = Word("0110100")
    al = alignment_from_positions(u, u, (2, 3, 4, 5), s=0, r=2)
    classify_errors(u, u, al)  # s = 0 only needs distinct positions
    # deleting position 2 of U and position 3 of V both give 000, but the
    # two deletions sit one apart, violating the 2s+1 = 3 requirement
    v_del, w_del = Word("0100"), Word("0010")
    al = alignment_from_positions(v_del, w_del, (2, 3), s=1, r=0)
    with pytest.raises(SeparationError):
        classify_errors(v_del, w_del, al)


def test_check_alignment_validation():
    u, v = Word("0101"), Word("0101")
    good = Alignment((("match", 1, 1), ("match", 2, 2), ("match", 3, 3), ("match", 4, 4)))
    check_alignment(u, v, good)
    with pytest.raises(AlignmentError):
        check_alignment(u, v, Alignment((("match", 1, 1),)))
    with pytest.raises(AlignmentError):
        check_alignment(u, Word("0110"), good)
    with pytest.raises(AlignmentError):
        check_alignment(u, v, Alignment((("match", 2, 1),) + good.ops[1:]))


def test_segmentation_worked_example():
    x, y = Word("00010"), Word("01110")
    s, r, al = find_relation(x, y, s=2, r=0)
    assert (s, r) == (2, 0)
    assert al.dels_u() == [2, 3] and al.dels_v() == [3, 4]
    out_x, out_y = segment_once(x, y, al, (4, 2))
    assert out_x == Word("00011110")
    assert out_y == Word("01111110")


def test_segment_once_rejects_crossing_cut():
    x, y = Word("00010"), Word("01110")
    _, _, al = find_relation(x, y, s=2, r=0)
    with pytest.raises(SeparationError):
        segment_once(x, y, al, (1, 3))
    with pytest.raises(SeparationError):
        segment_once(x, y, al, (0, 0))


def test_segment_once_checks_an_outside_alignment():
    x, y = Word("00010"), Word("01110")
    _, _, al = find_relation(x, y, s=2, r=0)
    malformed = (
        Alignment(al.ops[1:]),  # drops the first pair
        Alignment((("match", 1, 1),) + tuple(("match", p, p) for p in range(2, 6))),
        Alignment(tuple(reversed(al.ops))),
    )
    for bad in malformed:
        with pytest.raises(AlignmentError):
            segment_once(x, y, bad, (4, 2))


def test_segment_once_identity_cut_symmetry():
    x = Word("001100")
    _, _, al = find_relation(x, x)
    for i in range(1, len(x)):
        out_x, out_y = segment_once(x, x, al, (i, i))
        assert out_x == out_y


def test_meet_filler_covers_all_sixteen_cases():
    for xi, xi1, yi, yi1 in product((0, 1), repeat=4):
        z = _meet_filler(xi, xi1, yi, yi1)
        assert len(z) == 2 and all(b in (0, 1) for b in z)
        splice_x = oracles.transitions("".join(map(str, [xi] + z + [xi1])))
        plain_x = int(xi != xi1)
        splice_y = oracles.transitions("".join(map(str, [yi] + z + [yi1])))
        plain_y = int(yi != yi1)
        assert splice_x - plain_x == splice_y - plain_y


def test_segment_once_preserves_count_difference_randomized():
    rng = random.Random(31)
    done = 0
    while done < 1000:
        x, y = oracles.random_confusable_pair(rng, 10)
        big_x, big_y = pad(x), pad(y)
        _, _, al = find_relation(big_x, big_y)
        pairs = al.matched_pairs()
        (a, b) = pairs[rng.randrange(len(pairs))]
        if a >= len(big_x) or b >= len(big_y):
            continue
        out_x, out_y = segment_once(big_x, big_y, al, (a, b))
        assert adjacency_count(out_x) - adjacency_count(out_y) == adjacency_count(
            big_x
        ) - adjacency_count(big_y)
        diff_before = oracles.profile_difference(big_x, big_y)
        diff_after = oracles.profile_difference(out_x, out_y)
        assert oracles.is_subsequence(diff_before, diff_after)
        done += 1


def test_find_relation_shapes():
    x, y = Word("00010"), Word("01110")
    assert find_relation(x, y)[:2] == (0, 1)
    assert find_relation(x, y, s=2)[:2] == (2, 0)
    with pytest.raises(NoRelationError):
        find_relation(x, y, s=1, r=0)
    with pytest.raises(NoRelationError):
        find_relation(Word("0000000"), Word("1111111"))
    with pytest.raises(ValueError):
        find_relation(Word("01"), Word("011"))


def _relation_outcomes(search, x, y):
    """(s, r, ops), or the exception type and message, under the default
    shape and each pinned one."""
    out = []
    for shape in ((None, None),) + analysis._RELATION_ORDER:
        try:
            s, r, alignment = search(x, y, *shape)
            out.append((s, r, alignment.ops))
        except ValueError as exc:
            out.append((type(exc), str(exc)))
    return out


@pytest.mark.parametrize("n", range(8))
def test_find_relation_matches_the_per_shape_search_exhaustive(n):
    # n = 0, 1, 2 have no interior position: only s = 0 with no mismatch fits
    words = [Word.from_int(v, n) for v in range(1 << n)]
    for x, y in product(words, repeat=2):
        expected = _relation_outcomes(oracles.find_relation_per_shape, x, y)
        assert _relation_outcomes(find_relation, x, y) == expected, (x, y)


@pytest.mark.parametrize("n", (24, 48, 64))
def test_find_relation_matches_the_per_shape_search_on_padded_pairs(n):
    rng = random.Random(500 + n)
    for _ in range(60):
        x, y = (pad(w) for w in oracles.random_confusable_pair(rng, n - 2))
        expected = _relation_outcomes(oracles.find_relation_per_shape, x, y)
        assert _relation_outcomes(find_relation, x, y) == expected, (x, y)


def test_find_relation_builds_one_table_per_call(monkeypatch):
    tables = []
    build = analysis._suffix_costs
    monkeypatch.setattr(analysis, "_suffix_costs", lambda x, y: tables.append(1) or build(x, y))
    cases = (
        ((Word("00010"), Word("01110")), (None, None), 0),
        ((Word("00011000"), Word("01100110")), (None, None), 2),
        ((Word("00010"), Word("01110")), (2, 0), 2),
    )
    for (x, y), shape, s in cases:
        tables.clear()
        assert find_relation(x, y, *shape)[0] == s
        assert len(tables) == 1
    # separate_errors looks find_relation up as a module global
    calls = []
    search = analysis.find_relation
    monkeypatch.setattr(analysis, "find_relation", lambda *a: calls.append(a) or search(*a))
    separate_errors(Word("00011000"), Word("01100110"), 5)
    assert len(calls) == 1


def _separation_outcome(separate, x, y, k=5):
    try:
        return separate(x, y, k)
    except ValueError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("n", range(1, 7))
def test_separate_errors_matches_the_list_state_exhaustive(n):
    words = [Word.from_int(v, n) for v in range(1 << n)]
    for x, y in product(words, repeat=2):
        if edit_distance(x, y) <= 4:
            expected = _separation_outcome(oracles.separate_errors_lists, x, y)
            assert _separation_outcome(separate_errors, x, y) == expected, (x, y)


@pytest.mark.parametrize("n", (12, 24, 48))
def test_separate_errors_matches_the_list_state_on_random_pairs(n):
    rng = random.Random(700 + n)
    for _ in range(200):
        x, y = oracles.random_confusable_pair(rng, n)
        assert separate_errors(x, y, 5) == oracles.separate_errors_lists(x, y, 5), (x, y)


def test_separate_errors_trusts_its_own_alignment(monkeypatch):
    calls = []
    check = analysis.check_alignment
    monkeypatch.setattr(analysis, "check_alignment", lambda *a: calls.append(a) or check(*a))
    sep = separate_errors(Word("00011000"), Word("01100110"), 5)
    assert sep.rounds and calls == []


def test_rounds_chain_their_words():
    rng = random.Random(61)
    chained = 0
    for _ in range(50):
        sep = separate_errors(*oracles.random_confusable_pair(rng, 12), 5)
        for before, after in zip(sep.rounds, sep.rounds[1:]):
            assert after.x_before is before.x_after and after.y_before is before.y_after
            chained += 1
        if sep.rounds:
            assert sep.u is sep.rounds[-1].x_after and sep.v is sep.rounds[-1].y_after
    assert chained


def test_separate_errors_zero_rounds_cases():
    x = Word("000000000000")
    sep = separate_errors(x, x, 5)
    assert sep.rounds == () and sep.positions == ()
    assert sep.u == pad(x) and sep.v == pad(x)
    y = Word("001000000100")  # substitutions far apart already
    sep = separate_errors(x, y, 5)
    assert sep.rounds == ()
    assert sep.u == pad(x) and sep.v == pad(y)
    assert sep.positions == (4, 11)


def test_separate_errors_round_budget():
    with pytest.raises(RoundBudgetError):
        separate_errors(Word("001"), Word("111"), 5, round_budget=0)


def test_separate_errors_requires_equal_lengths_and_positive_k():
    with pytest.raises(ValueError):
        separate_errors(Word("01"), Word("011"), 5)
    with pytest.raises(ValueError):
        separate_errors(Word("01"), Word("10"), 0)


def _full_invariants(x, y, k=5):
    big_x, big_y = pad(x), pad(y)
    diff0 = oracles.profile_difference(big_x, big_y)
    sep = separate_errors(x, y, k)
    prev = diff0
    for rnd in sep.rounds:
        assert adjacency_count(rnd.x_after) - adjacency_count(rnd.y_after) == adjacency_count(
            rnd.x_before
        ) - adjacency_count(rnd.y_before)
        cur = oracles.profile_difference(rnd.x_after, rnd.y_after)
        assert oracles.is_subsequence(prev, cur)
        prev = cur
    values = sorted(sep.positions)
    assert all(b - a >= k for a, b in zip(values, values[1:]))
    assert is_good_pair(sep.u, sep.v, sep.positions, sep.s, sep.r)
    diff1 = oracles.profile_difference(sep.u, sep.v)
    if any(diff0):
        assert sign_preserving_number(diff0) <= sign_preserving_number(diff1)
    classified = classify_errors(sep.u, sep.v, sep.alignment)
    assert sum(e.value for e in classified) == adjacency_count(sep.u) - adjacency_count(sep.v)
    return sep


def test_segment_once_all_valid_cuts_exhaustive():
    # every cross-free cut of a small related pair preserves the count
    # difference and embeds the old profile difference
    x, y = Word("00010"), Word("01110")
    for shape in ((None, None), (2, 0)):
        _, _, al = find_relation(x, y, *shape)
        pairs = set(al.matched_pairs())
        for i in range(1, len(x)):
            for j in range(1, len(y)):
                crossing = any(not ((a <= i and b <= j) or (a > i and b > j)) for a, b in pairs)
                if crossing:
                    with pytest.raises(SeparationError):
                        segment_once(x, y, al, (i, j))
                    continue
                out_x, out_y = segment_once(x, y, al, (i, j))
                assert adjacency_count(out_x) - adjacency_count(out_y) == adjacency_count(
                    x
                ) - adjacency_count(y)
                assert oracles.is_subsequence(
                    oracles.profile_difference(x, y), oracles.profile_difference(out_x, out_y)
                )


def test_separation_at_larger_distances():
    rng = random.Random(53)
    for _ in range(100):
        x, y = oracles.random_confusable_pair(rng, 8)
        sep = separate_errors(x, y, 9)
        values = sorted(sep.positions)
        assert all(b - a >= 9 for a, b in zip(values, values[1:]))
        assert is_good_pair(sep.u, sep.v, sep.positions, sep.s, sep.r)


@pytest.mark.parametrize("n", (5, 6))
def test_separation_invariants_exhaustive_small(n):
    for vx in range(1 << n):
        for vy in range(1 << n):
            x, y = Word.from_int(vx, n), Word.from_int(vy, n)
            if x != y and edit_distance(x, y) <= 4:
                _full_invariants(x, y)


def test_separation_invariants_randomized():
    rng = random.Random(47)
    for _ in range(400):
        x, y = oracles.random_confusable_pair(rng, 12)
        _full_invariants(x, y)


@pytest.mark.parametrize("n", (7, 8, 9, 10))
def test_sigma_bound_harness(n):
    """Equal-count confusable pairs: separation never lowers the
    sign-preserving number, and the weight sums always tell the words apart
    even when the separated form fails to witness a small sigma."""
    groups: dict[int, list[int]] = {}
    sums = {}
    for v in range(1 << n):
        s0, s1, s2, f = padded_weight_sums(v, n)
        sums[v] = (s0, s1, s2)
        groups.setdefault(f, []).append(v)
    for members in groups.values():
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                x = Word.from_int(members[i], n)
                y = Word.from_int(members[j], n)
                if edit_distance(x, y) > 4:
                    continue
                diff = oracles.profile_difference(pad(x), pad(y))
                sep = separate_errors(x, y, 5)
                sep_diff = oracles.profile_difference(sep.u, sep.v)
                assert sign_preserving_number(diff) <= sign_preserving_number(sep_diff)
                # the exact sums must differ somewhere
                assert sums[members[i]] != sums[members[j]]
