import math
import random
from itertools import combinations, product

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
    check_alignment(u, v, Alignment((), (), ()))
    check_alignment(u, v, Alignment((), (1, 2, 3, 4), ()))
    check_alignment(Word("01101"), Word("00101"), Alignment((3,), (), (2,)))
    malformed = (
        (u, Word("01010"), Alignment((), (), ()), "must have equal length"),
        (u, v, Alignment((), (3, 2), ()), "do not ascend strictly"),
        (u, v, Alignment((2, 2), (), (1, 3)), "do not ascend strictly"),
        (u, v, Alignment((), (), (0,)), "do not ascend strictly"),
        (u, v, Alignment((), (5,), ()), "do not ascend strictly"),
        (u, v, Alignment((2,), (), ()), "equally many deletions"),
        (u, v, Alignment((2,), (2,), (2,)), "substitution at U position 2 is deleted"),
        (u, Word("0111"), Alignment((), (2,), ()), r"match at \(3, 3\) joins unequal symbols"),
        # the first differing rank names the pair: U drops 3, V drops 1
        (Word("01101"), Word("11111"), Alignment((3,), (), (1,)), r"match at \(1, 2\)"),
    )
    for x, y, bad, message in malformed:
        with pytest.raises(AlignmentError, match=message):
            check_alignment(x, y, bad)


def _oracle_rejects(u, v, alignment):
    try:
        oracles.checked_ops(u, v, alignment)
    except AlignmentError:
        return True
    return False


def _library_rejects(u, v, alignment):
    try:
        check_alignment(u, v, alignment)
    except AlignmentError:
        return True
    return False


def _ascending(n, sizes):
    return [c for size in sizes for c in combinations(range(1, n + 1), size)]


@pytest.mark.parametrize("n", range(5))
def test_check_alignment_matches_the_oracle_rule_exhaustive(n):
    # the oracle rule's conversion and round trip read no symbol, so they
    # are settled once per triple; its symbol check runs for every pair
    words = [Word.from_int(v, n) for v in range(1 << n)]
    dels = _ascending(n, range(3))
    accepted = 0
    for triple in product(dels, _ascending(n, range(n + 1)), dels):
        alignment = Alignment(*triple)
        ops = oracles.ops_of(alignment, n)
        converts = oracles.positions_of(ops) == alignment
        for u, v in product(words, repeat=2):
            if converts:
                try:
                    oracles.check_alignment(u, v, ops)
                    rejected = False
                except AlignmentError:
                    rejected = True
            else:
                rejected = True
            assert _library_rejects(u, v, alignment) == rejected, (u, v, alignment)
            accepted += not rejected
    assert accepted


def _malformed(rng, u, alignment, kind):
    """``u`` and ``alignment`` with one defect of the given kind, or None
    when the alignment has no entry to plant it on."""
    n = len(u)
    fields = [alignment.dels_u, alignment.subs, alignment.dels_v]
    f = rng.randrange(3)
    ps = fields[f]
    if kind == "unsorted" and len(ps) > 1:
        i = rng.randrange(len(ps) - 1)
        fields[f] = ps[:i] + (ps[i + 1], ps[i]) + ps[i + 2 :]
    elif kind == "repeated" and ps:
        i = rng.randrange(len(ps))
        fields[f] = ps[: i + 1] + ps[i:]
    elif kind == "out of range" and ps:
        fields[f] = (0,) + ps[1:] if rng.random() < 0.5 else ps[:-1] + (n + 1,)
    elif kind == "shifted deletion" and alignment.dels_u:
        f = rng.choice((0, 2))
        i = rng.randrange(len(fields[f]))
        fields[f] = fields[f][:i] + (fields[f][i] + rng.choice((-1, 1)),) + fields[f][i + 1 :]
    elif kind == "flipped match":
        a = rng.choice(
            [p for p in range(1, n + 1) if p not in alignment.dels_u and p not in alignment.subs]
        )
        u = Word.from_int(u.value ^ (1 << (n - a)), n)
    elif kind == "substitution on a deletion" and alignment.dels_u:
        fields[1] = tuple(sorted(alignment.subs + (rng.choice(alignment.dels_u),)))
    elif kind == "unequal deletions":
        f = rng.choice((0, 2))
        if fields[f] and rng.random() < 0.5:
            i = rng.randrange(len(fields[f]))
            fields[f] = fields[f][:i] + fields[f][i + 1 :]
        else:
            free = [p for p in range(2, n) if p not in fields[f]]
            fields[f] = tuple(sorted(fields[f] + (rng.choice(free),)))
    else:
        return None
    return u, Alignment(*fields)


_DEFECTS = (
    "unsorted",
    "repeated",
    "out of range",
    "shifted deletion",
    "flipped match",
    "substitution on a deletion",
    "unequal deletions",
)


def test_check_alignment_matches_the_oracle_on_malformed_alignments():
    rng = random.Random(83)
    rejected = dict.fromkeys(_DEFECTS, 0)
    for t in range(300):
        kind = _DEFECTS[t % len(_DEFECTS)]
        planted = None
        while planted is None:
            x, y = (pad(w) for w in oracles.random_confusable_pair(rng, 10))
            planted = _malformed(rng, x, find_relation(x, y)[2], kind)
        u, bad = planted
        assert _library_rejects(u, y, bad) == _oracle_rejects(u, y, bad), (kind, u, y, bad)
        if kind == "flipped match":
            # both name the first matched pair that joins unequal symbols
            messages = []
            for check in (check_alignment, oracles.checked_ops):
                with pytest.raises(AlignmentError) as exc:
                    check(u, y, bad)
                messages.append(str(exc.value))
            assert messages[0] == messages[1], (u, y, bad)
        rejected[kind] += _library_rejects(u, y, bad)
    assert all(rejected.values()), rejected


def _classified_alike(u, v, alignment):
    """The library and the oracle give the same classification or the same
    error; the two alignment rules word their rejections differently, so an
    AlignmentError is compared by type alone."""
    got = _classify_outcome(classify_errors, u, v, alignment)
    expected = _classify_outcome(oracles.classify_errors, u, v, alignment)
    if isinstance(got, tuple) and got[0] is AlignmentError:
        return isinstance(expected, tuple) and expected[0] is AlignmentError
    return got == expected


@pytest.mark.parametrize("n", range(5))
def test_classify_errors_matches_the_oracle_exhaustive(n):
    words = [Word.from_int(v, n) for v in range(1 << n)]
    dels = _ascending(n, range(3))
    for triple in product(dels, _ascending(n, range(n + 1)), dels):
        alignment = Alignment(*triple)
        for u, v in product(words, repeat=2):
            assert _classified_alike(u, v, alignment), (u, v, alignment)


def test_classify_errors_matches_the_oracle_on_malformed_alignments():
    rng = random.Random(89)
    for t in range(300):
        planted = None
        while planted is None:
            x, y = (pad(w) for w in oracles.random_confusable_pair(rng, 10))
            alignment = find_relation(x, y)[2]
            planted = _malformed(rng, x, alignment, _DEFECTS[t % len(_DEFECTS)])
        assert _classified_alike(x, y, alignment), (x, y, alignment)
        assert _classified_alike(planted[0], y, planted[1]), (planted, y)


def test_segmentation_worked_example():
    x, y = Word("00010"), Word("01110")
    s, r, al = find_relation(x, y, s=2, r=0)
    assert (s, r) == (2, 0)
    assert al.dels_u == (2, 3) and al.dels_v == (3, 4)
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
        Alignment(al.dels_u[1:], al.subs, al.dels_v),  # drops a deletion
        Alignment((), (), ()),  # the identity matching joins 0 and 1
        Alignment(al.dels_u[::-1], al.subs, al.dels_v[::-1]),
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
        pairs = oracles.matched_pairs(al, len(big_x))
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
    """(s, r, alignment), or the exception type and message, under the
    default shape and each pinned one."""
    out = []
    for shape in ((None, None),) + analysis._RELATION_ORDER:
        try:
            s, r, alignment = search(x, y, *shape)
            out.append((s, r, alignment))
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


# maps the digit of a cost capped at 5 to "1" iff the cost is at most t
_AT_MOST = [str.maketrans("012345", "1" * (t + 1) + "0" * (5 - t)) for t in range(5)]
# 64 seeded orders in which to read all 45 cells (t, k) of a family
_READ_ORDERS = [random.Random(i).sample(list(product(range(5), range(9))), 45) for i in range(64)]


def _assert_reach_sets_match_the_banded_table(x, y, rng):
    """Read in a random order, bit n - i of cell(t, k) is set iff
    g[i][k] <= t; and each shape's walk, on a family that has built nothing
    yet, takes the table's path."""
    reach = analysis._reach_sets(x, y)
    g = oracles.banded_suffix_costs(x, y)
    columns = ["".join([str(min(row[k], 5)) for row in g]) for k in range(9)]  # row 0: bit n
    for t, k in rng.choice(_READ_ORDERS):
        assert reach.cell(t, k) == int(columns[k].translate(_AT_MOST[t]), 2), (x, y, t, k)
    for s in range(3):
        if g[0][4 * s] <= 4:
            walk = analysis._reconstruct(len(x), s, analysis._reach_sets(x, y))
            assert walk == oracles.banded_reconstruct(x, y, s, g), (x, y, s)


@pytest.mark.parametrize("n", range(9))
def test_reach_sets_match_the_banded_table_exhaustive(n):
    rng = random.Random(800 + n)
    words = [Word.from_int(v, n) for v in range(1 << n)]
    for x, y in product(words, repeat=2):
        _assert_reach_sets_match_the_banded_table(x, y, rng)


@pytest.mark.parametrize("n", (24, 48, 64, 128))
def test_reach_sets_match_the_banded_table_on_padded_pairs(n):
    rng, orders = random.Random(700 + n), random.Random(800 + n)
    for _ in range(60):
        x, y = (pad(w) for w in oracles.random_confusable_pair(rng, n - 2))
        _assert_reach_sets_match_the_banded_table(x, y, orders)


# cells built by find_relation(x, y) for each answered shape, None for no
# relation: the union of the closures {(t, 3a + b): t <= 2r, a, b <= s} of
# the shapes tested up to the answer, in _RELATION_ORDER
_CELLS_BUILT = {(0, 0): 1, (0, 1): 3, (1, 0): 6, (0, 2): 8, (1, 1): 14, (2, 0): 19, None: 19}
_SHAPE_PAIRS = {
    (0, 0): ("00000", "00000"),
    (0, 1): ("00000", "00010"),
    (1, 0): ("00100", "01010"),
    (0, 2): ("000000", "001110"),
    (1, 1): ("0000100", "0111010"),
    (2, 0): ("00011000", "01100110"),
    None: ("00000", "00001"),
}


def _built_cells(monkeypatch, x, y):
    """The shape find_relation answers (None for no relation) and the
    (t, k) of every cell its family built."""
    families = []
    make = analysis._reach_sets
    monkeypatch.setattr(
        analysis, "_reach_sets", lambda x, y: families.append(make(x, y)) or families[-1]
    )
    try:
        shape = find_relation(x, y)[:2]
    except NoRelationError:
        shape = None
    monkeypatch.undo()
    (family,) = families
    built = family.built
    return shape, {(t, k) for t, k in product(range(5), range(9)) if built[t][k] is not None}


def _assert_lazy(shape, built):
    assert len(built) == _CELLS_BUILT[shape], (shape, sorted(built))
    if shape is not None and shape[0] <= 1:
        assert all(k // 3 < 2 and k % 3 < 2 for _, k in built), (shape, sorted(built))


def test_find_relation_builds_only_the_cells_its_answer_reads(monkeypatch):
    for shape, (x, y) in _SHAPE_PAIRS.items():
        got, built = _built_cells(monkeypatch, Word(x), Word(y))
        assert got == shape, (x, y)
        _assert_lazy(shape, built)
    rng = random.Random(31)
    seen = set()
    for n in (12, 24, 48):
        for _ in range(60):
            x, y = (pad(w) for w in oracles.random_confusable_pair(rng, n))
            shape, built = _built_cells(monkeypatch, x, y)
            _assert_lazy(shape, built)
            seen.add(shape)
    assert {(0, 1), (1, 0), (0, 2), (1, 1), (2, 0)} <= seen


def test_fill_runs_matches_the_bitwise_closure():
    for seed, runs in product(range(1 << 8), repeat=2):
        expected = oracles.fill_runs_bitwise(seed, runs)
        assert analysis._fill_runs(seed, runs) == expected, (seed, runs)


def test_find_relation_builds_one_table_per_call(monkeypatch):
    tables = []
    build = analysis._reach_sets
    monkeypatch.setattr(analysis, "_reach_sets", lambda x, y: tables.append(1) or build(x, y))
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


def _separation_outcome(separate, x, y, k=5, *settings):
    """The Separation, or the exception type and message."""
    try:
        return separate(x, y, k, *settings)
    except ValueError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("n", range(1, 7))
def test_separate_errors_matches_the_list_state_exhaustive(n):
    words = [Word.from_int(v, n) for v in range(1 << n)]
    for x, y in product(words, repeat=2):
        if edit_distance(x, y) <= 4:
            expected = _separation_outcome(oracles.separate_errors_lists, x, y)
            assert _separation_outcome(separate_errors, x, y) == expected, (x, y)


def _classify_outcome(classify, u, v, alignment):
    try:
        return classify(u, v, alignment)
    except ValueError as exc:
        return type(exc), str(exc)


_SEPARATION_SETTINGS = (1, 2, 3, 5, 7)


@pytest.mark.parametrize("n", range(1, 7))
def test_separate_errors_matches_the_list_state_on_every_setting(n):
    # every pair runs under the default and each pinned shape; k cycles
    # through all 5 settings, so each shape meets each k on every 5th pair
    words = [Word.from_int(v, n) for v in range(1 << n)]
    pairs = [(x, y) for x, y in product(words, repeat=2) if edit_distance(x, y) <= 4]
    for t, (x, y) in enumerate(pairs):
        for c, shape in enumerate(((None, None),) + analysis._RELATION_ORDER):
            k = _SEPARATION_SETTINGS[(t + c) % len(_SEPARATION_SETTINGS)]
            expected = _separation_outcome(oracles.separate_errors_lists, x, y, k, *shape)
            got = _separation_outcome(separate_errors, x, y, k, *shape)
            assert got == expected, (x, y, k, shape)
            if isinstance(got, analysis.Separation):
                _replay_rounds(got, find_relation(pad(x), pad(y), *shape)[2], k)
                # below k = 2s + 1 the windows may overlap: classification refuses
                args = (got.u, got.v, got.alignment)
                assert _classify_outcome(classify_errors, *args) == _classify_outcome(
                    oracles.classify_errors, *args
                ), (x, y, k, shape)


@pytest.mark.parametrize("n", range(1, 7))
def test_rank_cut_rule_matches_the_matched_pair_scan_exhaustive(n):
    # the rule and the search read only the length and the error positions,
    # so each distinct (length, dels_u, subs, dels_v) is checked once
    words = [Word.from_int(v, n) for v in range(1 << n)]
    checked = set()
    for x, y in product(words, repeat=2):
        if edit_distance(x, y) > 4:
            continue
        big_x, big_y = pad(x), pad(y)
        for shape in analysis._RELATION_ORDER:
            try:
                alignment = find_relation(big_x, big_y, *shape)[2]
            except NoRelationError:
                continue
            state = analysis._PairState(big_x, big_y, alignment)
            key = (n, tuple(state.dels_u), tuple(state.subs), tuple(state.dels_v))
            if key in checked:
                continue
            checked.add(key)
            reference = oracles._ListPairState.from_alignment(big_x, big_y, alignment)
            for i, j in product(range(n + 4), repeat=2):
                assert state.cut_ok(i, j) == reference.cut_ok(i, j), (key, i, j)
            errors = state.error_entries()
            for m in range(1, len(errors)):
                swapped = errors[: m - 1] + [errors[m], errors[m - 1]] + errors[m + 1 :]
                for order in (errors, swapped):
                    expected = oracles._list_find_cut(reference, order, m)
                    assert analysis._find_cut(state, order, m) == expected, (key, order, m)
    assert checked or n < 3


@pytest.mark.parametrize("n", (12, 24, 48))
def test_separate_errors_matches_the_list_state_on_random_pairs(n):
    rng = random.Random(700 + n)
    for _ in range(200):
        x, y = oracles.random_confusable_pair(rng, n)
        sep = separate_errors(x, y, 5)
        assert sep == oracles.separate_errors_lists(x, y, 5), (x, y)
        _replay_rounds(sep, find_relation(pad(x), pad(y))[2], 5)


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


def test_separate_errors_requires_equal_lengths_and_positive_k():
    with pytest.raises(ValueError):
        separate_errors(Word("01"), Word("011"), 5)
    with pytest.raises(ValueError):
        separate_errors(Word("01"), Word("10"), 0)


def _replay_rounds(sep, alignment, k):
    """Replay ``sep``'s cuts from ``alignment``, the relation it starts
    from: each round moves exactly the errors after the leftmost gap below
    k, by its filler's length (at least 2), so the rounds number at most
    ceil((k - gap) / 2) summed over the initial gaps below k."""
    dels_u, subs, dels_v = alignment.dels_u, alignment.subs, alignment.dels_v
    before = sorted(dels_u + subs + dels_v)
    gaps = [b - a for a, b in zip(before, before[1:])]
    assert len(sep.rounds) <= sum(math.ceil(max(0, k - g) / 2) for g in gaps)
    for rnd in sep.rounds:
        (i, j), length = rnd.cut, len(rnd.filler)
        assert length >= 2 and len(rnd.x_after) == len(rnd.x_before) + length
        m = next(m for m in range(1, len(before)) if before[m] - before[m - 1] < k)
        dels_u = tuple(p + length if p > i else p for p in dels_u)
        subs = tuple(p + length if p > i else p for p in subs)
        dels_v = tuple(p + length if p > j else p for p in dels_v)
        after = sorted(dels_u + subs + dels_v)
        assert after == before[:m] + [p + length for p in before[m:]]
        before = after
    assert sep.alignment == Alignment(dels_u, subs, dels_v)


def _full_invariants(x, y, k=5):
    big_x, big_y = pad(x), pad(y)
    diff0 = oracles.profile_difference(big_x, big_y)
    sep = separate_errors(x, y, k)
    _replay_rounds(sep, find_relation(big_x, big_y)[2], k)
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
    assert classified == oracles.classify_errors(sep.u, sep.v, sep.alignment)
    assert sum(e.value for e in classified) == adjacency_count(sep.u) - adjacency_count(sep.v)
    return sep


def test_segment_once_all_valid_cuts_exhaustive():
    # every cross-free cut of a small related pair preserves the count
    # difference and embeds the old profile difference
    x, y = Word("00010"), Word("01110")
    for shape in ((None, None), (2, 0)):
        _, _, al = find_relation(x, y, *shape)
        pairs = set(oracles.matched_pairs(al, len(x)))
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
