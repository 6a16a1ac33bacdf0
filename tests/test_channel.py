import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import (
    all_patterns,
    apply_errors_list,
    confusable_within,
    edit_distance_dp,
    edit_distance_myers,
    error_ball,
    exact_patterns,
)
from twoedit.channel import (
    ErrorPattern,
    apply_errors,
    edit_distance,
    edit_distances,
    format_pattern,
    parse_pattern,
    random_pattern,
)
from twoedit.words import Word

random_words = st.integers(min_value=0, max_value=12).flatmap(
    lambda n: st.integers(min_value=0, max_value=(1 << n) - 1 if n else 0).map(
        lambda v: Word.from_int(v, n)
    )
)


def words_of(n):
    return [Word.from_int(v, n) for v in range(1 << n)]


def test_pattern_validation():
    invalid = [
        ({"substitutions": ((1, 0), (1, 1))}, "duplicate substitution positions"),
        ({"deletions": (2, 2)}, "duplicate deletion positions"),
        ({"substitutions": ((2, 0),), "deletions": (2,)}, "substitution and deletion positions overlap"),
        ({"substitutions": ((1, 7),)}, "invalid substitution symbol 7"),
        ({"insertions": ((0, 2),)}, "invalid insertion symbol 2"),
    ]
    for fields, message in invalid:
        # the constructor, _replace and _make all run the same checks
        with pytest.raises(ValueError, match=f"^{message}$"):
            ErrorPattern(**fields)
        with pytest.raises(ValueError, match=f"^{message}$"):
            ErrorPattern()._replace(**fields)
        with pytest.raises(ValueError, match=f"^{message}$"):
            ErrorPattern._make(fields.get(f, ()) for f in ErrorPattern._fields)
    unsorted = ErrorPattern()._replace(deletions=(5, 2), insertions=((3, 1), (0, 0)))
    assert unsorted == ErrorPattern(deletions=(2, 5), insertions=((0, 0), (3, 1)))
    with pytest.raises(ValueError, match="unknown edit kind 'swap'"):
        parse_pattern("swap@1=0")
    outside = [
        ({"substitutions": ((4, 1),)}, "substitution position 4"),
        ({"deletions": (4,)}, "deletion position 4"),
        ({"insertions": ((4, 1),)}, "insertion gap 4"),
    ]
    for fields, where in outside:
        with pytest.raises(ValueError, match=f"^{where} outside word of length 3$"):
            apply_errors(Word("101"), ErrorPattern(**fields))


def test_pattern_spec_roundtrip():
    p = parse_pattern("sub@4=1,del@2,ins@0=1")
    assert p == ErrorPattern(substitutions=((4, 1),), deletions=(2,), insertions=((0, 1),))
    assert format_pattern(p) == "sub@4=1,del@2,ins@0=1"
    assert parse_pattern("") == ErrorPattern()
    assert parse_pattern(format_pattern(p)) == p
    with pytest.raises(ValueError):
        parse_pattern("swap@1")
    with pytest.raises(ValueError):
        parse_pattern("sub@1=7")


@pytest.mark.parametrize("position", ("x", "", "+2", "1_0", "\u0663", "-1", " 2"))
@pytest.mark.parametrize("template", ("del@{}", "sub@{}=1", "ins@{}=0"))
def test_a_pattern_position_is_ascii_digits(template, position):
    # int() alone would read "+2" as 2, "1_0" as 10 and the Arabic-Indic three as 3
    item = template.format(position)
    with pytest.raises(ValueError) as exc:
        parse_pattern(f"del@1,{item}")
    assert str(exc.value) == f"malformed pattern item {item!r}"


def test_apply_errors_examples():
    assert apply_errors(Word("101"), ErrorPattern(deletions=(1,))) == Word("01")
    assert apply_errors(Word("101"), ErrorPattern(substitutions=((2, 0),))) == Word("101")
    assert apply_errors(Word("0"), ErrorPattern(insertions=((0, 1),))) == Word("10")


def test_apply_errors_mixed_and_ordered_insertions():
    # substitutions and deletions act in the original frame
    x = Word("0110")
    p = ErrorPattern(substitutions=((4, 1),), deletions=(2,), insertions=((0, 1), (4, 0)))
    # 0110 -> sub pos4 -> 0111 -> del pos2 -> 011 -> ins at gaps 0 and 4 -> 1 011 0
    assert apply_errors(x, p) == Word("10110")
    stacked = ErrorPattern(insertions=((1, 0), (1, 1)))
    assert apply_errors(Word("11"), stacked) == Word("1011")


@pytest.mark.parametrize("n", range(7))
def test_apply_errors_equals_the_symbol_walk_exhaustive(n):
    # every word and every pattern of up to three edits, stacked insertions
    # at one gap included
    patterns = list(all_patterns(n, 3))
    for x in words_of(n):
        for p in patterns:
            assert apply_errors(x, p) == apply_errors_list(x, p), (x, p)


def test_ball_examples():
    assert error_ball(Word("101"), 0, 1, 0) == {Word("01"), Word("11"), Word("10")}
    assert error_ball(Word("0"), 1, 0, 0) == {Word("00"), Word("10"), Word("01")}
    for v in range(8):
        x = Word.from_int(v, 3)
        assert x in error_ball(x, 0, 0, 1)
        assert error_ball(x, 0, 0, 0) == {x}


def test_single_insertion_ball_size_is_length_plus_two():
    rng = random.Random(2)
    for _ in range(30):
        n = rng.randint(0, 10)
        x = Word.from_int(rng.getrandbits(n) if n else 0, n)
        assert len(error_ball(x, 1, 0, 0)) == n + 2


def test_ball_member_lengths():
    x = Word("010011")
    for t, s, r in ((1, 0, 0), (0, 2, 0), (1, 1, 1), (2, 0, 2)):
        for y in error_ball(x, t, s, r):
            assert len(y) == len(x) + t - s


def test_ball_bounds():
    with pytest.raises(ValueError):
        error_ball(Word("0101"), 2, 2, 1)
    with pytest.raises(ValueError):
        error_ball(Word("01"), 0, 3, 0)


def test_edit_distance_examples():
    x = Word("100110")
    assert edit_distance(x, x) == 0
    assert edit_distance(Word("101"), Word("010")) == 2
    assert edit_distance(Word("00"), Word("11")) == 2


@pytest.mark.parametrize("m", range(8))
def test_edit_distance_matches_the_dp_on_every_short_pair(m):
    # every pair with lengths m and 0..7, unequal lengths and the empty word included
    others = [y for n in range(8) for y in words_of(n)]
    for x in words_of(m):
        for y in others:
            assert edit_distance(x, y) == edit_distance_dp(x, y), (x, y)


def test_edit_distance_matches_the_dp_past_one_machine_word():
    # lengths up to 130, so both the pattern and the text run past 64 bits;
    # every other pair is a word and a copy with up to four edits, which
    # keeps the distance small on long words
    rng = random.Random(1999)
    for i in range(2000):
        m = rng.randint(0, 130)
        x = Word.from_int(rng.getrandbits(m), m)
        if i % 2:
            n = rng.randint(0, 130)
            y = Word.from_int(rng.getrandbits(n), n)
        else:
            bits = list(x)
            for _ in range(rng.randint(0, 4)):
                p = rng.randint(0, len(bits))
                kind = rng.randrange(3) if p < len(bits) else 2
                if kind == 0:
                    del bits[p]
                elif kind == 1:
                    bits[p] ^= 1
                else:
                    bits.insert(p, rng.randint(0, 1))
            y = Word(bits)
        assert edit_distance(x, y) == edit_distance_dp(x, y), (x, y)


def _references(xs, ys, m, k):
    """The DP and the scalar Myers loop on every pair (xs[i], ys[i])."""
    pairs = [(Word.from_int(a, m), Word.from_int(b, k)) for a, b in zip(xs, ys)]
    dp = [edit_distance_dp(x, y) for x, y in pairs]
    return dp, [edit_distance_myers(x, y) for x, y in pairs]


@pytest.mark.parametrize("m", range(7))
def test_packed_distances_match_both_references_on_every_short_pair(m):
    # every pair of lengths m and 0..6 in one call per length pair, so the
    # pattern is the first or the second list and the fields are 8 bits
    for k in range(7):
        xs, ys = zip(*[(a, b) for a in range(1 << m) for b in range(1 << k)])
        dp, scalar = _references(xs, ys, m, k)
        assert edit_distances(xs, ys, m, k) == dp == scalar, (m, k)


@pytest.mark.parametrize("m", (7, 8, 15, 16, 31, 32, 63))
def test_packed_distances_match_both_references_at_the_field_width_edges(m):
    # m + 1 bits fill a field exactly at m = 7, 15, 31 and 63 and spill into
    # the next wider one at m = 8, 16 and 32; half the pairs are a word and
    # a copy with up to four edits, so small distances occur at every m
    rng = random.Random(m)
    for k in (m, m - 1, m // 2):
        xs, ys = [], []
        for i in range(60):
            xs.append(rng.getrandbits(m))
            if i % 2:
                ys.append(rng.getrandbits(k))
                continue
            bits = list(Word.from_int(xs[-1], m))[:k]
            for _ in range(rng.randint(0, 4)):
                bits[rng.randrange(k)] ^= 1
            ys.append(Word(bits).value)
        dp, scalar = _references(xs, ys, m, k)
        assert edit_distances(xs, ys, m, k) == dp == scalar, (m, k)
        assert edit_distances(ys, xs, k, m) == dp, (m, k)


def test_packed_distances_refuse_words_no_field_holds():
    # 64 bits and the spare bit fit no array type; the guard comes first,
    # before a value that array would refuse on its own
    for m, k in ((64, 64), (64, 3), (3, 64)):
        with pytest.raises(ValueError, match="65-bit fields"):
            edit_distances([1 << 64], [-1], m, k)
    assert edit_distances([(1 << 63) - 1], [0], 63, 63) == [63]


def test_packed_distances_check_their_input():
    assert edit_distances([], [], 5, 5) == []
    with pytest.raises(ValueError, match="patterns"):
        edit_distances([1, 2], [1], 5, 5)
    with pytest.raises(ValueError, match="does not fit"):
        edit_distances([32], [1], 5, 5)
    with pytest.raises(ValueError, match="does not fit"):
        edit_distances([1], [8], 5, 3)


@given(random_words, random_words)
def test_edit_distance_symmetric_and_separating(x, y):
    d = edit_distance(x, y)
    assert d == edit_distance(y, x)
    assert (d == 0) == (x == y)
    assert d >= abs(len(x) - len(y))


@given(random_words, random_words, random_words)
def test_edit_distance_triangle(x, y, z):
    assert edit_distance(x, z) <= edit_distance(x, y) + edit_distance(y, z)


def test_confusable_examples():
    assert confusable_within(Word("101"), Word("010"), 1)
    assert confusable_within(Word("0110"), Word("0110"), 2)
    assert not confusable_within(Word("0000000"), Word("1111111"), 2)
    with pytest.raises(ValueError):
        confusable_within(Word("0"), Word("1"), 0)


def _ball2_masks(n):
    """Bit masks over (length, value) of every <= 2-edit ball at length n."""
    index = {}
    for m in range(max(n - 2, 0), n + 3):
        for v in range(1 << m):
            index[(m, v)] = len(index)
    masks = []
    for x in words_of(n):
        mask = 0
        for t in range(3):
            for s in range(3 - t):
                for r in range(3 - t - s):
                    if s <= n:
                        for w in error_ball(x, t, s, r):
                            mask |= 1 << index[(len(w), w.value)]
        masks.append(mask)
    return masks


@pytest.mark.parametrize("n", range(1, 10))
def test_ball_metric_equivalence_exhaustive(n):
    # distance <= 4  <=>  the two <=2-edit balls intersect
    ws = words_of(n)
    masks = _ball2_masks(n)
    for i in range(len(ws)):
        for j in range(i + 1, len(ws)):
            near = edit_distance(ws[i], ws[j]) <= 4
            assert near == bool(masks[i] & masks[j]), (ws[i], ws[j])


@pytest.mark.parametrize("n", range(2, 10))
def test_insertion_deletion_duality_exhaustive(n):
    # double-insertion balls intersect exactly when double-deletion balls do
    ws = words_of(n)
    ins_masks = []
    del_masks = []
    for x in ws:
        ins_masks.append(frozenset(error_ball(x, 2, 0, 0)))
        del_masks.append(frozenset(error_ball(x, 0, 2, 0)))
    for i in range(len(ws)):
        for j in range(i + 1, len(ws)):
            assert bool(ins_masks[i] & ins_masks[j]) == bool(del_masks[i] & del_masks[j])


def test_pattern_enumeration_counts():
    n = 9
    pats = list(all_patterns(n, 2))
    assert len(pats) == len(set(pats)), "patterns must not repeat"
    assert sum(1 for p in pats if p.counts == (0, 0, 0)) == 1
    assert sum(1 for p in pats if p.counts == (0, 1, 0)) == n
    assert sum(1 for p in pats if p.counts == (0, 0, 1)) == 2 * n
    assert sum(1 for p in pats if p.counts == (1, 0, 0)) == 2 * (n + 1)
    ball = {apply_errors(Word.from_int(37, n), p) for p in exact_patterns(n, 0, 1, 1)}
    assert ball == error_ball(Word.from_int(37, n), 0, 1, 1)


@pytest.mark.parametrize("n", (0, 1, 2))
def test_random_pattern_fits_short_words(n):
    word = Word.from_int(0, n)
    for seed in range(200):
        pattern = random_pattern(random.Random(seed), n)
        t, s, r = pattern.counts
        assert t + s + r <= 2 and s + r <= n
        apply_errors(word, pattern)


def test_random_pattern_is_seed_deterministic():
    a = [random_pattern(random.Random(99), 9) for _ in range(10)]
    b = [random_pattern(random.Random(99), 9) for _ in range(10)]
    assert a == b
    for p in a:
        t, s, r = p.counts
        assert t + s + r <= 2
        apply_errors(Word.from_int(0, 9), p)
