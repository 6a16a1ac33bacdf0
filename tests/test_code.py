import math
import random
import tracemalloc
from array import array
from collections import Counter
from itertools import combinations, islice, zip_longest

import pytest

import oracles
from twoedit import code
from twoedit.code import (
    Census,
    DEFAULT_ENUMERATION_CAP,
    DistanceViolation,
    MODE_BUCKET,
    MODE_EXACT,
    PAIR_CHUNK,
    ResourceCapError,
    _distance_shard,
    best_params,
    bucket_census,
    decode_index,
    encode_index,
    enumerate_codewords,
    is_codeword,
    member_value,
    pigeonhole_floor,
    redundancy,
    redundancy_bound,
    scan_pairwise_distance,
)
from twoedit.syndrome import (
    SyndromeTuple,
    moduli,
    padded_weight_sums,
    reduce_sums,
    syndrome_tuple,
)
from twoedit.words import Word

ZERO7 = SyndromeTuple(7, 0, 0, 0, 0)


def test_membership_examples():
    assert is_codeword(Word("0000000"), ZERO7)
    assert is_codeword(Word("0000001"), SyndromeTuple(7, 3, 26, 226, 2))
    assert not is_codeword(Word("0000001"), ZERO7)
    with pytest.raises(ValueError):
        is_codeword(Word("000000"), ZERO7)


def test_is_codeword_rejects_a_length_mismatch():
    for word in (Word("000000"), Word("00000000")):
        with pytest.raises(ValueError, match="does not match code length 7"):
            is_codeword(word, ZERO7)


def _other_residues(t: SyndromeTuple, which: int) -> SyndromeTuple:
    """``t`` with residue ``which`` moved by one within its modulus."""
    values = [t.s0, t.s1, t.s2, t.s3]
    values[which] = (values[which] + 1) % t.moduli[which]
    return SyndromeTuple(t.n, *values)


@pytest.mark.parametrize("n", range(7, 13))
def test_member_value_agrees_with_syndrome_tuple_exhaustively(n):
    largest = best_params(n)[0]
    for v in range(1 << n):
        own = syndrome_tuple(Word.from_int(v, n))
        assert member_value(v, own)
        # a word whose residues differ from the code's in any one place is out
        assert not member_value(v, _other_residues(own, 3))
        assert not member_value(v, _other_residues(own, v % 3))
        assert member_value(v, largest) == (own == largest)


@pytest.mark.parametrize("n", [9, 2049, 4100])
def test_is_codeword_agrees_with_member_value_on_every_count_residue(n):
    # is_codeword rejects on the adjacency count before the weighted sums;
    # a code for each count residue makes both of its paths run
    rng = random.Random(n)
    words = [Word.from_int(rng.getrandbits(n), n) for _ in range(1 << 9 if n < 64 else 12)]
    own = syndrome_tuple(words[0])
    for s3 in range(moduli(n)[3]):
        p = SyndromeTuple(n, own.s0, own.s1, own.s2, s3)
        for w in words:
            assert is_codeword(w, p) == member_value(w.value, p) == (syndrome_tuple(w) == p)


def test_params_canonicalize():
    # the one reduction of --params and of a word's sums
    assert reduce_sums((28 + 3, -1, 226, 11), 7) == (3, 97, 226, 2)
    assert reduce_sums((0, 2 * 49, 2 * 343 + 5, 9 * 3 + 1), 7) == (0, 0, 5, 1)


def test_enumeration_contains_generators_and_is_sorted():
    members = enumerate_codewords(ZERO7)
    assert Word("0000000") in members
    values = [w.value for w in members]
    assert values == sorted(set(values))
    for w in members:
        assert syndrome_tuple(w) == ZERO7


def test_syndrome_classes_partition_the_space():
    census = bucket_census(7)
    assert census.total() == 128
    groups = oracles.syndrome_groups(7, exact=False)
    assert sum(len(g) for g in groups.values()) == 128
    assert census.class_count() == len(groups)
    # sizes agree class by class
    for key, members in groups.items():
        st = SyndromeTuple(7, *key)
        assert census.counts[st.pack()] == len(members)


@pytest.mark.parametrize("n", range(7, 17))
def test_census_matches_the_word_by_word_sweep(n):
    assert bucket_census(n).counts == oracles.census_counts(n)


@pytest.mark.parametrize("n", range(7, 17))
@pytest.mark.parametrize("mode", (MODE_BUCKET, MODE_EXACT))
def test_groups_match_the_word_by_word_sweep(n, mode):
    groups, shared = code._shared_classes(n, mode)
    reference = oracles.syndrome_groups(n, exact=mode == MODE_EXACT)
    assert groups == len(reference)
    assert shared == sorted((key, values) for key, values in reference.items() if len(values) > 1)


@pytest.mark.parametrize("n", range(7, 17))
@pytest.mark.parametrize("mode", (MODE_BUCKET, MODE_EXACT))
def test_packed_rows_match_the_per_word_keys(n, mode):
    radices = code._radices(n, mode)
    heads = zip_longest(code._split_keys(n, radices), oracles.split_keys(n, radices))
    for got, want in heads:
        assert got == want, want[0]


@pytest.mark.parametrize("n", range(17, 25))
@pytest.mark.parametrize("mode", (MODE_BUCKET, MODE_EXACT))
def test_packed_rows_match_the_syndromes_past_16(n, mode):
    # from n = 17 a count (c mod 9) + lc reaches 18, past one subtraction of 9
    radices = code._radices(n, mode)
    _, r1, r2, r3 = radices
    t = n - n // 2
    heads = 1 << n // 2
    wanted = sorted({0, heads - 1, *random.Random(n).sample(range(heads), 3)})
    sweep = code._split_keys(n, radices)
    done = 0
    for hi in wanted:
        base, keys = next(islice(sweep, hi - done, None))
        done = hi + 1
        assert base == hi << t
        for v, key in zip(range(base, base + (1 << t)), keys, strict=True):
            if mode == MODE_BUCKET:
                assert key == syndrome_tuple(Word.from_int(v, n)).pack(), (n, v)
            else:
                s0, s1, s2, c = padded_weight_sums(v, n)
                assert key == ((s0 * r1 + s1) * r2 + s2) * r3 + c, (n, v)


def test_the_exhaustive_range_reaches_a_sum_equal_to_its_modulus():
    # The packed rows subtract q_k where l >= q_k - a; unless some word has
    # a + l == q_k exactly, a '>' there would pass the test above.
    reached = set()
    for n in range(7, 17):
        heads, tails = oracles.split_terms(n)
        for k, r in enumerate(moduli(n)[:3]):
            for last in (0, 1):
                tail_sums = {sums[k] % r for _, sums in tails[last]}
                head_sums = {sums[k] % r for c, sums in heads if c & 1 == last}
                if any(a and r - a in tail_sums for a in head_sums):
                    reached.add(k)
    assert reached == {0, 1, 2}


@pytest.mark.parametrize("typecode", "IQ")
def test_packed_rows_are_exact_at_the_widest_radices_a_field_type_admits(typecode):
    # small radices reduce s0..s2 on most words; r3 is as large as the guard allows
    bits = 8 * array(typecode).itemsize
    r0, r1, r2 = 5, 7, 11
    r3 = (1 << bits - 1) // (r2 * (r0 * r1 + r1 + 1))
    radices = (r0, r1, r2, r3)
    assert code._field_type(radices) == typecode
    assert list(code._split_keys(9, radices)) == list(oracles.split_keys(9, radices))
    if typecode == "I":
        assert code._field_type((r0, r1, r2, r3 + 1)) == "Q"
    else:
        with pytest.raises(ValueError, match=f"do not fit {bits}-bit fields"):
            code._field_type((r0, r1, r2, r3 + 1))


@pytest.mark.skipif(
    (array("I").itemsize, array("Q").itemsize) != (4, 8), reason="lengths for 32/64-bit fields"
)
@pytest.mark.parametrize("mode, narrow, longest", ((MODE_BUCKET, 15, 632), (MODE_EXACT, 6, 76)))
def test_the_field_guard_raises_past_the_longest_length_that_fits(mode, narrow, longest):
    # 32-bit fields up to ``narrow``, 64-bit ones up to ``longest``; exact
    # keys reach (n + 2)^10, which needs more than 63 bits from n = 77
    for n in range(7, longest + 1):
        assert code._field_type(code._radices(n, mode)) == ("I" if n <= narrow else "Q"), n
    with pytest.raises(ValueError, match="do not fit 64-bit fields"):
        code._field_type(code._radices(longest + 1, mode))
    # the sweep checks before it builds anything
    with pytest.raises(ValueError, match="do not fit"):
        next(code._split_keys(longest + 1, code._radices(longest + 1, mode)))


@pytest.mark.parametrize("mode", (MODE_BUCKET, MODE_EXACT))
def test_the_sweep_plan_holds_no_per_head_integers(mode):
    # at n = 20 one packed integer per head would take about 8 MB; the plan
    # keeps one row per head count and small ints per head mask
    radices = code._radices(20, mode)
    code._plan.cache_clear()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        plan = code._plan(20, radices)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < 1 << 20, held
    assert code._plan(20, radices) is plan
    heads = plan[-1]
    assert [len(table) for table in heads] == [1 << 10] * 3


@pytest.mark.parametrize("n", range(7, 13))
def test_member_values_match_member_value(n):
    census = bucket_census(n)
    largest = census.largest()[0]
    s3_words = Counter()
    for key, count in census.counts.items():
        s3_words[SyndromeTuple.unpack(key, n).s3] += count
    common = s3_words.most_common(1)[0][0]
    other = next(st for st, _ in census.top(census.class_count()) if st.s3 != common)
    for p in (largest, other):
        assert code._member_values(p) == tuple(v for v in range(1 << n) if member_value(v, p))


def test_census_is_traversal_order_independent():
    census = bucket_census(8)
    reversed_counts: dict[int, int] = {}
    for v in range(255, -1, -1):
        key = syndrome_tuple(Word.from_int(v, 8)).pack()
        reversed_counts[key] = reversed_counts.get(key, 0) + 1
    assert census.counts == reversed_counts


def test_census_ranking_is_deterministic():
    census = Census(7, {5: 2, 3: 2, 9: 1})
    top = census.top(3)
    assert [t[1] for t in top] == [2, 2, 1]
    assert top[0][0].pack() == 3 and top[1][0].pack() == 5


def test_census_selection_matches_a_full_sort():
    census = Census(7, {40: 3, 7: 1, 12: 3, 99: 2, 3: 1, 51: 3, 8: 2})  # ties at every size
    ranked = [
        (SyndromeTuple.unpack(key, 7), count)
        for key, count in sorted(census.counts.items(), key=lambda kv: (-kv[1], kv[0]))
    ]
    for k in (0, 1, 5, census.class_count() + 3):
        assert census.top(k) == ranked[:k]
    assert census.largest() == ranked[0]
    with pytest.raises(ValueError, match="at least 0"):
        census.top(-1)


def test_census_selection_past_255_words_a_class_matches_a_full_sort():
    # sizes that do not fit a byte take the sort over every class
    census = Census(7, {40: 300, 7: 1, 12: 256, 99: 2, 3: 300, 51: 255})
    ranked = sorted(census.counts.items(), key=lambda kv: (-kv[1], kv[0]))
    assert [(st.pack(), count) for st, count in census.top(4)] == ranked[:4]
    assert census.largest() == (SyndromeTuple.unpack(3, 7), 300)


@pytest.mark.parametrize("n", range(7, 17))
def test_census_selection_matches_a_full_sort_of_the_oracle(n):
    counts = oracles.census_counts(n)
    ranked = [
        (SyndromeTuple.unpack(key, n), count)
        for key, count in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    ]
    shared = sum(count > 1 for count in counts.values())
    census = bucket_census(n)
    # the oracle's dict holds the classes in another order than the sweep's
    for each in (census, Census(n, counts)):
        for k in (0, 1, 5, shared, shared + 1, len(counts), len(counts) + 3):
            assert each.top(k) == ranked[:k], (n, k)
        assert each.largest() == ranked[0]


def test_pigeonhole_floor_holds():
    for n in (7, 9, 12):
        _, count = best_params(n)
        assert count >= pigeonhole_floor(n) >= 1
        assert pigeonhole_floor(n) == math.ceil((1 << n) / (144 * n**6))


def test_redundancy_identities():
    p = ZERO7
    assert redundancy(p, size=1 << 7) == 0.0
    assert redundancy(p, size=1) == 7.0
    with pytest.raises(ValueError):
        redundancy(p, size=0)
    assert redundancy(p) == 7 - math.log2(len(enumerate_codewords(p)))
    assert redundancy_bound(12) == 6 * math.log2(12) + 8


@pytest.mark.parametrize("n", (9, 11))
def test_index_coding_roundtrip(n):
    params, count = best_params(n)
    members = enumerate_codewords(params)
    assert len(members) == count >= 1
    for m, w in enumerate(members):
        assert encode_index(m, params) == w
        assert decode_index(w, params) == m
    assert encode_index(0, params) == members[0]
    with pytest.raises(ValueError):
        encode_index(count, params)
    outsider = next(
        Word.from_int(v, n) for v in range(1 << n) if not is_codeword(Word.from_int(v, n), params)
    )
    with pytest.raises(ValueError):
        decode_index(outsider, params)


def test_enumeration_cap():
    with pytest.raises(ResourceCapError):
        enumerate_codewords(SyndromeTuple(30, 0, 0, 0, 0))
    with pytest.raises(ResourceCapError, match=f"cap {DEFAULT_ENUMERATION_CAP}$"):
        bucket_census(DEFAULT_ENUMERATION_CAP + 1)
    with pytest.raises(ValueError):
        bucket_census(5)
    with pytest.raises(ValueError):
        code._shared_classes(5, MODE_BUCKET)
    with pytest.raises(ResourceCapError, match="^length 7 exceeds enumeration cap 6$"):
        bucket_census(7, 6)
    assert bucket_census(10, 10).total() == 1 << 10


def test_negative_enumeration_cap_is_rejected():
    with pytest.raises(ValueError, match="enumeration cap must be at least 0, got -1"):
        bucket_census(9, -1)
    with pytest.raises(ValueError, match="got -3"):
        enumerate_codewords(SyndromeTuple(9, 0, 0, 0, 0), -3)
    # a cap of 0 is valid and admits no length
    with pytest.raises(ResourceCapError):
        bucket_census(9, 0)


def test_enumeration_cap_holds_on_a_cache_hit():
    params = SyndromeTuple(12, 0, 0, 0, 0)
    enumerate_codewords(params)  # warm the cache
    with pytest.raises(ResourceCapError):
        enumerate_codewords(params, cap=8)


@pytest.mark.parametrize("n", range(7, 15))
@pytest.mark.parametrize("mode", (MODE_BUCKET, MODE_EXACT))
def test_sweep_matches_the_oracle_scan(n, mode):
    assert scan_pairwise_distance(n, mode) == oracles.scan_pairwise_distance(n, mode)


@pytest.mark.parametrize("mode", (MODE_BUCKET, MODE_EXACT))
def test_distance_sweeps_pass(mode):
    for n in (7, 11):
        report = scan_pairwise_distance(n, mode)
        assert report.ok and not report.violations
        assert report.words == 1 << n
        if report.pairs:
            assert report.min_distance >= 5


def test_sweep_violation_reporting_machinery():
    # synthetic group of close words exercises the witness path
    pairs, min_distance, violations = _distance_shard(
        7, [((0, 0, 0, 0), [0b0000000, 0b0000001, 0b1111111])]
    )
    assert pairs == 3
    assert min_distance == 1
    assert violations == [
        DistanceViolation(Word("0000000"), Word("0000001"), 1, (0, 0, 0, 0))
    ]


def test_a_shard_of_one_chunk_plus_one_pair_matches_the_dp():
    # PAIR_CHUNK - 189 classes of two, then one of 20 words (190 pairs) that
    # straddles the chunk boundary; its last pair, alone in the second chunk,
    # is at distance 1
    rng = random.Random(20)
    evens = rng.sample(range(0, 1 << 16, 2), 2 * (PAIR_CHUNK - 189) + 19)
    items = [((i, 0, 0, 0), sorted(evens[2 * i : 2 * i + 2])) for i in range(PAIR_CHUNK - 189)]
    last = sorted(evens[2 * (PAIR_CHUNK - 189) :])
    items.append(((-1, 0, 0, 0), last + [last[-1] + 1]))
    expected = []
    for key, values in items:
        for a, b in combinations(values, 2):
            x, y = Word.from_int(a, 16), Word.from_int(b, 16)
            expected.append((x, y, oracles.edit_distance_dp(x, y), key))
    assert len(expected) == PAIR_CHUNK + 1
    pairs, min_distance, violations = _distance_shard(16, items)
    assert (pairs, min_distance) == (PAIR_CHUNK + 1, 1)
    assert violations == [DistanceViolation(*e) for e in expected if e[2] <= 4]
    assert violations[-1] == DistanceViolation(*expected[-1])


def test_exact_groups_refine_buckets():
    exact = oracles.syndrome_groups(9, exact=True)
    buckets = oracles.syndrome_groups(9, exact=False)
    assert sum(len(g) for g in exact.values()) == 512
    assert len(exact) >= len(buckets)


def test_close_hamming_pairs_never_share_exact_sums():
    # equal-length words differing in at most 4 positions always differ in
    # some exact weight sum
    for n in (7, 8):
        for values in oracles.syndrome_groups(n, exact=True).values():
            words = [Word.from_int(v, n) for v in values]
            for i in range(len(words)):
                for j in range(i + 1, len(words)):
                    assert oracles.hamming(words[i], words[j]) > 4


def test_residue_equality_is_exact_equality_for_confusable_pairs():
    # for pairs within four edits whose padded adjacency counts agree mod 9,
    # the weight-sum differences stay below the moduli, so sharing a residue
    # class is the same as sharing the exact sums
    from twoedit.channel import edit_distance
    from twoedit.syndrome import padded_weight_sums

    for n in (7, 8):
        sums = {v: padded_weight_sums(v, n) for v in range(1 << n)}
        for a in range(1 << n):
            for b in range(a + 1, 1 << n):
                sa, sb = sums[a], sums[b]
                if (sa[3] - sb[3]) % 9 != 0:
                    continue
                if edit_distance(Word.from_int(a, n), Word.from_int(b, n)) > 4:
                    continue
                assert abs(sa[3] - sb[3]) <= 8
                assert abs(sa[0] - sb[0]) < 4 * n
                assert abs(sa[1] - sb[1]) < 2 * n * n
                assert abs(sa[2] - sb[2]) < 2 * n**3
