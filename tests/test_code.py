import math
import multiprocessing
import os
from array import array
from collections import Counter
from itertools import zip_longest

import pytest

import oracles
from twoedit import code
from twoedit.code import (
    Census,
    DEFAULT_ENUMERATION_CAP,
    CodeParams,
    DistanceViolation,
    MODE_BUCKET,
    MODE_EXACT,
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
from twoedit.syndrome import SyndromeTuple, moduli, syndrome_tuple
from twoedit.words import Word

ZERO7 = CodeParams.from_values(7, 0, 0, 0, 0)


def test_membership_examples():
    assert is_codeword(Word("0000000"), ZERO7)
    assert is_codeword(Word("0000001"), CodeParams.from_values(7, 3, 26, 226, 2))
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
        assert member_value(v, CodeParams(own))
        # a differing s3 fails on the adjacency count, a differing s0..s2 on the sums
        assert not member_value(v, CodeParams(_other_residues(own, 3)))
        assert not member_value(v, CodeParams(_other_residues(own, v % 3)))
        assert member_value(v, largest) == (own == largest.residues)


def test_params_canonicalize():
    p = CodeParams.from_values(7, 28 + 3, -1, 226, 11)
    assert p.residues == SyndromeTuple(7, 3, 97, 226, 2)


def test_enumeration_contains_generators_and_is_sorted():
    members = enumerate_codewords(ZERO7)
    assert Word("0000000") in members
    values = [w.value for w in members]
    assert values == sorted(set(values))
    for w in members:
        assert syndrome_tuple(w) == ZERO7.residues


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


@pytest.mark.parametrize("n", range(7, 13))
def test_member_values_match_member_value(n):
    census = bucket_census(n)
    largest = census.largest()[0]
    s3_words = Counter()
    for key, count in census.counts.items():
        s3_words[SyndromeTuple.unpack(key, n).s3] += count
    common = s3_words.most_common(1)[0][0]
    other = next(st for st, _ in census.top(census.class_count()) if st.s3 != common)
    for residues in (largest, other):
        p = CodeParams(residues)
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
        enumerate_codewords(CodeParams.from_values(30, 0, 0, 0, 0))
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
        enumerate_codewords(CodeParams.from_values(9, 0, 0, 0, 0), -3)
    # a cap of 0 is valid and admits no length
    with pytest.raises(ResourceCapError):
        bucket_census(9, 0)


def test_enumeration_cap_holds_on_a_cache_hit():
    params = CodeParams.from_values(12, 0, 0, 0, 0)
    enumerate_codewords(params)  # warm the cache
    with pytest.raises(ResourceCapError):
        enumerate_codewords(params, cap=8)


class SerialPool:
    """Stands in for ``multiprocessing.Pool``: maps in this process and
    records the process count asked for."""

    sizes: list[int] = []

    def __init__(self, processes):
        self.sizes.append(processes)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return [fn(t) for t in tasks]


def test_sweep_pool_has_one_process_per_shard(monkeypatch):
    monkeypatch.setattr(multiprocessing, "Pool", SerialPool)
    monkeypatch.setattr(SerialPool, "sizes", [])
    monkeypatch.setattr(os, "cpu_count", lambda: 8)  # enough cores for every shard
    # n=11 has 8 groups with two or more words: 5 workers get 4 shards of 2
    assert scan_pairwise_distance(11, workers=5) == scan_pairwise_distance(11)
    assert SerialPool.sizes == [4]


def test_sweep_pool_is_capped_at_the_cpu_count(monkeypatch):
    monkeypatch.setattr(multiprocessing, "Pool", SerialPool)
    monkeypatch.setattr(SerialPool, "sizes", [])
    # n=11 has 8 shared classes: 10 000 workers get 8 shards of 1
    assert scan_pairwise_distance(11, workers=10_000) == scan_pairwise_distance(11)
    assert len(SerialPool.sizes) == 1 and SerialPool.sizes[0] <= os.cpu_count()
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert scan_pairwise_distance(11, workers=10_000) == scan_pairwise_distance(11)
    assert SerialPool.sizes[1:] == [3]


@pytest.mark.parametrize("n", range(7, 15))
@pytest.mark.parametrize("mode", (MODE_BUCKET, MODE_EXACT))
def test_sweep_matches_the_oracle_scan(monkeypatch, n, mode):
    monkeypatch.setattr(multiprocessing, "Pool", SerialPool)
    monkeypatch.setattr(SerialPool, "sizes", [])
    reference = oracles.scan_pairwise_distance(n, mode)
    for workers in (1, 3):
        assert scan_pairwise_distance(n, mode, workers=workers) == reference


@pytest.mark.parametrize("mode", (MODE_BUCKET, MODE_EXACT))
def test_distance_sweeps_pass(mode):
    for n in (7, 11):
        report = scan_pairwise_distance(n, mode)
        assert report.ok and not report.violations
        assert report.words == 1 << n
        if report.pairs:
            assert report.min_distance >= 5


def test_sweep_worker_count_does_not_matter():
    a = scan_pairwise_distance(11, MODE_BUCKET, workers=1)
    b = scan_pairwise_distance(11, MODE_BUCKET, workers=3)
    assert a == b


def test_sweep_violation_reporting_machinery():
    # synthetic group of close words exercises the witness path
    pairs, min_distance, violations = _distance_shard(
        (7, [((0, 0, 0, 0), [0b0000000, 0b0000001, 0b1111111])])
    )
    assert pairs == 3
    assert min_distance == 1
    assert violations == [
        DistanceViolation(Word("0000000"), Word("0000001"), 1, (0, 0, 0, 0))
    ]


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
