"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria complete.
"""

import random
from contextlib import contextmanager
from itertools import product

import pytest

import oracles
from oracles import all_patterns, zero_syndrome_forces_zero
from twoedit import analysis, cli, code
from twoedit.channel import apply_errors, edit_distance
from twoedit.syndrome import sign_preserving_number
from twoedit.words import Word, adjacency_count, adjacency_profile, invert, pad


@contextmanager
def criterion(num, label):
    try:
        yield
    except BaseException:
        print(f"[acceptance] {num:>2} {label}: FAIL")
        raise
    print(f"[acceptance] {num:>2} {label}: PASS")


def test_c01_worked_examples():
    with criterion(1, "worked examples"):
        assert adjacency_profile(Word("000100")) == (0, 0, 0, 1, 2, 2)
        assert pad(Word("110")) == Word("01100")
        assert sign_preserving_number((1, 0, 1, -1, -2, 3)) == 3

        u, v = Word("0100000000010"), Word("0000100010000")
        al = analysis.alignment_from_positions(u, v, (2, 6, 12, 9), s=1, r=1)
        kinds, values = analysis.pair_type(u, v, al)
        assert kinds == (analysis.DEL_OVER, analysis.SUB, analysis.DEL_UNDER, analysis.SUB)
        assert values == (2, -2, -2, 2)

        u2, v2 = Word("00000110"), Word("01100000")
        al2 = analysis.alignment_from_positions(u2, v2, (2, 3, 6, 7), s=0, r=2)
        assert analysis.pair_type(u2, v2, al2)[1] == (-2, 0, 0, 2)

        x, y = Word("00010"), Word("01110")
        _, _, al3 = analysis.find_relation(x, y, s=2, r=0)
        assert analysis.segment_once(x, y, al3, (4, 2)) == (Word("00011110"), Word("01111110"))


@pytest.mark.parametrize("n", (7, 8, 9, 10))
def test_c02_bucket_distance_sweep(n):
    with criterion(2, f"residue buckets pairwise distance >= 5 at n={n}"):
        report = code.scan_pairwise_distance(n, code.MODE_BUCKET)
        assert report.violations == (), report.violations[:3]
        if report.pairs:
            assert report.min_distance >= 5


@pytest.mark.parametrize("n", (7, 8, 9, 10))
def test_c03_exact_sum_sweep(n):
    with criterion(3, f"equal exact sums force distance >= 5 at n={n}"):
        report = code.scan_pairwise_distance(n, code.MODE_EXACT)
        assert report.violations == (), report.violations[:3]
        if report.pairs:
            assert report.min_distance >= 5


def test_c04_decoder_round_trip():
    with criterion(4, "decoder round trip over every <=2-edit pattern at n=9"):
        params, count = code.best_params(9)
        codewords = code.enumerate_codewords(params)
        assert len(codewords) == count >= 1
        from twoedit.decoder import decode

        lengths_seen = set()
        checked = 0
        for c in codewords:
            for pattern in all_patterns(9, 2):
                received = apply_errors(c, pattern)
                lengths_seen.add(len(received))
                assert decode(received, params) == c, (c, pattern)
                checked += 1
        assert lengths_seen == {7, 8, 9, 10, 11}
        assert checked == count * 1132


def test_c05_zero_syndrome_sweep():
    with criterion(5, "zero syndromes force the zero vector on {-2..2}^6"):
        checked = 0
        for z in product(range(-2, 3), repeat=6):
            assert zero_syndrome_forces_zero(z), z
            if sign_preserving_number(z) <= 3 and all(
                sum(v * (j + 1) ** order for j, v in enumerate(z)) == 0 for order in (0, 1, 2)
            ):
                assert z == (0, 0, 0, 0, 0, 0)
            checked += 1
        assert checked == 15625


def test_c06_sigma_greedy_equals_brute_force():
    with criterion(6, "greedy sign-preserving number is the partition minimum"):
        for z in product((-1, 0, 1), repeat=8):
            assert sign_preserving_number(z) == oracles.sigma_exhaustive(z), z
        rng = random.Random(0x5EED)
        for _ in range(10_000):
            z = tuple(rng.randint(-5, 5) for _ in range(32))
            assert sign_preserving_number(z) == oracles.sigma_partition_dp(z), z


def test_c07_segmentation_invariants_on_random_confusable_pairs():
    with criterion(7, "segmentation invariants on 1000 seeded pairs at n=10"):
        rng = random.Random(0xD15C)
        for _ in range(1000):
            x, y = oracles.random_confusable_pair(rng, 10)
            assert edit_distance(x, y) <= 4
            sep = analysis.separate_errors(x, y, 5)
            prev = oracles.profile_difference(pad(x), pad(y))
            for rnd in sep.rounds:
                assert adjacency_count(rnd.x_after) - adjacency_count(
                    rnd.y_after
                ) == adjacency_count(rnd.x_before) - adjacency_count(rnd.y_before)
                cur = oracles.profile_difference(rnd.x_after, rnd.y_after)
                assert oracles.is_subsequence(prev, cur)
                prev = cur
            values = sorted(sep.positions)
            assert all(b - a >= 5 for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("n", (12, 16))
def test_c08_census_pigeonhole_and_redundancy(n):
    with criterion(8, f"census floor and redundancy bound at n={n}"):
        params, count = code.best_params(n)
        assert count >= code.pigeonhole_floor(n)
        r = code.redundancy(params, size=count)
        print(f"[acceptance]    n={n}: largest class {count}, redundancy {r:.6f}")
        assert r <= code.redundancy_bound(n)


def test_c09_inversion_symmetry_exhaustive():
    with criterion(9, "profile differences invert to negated reversals at length 8"):
        by_count: dict[int, list[Word]] = {}
        for v in range(1 << 8):
            w = Word.from_int(v, 8)
            by_count.setdefault(adjacency_count(w), []).append(w)
        for members in by_count.values():
            for i in range(len(members)):
                for j in range(i + 1, len(members)):
                    x, y = members[i], members[j]
                    diff = tuple(
                        a - b for a, b in zip(adjacency_profile(x), adjacency_profile(y))
                    )
                    diff_inv = tuple(
                        a - b
                        for a, b in zip(
                            adjacency_profile(invert(x)), adjacency_profile(invert(y))
                        )
                    )
                    assert diff_inv == tuple(-v for v in reversed(diff))


def test_c10_verify_output_deterministic_across_workers(capsys):
    with criterion(10, "verify output is byte-identical across worker counts"):
        assert cli.main(["verify", "--n", "8", "--machine"]) == 0
        sequential = capsys.readouterr().out
        assert cli.main(["verify", "--n", "8", "--workers", "4", "--machine"]) == 0
        parallel = capsys.readouterr().out
        assert sequential == parallel
        assert cli.main(["verify", "--n", "8"]) == 0
        sequential_human = capsys.readouterr().out
        assert cli.main(["verify", "--n", "8", "--workers", "2"]) == 0
        assert sequential_human == capsys.readouterr().out
