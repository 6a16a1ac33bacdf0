import os
import random
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from oracles import (
    invert,
    padded_weight_sums_loop,
    syndrome_from_kv,
    syndrome_tuple_naive,
    transition_sums_loop,
    vt_weight_vector,
    zero_syndrome_forces_zero,
)
from twoedit import syndrome
from twoedit.syndrome import (
    SyndromeTuple,
    moduli,
    padded_weight_sums,
    sign_preserving_number,
    syndrome_tuple,
    transition_sums,
)
from twoedit.words import Word, adjacency_profile

int_vectors = st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=12).map(tuple)


def test_vt_weight_vector_examples():
    assert vt_weight_vector(0, 4) == (1, 1, 1, 1)
    assert vt_weight_vector(1, 4) == (1, 2, 3, 4)
    assert vt_weight_vector(2, 4) == (1, 4, 9, 16)


def test_vt_weight_vector_rejects_unused_orders():
    with pytest.raises(ValueError):
        vt_weight_vector(3, 4)
    with pytest.raises(ValueError):
        vt_weight_vector(-1, 4)
    with pytest.raises(ValueError):
        vt_weight_vector(0, 0)


def test_syndrome_examples():
    assert syndrome_tuple(Word("0000000")) == SyndromeTuple(7, 0, 0, 0, 0)
    assert syndrome_tuple(Word("0000001")) == SyndromeTuple(7, 3, 26, 226, 2)


def test_syndrome_rejects_short_words():
    with pytest.raises(ValueError):
        syndrome_tuple(Word("000000"))
    with pytest.raises(ValueError):
        SyndromeTuple(6, 0, 0, 0, 0)


def test_syndrome_tuple_validates_ranges():
    with pytest.raises(ValueError):
        SyndromeTuple(7, 28, 0, 0, 0)
    with pytest.raises(ValueError):
        SyndromeTuple(7, 0, 0, 0, 9)


def test_syndrome_one_pass_equals_naive():
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randint(7, 18)
        w = Word.from_int(rng.getrandbits(n), n)
        assert syndrome_tuple(w) == syndrome_tuple_naive(w)


def test_pack_unpack_roundtrip():
    rng = random.Random(5)
    for _ in range(100):
        n = rng.randint(7, 15)
        w = Word.from_int(rng.getrandbits(n), n)
        st_ = syndrome_tuple(w)
        assert SyndromeTuple.unpack(st_.pack(), n) == st_


def test_kv_serialization_roundtrip():
    st_ = SyndromeTuple(7, 3, 26, 226, 2)
    assert st_.to_kv() == "n=7 s0=3 s1=26 s2=226 s3=2"
    assert syndrome_from_kv(st_.to_kv()) == st_
    with pytest.raises(ValueError):
        syndrome_from_kv("n=7 s0=3")


def test_sign_preserving_examples():
    assert sign_preserving_number((1, 0, 1, -1, -2, 3)) == 3
    assert sign_preserving_number((0, 0, 0)) == 1
    assert sign_preserving_number((1, -1, 1, -1)) == oracles.sigma_exhaustive((1, -1, 1, -1)) == 4
    with pytest.raises(ValueError):
        sign_preserving_number(())


def test_sign_preserving_of_a_profile_difference():
    # a pair of words whose profile difference needs four segments
    u, v = Word("0111001110"), Word("0010000100")
    diff = tuple(a - b for a, b in zip(adjacency_profile(u), adjacency_profile(v)))
    assert diff == (0, 1, 0, -1, 0, 0, 1, 0, -1, 0)
    assert sign_preserving_number(diff) == 4


def test_greedy_sigma_is_the_partition_minimum_small():
    for z in product((-1, 0, 1), repeat=6):
        assert sign_preserving_number(z) == oracles.sigma_exhaustive(z), z


@given(int_vectors)
def test_greedy_sigma_matches_partition_dp(z):
    assert sign_preserving_number(z) == oracles.sigma_partition_dp(z)


def test_sigma_subadditive_exhaustive():
    for z in product((-1, 0, 1), repeat=8):
        whole = sign_preserving_number(z)
        for i in range(1, 8):
            assert whole <= sign_preserving_number(z[:i]) + sign_preserving_number(z[i:])


@given(int_vectors)
def test_sigma_symmetries(z):
    assert sign_preserving_number(z) == sign_preserving_number(tuple(-v for v in z))
    assert sign_preserving_number(z) == sign_preserving_number(invert(z))


def test_zero_syndrome_checker_examples():
    assert zero_syndrome_forces_zero((0, 0, 0, 0))
    assert zero_syndrome_forces_zero((1, -1, 0))
    with pytest.raises(ValueError):
        zero_syndrome_forces_zero(())


def test_weight_sums_fit_reduction():
    # residues derived from the exact sums must match the reduced tuple
    rng = random.Random(3)
    for _ in range(100):
        n = rng.randint(7, 14)
        w = Word.from_int(rng.getrandbits(n), n)
        s0, s1, s2, count = padded_weight_sums(w.value, n)
        m = moduli(n)
        st_ = syndrome_tuple(w)
        assert (s0 % m[0], s1 % m[1], s2 % m[2], count % m[3]) == (st_.s0, st_.s1, st_.s2, st_.s3)


def test_profile_difference_inverts_to_negated_reversal():
    # exhaustive at length 8: pairs with equal adjacency count
    by_count: dict[int, list[Word]] = {}
    for v in range(1 << 8):
        w = Word.from_int(v, 8)
        by_count.setdefault(oracles.transitions(str(w)), []).append(w)
    for members in by_count.values():
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                x, y = members[i], members[j]
                diff = tuple(
                    a - b for a, b in zip(adjacency_profile(x), adjacency_profile(y))
                )
                diff_inv = tuple(
                    a - b
                    for a, b in zip(adjacency_profile(invert(x)), adjacency_profile(invert(y)))
                )
                assert diff_inv == tuple(-v for v in reversed(diff))
                if any(diff):
                    assert sign_preserving_number(diff_inv) == sign_preserving_number(diff)


# --- the transition-table kernel --------------------------------------------


@pytest.mark.parametrize("n", range(15))
def test_weight_sums_equal_the_bit_loop_on_every_word(n):
    for v in range(1 << n):
        assert padded_weight_sums(v, n) == padded_weight_sums_loop(v, n), (n, v)


@pytest.mark.parametrize("length", range(16))
def test_transition_sums_equal_the_bit_loop_on_every_mask(length):
    for mask in range(1 << length):
        assert transition_sums(mask, length) == transition_sums_loop(mask, length), mask


# n + 1 = 0, 1 and 7 (mod 8): the mask ends at, just past and just before a
# byte boundary
SEEDED_LENGTHS = (6, 7, 8, 14, 15, 16, 62, 63, 64, 1023, 1024, 1030, 4094, 4095, 4096)


@pytest.mark.parametrize("n", SEEDED_LENGTHS)
def test_weight_sums_equal_the_bit_loop_on_seeded_words(n):
    rng = random.Random(n)
    alternating = int("01" * (n // 2 + 1), 2) & ((1 << n) - 1)  # every pair a transition
    words = [0, (1 << n) - 1, alternating] + [rng.getrandbits(n) for _ in range(20)]
    for v in words:
        assert padded_weight_sums(v, n) == padded_weight_sums_loop(v, n), (n, v)
        mask = v ^ (v << 1)
        assert transition_sums(mask, n + 1) == transition_sums_loop(mask, n + 1), (n, v)


@pytest.mark.parametrize("n", range(7, 17))
def test_transition_sums_split_at_the_head_as_the_sweep_splits_them(n):
    # _split_keys adds the head's mask, read at length h, to the low t + 1
    # bits of the whole mask, read at length n + 1
    h = n // 2
    t = n - h
    low = (1 << (t + 1)) - 1
    rng = random.Random(n)
    for v in range(1 << n) if n <= 10 else [rng.getrandbits(n) for _ in range(300)]:
        hi = v >> t
        head = hi ^ (hi >> 1)
        tail = (v ^ (v << 1)) & low
        assert transition_sums(head, h) == transition_sums_loop(head, h)
        assert transition_sums(tail, n + 1) == transition_sums_loop(tail, n + 1)
        whole = transition_sums(v ^ (v << 1), n + 1)
        parts = zip(transition_sums(head, h), transition_sums(tail, n + 1))
        assert whole == tuple(a + b for a, b in parts), (n, v)
        assert head.bit_count() + tail.bit_count() == (v ^ (v << 1)).bit_count()


def test_packed_fields_cannot_overflow_below_the_stated_length():
    # the largest field is sum 2 over all m positions of a mask,
    # m(m+1)^2(m+2)/12; it must stay below 2^_FIELD_BITS while
    # m <= 7 993 834 869, as the syndrome module states
    def largest(m):
        return m * (m + 1) ** 2 * (m + 2) // 12

    for m in (1, 2, 9, 64, 257):
        assert transition_sums((1 << m) - 1, m)[2] == largest(m)
        assert transition_sums((1 << m) - 1, m) == transition_sums_loop((1 << m) - 1, m)
    limit = 7_993_834_869
    assert syndrome._FIELD_BITS == 128
    assert largest(limit) < 1 << syndrome._FIELD_BITS <= largest(limit + 1)


def test_rows_are_kept_only_up_to_a_fixed_length():
    kept = syndrome._KEPT_ROWS
    rng = random.Random(kept)
    # across the cap (2 040..2 060 bits) and past twice the cap (4 090..4 100)
    for length in (*range(8 * kept - 8, 8 * kept + 13), *range(16 * kept - 6, 16 * kept + 5)):
        for mask in (rng.getrandbits(length), (1 << length) - 1, 1):
            assert transition_sums(mask, length) == transition_sums_loop(mask, length), length
        rows = len(syndrome._rows)
        assert rows == kept if length > 8 * kept else rows <= kept, (length, rows)


def test_masks_past_the_kept_rows_are_read_in_blocks():
    # two and three blocks, one bit short of them, exact and one bit over,
    # and a mask ending mid-block: no row past the kept ones is built
    kept = syndrome._KEPT_ROWS
    block = 8 * kept
    rng = random.Random(block)
    edges = [length for k in (2, 3) for length in range(k * block - 1, k * block + 2)]
    for length in (*edges, 9001):
        # the last bit before each block and the block's first
        straddle = sum(3 << length - 1 - d for d in range(block, length, block))
        for mask in (rng.getrandbits(length), (1 << length) - 1, 1, 1 << length - 1, straddle, 0):
            assert transition_sums(mask, length) == transition_sums_loop(mask, length), length
            assert len(syndrome._rows) == kept, length


def test_rows_are_built_on_demand_up_to_the_longest_mask():
    # a fresh interpreter: importing the CLI builds no rows, and a shorter
    # word after a longer one builds none
    script = (
        "import twoedit.cli, twoedit.syndrome as s\n"
        "from twoedit.words import Word\n"
        "assert s._rows == (), len(s._rows)\n"
        "s.syndrome_tuple(Word.from_int(12345, 20))\n"
        "s.syndrome_tuple(Word.from_int(123, 12))\n"
        "print(len(s._rows))\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=60, env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "3\n"  # ceil(21 / 8)
