"""The code family: membership, enumeration, census, and index coding.

For length n >= 7 a parameter choice is one residue tuple; the code is the
set of words whose syndrome tuple equals it.

Pairwise verification collects in one sweep.  It keeps the first word of
every class and starts a member list only when a second word arrives, since
only classes of two or more words hold a pair to check; the classes stay
keyed by their packed keys.  Their pairs go out as packed values, each with
its class key, and ``PAIR_CHUNK`` of them at a time are measured in one pass
of ``channel.edit_distances``: each pair is one field of a big integer, and
each of the n steps of Myers' algorithm advances every pair's DP column at
once.  The chunks keep those integers a few tens of kilobytes at any n.
Only a pair closer than 5 is turned into ``Word``s, and only its key is
unpacked (``syndrome.unpack_key``).  All of it runs in one process: a pair
costs well under a microsecond, so shipping the classes to other processes
loses at every length.

Census, grouping and enumeration share one split-word sweep.  A word is a
head ``hi`` of h = n // 2 bits followed by a tail ``lo`` of t = n - h bits.
Each weighted sum is ``count * P_k(n + 2)`` minus a sum over the word's
transition bits (see ``syndrome``), and both split at the head: the h bits
of ``hi ^ (hi >> 1)`` are the transitions into the head, and the low t + 1
bits of ``v ^ (v << 1)`` those into the tail and the right pad, which depend
only on ``lo`` and the last bit of ``hi``.  With ``c_hi`` and ``lc`` the
popcounts of the two masks and ``H_k`` and ``L_k`` their transition sums,

    s_k = (c_hi * P_k(n + 2) - H_k(hi)) + (lc * P_k(n + 2) - L_k(lastbit(hi), lo))

and the padded adjacency count is ``c_hi + lc``.  A word's key is the
mixed-radix pack of its four reduced sums, each reduced sum scaled to its
place: k_j = (s_j % r_j) * p_j, below q_j = r_j * p_j.  With the moduli of
``moduli(n)`` as radices the pack is ``SyndromeTuple.pack``.  The exact
sweep packs with radices (n+2)^2, (n+2)^3, (n+2)^4 and n+2: the count is at
most n+1 and sum k is below (n+1) * (n+2)^(k+1), so every reduction is the
identity and the key holds the unreduced sums.

The sweep works on whole tail rows, each packed into one integer with one
fixed-width field per tail (SIMD within a register, Lamport 1975).  What
depends only on n and the radices is a plan, built once per process and
kept for the last few ``(n, radices)`` (``_plan``).  Each transition
mask's scaled, reduced terms come from the formula above, its sums read by
``syndrome.transition_sums``: the tails' terms l_j, over their t + 1 bit
masks, are packed into one integer per component and last head bit.  The
four components make one row sum for each head count c = 0..h (c fixes the
head's last bit: it is odd iff that bit is 1), its count field
(c + lc) % r3 reduced as the heads reduce theirs below.  The plan keeps
those h + 1 rows, the overflow bounds and three head tables, the terms a_j
of each h-bit head mask, and no tail table.  A head reads its terms with one
popcount and three lookups, and gets the keys of all 2^t of its words by a
dozen big-integer operations: for reduced a and l,
(a + l) % q == a + l - q * [l >= q - a], so the head adds a_0 + a_1 + a_2 to
every field of its row sum, and for each component j subtracts q_j from the
fields where l_j >= q_j - a_j, which a subtraction marks in each field's
top bit.  The fields are 32 or 64 bits wide, whichever holds every key at
the radices (``_field_type``), and ``array`` unpacks them into the list of
keys.

A census ranks only the classes that can rank.  ``Census.top`` reads the
class sizes as one byte each and filters them at C speed with a threshold
raised while k classes stay at or above it, so only those are sorted.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left
from collections import Counter
from functools import lru_cache
from itertools import combinations, compress, islice
from operator import neg
from typing import Iterator, NamedTuple

from .syndrome import (
    COUNT_MODULUS,
    MIN_CODE_LENGTH,
    SyndromeTuple,
    moduli,
    padded_weight_sums,
    power_sums,
    reduce_sums,
    transition_sums,
    unpack_key,
)
from .words import Word

DEFAULT_ENUMERATION_CAP = 24


class ResourceCapError(RuntimeError):
    """A length exceeds the enumeration cap."""


def _check_cap(n: int, cap: int | None) -> None:
    if cap is None:
        cap = DEFAULT_ENUMERATION_CAP
    elif cap < 0:
        raise ValueError(f"enumeration cap must be at least 0, got {cap}")
    if n > cap:
        raise ResourceCapError(f"length {n} exceeds enumeration cap {cap}")
    if n < MIN_CODE_LENGTH:
        raise ValueError(f"length must be at least {MIN_CODE_LENGTH}, got {n}")


def member_value(v: int, p: SyndromeTuple) -> bool:
    """Whether the length-n word with packed value ``v`` lies in the code
    ``p``: whether its reduced sums equal the code's residues."""
    return reduce_sums(padded_weight_sums(v, p.n), p.n) == (p.s0, p.s1, p.s2, p.s3)


def is_codeword(x: Word, p: SyndromeTuple) -> bool:
    if len(x) != p.n:
        raise ValueError(f"word length {len(x)} does not match code length {p.n}")
    # About 8 in 9 arbitrary words fail the adjacency count, a popcount of
    # the transition mask; they skip the weighted sums.
    if (x.value ^ (x.value << 1)).bit_count() % COUNT_MODULUS != p.s3:
        return False
    return member_value(x.value, p)


def _codeword_values(p: SyndromeTuple, cap: int | None) -> tuple[int, ...]:
    # The cap is checked on every call, cache hit or not.
    _check_cap(p.n, cap)
    return _member_values(p)


@lru_cache(maxsize=8)
def _member_values(p: SyndromeTuple) -> tuple[int, ...]:
    target = p.pack()
    return tuple(
        v
        for base, keys in _split_keys(p.n, moduli(p.n))
        if target in keys
        for v, key in enumerate(keys, base)
        if key == target
    )


def enumerate_codewords(p: SyndromeTuple, cap: int | None = None) -> list[Word]:
    """All codewords in lexicographic order."""
    return [Word.from_int(v, p.n) for v in _codeword_values(p, cap)]


def _field_type(radices: tuple[int, int, int, int]) -> str:
    """The ``array`` type code of the packed rows' fields: the narrower of
    "I" and "Q" that holds every key at these radices.

    A field holds a key plus up to three unreduced overflows, so it stays
    below 2 * (q0 + q1 + q2), q_k being the pack's place value above
    component k; that bound also keeps every q_k below the field's top bit,
    which flags the overflows.  Raises if even "Q" is too narrow.
    """
    from array import array  # here, so that importing the CLI does not load it

    r0, r1, r2, r3 = radices
    q2 = r2 * r3
    q1 = r1 * q2
    for typecode in "IQ":
        bits = 8 * array(typecode).itemsize
        if 2 * (r0 * q1 + q1 + q2) <= 1 << bits:
            return typecode
    raise ValueError(f"keys at radices {radices} do not fit {bits}-bit fields")


@lru_cache(maxsize=4)
def _plan(n: int, radices: tuple[int, int, int, int]):
    """What ``_split_keys`` needs at ``(n, radices)`` before its first head
    (see the module docstring), kept for the last few asked for:
    ``(typecode, size, top, ones, rows, bounds, above, heads)``, the fields'
    ``array`` type, the bytes per packed row, a field's top bit, 1 in every
    field, the packed row sum per head count c = 0..h, the packed overflow
    bounds per last head bit, q_j = r_j * p_j, and per component j each
    head mask's scaled, reduced term.  No tail table or column is kept.
    Raises ValueError before building anything if no field type holds the keys.
    """
    from array import array  # as in _field_type

    typecode = _field_type(radices)
    bits = 8 * array(typecode).itemsize
    h = n // 2
    t = n - h
    r0, r1, r2, r3 = radices
    p2 = r3
    p1 = r2 * p2
    p0 = r1 * p1
    places = (p0, p1, p2)
    fs = power_sums(n + 2)
    size = bits >> 3 << t
    ones = (1 << (bits << t)) // ((1 << bits) - 1)  # 1 in every field
    top = bits - 1

    def packed(values) -> int:
        return int.from_bytes(array(typecode, values).tobytes(), sys.byteorder)

    def terms(mask: int, length: int) -> tuple[int, int, int, int]:
        # a transition mask's scaled, reduced terms (see padded_weight_sums)
        # and its count column
        c = mask.bit_count()
        sums = zip(fs, transition_sums(mask, length), radices, places)
        return *((c * f - s) % r * p for f, s, r, p in sums), c % r3

    # Per last head bit, one packed column per component over the tails'
    # t + 1 bit masks, the low bits of the word's n + 1 bit mask: after a
    # last head bit 1 the transition into the tail, mask bit t, flips.
    low = (1 << (t + 1)) - 1
    masks = [(lo ^ (lo << 1)) & low for lo in range(1 << t)]
    flipped = [m ^ 1 << t for m in masks]
    columns = [
        [packed(col) for col in zip(*(terms(m, n + 1) for m in ms))] for ms in (masks, flipped)
    ]
    # For reduced a and l, (a + l) % q == a + l - q * [l >= q - a].  With the
    # top bit of every field set, subtracting q - a from a column leaves that
    # bit set exactly where l >= q - a, so one subtraction reduces every field.
    # One row sum per head count c, which fixes the head's last bit, with the
    # count (c + lc) % r3 reduced this way; it is its own component, below p2.
    half = ones << top
    rows = []
    for c in range(h + 1):
        b0, b1, b2, b3 = columns[c & 1]
        a3 = c % r3
        wraps = (b3 + half - (r3 - a3) * ones) >> top & ones
        rows.append(b0 + b1 + b2 + b3 + a3 * ones - wraps * r3)
    # Each head reduces its terms' sums with the row in the same way.
    bounds = [(b0 + half, b1 + half, b2 + half) for b0, b1, b2, _ in columns]
    # The heads' terms, their h-bit masks the high bits of the word's mask;
    # tuples, as every sweep of the process shares them.
    *heads, _ = zip(*(terms(m, h) for m in range(1 << h)))
    above = (r0 * p0, r1 * p1, r2 * p2)
    return typecode, size, top, ones, tuple(rows), tuple(bounds), above, tuple(heads)


def _split_keys(n: int, radices: tuple[int, int, int, int]) -> Iterator[tuple[int, list[int]]]:
    """For each head, ascending, yield ``(base, keys)``: the packed value of
    the head's first word and the packed keys of its 2^t words in ascending
    order (see the module docstring).
    Key = ((s0 % r0 * r1 + s1 % r1) * r2 + s2 % r2) * r3 + c % r3.
    Raises ValueError before the first head if no field type holds the keys.
    """
    from array import array  # as in _field_type

    typecode, size, top, ones, rows, bounds, (q0, q1, q2), (h0, h1, h2) = _plan(n, radices)
    t = n - n // 2
    for hi in range(len(h0)):
        m = hi ^ (hi >> 1)
        c = m.bit_count()
        a0, a1, a2 = h0[m], h1[m], h2[m]
        b0, b1, b2 = bounds[c & 1]
        keys = rows[c] + (a0 + a1 + a2) * ones
        keys -= ((b0 - (q0 - a0) * ones) >> top & ones) * q0
        keys -= ((b1 - (q1 - a1) * ones) >> top & ones) * q1
        keys -= ((b2 - (q2 - a2) * ones) >> top & ones) * q2
        yield hi << t, array(typecode, keys.to_bytes(size, sys.byteorder)).tolist()


class Census(NamedTuple):
    """Occupied syndrome classes of {0,1}^n with their sizes."""

    n: int
    counts: dict[int, int]  # packed residue key -> class size

    def total(self) -> int:
        return sum(self.counts.values())

    def class_count(self) -> int:
        return len(self.counts)

    def top(self, k: int) -> list[tuple[SyndromeTuple, int]]:
        """Largest k classes, ties broken by ascending packed key.

        Only classes that can rank are compared.  The sizes, one byte per
        class in the dict's order, are filtered at C speed: ``above`` keeps
        the sizes of at least t, and t rises from 1 while at least k classes
        would stay, so every class below t is outranked by k others.  The
        kept keys are read off the dict by the same filter as a byte mask,
        and the k largest of them are selected, singletons on the same path.
        """
        from heapq import nsmallest  # as array in _split_keys: not loaded at launch

        if k < 0:
            raise ValueError(f"k must be at least 0, got {k}")
        if k == 0:  # no threshold would leave fewer than k classes
            return []
        counts = self.counts
        try:
            sizes = bytearray(counts.values())
        except ValueError:  # a class of 256 or more words: compare them all
            ranked = nsmallest(k, ((-size, key) for key, size in counts.items()))
        else:
            t, above = 1, sizes.translate(None, b"\x00")
            while len(rest := above.translate(None, bytes((t,)))) >= k:
                t, above = t + 1, rest
            keep = bytes(t) + bytes(range(t, 256))  # zero for every size below t
            ranked = nsmallest(k, zip(map(neg, above), compress(counts, sizes.translate(keep))))
        return [(SyndromeTuple.unpack(key, self.n), -negated) for negated, key in ranked]

    def largest(self) -> tuple[SyndromeTuple, int]:
        """The largest class, ties broken by ascending packed key."""
        return self.top(1)[0]


def bucket_census(n: int, cap: int | None = None) -> Census:
    """Class sizes over all of {0,1}^n, keyed by packed residue key, from
    one sweep of ``_split_keys`` in this process."""
    _check_cap(n, cap)
    counts: Counter = Counter()
    for _, keys in _split_keys(n, moduli(n)):
        counts.update(keys)
    return Census(n, counts)


def best_params(n: int, cap: int | None = None) -> tuple[SyndromeTuple, int]:
    """The residues of the largest syndrome class and its size."""
    return bucket_census(n, cap).largest()


def redundancy(p: SyndromeTuple, size: int | None = None, cap: int | None = None) -> float:
    """n minus the base-2 logarithm of the code size."""
    if size is None:
        size = len(_codeword_values(p, cap))
    if size < 1:
        raise ValueError("redundancy of an empty code is undefined")
    return p.n - math.log2(size)


def redundancy_bound(n: int) -> float:
    """The guaranteed ceiling for the best parameter choice."""
    return 6 * math.log2(n) + 8


def pigeonhole_floor(n: int) -> int:
    """Least possible size of the largest class: ceil(2^n / (144 n^6))."""
    return -((1 << n) // -(144 * n**6))


def encode_index(m: int, p: SyndromeTuple, cap: int | None = None) -> Word:
    """The m-th codeword in lexicographic order."""
    values = _codeword_values(p, cap)
    if not 0 <= m < len(values):
        raise ValueError(f"index {m} outside [0, {len(values)})")
    return Word.from_int(values[m], p.n)


def decode_index(x: Word, p: SyndromeTuple, cap: int | None = None) -> int:
    """Lexicographic rank of a codeword; exact inverse of encode_index."""
    values = _codeword_values(p, cap)
    i = bisect_left(values, x.value)
    if i == len(values) or values[i] != x.value or len(x) != p.n:
        raise ValueError(f"{x} is not a codeword of the given parameters")
    return i


# Pairwise verification sweeps.  Both group {0,1}^n -- by residue tuple, or
# by the exact (unreduced) weight sums -- and require every within-group pair
# to be at edit distance >= 5.

MODE_BUCKET = "bucket"
MODE_EXACT = "exact"
# Pairs per call of the packed distance kernel, so that its integers stay
# a few tens of kilobytes however many pairs a sweep holds.
PAIR_CHUNK = 2048


class DistanceViolation(NamedTuple):
    x: Word
    y: Word
    distance: int
    key: tuple[int, ...]


class SweepReport(NamedTuple):
    n: int
    mode: str
    words: int
    groups: int
    pairs: int
    min_distance: int | None
    violations: tuple[DistanceViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def _radices(n: int, mode: str) -> tuple[int, int, int, int]:
    """The radices a sweep packs its keys with: the moduli, or in exact mode
    radices above every unreduced sum (see the module docstring)."""
    if mode == MODE_BUCKET:
        return moduli(n)
    if mode == MODE_EXACT:
        return ((n + 2) ** 2, (n + 2) ** 3, (n + 2) ** 4, n + 2)
    raise ValueError(f"unknown sweep mode {mode!r}")


def _shared_classes(n: int, mode: str, cap: int | None = None) -> tuple[int, dict[int, list[int]]]:
    """The number of occupied classes, and the classes holding two or more
    words as ``{packed key: members}``, the members in ascending packed
    value (see ``_split_keys`` for the key)."""
    _check_cap(n, cap)
    radices = _radices(n, mode)
    first: dict[int, int] = {}
    members: dict[int, list[int]] = {}
    for base, keys in _split_keys(n, radices):
        for v, key in enumerate(keys, base):
            if key not in first:
                first[key] = v
            elif key in members:
                members[key].append(v)
            else:
                members[key] = [first[key], v]
    return len(first), members


def scan_pairwise_distance(n: int, mode: str = MODE_BUCKET, cap: int | None = None) -> SweepReport:
    """Check the distance >= 5 requirement in every group, in one process:
    each pair within a shared class goes through ``channel.edit_distances``
    ``PAIR_CHUNK`` at a time with its class key, and only a violation's key
    is unpacked, into the four residues (or the exact sums)."""
    from .channel import edit_distances  # here, so that importing the CLI does not load it

    groups, members = _shared_classes(n, mode, cap)
    pairs = ((key, a, b) for key, values in members.items() for a, b in combinations(values, 2))
    count = 0
    lows: list[int] = []
    close: list[tuple[int, int, int, int]] = []
    while chunk := list(islice(pairs, PAIR_CHUNK)):
        keys, xs, ys = zip(*chunk)
        distances = edit_distances(xs, ys, n, n)
        count += len(chunk)
        lows.append(min(distances))
        if lows[-1] <= 4:
            close += [(a, b, d, key) for key, a, b, d in zip(keys, xs, ys, distances) if d <= 4]
    radices = _radices(n, mode)
    close.sort()  # by (x.value, y.value): no pair occurs twice
    return SweepReport(
        n=n,
        mode=mode,
        words=1 << n,
        groups=groups,
        pairs=count,
        min_distance=min(lows, default=None),
        violations=tuple(
            DistanceViolation(Word.from_int(a, n), Word.from_int(b, n), d, unpack_key(key, radices))
            for a, b, d, key in close
        ),
    )
