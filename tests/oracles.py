"""Independent reference implementations used to check the library.

Everything here is deliberately written against plain strings, lists, and
exhaustive enumeration, not against the package's own code paths.
"""

from __future__ import annotations

import random
from itertools import combinations, combinations_with_replacement, product
from typing import Sequence

from twoedit.analysis import (
    _RELATION_ORDER,
    DEL_OVER,
    DEL_UNDER,
    SUB,
    Alignment,
    AlignmentError,
    ErrorTypeValue,
    NoRelationError,
    SegmentationRound,
    Separation,
    SeparationError,
    _meet_filler,
    find_relation,
)
from twoedit.channel import ErrorPattern, apply_errors, random_pattern
from twoedit.code import MODE_EXACT, DistanceViolation, SweepReport
from twoedit.decoder import MAX_EDITS, ReceivedLengthError
from twoedit.syndrome import (
    MIN_CODE_LENGTH,
    SyndromeTuple,
    moduli,
    sign_preserving_number,
)
from twoedit.words import Word, adjacency_count, adjacency_profile, pad


def transitions(s: str) -> int:
    return sum(1 for a, b in zip(s, s[1:]) if a != b)


def prefix_transitions(s: str) -> tuple[int, ...]:
    """``transitions`` of every prefix, by one running count."""
    out = []
    count = 0
    for i, ch in enumerate(s):
        if i and ch != s[i - 1]:
            count += 1
        out.append(count)
    return tuple(out)


def profile_difference(x: Word, y: Word) -> tuple[int, ...]:
    fx = prefix_transitions(str(x))
    fy = prefix_transitions(str(y))
    return tuple(a - b for a, b in zip(fx, fy))


def sigma_exhaustive(z) -> int:
    """Minimum over every cut mask of the number of single-signed segments."""
    n = len(z)
    best = n
    for mask in range(1 << (n - 1)):
        count = 0
        start = 0
        ok = True
        for i in range(n):
            if i == n - 1 or (mask >> i) & 1:
                seg = z[start : i + 1]
                if not (all(v >= 0 for v in seg) or all(v <= 0 for v in seg)):
                    ok = False
                    break
                count += 1
                start = i + 1
        if ok and count < best:
            best = count
    return best


def sigma_partition_dp(z) -> int:
    """Partition minimum by interval dynamic programming (handles long z)."""
    n = len(z)
    inf = n + 1
    best = [inf] * (n + 1)
    best[0] = 0
    for start in range(n):
        if best[start] == inf:
            continue
        has_pos = has_neg = False
        for end in range(start, n):
            if z[end] > 0:
                has_pos = True
            elif z[end] < 0:
                has_neg = True
            if has_pos and has_neg:
                break
            if best[start] + 1 < best[end + 1]:
                best[end + 1] = best[start] + 1
    return best[n]


def is_subsequence(small, big) -> bool:
    it = iter(big)
    return all(any(a == b for b in it) for a in small)


def hamming(x: Word, y: Word) -> int:
    return sum(1 for a, b in zip(x, y) if a != b)


def edit_distance_dp(x: Word, y: Word) -> int:
    """Unit-cost edit distance by the row-by-row dynamic program."""
    a, b = list(x), list(y)
    if len(a) < len(b):
        a, b = b, a
    prev = list(range(len(b) + 1))
    cur = [0] * (len(b) + 1)
    for i in range(1, len(a) + 1):
        cur[0] = i
        ai = a[i - 1]
        for j in range(1, len(b) + 1):
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ai != b[j - 1]))
        prev, cur = cur, prev
    return prev[len(b)]


def zeros(length: int) -> Word:
    return Word.from_int(0, length)


def invert(z):
    """Reversal; accepts a Word or an integer sequence and returns its kind."""
    if isinstance(z, Word):
        v = 0
        u = z.value
        for _ in range(len(z)):
            v = (v << 1) | (u & 1)
            u >>= 1
        return Word.from_int(v, len(z))
    return tuple(reversed(z))


def write_words(words) -> str:
    """Serialize words one per line, newline-terminated."""
    return "".join(f"{w}\n" for w in words)


def _split_positions(u, v, positions, s, r):
    if len(u) != len(v):
        raise ValueError("words of a pair must have equal length")
    positions = tuple(positions)
    if len(positions) != 2 * s + 2 * r:
        raise ValueError(f"expected {2 * s + 2 * r} positions, got {len(positions)}")
    n = len(u)
    for p in positions:
        if not 2 <= p <= n - 1:
            raise ValueError(f"position {p} outside the interior [2, {n - 1}]")
    dels_u = positions[:s]
    subs_u = positions[s : s + 2 * r]
    dels_v = positions[s + 2 * r :]
    if len(set(dels_u) | set(subs_u)) != s + 2 * r:
        raise ValueError("U-side positions must be distinct")
    if len(set(dels_v)) != s:
        raise ValueError("V-side positions must be distinct")
    return dels_u, subs_u, dels_v


def is_good_pair(u: Word, v: Word, positions, s: int, r: int) -> bool:
    """True iff the positions are pairwise at distance >= 2s+1 and deleting /
    substituting U at them matches V with its own deletions removed."""
    dels_u, subs_u, dels_v = _split_positions(u, v, positions, s, r)
    values = sorted(positions)
    for a, b in zip(values, values[1:]):
        if b - a < 2 * s + 1:
            return False
    sub_set = set(subs_u)
    del_u_set = set(dels_u)
    del_v_set = set(dels_v)
    kept_u = [p for p in range(1, len(u) + 1) if p not in del_u_set]
    kept_v = [p for p in range(1, len(v) + 1) if p not in del_v_set]
    for a, b in zip(kept_u, kept_v):
        if a not in sub_set and u[a - 1] != v[b - 1]:
            return False
    return True


# --- alignment check, merge and classification by per-op Word reads --------
# The reference for analysis.check_alignment, classify_errors and the
# alignment a separation ends with.  An alignment is an ops tuple here:
# ("match", a, b) and ("sub", a, b) consume position a of U and b of V (a
# sub may join equal symbols), ("del_u", a) consumes a of U only and
# ("del_v", b) b of V only.  Symbols are read one at a time through
# Word.__getitem__, and the matching is an explicit list or dict of pairs.
# ``ops_of`` and ``positions_of`` convert at the boundary to the library's
# position triples.


def check_alignment(u: Word, v: Word, ops) -> None:
    """Raise AlignmentError unless ``ops`` consumes ``u`` and ``v`` exactly
    once each, in order, with equal symbols on plain matches."""
    if len(u) != len(v):
        raise AlignmentError("aligned words must have equal length")
    next_u = next_v = 1
    for op in ops:
        kind = op[0]
        if kind in ("match", "sub"):
            _, a, b = op
            if a != next_u or b != next_v:
                raise AlignmentError(f"op {op} breaks monotone consumption")
            if kind == "match" and u[a - 1] != v[b - 1]:
                raise AlignmentError(f"match at ({a}, {b}) joins unequal symbols")
            next_u += 1
            next_v += 1
        elif kind == "del_u":
            if op[1] != next_u:
                raise AlignmentError(f"op {op} breaks monotone consumption")
            next_u += 1
        elif kind == "del_v":
            if op[1] != next_v:
                raise AlignmentError(f"op {op} breaks monotone consumption")
            next_v += 1
        else:
            raise AlignmentError(f"unknown op kind {kind!r}")
    if next_u != len(u) + 1 or next_v != len(v) + 1:
        raise AlignmentError("alignment does not consume both words exactly")


def _merge_ops(pairs, subs, dels_u, dels_v) -> tuple[tuple, ...]:
    """Ops of matched ``pairs`` in order, each preceded by the deletions
    that come before it, then the deletions left over; a pair whose U
    position is in ``subs`` is a substitution."""
    sub_set = set(subs)
    ops: list[tuple] = []
    du = dv = 0
    for a, b in pairs:
        while du < len(dels_u) and dels_u[du] < a:
            ops.append(("del_u", dels_u[du]))
            du += 1
        while dv < len(dels_v) and dels_v[dv] < b:
            ops.append(("del_v", dels_v[dv]))
            dv += 1
        ops.append(("sub" if a in sub_set else "match", a, b))
    ops.extend(("del_u", p) for p in dels_u[du:])
    ops.extend(("del_v", p) for p in dels_v[dv:])
    return tuple(ops)


def ops_of(alignment: Alignment, n: int) -> tuple[tuple, ...]:
    """The ops of a position triple on words of length ``n``: the kept
    positions of U and V paired in order, with the deletions merged in."""
    kept_u = [p for p in range(1, n + 1) if p not in alignment.dels_u]
    kept_v = [p for p in range(1, n + 1) if p not in alignment.dels_v]
    return _merge_ops(zip(kept_u, kept_v), alignment.subs, alignment.dels_u, alignment.dels_v)


def positions_of(ops) -> Alignment:
    """The position triple of an ops tuple, each tuple in op order."""
    return Alignment(
        tuple(op[1] for op in ops if op[0] == "del_u"),
        tuple(op[1] for op in ops if op[0] == "sub"),
        tuple(op[1] for op in ops if op[0] == "del_v"),
    )


def checked_ops(u: Word, v: Word, alignment: Alignment) -> tuple[tuple, ...]:
    """The ops of a position triple, or AlignmentError: the triple holds iff
    its ops pass ``check_alignment`` and convert back to the same triple."""
    ops = ops_of(alignment, len(u))
    check_alignment(u, v, ops)
    if positions_of(ops) != alignment:
        raise AlignmentError(f"{alignment} is not the position triple of its ops")
    return ops


def matched_pairs(alignment: Alignment, n: int) -> list[tuple[int, int]]:
    """The matched (U, V) position pairs, substitutions included."""
    return [(op[1], op[2]) for op in ops_of(alignment, n) if op[0] in ("match", "sub")]


def _f2(a: int, b: int) -> int:
    return int(a != b)


def _f3(a: int, b: int, c: int) -> int:
    return int(a != b) + int(b != c)


def classify_errors(u: Word, v: Word, alignment: Alignment) -> list[ErrorTypeValue]:
    """Type and type value of every error, ordered by own-sequence position."""
    ops = checked_ops(u, v, alignment)
    dels_u = [op[1] for op in ops if op[0] == "del_u"]
    dels_v = [op[1] for op in ops if op[0] == "del_v"]
    subs = [op[1] for op in ops if op[0] == "sub"]
    if len(dels_u) != len(dels_v):
        raise AlignmentError("a del/sub pair needs equally many deletions on each side")
    s = len(dels_u)
    entries = sorted(
        [(p, DEL_OVER) for p in dels_u]
        + [(p, SUB) for p in subs]
        + [(p, DEL_UNDER) for p in dels_v]
    )
    values = [p for p, _ in entries]
    for a, b in zip(values, values[1:]):
        if b - a < 2 * s + 1:
            raise SeparationError(
                f"error positions {a} and {b} are closer than {2 * s + 1}; windows overlap"
            )
    n = len(u)
    u_to_v = {op[1]: op[2] for op in ops if op[0] in ("match", "sub")}
    del_u_set = set(dels_u)
    del_v_set = set(dels_v)

    def tau_u(p: int) -> int:
        if p in del_u_set:
            raise SeparationError(f"U position {p} adjoins an error but is deleted")
        return v[u_to_v[p] - 1]

    out = []
    for p, kind in entries:
        if not 2 <= p <= n - 1:
            raise SeparationError(f"error position {p} outside the interior [2, {n - 1}]")
        if kind == SUB:
            left = tau_u(p - 1)
            e = _f3(left, u[p - 1], u[p]) - _f3(left, tau_u(p), u[p])
        elif kind == DEL_OVER:
            if p - 1 in del_u_set or p + 1 in del_u_set:
                raise SeparationError(f"deletion at U position {p} has a deleted neighbour")
            e = _f3(u[p - 2], u[p - 1], u[p]) - _f2(u[p - 2], u[p])
        else:
            if p - 1 in del_v_set or p + 1 in del_v_set:
                raise SeparationError(f"deletion at V position {p} has a deleted neighbour")
            e = _f2(v[p - 2], v[p]) - _f3(v[p - 2], v[p - 1], v[p])
        out.append(ErrorTypeValue(kind, e, p))
    return out


def alignment_from_positions(
    u: Word, v: Word, positions: tuple[int, ...] | list[int], s: int, r: int
) -> Alignment:
    """Alignment induced by error positions given as the usual ordered block
    (s deletions in U, then 2r substitutions in U, then s deletions in V)."""
    dels_u, subs_u, dels_v = _split_positions(u, v, positions, s, r)
    n = len(u)
    remaining_u = [p for p in range(1, n + 1) if p not in dels_u]
    remaining_v = [p for p in range(1, n + 1) if p not in dels_v]
    ops = _merge_ops(zip(remaining_u, remaining_v), subs_u, sorted(dels_u), sorted(dels_v))
    return positions_of(ops)


def random_confusable_pair(rng: random.Random, n: int) -> tuple[Word, Word]:
    """Two distinct equal-length words sharing a common corruption reachable
    with s deletions and r substitutions from each, s + r = 2."""
    while True:
        s, r = rng.choice(((0, 2), (1, 1), (2, 0)))
        x = Word.from_int(rng.getrandbits(n), n)
        w = apply_errors(x, random_pattern(rng, n, counts=(0, s, r)))
        bits = list(w)
        for _ in range(s):
            bits.insert(rng.randint(0, len(bits)), rng.randint(0, 1))
        for _ in range(r):
            p = rng.randrange(len(bits))
            bits[p] = rng.randint(0, 1)
        y = Word(bits)
        if y != x:
            return x, y


MAX_BALL_EDITS = 4


def _insertion_patterns(n: int, t: int):
    for gaps in combinations_with_replacement(range(n + 1), t):
        for syms in product((0, 1), repeat=t):
            yield tuple(zip(gaps, syms))


def exact_patterns(n: int, t: int, s: int, r: int):
    """Every pattern with exactly t insertions, s deletions, r substitutions
    against a word of length n."""
    if min(t, s, r) < 0:
        raise ValueError("edit counts must be non-negative")
    if s > n:
        raise ValueError(f"cannot delete {s} symbols from a word of length {n}")
    positions = range(1, n + 1)
    for dels in combinations(positions, s):
        remaining = [p for p in positions if p not in dels]
        for sub_pos in combinations(remaining, r):
            for syms in product((0, 1), repeat=r):
                for ins in _insertion_patterns(n, t):
                    yield ErrorPattern(tuple(zip(sub_pos, syms)), dels, ins)


def all_patterns(n: int, max_edits: int = 2):
    """Every pattern with t + s + r <= max_edits, in a fixed order."""
    for total in range(max_edits + 1):
        for t in range(total + 1):
            for s in range(total - t + 1):
                r = total - t - s
                if s > n:
                    continue
                yield from exact_patterns(n, t, s, r)


def apply_errors_list(x: Word, p: ErrorPattern) -> Word:
    """``channel.apply_errors`` symbol by symbol: walk the gaps left to
    right, writing each gap's insertions, then the next symbol unless it is
    deleted, substituted if it is."""
    n = len(x)
    p.validate_for(n)
    subbed = dict(p.substitutions)
    deleted = set(p.deletions)
    by_gap: dict[int, list[int]] = {}
    for gap, sym in p.insertions:
        by_gap.setdefault(gap, []).append(sym)
    out: list[int] = []
    for g in range(n + 1):
        out.extend(by_gap.get(g, ()))
        pos = g + 1
        if pos <= n and pos not in deleted:
            out.append(subbed.get(pos, x[g]))
    return Word(out)


def error_ball(x: Word, t: int, s: int, r: int) -> set[Word]:
    """All words reachable from ``x`` by exactly t insertions, s deletions,
    and r substitutions (trivial substitutions included), deduplicated."""
    if t + s + r > MAX_BALL_EDITS:
        raise ValueError(f"ball enumeration is bounded at {MAX_BALL_EDITS} total edits")
    return {apply_errors(x, p) for p in exact_patterns(len(x), t, s, r)}


def candidate_preimages_ball(received: Word, n: int) -> set[Word]:
    """All length-n words that can reach ``received`` with at most two edits.

    Inverse edits are applied to the received word: a deletion is undone by
    an insertion, an insertion by a deletion, a substitution by a
    substitution.
    """
    delta = len(received) - n
    if abs(delta) > MAX_EDITS:
        raise ReceivedLengthError(
            f"received length {len(received)} outside [{n - MAX_EDITS}, {n + MAX_EDITS}]"
        )
    out: set[Word] = set()
    for t in range(MAX_EDITS + 1):
        s = t - delta
        if s < 0:
            continue
        for r in range(MAX_EDITS + 1 - t - s):
            # received in ball(x; t ins, s del, r sub)  <=>
            # x in ball(received; s ins, t del, r sub)
            out |= error_ball(received, s, t, r)
    return out


def single_edit_values(v: int, m: int, target: int) -> list[int]:
    """The words of length ``target`` (m - 1, m or m + 1) one edit away from
    the length-m packed word ``v``, with repeats: the decoder's first-edit
    builder, copied.  Bit k is flipped or deleted, or a bit inserted with k
    bits to its right, as a copy of its right neighbour or the other symbol."""
    if target == m:
        return [v ^ (1 << k) for k in range(m)]
    if target == m - 1:
        w = v ^ (v >> 1)
        return [v ^ (w & -(1 << k)) for k in range(m)]
    w = v ^ (v << 1)
    copies = [v ^ (w & -(1 << k)) for k in range(m + 1)]
    return copies + [c ^ (1 << k) for k, c in enumerate(copies)]


def preimage_values_ball(received: Word, n: int) -> set[int]:
    """Packed values of all length-n words within two edits of ``received``:
    every first edit onto a length within one of n, then every second edit
    onto length n (a word within one edit is also exactly two away)."""
    v, m = received.value, len(received)
    if abs(m - n) > MAX_EDITS:
        raise ReceivedLengthError(
            f"received length {m} outside [{n - MAX_EDITS}, {n + MAX_EDITS}]"
        )
    out: set[int] = set()
    for m1 in range(max(m, n) - 1, min(m, n) + 2):
        for v1 in set(single_edit_values(v, m, m1)):
            out.update(single_edit_values(v1, m1, n))
    return out


def second_edit_sums(received: Word, n: int) -> list[tuple[int, tuple[int, ...], bool]]:
    """Every two-edit path from ``received`` onto length n, as the word it
    ends on, that word's unreduced sums (s0, s1, s2, count) by the bit loop,
    and whether its second edit is a flip that keeps the count."""
    v, m = received.value, len(received)
    paths = []
    for m1 in range(max(m, n) - 1, min(m, n) + 2):
        for v1 in set(single_edit_values(v, m, m1)):
            count1 = padded_weight_sums_loop(v1, m1)[3]
            for c in set(single_edit_values(v1, m1, n)):
                sums = padded_weight_sums_loop(c, n)
                paths.append((c, sums, m1 == n and sums[3] == count1))
    return paths


def placed_preimages(paths, residues: SyndromeTuple) -> set[int]:
    """The words of ``second_edit_sums`` paths whose count and s0 residues
    match ``residues``, and whose s1 residue does too where the second edit
    is a flip that keeps the count: what the decoder's placement keeps."""
    m0, m1, _, m3 = moduli(residues.n)
    return {
        c
        for c, (s0, s1, _, count), keeps_count_flip in paths
        if count % m3 == residues.s3
        and s0 % m0 == residues.s0
        and (not keeps_count_flip or s1 % m1 == residues.s1)
    }


def vt_weight_vector(order: int, n: int) -> tuple[int, ...]:
    """The weight vector (1^order, 2^order, ..., n^order)."""
    if order not in (0, 1, 2):
        raise ValueError(f"weight order must be 0, 1 or 2, got {order}")
    if n < 1:
        raise ValueError("weight vector length must be positive")
    return tuple(j**order for j in range(1, n + 1))


def syndrome_tuple_naive(x: Word) -> SyndromeTuple:
    """Reference path: materialized profile dotted with materialized weights."""
    n = len(x)
    if n < MIN_CODE_LENGTH:
        raise ValueError(f"syndromes are defined for length >= {MIN_CODE_LENGTH}, got {n}")
    padded = pad(x)
    profile = adjacency_profile(padded)
    m0, m1, m2, m3 = moduli(n)
    sums = []
    for order in (0, 1, 2):
        weights = vt_weight_vector(order, n + 2)
        sums.append(sum(f * w for f, w in zip(profile, weights)))
    return SyndromeTuple(n, sums[0] % m0, sums[1] % m1, sums[2] % m2, adjacency_count(padded) % m3)


def syndrome_from_kv(text: str) -> SyndromeTuple:
    """Parse ``SyndromeTuple.to_kv`` output back into the tuple."""
    fields = {}
    for token in text.split():
        key, _, value = token.partition("=")
        fields[key] = int(value)
    try:
        return SyndromeTuple(fields["n"], fields["s0"], fields["s1"], fields["s2"], fields["s3"])
    except KeyError as exc:
        raise ValueError(f"missing field {exc} in syndrome record {text!r}") from None


def zero_syndrome_forces_zero(z: Sequence[int]) -> bool:
    """Check one vector against the zero-forcing property.

    True unless ``z`` is nonzero yet orthogonal to every weight vector of
    order below its sign-preserving number.  Expected to hold for every
    input.
    """
    if len(z) == 0:
        raise ValueError("empty sequence")
    if not any(z):
        return True
    sigma = sign_preserving_number(z)
    for order in range(sigma):
        if sum(v * (j + 1) ** order for j, v in enumerate(z)) != 0:
            return True
    return False


def confusable_within(x: Word, y: Word, budget: int) -> bool:
    """True iff some word is reachable from both ``x`` and ``y`` with at most
    ``budget`` total edits each, i.e. edit distance <= 2 * budget."""
    if budget < 1:
        raise ValueError("budget must be at least 1")
    return edit_distance_dp(x, y) <= 2 * budget


def profile_sums(value: int, length: int, prev: int, j: int) -> tuple[int, int, int, int]:
    """Sums of the adjacency profile of the ``length`` bits of ``value`` (first
    bit most significant) entered after symbol ``prev``, at weights j, j+1, ...
    with powers 0, 1, 2; the fourth entry is the adjacency count.  One bit at
    a time."""
    count = s0 = s1 = s2 = 0
    for shift in range(length - 1, -1, -1):
        bit = (value >> shift) & 1
        if bit != prev:
            count += 1
        prev = bit
        s0 += count
        s1 += count * j
        s2 += count * j * j
        j += 1
    return s0, s1, s2, count


def padded_weight_sums_loop(value: int, n: int) -> tuple[int, int, int, int]:
    """``syndrome.padded_weight_sums`` by the bit loop: the word with its
    right pad, entered after the left pad, whose profile entry at weight 1
    is 0."""
    return profile_sums(value << 1, n + 1, 0, 2)


def transition_sums_loop(mask: int, length: int) -> tuple[int, int, int]:
    """``syndrome.transition_sums`` bit by bit: P_k(p + 1) summed over the
    set bits of the ``length``-bit mask, p counted from the left."""
    sums = [0, 0, 0]
    prefix = [0, 0, 0]  # P_0, P_1, P_2 of p + 1
    for p in range(length):
        prefix = [prefix[k] + (p + 1) ** k for k in range(3)]
        if mask >> (length - 1 - p) & 1:
            sums = [a + b for a, b in zip(sums, prefix)]
    return sums[0], sums[1], sums[2]


def split_terms(n: int) -> tuple[list, list[list]]:
    """The two halves of the split-word sweep (see the ``code`` docstring),
    from the bit loop and power sums of its own: per head ``hi``, its
    transition count c and the sums c * P_k(n + 2) - H_k(hi); per last head
    bit, per tail ``lo``, its count lc and the sums lc * P_k(n + 2) - L_k."""
    h = n // 2
    t = n - h
    f = [sum(i**k for i in range(1, n + 3)) for k in range(3)]
    heads = []
    for hi in range(1 << h):
        m = hi ^ (hi >> 1)
        c = bin(m).count("1")
        sums = transition_sums_loop(m, h)
        heads.append((c, tuple(c * f[k] - sums[k] for k in range(3))))
    low = (1 << (t + 1)) - 1
    tails = []
    for last in (0, 1):
        row = []
        for v in range(last << t, (last + 1) << t):
            m = (v ^ (v << 1)) & low
            lc = bin(m).count("1")
            sums = transition_sums_loop(m, n + 1)
            row.append((lc, tuple(lc * f[k] - sums[k] for k in range(3))))
        tails.append(row)
    return heads, tails


def split_keys(n: int, radices: tuple[int, int, int, int]):
    """``code._split_keys`` one word at a time: per head, ``(base, keys)``,
    each key the mixed-radix pack of the word's four reduced sums.  Each sum
    is scaled to its place in the pack before it is reduced, since
    (s % r) * p == (s * p) % (r * p)."""
    r0, r1, r2, r3 = radices
    p2 = r3
    p1 = r2 * p2
    p0 = r1 * p1
    q0, q1, q2 = r0 * p0, r1 * p1, r2 * p2
    heads, tails = split_terms(n)
    t = n - n // 2
    # the reduced count (c + lc) % r3 is below p2, so it rides in the third term
    rows = [
        [(l0 * p0, l1 * p1, l2 * p2 + (c + lc) % r3) for lc, (l0, l1, l2) in tails[c & 1]]
        for c in range(n // 2 + 1)
    ]
    for hi, (c, (a0, a1, a2)) in enumerate(heads):
        a0, a1, a2 = a0 * p0, a1 * p1, a2 * p2
        yield hi << t, [(a0 + l0) % q0 + (a1 + l1) % q1 + (a2 + l2) % q2 for l0, l1, l2 in rows[c]]


def sweep_keys(n: int, exact: bool) -> list[tuple[int, int, int, int]]:
    """Per word, in ascending packed value: the four weight sums, reduced by
    ``moduli(n)`` unless ``exact``: the word-by-word sweep over the bit loop,
    which test_syndrome holds to ``padded_weight_sums`` on every word up to
    n = 14, and that to the naive profile path."""
    m0, m1, m2, m3 = moduli(n)
    keys = []
    for v in range(1 << n):
        s0, s1, s2, count = padded_weight_sums_loop(v, n)
        if exact:
            keys.append((s0, s1, s2, count))
        else:
            keys.append((s0 % m0, s1 % m1, s2 % m2, count % m3))
    return keys


def census_counts(n: int) -> dict[int, int]:
    """Class sizes keyed by ``SyndromeTuple.pack``, word by word."""
    counts: dict[int, int] = {}
    for key in sweep_keys(n, exact=False):
        packed = SyndromeTuple(n, *key).pack()
        counts[packed] = counts.get(packed, 0) + 1
    return counts


def syndrome_groups(n: int, exact: bool) -> dict[tuple[int, ...], list[int]]:
    """Words grouped by residue tuple (or exact sums), word by word."""
    groups: dict[tuple[int, ...], list[int]] = {}
    for v, key in enumerate(sweep_keys(n, exact)):
        groups.setdefault(key, []).append(v)
    return groups


def scan_pairwise_distance(n: int, mode: str) -> SweepReport:
    """``code.scan_pairwise_distance`` from every word-by-word group and the
    DP distance of every pair in it."""
    groups = syndrome_groups(n, exact=mode == MODE_EXACT)
    distances = []
    violations = []
    for key in sorted(groups):
        for a, b in combinations(groups[key], 2):
            x, y = Word.from_int(a, n), Word.from_int(b, n)
            d = edit_distance_dp(x, y)
            distances.append(d)
            if d <= 4:
                violations.append(DistanceViolation(x, y, d, key))
    violations.sort(key=lambda v: (v.x.value, v.y.value))
    return SweepReport(
        n=n,
        mode=mode,
        words=1 << n,
        groups=len(groups),
        pairs=len(distances),
        min_distance=min(distances, default=None),
        violations=tuple(violations),
    )


# --- relation search, one table per shape ----------------------------------
# The reference for analysis.find_relation.  The shape order is the
# library's own.

_INF = 1 << 20


def _suffix_costs(x: Word, y: Word, s: int) -> list[list[list[int]]]:
    """g[i][j][d]: fewest mismatched pairs finishing the alignment after
    consuming i of x and j of y with d deletions taken from x (deletions and
    mismatches are restricted to interior positions)."""
    n = len(x)
    xb, yb = tuple(x), tuple(y)
    g = [[[_INF] * (s + 1) for _ in range(n + 1)] for _ in range(n + 1)]
    g[n][n][s] = 0
    for i in range(n, -1, -1):
        gi = g[i]
        gi1 = g[i + 1] if i < n else None
        for j in range(n, -1, -1):
            for d in range(s, -1, -1):
                if i == n and j == n:
                    continue
                e = d - (i - j)
                if e < 0 or e > s:
                    continue
                best = _INF
                interior_u = 2 <= i + 1 <= n - 1
                if i < n and j < n:
                    if xb[i] == yb[j]:
                        best = gi1[j + 1][d]
                    elif interior_u:
                        best = 1 + gi1[j + 1][d]
                if i < n and d < s and interior_u:
                    best = min(best, gi1[j][d + 1])
                if j < n and e < s and 2 <= j + 1 <= n - 1:
                    best = min(best, gi[j + 1][d])
                gi[j][d] = best
    return g


def _reconstruct(x: Word, y: Word, s: int, g) -> list[tuple]:
    """Leftmost optimal alignment, preferring match > sub > del_u > del_v."""
    n = len(x)
    xb, yb = tuple(x), tuple(y)
    i = j = d = 0
    rem = g[0][0][0]
    ops: list[tuple] = []
    while i < n or j < n:
        if i < n and j < n and xb[i] == yb[j] and g[i + 1][j + 1][d] == rem:
            ops.append(("match", i + 1, j + 1))
            i += 1
            j += 1
            continue
        if (
            i < n
            and j < n
            and xb[i] != yb[j]
            and 2 <= i + 1 <= n - 1
            and g[i + 1][j + 1][d] == rem - 1
        ):
            ops.append(("sub", i + 1, j + 1))
            i += 1
            j += 1
            rem -= 1
            continue
        if i < n and d < s and 2 <= i + 1 <= n - 1 and g[i + 1][j][d + 1] == rem:
            ops.append(("del_u", i + 1))
            i += 1
            d += 1
            continue
        e = d - (i - j)
        if j < n and e < s and 2 <= j + 1 <= n - 1 and g[i][j + 1][d] == rem:
            ops.append(("del_v", j + 1))
            j += 1
            continue
        raise AssertionError("alignment reconstruction lost the optimal path")
    return ops


def _substitution_only_ops(x: Word, y: Word, r: int) -> list[tuple] | None:
    """Identity matching with subs at the mismatches, or None if more than
    2r mismatches or a mismatch at a non-interior position."""
    n = len(x)
    xb, yb = tuple(x), tuple(y)
    mismatches = [p + 1 for p in range(n) if xb[p] != yb[p]]
    if len(mismatches) > 2 * r:
        return None
    if mismatches and not 2 <= mismatches[0] <= mismatches[-1] <= n - 1:
        return None
    wrong = set(mismatches)
    return [("sub" if p in wrong else "match", p, p) for p in range(1, n + 1)]


def _with_trivial_fills(ops: list[tuple], wanted: int, n: int) -> list[tuple]:
    """Turn the first interior plain matches into trivial substitutions until
    ``wanted`` substitutions are present."""
    have = sum(1 for op in ops if op[0] == "sub")
    if have > wanted:
        raise AssertionError("reconstruction used more substitutions than allowed")
    need = wanted - have
    if need:
        taken = {op[1] for op in ops if op[0] in ("sub", "del_u")}
        out = []
        for op in ops:
            if need and op[0] == "match" and 2 <= op[1] <= n - 1 and op[1] not in taken:
                out.append(("sub", op[1], op[2]))
                need -= 1
            else:
                out.append(op)
        ops = out
    if need:
        raise NoRelationError("not enough interior matches for trivial substitution fills")
    return ops


def find_relation_per_shape(
    x: Word, y: Word, s: int | None = None, r: int | None = None
) -> tuple[int, int, Alignment]:
    """``analysis.find_relation`` by one search per shape: the identity
    matching for s = 0, and a full (n+1)^2 (s+1) cost table for each s >= 1,
    cached for the call."""
    if len(x) != len(y):
        raise ValueError("related words must have equal length")
    candidates = [
        (cs, cr)
        for cs, cr in _RELATION_ORDER
        if (s is None or cs == s) and (r is None or cr == r)
    ]
    tables: dict[int, list] = {}
    for cs, cr in candidates:
        if cs == 0:
            ops = _substitution_only_ops(x, y, cr)
            if ops is not None:
                return cs, cr, positions_of(_with_trivial_fills(ops, 2 * cr, len(x)))
            continue
        if cs not in tables:
            tables[cs] = _suffix_costs(x, y, cs)
        if tables[cs][0][0][0] <= 2 * cr:
            ops = _reconstruct(x, y, cs, tables[cs])
            return cs, cr, positions_of(_with_trivial_fills(ops, 2 * cr, len(x)))
    shape = "" if s is None and r is None else f" of shape (s={s}, r={r})"
    raise NoRelationError(
        f"no relation{shape} with at most two deletions+substitutions joins {x} and {y}"
    )

# --- relation search, one banded table for every shape ----------------------
# The cell-level reference for analysis._reach_sets and its walk: the table
# holds every cost, where the reach sets hold each cost's rows as bits.

# (a, b, index of the cell in its row), b ascending within each a
_BANDED_CELLS = tuple((a, b, 3 * a + b) for a in range(3) for b in range(3))


def banded_suffix_costs(x: Word, y: Word) -> list[list[int]]:
    """g[i][3a + b]: fewest mismatched pairs finishing the alignment after
    consuming i of x and j of y, while x still owes a deletions and y owes
    b = a + i - j, 0 <= a, b <= 2 (deletions and mismatches are restricted
    to interior positions).  No cell depends on s: g[0][4s] is the cost of
    every shape with s deletions a side."""
    n = len(x)
    xb, yb = tuple(x), tuple(y)
    g = [[_INF] * 9 for _ in range(n + 1)]
    # Row n: with x consumed, y can only finish by deletions, and its last
    # symbol is not interior, so every cell but the final one stays infinite.
    g[n][0] = 0
    for i in range(n - 1, -1, -1):
        gi, gi1 = g[i], g[i + 1]
        interior_u = 2 <= i + 1 <= n - 1
        for a, b, k in _BANDED_CELLS:
            j = i + a - b
            if not 0 <= j <= n:
                continue
            best = _INF
            if j < n:
                if xb[i] == yb[j]:
                    best = gi1[k]
                elif interior_u:
                    best = 1 + gi1[k]
                if b and 2 <= j + 1 <= n - 1 and gi[k - 1] < best:
                    best = gi[k - 1]
            if a and interior_u and gi1[k - 3] < best:
                best = gi1[k - 3]
            gi[k] = best
    return g


def banded_reconstruct(x: Word, y: Word, s: int, g) -> tuple[list[int], list[int], list[int]]:
    """U deletions, substitutions (U positions) and V deletions of the
    leftmost optimal alignment, preferring match > sub > del_u > del_v."""
    n = len(x)
    xb, yb = tuple(x), tuple(y)
    i = j = 0
    a = b = s
    rem = g[0][4 * s]
    dels_u: list[int] = []
    subs: list[int] = []
    dels_v: list[int] = []
    while i < n or j < n:
        if i < n and j < n and xb[i] == yb[j] and g[i + 1][3 * a + b] == rem:
            i += 1
            j += 1
            continue
        if (
            i < n
            and j < n
            and xb[i] != yb[j]
            and 2 <= i + 1 <= n - 1
            and g[i + 1][3 * a + b] == rem - 1
        ):
            subs.append(i + 1)
            i += 1
            j += 1
            rem -= 1
            continue
        if i < n and a and 2 <= i + 1 <= n - 1 and g[i + 1][3 * a - 3 + b] == rem:
            dels_u.append(i + 1)
            i += 1
            a -= 1
            continue
        if j < n and b and 2 <= j + 1 <= n - 1 and g[i][3 * a + b - 1] == rem:
            dels_v.append(j + 1)
            j += 1
            b -= 1
            continue
        raise AssertionError("alignment reconstruction lost the optimal path")
    return dels_u, subs, dels_v


def fill_runs_bitwise(seed: int, runs: int) -> int:
    """``seed`` closed bit by bit under "bit p set and bit p + 1 in ``runs``
    sets bit p + 1"."""
    out = seed
    for p in range(max(seed.bit_length(), runs.bit_length())):
        if out >> p & 1 and runs >> (p + 1) & 1:
            out |= 1 << (p + 1)
    return out


# --- separation on int lists ------------------------------------------------
# The reference for analysis.separate_errors: the state copies both words into
# int lists, re-checks find_relation's alignment, and builds Words per round.


class _ListPairState:
    """Mutable view of a word pair, its matching, and its error positions."""

    __slots__ = ("x", "y", "pairs", "subs", "dels_u", "dels_v")

    def __init__(self, x, y, pairs, subs, dels_u, dels_v):
        self.x = list(x)
        self.y = list(y)
        self.pairs = sorted(pairs)
        self.subs = sorted(subs)
        self.dels_u = sorted(dels_u)
        self.dels_v = sorted(dels_v)

    @classmethod
    def from_alignment(cls, u: Word, v: Word, alignment: Alignment) -> "_ListPairState":
        ops = checked_ops(u, v, alignment)
        return cls(
            u,
            v,
            [(op[1], op[2]) for op in ops if op[0] in ("match", "sub")],
            [op[1] for op in ops if op[0] == "sub"],
            [op[1] for op in ops if op[0] == "del_u"],
            [op[1] for op in ops if op[0] == "del_v"],
        )

    def alignment(self) -> Alignment:
        return positions_of(_merge_ops(self.pairs, self.subs, self.dels_u, self.dels_v))

    def error_entries(self) -> list[tuple[int, str]]:
        """Error positions tagged by owning side, sorted by (position, side)."""
        return sorted(
            [(p, "u") for p in self.dels_u]
            + [(p, "u") for p in self.subs]
            + [(p, "v") for p in self.dels_v]
        )

    def cut_ok(self, i: int, j: int) -> bool:
        if not (1 <= i <= len(self.x) - 1 and 1 <= j <= len(self.y) - 1):
            return False
        return all((a <= i and b <= j) or (a > i and b > j) for a, b in self.pairs)

    def filler(self, i: int, j: int) -> list[int]:
        x, y = self.x, self.y
        if i == j:
            return _meet_filler(x[i - 1], x[i], y[i - 1], y[i])
        if i < j:
            return x[i:j] + [y[j - 1]]
        return y[j:i] + [x[i - 1]]

    def apply_cut(self, i: int, j: int) -> list[int]:
        z = self.filler(i, j)
        length = len(z)
        self.x[i:i] = z
        self.y[j:j] = z
        shifted = [(a + length if a > i else a, b + length if b > j else b) for a, b in self.pairs]
        shifted.extend((i + t, j + t) for t in range(1, length + 1))
        self.pairs = sorted(shifted)
        self.subs = [p + length if p > i else p for p in self.subs]
        self.dels_u = [p + length if p > i else p for p in self.dels_u]
        self.dels_v = [p + length if p > j else p for p in self.dels_v]
        return z


def _list_find_cut(state: _ListPairState, errors, m: int):
    """A cut keeping errors[:m] in place and shifting errors[m:], or None."""
    left, right = errors[:m], errors[m:]
    big = len(state.x)
    i_lo = max([p for p, side in left if side == "u"], default=1)
    i_hi = min([p for p, side in right if side == "u"], default=big) - 1
    j_lo = max([p for p, side in left if side == "v"], default=1)
    j_hi = min([p for p, side in right if side == "v"], default=big) - 1
    if i_lo > i_hi or j_lo > j_hi:
        return None
    for (a1, b1), (a2, b2) in zip(state.pairs, state.pairs[1:]):
        i = max(a1, i_lo)
        j = max(b1, j_lo)
        if i <= min(a2 - 1, i_hi) and j <= min(b2 - 1, j_hi):
            return i, j
    return None


def _list_next_cut(state: _ListPairState, k: int):
    """Cut widening the leftmost too-narrow gap between adjacent errors.
    Unlike the library, it tries the later narrow gaps when the leftmost has
    no cut, so agreeing with it shows that the leftmost always has one."""
    errors = state.error_entries()
    saw_violation = False
    for m in range(1, len(errors)):
        gap = errors[m][0] - errors[m - 1][0]
        if gap >= k:
            continue
        saw_violation = True
        cut = _list_find_cut(state, errors, m)
        if cut is None and errors[m - 1][0] == errors[m][0]:
            swapped = errors[:m - 1] + [errors[m], errors[m - 1]] + errors[m + 1 :]
            cut = _list_find_cut(state, swapped, m)
        if cut is not None:
            return cut
    if saw_violation:
        raise SeparationError(
            f"no matched cut separates errors {errors} in {Word(state.x)} / {Word(state.y)}"
        )
    return None


def separate_errors_lists(
    x: Word,
    y: Word,
    k: int,
    s: int | None = None,
    r: int | None = None,
) -> Separation:
    """Pad ``x`` and ``y``, find their smallest deletion/substitution
    relation (or the pinned one), and splice fillers until all error
    positions are pairwise at distance >= k.  Each round preserves the
    adjacency-count difference and never decreases the sign-preserving number
    of the profile difference."""
    if k < 1:
        raise ValueError("separation distance must be at least 1")
    if len(x) != len(y):
        raise ValueError("words must have equal length")
    big_x, big_y = pad(x), pad(y)
    s, r, alignment = find_relation(big_x, big_y, s, r)
    state = _ListPairState.from_alignment(big_x, big_y, alignment)
    rounds: list[SegmentationRound] = []
    while True:
        cut = _list_next_cut(state, k)
        if cut is None:
            break
        x_before, y_before = Word(state.x), Word(state.y)
        z = state.apply_cut(*cut)
        rounds.append(
            SegmentationRound(x_before, y_before, cut, Word(z), Word(state.x), Word(state.y))
        )
    return Separation(
        u=Word(state.x),
        v=Word(state.y),
        s=s,
        r=r,
        alignment=state.alignment(),
        rounds=tuple(rounds),
    )
