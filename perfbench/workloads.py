"""The four benchmark workloads: fixed input sets, requests and output checks.

Every workload is a closed loop with one caller: a request is sent only after
the previous one has returned.  Requests go through documented entry points
only (``twoedit.cli.main`` with the README's flags, and
``analysis.separate_errors`` / ``analysis.classify_errors``), so library
refactors do not need to touch the benchmark.

Inputs are derived from the seed with this file's own helpers: the four
residues are recomputed from their definition in PAPER.md, and confusable
pairs come from a local generator, so a broken library kernel cannot certify
its own inputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable

# --- independent references ------------------------------------------------


def transitions(s: str) -> int:
    """Number of adjacent unequal symbols in a 0/1 string."""
    return sum(a != b for a, b in zip(s, s[1:]))


def profile(s: str) -> list[int]:
    """Adjacency count of every prefix of a 0/1 string."""
    out, count = [], 0
    for i, ch in enumerate(s):
        if i and ch != s[i - 1]:
            count += 1
        out.append(count)
    return out


def residues(x: str) -> tuple[int, int, int, int]:
    """The four residues of PAPER.md: the padded profile F dotted with
    (i^0), (i^1), (i^2) mod 4n, 2n^2, 2n^3, and the padded count mod 9."""
    n = len(x)
    f = profile("0" + x + "0")
    sums = [sum(i**k * fi for i, fi in enumerate(f, 1)) for k in range(3)]
    return sums[0] % (4 * n), sums[1] % (2 * n * n), sums[2] % (2 * n**3), f[-1] % 9


def sigma(z: list[int]) -> int:
    """Sign-preserving number: fewest single-signed contiguous segments."""
    segments, polarity = 1, 0
    for v in z:
        sign = (v > 0) - (v < 0)
        if sign and polarity and sign != polarity:
            segments += 1
        polarity = sign or polarity
    return segments


def edit(bits: list[str], kind: str, rng: random.Random) -> None:
    """Apply one random edit of the given kind in place."""
    if kind == "ins":
        bits.insert(rng.randint(0, len(bits)), rng.choice("01"))
    elif kind == "del":
        del bits[rng.randrange(len(bits))]
    else:
        p = rng.randrange(len(bits))
        bits[p] = "1" if bits[p] == "0" else "0"


def random_bits(rng: random.Random, n: int) -> str:
    return format(rng.getrandbits(n), f"0{n}b")


# --- reference kernel --------------------------------------------------------

_REFERENCE_WORDS = [random_bits(random.Random(7), 16) for _ in range(400)]


def reference_kernel() -> int:
    """A fixed piece of pure-Python work (prefix profiles, weighted sums and
    a dict tally over 400 words), owned by the benchmark and independent of
    twoedit.  run.py times it between requests to measure how fast the host
    runs Python at that moment."""
    acc, table = 0, {}
    for w in _REFERENCE_WORDS:
        acc += sum(i * v for i, v in enumerate(profile(w)))
        key = int(w[:6], 2)  # not the string: its hash, and so the time, varies per process
        table[key] = table.get(key, 0) + 1
    return acc + len(table)


# --- workload plumbing -----------------------------------------------------


@dataclass
class Request:
    label: str  # short tag, e.g. "n=64 edits=2"
    args: Any  # argv for cli.main, or a (x, y) Word pair
    expect: Any  # what the check compares the output with


@dataclass
class Workload:
    name: str
    requests: list[Request]
    call: Callable[[Request], Any]  # sends one request, returns its output
    check: Callable[[Request, Any, dict], bool]  # output, per-pass scratch dict
    warmup: str  # one small request of the same kind, run in a fresh interpreter


# Entry points are looked up on the module at call time, so the traced run's
# wrappers see every request.


def call_cli(cli, req: Request) -> tuple[int, str]:
    """One request through ``cli.main``: exit status and captured stdout."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            status = cli.main(req.args)
        except SystemExit as exc:  # argparse rejects bad flags this way
            status = exc.code if isinstance(exc.code, int) else 2
    return status, buf.getvalue()


def call_separate(analysis, req: Request) -> tuple:
    x, y = req.args
    sep = analysis.separate_errors(x, y, SEPARATION)
    return sep, analysis.classify_errors(sep.u, sep.v, sep.alignment)


def cli_workload(name, requests, check, warmup) -> Workload:
    from twoedit import cli

    return Workload(name, requests, partial(call_cli, cli), check, warmup)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def field_of(line: str, key: str) -> str | None:
    for token in line.split():
        k, _, v = token.partition("=")
        if k == key:
            return v
    return None


# --- census ----------------------------------------------------------------

# A request lasts about 0.05 s at n = 13, short enough that some of its many
# repetitions in a run fall in a stretch where the host runs at full speed.
CENSUS_N = 13

# stdout digests recorded at the commit that introduced this benchmark
CENSUS_EXPECT = {
    13: {
        "census": "9d5888722ac68f0046a2af1f6bd69d366d2b2cb22b39a62995d8e7b0b7faf40c",
        "best-params": "a50e903262c366fde9c9a9af2c59f382abf2575d0c8889ecd974e9a30ecf9c20",
        "words": 8192,
        "buckets": 8064,
    },
    10: {
        "census": "0f0eeb5ef2d9215b5adcc333f334048c9929f7b5ed4d179f59fe8ffac6dec5e0",
        "best-params": "bb0ab1af5bcaefd7f34e4f8c50f5bc817a3b5c999e0355ea65c44bdd68afc6f9",
        "words": 1024,
        "buckets": 1024,
    },
}


def _check_census(req: Request, out, ctx: dict) -> bool:
    status, text = out
    want = req.expect
    if status != 0 or digest(text) != want[req.label]:
        return False
    lines = text.splitlines()
    if req.label == "census":
        summary = lines[-1]
        ctx["top_count"] = field_of(lines[0], "count")
        return (field_of(summary, "words") == str(want["words"])
                and field_of(summary, "buckets") == str(want["buckets"]))
    return field_of(lines[0], "count") == ctx.get("top_count")


def census(seed: int, smoke: bool) -> Workload:
    n = 10 if smoke else CENSUS_N
    expect = CENSUS_EXPECT[n]
    requests = [
        Request("census", ["census", "--n", str(n), "--top", "5", "--machine"], expect),
        # One worker: with --workers 2 the request's time depends on how busy
        # the other core is, which nothing in this process can observe.
        Request("best-params", ["best-params", "--n", str(n), "--machine"], expect),
    ]
    warmup = 'cli.main(["census", "--n", "10", "--top", "5", "--machine"])'
    return cli_workload("census", requests, _check_census, warmup)


# --- verify ----------------------------------------------------------------

VERIFY_N = 13  # about 0.04 s a request; see CENSUS_N
VERIFY_EXPECT = {
    13: "record=verify mode=bucket n=13 words=8192 groups=8064 pairs=132 "
    "min_distance=5 violations=0 status=ok\n",
    9: "record=verify mode=bucket n=9 words=512 groups=512 pairs=0 "
    "min_distance=none violations=0 status=ok\n",
}


def _check_exact(req: Request, out, ctx: dict) -> bool:
    return out == (0, req.expect)


def verify(seed: int, smoke: bool) -> Workload:
    n = 9 if smoke else VERIFY_N
    requests = [Request("verify", ["verify", "--n", str(n), "--machine"], VERIFY_EXPECT[n])]
    warmup = 'cli.main(["verify", "--n", "10", "--machine"])'
    return cli_workload("verify", requests, _check_exact, warmup)


# --- decode ----------------------------------------------------------------

DECODE_LENGTHS = tuple(range(12, 21))  # the slowest request lasts about 0.05 s
DECODE_ROUNDS = 2
SINGLE_EDITS = ("sub", "del", "ins")
DOUBLE_EDITS = (("ins", "del"), ("ins", "sub"), ("del", "sub"),
                ("ins", "ins"), ("del", "del"), ("sub", "sub"))
# A fixed input set is two rounds over every length from 12 to 20, with one
# word each of 0, 1 and 2 edits; the edit kinds cycle, so each single kind
# comes 6 times and each double 3 times in the 54 requests.  Decode cost
# depends mostly on the received length and the edit count, so fixing them
# keeps the set's total work the same from seed to seed.  Consecutive
# lengths make the costs of the edited words a continuum: with a few
# lengths far apart, the median and the tail fell where the costs of two
# lengths meet, and moved with the seed.


def decode_request(rng: random.Random, n: int, kinds: tuple[str, ...]) -> Request:
    while True:  # redraw edits that cancel out: those would decode instantly
        x = random_bits(rng, n)
        bits = list(x)
        for kind in rng.sample(kinds, len(kinds)):
            edit(bits, kind, rng)
        received = "".join(bits)
        if received != x or not kinds:
            break
    params = ",".join(map(str, residues(x)))
    argv = ["decode", "--n", str(n), "--params", params, "--machine", received]
    return Request(f"n={n} edits={len(kinds)}", argv,
                   f"record=decode received={received} word={x}\n")


def decode(seed: int, smoke: bool) -> Workload:
    rng = random.Random(seed)
    lengths, rounds = ((16,), 1) if smoke else (DECODE_LENGTHS, DECODE_ROUNDS)
    requests = []
    for r in range(rounds):
        for i, n in enumerate(lengths):
            k = r * len(lengths) + i
            for kinds in ((), (SINGLE_EDITS[k % 3],), DOUBLE_EDITS[k % 6]):
                requests.append(decode_request(rng, n, kinds))
    warm = random.Random(0)
    warm_req = decode_request(warm, 16, ("sub",))
    warmup = f"cli.main({warm_req.args!r})"
    return cli_workload("decode", requests, _check_exact, warmup)


# --- separate --------------------------------------------------------------

SEPARATION = 5
SEPARATE_LENGTHS = (12, 24, 48)
SEPARATE_PER_LENGTH = 200


def confusable_pair(rng: random.Random, n: int, s: int) -> tuple[str, str]:
    """Two distinct words with a common corruption reached from each by s
    deletions and r substitutions, s + r = 2."""
    while True:
        x = random_bits(rng, n)
        bits = list(x)
        for kind in ["del"] * s + ["sub"] * (2 - s):
            edit(bits, kind, rng)
        for kind in ["ins"] * s + ["sub"] * (2 - s):
            edit(bits, kind, rng)
        y = "".join(bits)
        if y != x:
            return x, y


def _check_separate(req: Request, out, ctx: dict) -> bool:
    sep, classified = out
    x, y = req.expect
    u, v = str(sep.u), str(sep.v)
    positions = sorted(sep.positions)
    if any(b - a < SEPARATION for a, b in zip(positions, positions[1:])):
        return False
    before = transitions("0" + x + "0") - transitions("0" + y + "0")
    if transitions(u) - transitions(v) != before or sum(e.value for e in classified) != before:
        return False
    diff_before = [a - b for a, b in zip(profile("0" + x + "0"), profile("0" + y + "0"))]
    diff_after = [a - b for a, b in zip(profile(u), profile(v))]
    return sigma(diff_before) <= sigma(diff_after)


def separate(seed: int, smoke: bool) -> Workload:
    from twoedit import analysis
    from twoedit.words import Word

    rng = random.Random(seed)
    lengths, per_length = ((12, 24), 3) if smoke else (SEPARATE_LENGTHS, SEPARATE_PER_LENGTH)
    requests = []
    for i in range(per_length):
        for n in lengths:
            # s = 2 pairs cost about 1.5x the others: cycling s keeps a
            # pass's work the same from seed to seed
            x, y = confusable_pair(rng, n, i % 3)
            requests.append(Request(f"n={n}", (Word(x), Word(y)), (x, y)))
    x, y = confusable_pair(random.Random(0), 12, 1)
    warmup = (
        "from twoedit import analysis; from twoedit.words import Word; "
        f"s = analysis.separate_errors(Word({x!r}), Word({y!r}), {SEPARATION}); "
        "analysis.classify_errors(s.u, s.v, s.alignment)"
    )
    return Workload("separate", requests, partial(call_separate, analysis), _check_separate, warmup)


WORKLOADS = {"census": census, "verify": verify, "decode": decode, "separate": separate}
