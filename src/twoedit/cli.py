"""Command-line interface.

Exit codes: 0 success / property verified, 1 property violated or decode
failure (a witness is emitted), 2 usage error, 3 resource cap exceeded.
Machine mode (--machine) prints one record per line as space-separated
key=value fields; output is byte-identical for identical configurations,
including across worker counts.  Inside a value "%" is written "%25" and a
space "%20", so a field never contains a space.
"""

from __future__ import annotations

import argparse
import os
import random
import sys

from . import analysis, channel, code, decoder
from .syndrome import MIN_CODE_LENGTH, SyndromeTuple, sign_preserving_number, syndrome_tuple
from .words import Word, adjacency_profile, pad, parse_word, read_words

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3

ROUND_BUDGET_ENV = "TWOEDIT_ROUND_BUDGET"

# field names of the four residues in syndrome and in code-parameter records
S_KEYS = ("s0", "s1", "s2", "s3")
K_KEYS = ("k1", "k2", "k3", "k4")


def _emit(args: argparse.Namespace, record: str, human: str | None, **fields) -> None:
    """Print one record: its fields in machine mode, else ``human`` unless None."""
    if args.machine:
        escaped = {k: str(v).replace("%", "%25").replace(" ", "%20") for k, v in fields.items()}
        print(" ".join([f"record={record}"] + [f"{k}={v}" for k, v in escaped.items()]))
    elif human is not None:
        print(human)


def _residues(st: SyndromeTuple, keys: tuple[str, ...]) -> dict:
    """The four residues of ``st`` as fields named ``keys``."""
    return dict(zip(keys, (st.s0, st.s1, st.s2, st.s3)))


def _params(args: argparse.Namespace) -> code.CodeParams:
    parts = [int(v) for v in args.params.split(",")]
    if len(parts) != 4:
        raise ValueError("--params needs four comma-separated residues")
    return code.CodeParams.from_values(args.n, *parts)


def _words(args: argparse.Namespace) -> list[Word]:
    if args.words:
        return [parse_word(w) for w in args.words]
    if args.input:
        with open(args.input, encoding="ascii") as handle:
            return read_words(handle)
    return read_words(sys.stdin)


def _cmd_syndrome(args: argparse.Namespace) -> int:
    for w in _words(args):
        st = syndrome_tuple(w)
        _emit(args, "syndrome", f"{w}: {st.to_kv()}", word=w, n=st.n, **_residues(st, S_KEYS))
    return EXIT_OK


def _cmd_check(args: argparse.Namespace) -> int:
    p = _params(args)
    fields = {"n": p.n, **_residues(p.residues, K_KEYS)}
    label = ",".join(str(v) for v in fields.values())
    for w in _words(args):
        member = code.is_codeword(w, p)
        human = f"{w}: {'member' if member else 'not a member'} of the code ({label})"
        _emit(args, "check", human, word=w, member="true" if member else "false", **fields)
    return EXIT_OK


def _cmd_enumerate(args: argparse.Namespace) -> int:
    p = _params(args)
    members = code.enumerate_codewords(p, args.enum_cap)
    for i, w in enumerate(members):
        _emit(args, "codeword", str(w), index=i, word=w)
    _emit(args, "enumerate", None, size=len(members), n=p.n, **_residues(p.residues, K_KEYS))
    return EXIT_OK


def _cmd_census(args: argparse.Namespace) -> int:
    if args.top < 0:
        raise ValueError(f"--top must be at least 0, got {args.top}")
    census = code.bucket_census(args.n, args.enum_cap)
    for rank, (st, count) in enumerate(census.top(args.top), 1):
        human = f"#{rank}: count={count} {st.to_kv()}"
        _emit(args, "bucket", human, n=args.n, rank=rank, **_residues(st, S_KEYS), count=count)
    best, best_count = census.largest()
    r = code.redundancy(code.CodeParams(best), size=best_count)
    bound = f"{code.redundancy_bound(args.n):.6f}"
    _emit(
        args,
        "census",
        f"n={args.n}: {census.total()} words in {census.class_count()} classes; "
        f"largest={best_count}, redundancy={r:.6f} (bound {bound})",
        n=args.n,
        words=census.total(),
        buckets=census.class_count(),
        max_count=best_count,
        redundancy=f"{r:.6f}",
        bound=bound,
        floor=code.pigeonhole_floor(args.n),
    )
    return EXIT_OK


def _cmd_best_params(args: argparse.Namespace) -> int:
    p, count = code.best_params(args.n, args.enum_cap)
    r = f"{code.redundancy(p, size=count):.6f}"
    human = f"best class at n={args.n}: {p.residues.to_kv()} count={count} redundancy={r}"
    _emit(args, "params", human, n=p.n, **_residues(p.residues, K_KEYS), count=count, redundancy=r)
    return EXIT_OK


def _cmd_encode(args: argparse.Namespace) -> int:
    w = code.encode_index(args.index, _params(args), args.enum_cap)
    _emit(args, "encode", str(w), index=args.index, word=w)
    return EXIT_OK


def _cmd_rank(args: argparse.Namespace) -> int:
    p = _params(args)
    ws = _words(args)
    if len(ws) != 1:
        raise ValueError(f"rank expects exactly one word, got {len(ws)}")
    m = code.decode_index(ws[0], p, args.enum_cap)
    _emit(args, "rank", str(m), word=ws[0], index=m)
    return EXIT_OK


def _cmd_decode(args: argparse.Namespace) -> int:
    p = _params(args)
    fields = {"n": p.n, **_residues(p.residues, K_KEYS)}
    status = EXIT_OK
    for w in _words(args):
        try:
            decoded = decoder.decode(w, p)
        except decoder.NoCandidateError:
            kind, why = "no_candidate", f"no codeword within {decoder.MAX_EDITS} edits"
        except decoder.AmbiguousDecodeError:
            kind, why = "ambiguous", "ambiguous decode (parameters unverified?)"
        except decoder.ReceivedLengthError as exc:
            kind, why = "length", str(exc)
        else:
            _emit(args, "decode", str(decoded), received=w, word=decoded)
            continue
        _emit(args, "decode-failure", f"{w}: {why}", received=w, kind=kind, **fields)
        status = EXIT_VIOLATION
    return status


def _cmd_corrupt(args: argparse.Namespace) -> int:
    rng = random.Random(args.seed)
    for w in _words(args):
        if args.random:
            pattern = channel.random_pattern(rng, len(w))
        else:
            pattern = channel.parse_pattern(args.pattern or "")
        result = channel.apply_errors(w, pattern)
        spec = channel.format_pattern(pattern) or "-"
        _emit(args, "corrupt", str(result), word=w, pattern=spec, result=result)
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    report = code.scan_pairwise_distance(args.n, args.mode, args.workers, args.enum_cap)
    for v in report.violations:
        _emit(
            args,
            "violation",
            f"words {v.x} and {v.y} share a class but are at distance {v.distance}",
            mode=report.mode,
            n=report.n,
            x=v.x,
            y=v.y,
            distance=v.distance,
            key=",".join(str(k) for k in v.key),
        )
    min_distance = report.min_distance if report.min_distance is not None else "none"
    _emit(
        args,
        "verify",
        f"verify mode={report.mode} n={report.n}: {report.words} words, "
        f"{report.groups} groups, {report.pairs} pairs checked, "
        f"min distance {min_distance}: {'OK' if report.ok else 'VIOLATED'}",
        mode=report.mode,
        n=report.n,
        words=report.words,
        groups=report.groups,
        pairs=report.pairs,
        min_distance=min_distance,
        violations=len(report.violations),
        status="ok" if report.ok else "violated",
    )
    return EXIT_OK if report.ok else EXIT_VIOLATION


def _sigma(args: argparse.Namespace, pair: tuple[Word, Word] | None) -> int:
    if args.vector is not None:
        value = sign_preserving_number(args.vector)
        _emit(args, "sigma", str(value), vector=",".join(map(str, args.vector)), value=value)
        return EXIT_OK
    x, y = pair
    if len(x) != len(y):
        raise ValueError("analyze sigma needs --x and --y of equal length")
    diff = tuple(a - b for a, b in zip(adjacency_profile(pad(x)), adjacency_profile(pad(y))))
    value = sign_preserving_number(diff)
    text = ",".join(map(str, diff))
    human = f"profile difference {text}: sigma={value}"
    _emit(args, "sigma", human, x=x, y=y, diff=text, value=value)
    return EXIT_OK


def _classify(args: argparse.Namespace, pair: tuple[Word, Word]) -> int:
    x, y = pair
    # the only reader of the budget, so the only reader of its fallback
    budget = args.round_budget
    if budget is None and os.environ.get(ROUND_BUDGET_ENV):
        budget = int(os.environ[ROUND_BUDGET_ENV])
    sep = analysis.separate_errors(x, y, args.k, budget)
    classified = analysis.classify_errors(sep.u, sep.v, sep.alignment)
    for e in classified:
        human = f"position {e.position}: {e.kind} value {e.value:+d}"
        _emit(args, "classified", human, position=e.position, kind=e.kind, value=e.value)
    kinds = [e.kind for e in classified]
    values = [e.value for e in classified]
    _emit(
        args,
        "pair-type",
        f"pair type: ({', '.join(kinds)}) values ({', '.join(map(str, values))})",
        x=x,
        y=y,
        u=sep.u,
        v=sep.v,
        s=sep.s,
        r=sep.r,
        rounds=len(sep.rounds),
        kinds=",".join(kinds),
        values=",".join(map(str, values)),
    )
    return EXIT_OK


def _segment(args: argparse.Namespace, pair: tuple[Word, Word]) -> int:
    x, y = pair
    _, _, alignment = analysis.find_relation(x, y, *args.rel)
    i, j = args.cut
    x2, y2 = analysis.segment_once(x, y, alignment, (i, j))
    filler = str(x2)[i : i + len(x2) - len(x)]
    _emit(
        args, "segment", f"{x2} / {y2}", x=x, y=y, i=i, j=j, filler=filler, x_out=x2, y_out=y2
    )
    return EXIT_OK


_ANALYZE = {"sigma": _sigma, "classify": _classify, "segment": _segment}


def _int_pair(text: str | None) -> tuple[int, int] | None:
    if not text:
        return None
    a, b = (int(v) for v in text.split(","))
    return a, b


def _cmd_analyze(args: argparse.Namespace) -> int:
    # every analyze flag is converted, so a malformed one fails whichever action runs
    args.vector = tuple(int(v) for v in args.vector.split(",")) if args.vector else None
    pair = None
    if args.x is not None or args.y is not None:
        if not (args.x and args.y):
            raise ValueError("--x and --y must be given together")
        pair = (parse_word(args.x), parse_word(args.y))
    args.cut = _int_pair(args.cut)
    args.rel = _int_pair(args.rel) or (None, None)
    if args.action == "sigma" and args.vector is None and pair is None:
        raise ValueError("analyze sigma needs --vector or --x/--y")
    if args.action in ("classify", "segment") and pair is None:
        raise ValueError(f"analyze {args.action} needs --x and --y")
    if args.action == "segment" and args.cut is None:
        raise ValueError("analyze segment needs --cut i,j")
    return _ANALYZE[args.action](args, pair)


def _add_common(sub: argparse.ArgumentParser, io_words: bool = False) -> None:
    sub.add_argument("--machine", action="store_true", help="one key=value record per line")
    sub.add_argument("--enum-cap", type=int, default=None, help="enumeration length cap")
    sub.add_argument("--round-budget", type=int, default=None, help="segmentation round cap")
    if io_words:
        sub.add_argument("words", nargs="*", help="words as 0/1 strings (default: stdin)")
        sub.add_argument("--input", help="file of words, one per line")


def _add_command(subs, name: str, handler, summary: str, params: bool = False):
    sub = subs.add_parser(name, help=summary)
    sub.set_defaults(handler=handler)
    if params:
        sub.add_argument("--n", type=int, required=True, help=f"code length (>= {MIN_CODE_LENGTH})")
        sub.add_argument("--params", required=True, help="residues k1,k2,k3,k4")
    return sub


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twoedit",
        description="Tools for binary codes correcting two insertions/deletions/substitutions.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = _add_command(subs, "syndrome", _cmd_syndrome, "residue tuple of each word")
    _add_common(p, io_words=True)

    p = _add_command(subs, "check", _cmd_check, "membership of each word in a code", params=True)
    _add_common(p, io_words=True)

    p = _add_command(
        subs, "enumerate", _cmd_enumerate, "all codewords in lexicographic order", params=True
    )
    _add_common(p)

    p = _add_command(subs, "census", _cmd_census, "syndrome class sizes over the whole space")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--top", type=int, default=5, help="how many classes to list")
    _add_common(p)

    p = _add_command(subs, "best-params", _cmd_best_params, "parameters of the largest class")
    p.add_argument("--n", type=int, required=True)
    _add_common(p)

    p = _add_command(
        subs, "encode", _cmd_encode, "codeword with the given lexicographic index", params=True
    )
    p.add_argument("--index", type=int, required=True)
    _add_common(p)

    p = _add_command(subs, "rank", _cmd_rank, "lexicographic index of a codeword", params=True)
    _add_common(p, io_words=True)

    p = _add_command(subs, "decode", _cmd_decode, "unique codeword within two edits", params=True)
    _add_common(p, io_words=True)

    p = _add_command(subs, "corrupt", _cmd_corrupt, "apply an edit pattern to each word")
    p.add_argument("--pattern", help="pattern spec, e.g. sub@4=1,del@2,ins@0=1")
    p.add_argument("--random", action="store_true", help="seeded random pattern instead")
    p.add_argument("--seed", type=int, default=0)
    _add_common(p, io_words=True)

    p = _add_command(subs, "verify", _cmd_verify, "pairwise distance sweep over all classes")
    p.add_argument("--n", type=int, required=True)
    p.add_argument(
        "--mode",
        choices=(code.MODE_BUCKET, code.MODE_EXACT),
        default=code.MODE_BUCKET,
        help="group by residues (bucket) or by exact weight sums (exact)",
    )
    p.add_argument("--workers", type=int, default=1)
    _add_common(p)

    p = _add_command(
        subs, "analyze", _cmd_analyze, "sign-preserving numbers, classification, segmentation"
    )
    p.add_argument("action", choices=("sigma", "classify", "segment"))
    p.add_argument("--vector", help="comma-separated integers (sigma)")
    p.add_argument("--x", help="first word")
    p.add_argument("--y", help="second word")
    p.add_argument("--cut", help="cut i,j (segment)")
    p.add_argument("--rel", help="relation shape s,r (segment; default: smallest)")
    p.add_argument("--k", type=int, default=5, help="target separation (classify)")
    _add_common(p)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (code.ResourceCapError, analysis.RoundBudgetError) as exc:
        _emit(args, "error", f"resource cap exceeded: {exc}", kind="resource", message=exc)
        return EXIT_RESOURCE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
