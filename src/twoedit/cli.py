"""Command-line interface.

Exit codes: 0 success / property verified, 1 property violated, or a decode,
check or syndrome failure (a witness or failure record is emitted), 2 usage
error, 3 resource cap exceeded.
Machine mode (--machine) prints one record per line as space-separated
key=value fields; output is byte-identical for identical configurations,
including across worker counts.  Inside a value "%" is written "%25" and a
space "%20", so a field never contains a space.
"""

from __future__ import annotations

import argparse
import functools
import random
import sys
from typing import Iterator

from . import channel, code
from .syndrome import MIN_CODE_LENGTH, SyndromeTuple, sign_preserving_number, syndrome_tuple
from .words import Word, adjacency_profile, pad, parse_word

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3

# field names of the four residues in syndrome and in code-parameter records
S_KEYS = ("s0", "s1", "s2", "s3")
K_KEYS = ("k1", "k2", "k3", "k4")


def _emit(args: argparse.Namespace, record: str, human: str | None, **fields) -> None:
    """Print one record: its fields in machine mode, else ``human`` unless None."""
    if args.machine:
        escaped = {k: str(v).replace("%", "%25").replace(" ", "%20") for k, v in fields.items()}
        line = " ".join([f"record={record}"] + [f"{k}={v}" for k, v in escaped.items()])
        if not line.isprintable():  # a tab or a line break in a malformed word, say
            from urllib.parse import quote  # here, as only such a word needs it

            # names, "=" and the separating spaces are printable: only values change
            line = "".join(c if c.isprintable() else quote(c) for c in line)
        print(line)
    elif human is not None:
        print(human)


def _residues(st: SyndromeTuple, keys: tuple[str, ...]) -> dict:
    """The four residues of ``st`` as fields named ``keys``."""
    return dict(zip(keys, (st.s0, st.s1, st.s2, st.s3)))


# how many values _ints wants, as its error text says it
_HOW_MANY = {None: "comma-separated integers", 2: "two comma-separated integers"}


def _integer(text: str) -> int:
    """``text`` as an integer: ASCII digits after an optional minus sign.
    ``int`` alone would also take "+1", "1_0", " 1" and non-ASCII digits."""
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(text)


def _ints(text: str, flag: str, count: int | None = None) -> tuple[int, ...]:
    """The comma-separated integers of ``text``, the value of ``flag``;
    exactly ``count`` of them unless ``count`` is None."""
    try:
        values = tuple(_integer(v) for v in text.split(","))
        if count is None or len(values) == count:
            return values
    except argparse.ArgumentTypeError:
        pass
    raise ValueError(f"{flag} needs {_HOW_MANY[count]}, got {text!r}")


def _params(args: argparse.Namespace) -> code.CodeParams:
    parts = _ints(args.params, "--params")
    if len(parts) != 4:
        raise ValueError("--params needs four comma-separated residues")
    return code.CodeParams.from_values(args.n, *parts)


def _texts(args: argparse.Namespace) -> list[tuple[str, int | None]]:
    """The batch's words as text, each with its line number when read from
    ``--input`` or stdin, where blank lines are skipped."""
    if args.words:
        return [(w, None) for w in args.words]
    if args.input:
        with open(args.input, encoding="ascii") as handle:
            lines = handle.readlines()
    else:
        lines = sys.stdin.readlines()
    return [(line, lineno) for lineno, line in enumerate(lines, 1) if line.strip()]


def _words(args: argparse.Namespace) -> list[Word]:
    """Every word of the batch; a malformed one is a usage error."""
    return [parse_word(text, lineno) for text, lineno in _texts(args)]


class _Batch:
    """The words of a ``check``, ``syndrome`` or ``decode`` batch, parsed as
    their turn comes.  A word that does not parse, or that ``fail`` is given,
    gets a ``failure`` record (the word under ``key``, its kind, then
    ``fields``) and the batch goes on; ``status`` ends as exit 1 if any did."""

    def __init__(self, args: argparse.Namespace, failure: str, key: str, fields: dict) -> None:
        self.args, self.failure, self.key, self.fields = args, failure, key, fields
        self.status = EXIT_OK

    def __iter__(self) -> Iterator[Word]:
        for text, lineno in _texts(self.args):
            try:
                word = parse_word(text, lineno)
            except ValueError as exc:
                self.fail(text.strip(), "symbol", str(exc))
            else:
                yield word

    def fail(self, word: Word | str, kind: str, why: str) -> None:
        fields = {self.key: word, "kind": kind, **self.fields}
        _emit(self.args, self.failure, f"{word}: {why}", **fields)
        self.status = EXIT_VIOLATION


def _cmd_syndrome(args: argparse.Namespace) -> int:
    batch = _Batch(args, "syndrome-failure", "word", {})
    for w in batch:
        if len(w) < MIN_CODE_LENGTH:
            why = f"syndromes are defined for length >= {MIN_CODE_LENGTH}, got {len(w)}"
            batch.fail(w, "length", why)
            continue
        st = syndrome_tuple(w)
        _emit(args, "syndrome", f"{w}: {st.to_kv()}", word=w, n=st.n, **_residues(st, S_KEYS))
    return batch.status


def _cmd_check(args: argparse.Namespace) -> int:
    p = _params(args)
    fields = {"n": p.n, **_residues(p.residues, K_KEYS)}
    label = ",".join(str(v) for v in fields.values())
    batch = _Batch(args, "check-failure", "word", fields)
    for w in batch:
        if len(w) != p.n:
            batch.fail(w, "length", f"word length {len(w)} does not match code length {p.n}")
            continue
        member = code.is_codeword(w, p)
        human = f"{w}: {'member' if member else 'not a member'} of the code ({label})"
        _emit(args, "check", human, word=w, member="true" if member else "false", **fields)
    return batch.status


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
    top = census.top(args.top)
    for rank, (st, count) in enumerate(top, 1):
        human = f"#{rank}: count={count} {st.to_kv()}"
        _emit(args, "bucket", human, n=args.n, rank=rank, **_residues(st, S_KEYS), count=count)
    # the same tie-break: the first of the top list is the largest class
    best, best_count = top[0] if top else census.largest()
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
    from . import decoder  # imported here, so that other commands never load it

    p = _params(args)
    batch = _Batch(args, "decode-failure", "received", {"n": p.n, **_residues(p.residues, K_KEYS)})
    for w in batch:
        try:
            decoded = decoder.decode(w, p)
        except decoder.NoCandidateError:
            batch.fail(w, "no_candidate", f"no codeword within {decoder.MAX_EDITS} edits")
        except decoder.AmbiguousDecodeError:
            batch.fail(w, "ambiguous", "ambiguous decode (parameters unverified?)")
        except decoder.ReceivedLengthError as exc:
            batch.fail(w, "length", str(exc))
        else:
            _emit(args, "decode", str(decoded), received=w, word=decoded)
    return batch.status


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


def _cmd_sigma(args: argparse.Namespace) -> int:
    if args.vector is not None:
        vector = _ints(args.vector, "--vector")
        value = sign_preserving_number(vector)
        _emit(args, "sigma", str(value), vector=",".join(map(str, vector)), value=value)
        return EXIT_OK
    if args.x is None or args.y is None:
        raise ValueError("analyze sigma needs --vector or --x/--y")
    x, y = parse_word(args.x), parse_word(args.y)
    if len(x) != len(y):
        raise ValueError("analyze sigma needs --x and --y of equal length")
    diff = tuple(a - b for a, b in zip(adjacency_profile(pad(x)), adjacency_profile(pad(y))))
    value = sign_preserving_number(diff)
    text = ",".join(map(str, diff))
    human = f"profile difference {text}: sigma={value}"
    _emit(args, "sigma", human, x=x, y=y, diff=text, value=value)
    return EXIT_OK


def _cmd_classify(args: argparse.Namespace) -> int:
    from . import analysis  # as decoder in _cmd_decode

    x, y = parse_word(args.x), parse_word(args.y)
    sep = analysis.separate_errors(x, y, args.k)
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


def _cmd_segment(args: argparse.Namespace) -> int:
    from . import analysis

    x, y = parse_word(args.x), parse_word(args.y)
    i, j = _ints(args.cut, "--cut", 2)
    rel = _ints(args.rel, "--rel", 2) if args.rel is not None else (None, None)
    _, _, alignment = analysis.find_relation(x, y, *rel)
    x2, y2 = analysis.segment_once(x, y, alignment, (i, j))
    filler = str(x2)[i : i + len(x2) - len(x)]
    _emit(
        args, "segment", f"{x2} / {y2}", x=x, y=y, i=i, j=j, filler=filler, x_out=x2, y_out=y2
    )
    return EXIT_OK


def _add_common(sub: argparse.ArgumentParser, io_words: bool = False, cap: bool = False) -> None:
    sub.add_argument("--machine", action="store_true", help="one key=value record per line")
    if cap:
        sub.add_argument("--enum-cap", type=_integer, default=None, help="enumeration length cap")
    if io_words:
        sub.add_argument("words", nargs="*", help="words as 0/1 strings (default: stdin)")
        sub.add_argument("--input", help="file of words, one per line")


def _add_command(subs, name: str, handler, summary: str, params: bool = False):
    sub = subs.add_parser(name, help=summary)
    sub.set_defaults(handler=handler)
    if params:
        sub.add_argument(
            "--n", type=_integer, required=True, help=f"code length (>= {MIN_CODE_LENGTH})"
        )
        sub.add_argument("--params", required=True, help="residues k1,k2,k3,k4")
    return sub


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process and shared by
    every caller, so none may change it.  Parsing leaves it unchanged: each
    ``parse_args`` fills a fresh namespace, and help and usage are formatted
    when printed, at the terminal width of that moment."""
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
    _add_common(p, cap=True)

    p = _add_command(subs, "census", _cmd_census, "syndrome class sizes over the whole space")
    p.add_argument("--n", type=_integer, required=True)
    p.add_argument("--top", type=_integer, default=5, help="how many classes to list")
    _add_common(p, cap=True)

    p = _add_command(subs, "best-params", _cmd_best_params, "parameters of the largest class")
    p.add_argument("--n", type=_integer, required=True)
    _add_common(p, cap=True)

    p = _add_command(
        subs, "encode", _cmd_encode, "codeword with the given lexicographic index", params=True
    )
    p.add_argument("--index", type=_integer, required=True)
    _add_common(p, cap=True)

    p = _add_command(subs, "rank", _cmd_rank, "lexicographic index of a codeword", params=True)
    _add_common(p, io_words=True, cap=True)

    p = _add_command(subs, "decode", _cmd_decode, "unique codeword within two edits", params=True)
    _add_common(p, io_words=True)

    p = _add_command(subs, "corrupt", _cmd_corrupt, "apply an edit pattern to each word")
    how = p.add_mutually_exclusive_group()
    how.add_argument("--pattern", help="pattern spec, e.g. sub@4=1,del@2,ins@0=1")
    how.add_argument("--random", action="store_true", help="seeded random pattern instead")
    p.add_argument("--seed", type=_integer, default=0)
    _add_common(p, io_words=True)

    p = _add_command(subs, "verify", _cmd_verify, "pairwise distance sweep over all classes")
    p.add_argument("--n", type=_integer, required=True)
    p.add_argument(
        "--mode",
        choices=(code.MODE_BUCKET, code.MODE_EXACT),
        default=code.MODE_BUCKET,
        help="group by residues (bucket) or by exact weight sums (exact)",
    )
    p.add_argument("--workers", type=_integer, default=1)
    _add_common(p, cap=True)

    p = subs.add_parser("analyze", help="sign-preserving numbers, classification, segmentation")
    actions = p.add_subparsers(dest="action", required=True)

    p = _add_command(actions, "sigma", _cmd_sigma, "sign-preserving number of a vector or pair")
    p.add_argument("--vector", help="comma-separated integers")
    p.add_argument("--x", help="first word")
    p.add_argument("--y", help="second word")
    _add_common(p)

    p = _add_command(actions, "classify", _cmd_classify, "separate a pair's errors, classify them")
    p.add_argument("--x", required=True, help="first word")
    p.add_argument("--y", required=True, help="second word")
    p.add_argument("--k", type=_integer, default=5, help="target separation")
    _add_common(p)

    p = _add_command(actions, "segment", _cmd_segment, "splice one filler into a pair")
    p.add_argument("--x", required=True, help="first word")
    p.add_argument("--y", required=True, help="second word")
    p.add_argument("--cut", required=True, help="cut i,j")
    p.add_argument("--rel", help="relation shape s,r (default: smallest)")
    _add_common(p)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except code.ResourceCapError as exc:
        _emit(args, "error", f"resource cap exceeded: {exc}", kind="resource", message=exc)
        return EXIT_RESOURCE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
