import argparse
import gc
import importlib
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from twoedit import analysis, code, decoder
from twoedit.cli import (
    EXIT_OK,
    EXIT_RESOURCE,
    EXIT_USAGE,
    EXIT_VIOLATION,
    MAX_SEPARATION,
    _integer,
    _parse_args,
    build_parser,
    main,
)
from twoedit.syndrome import SyndromeTuple
from twoedit.words import Word

ROOT = Path(__file__).resolve().parents[1]
# (argv, env) -> (exit, stdout, stderr) for every subcommand in both modes,
# the usage and resource errors, and the help texts; an entry changes only
# together with a deliberate change of the CLI's behaviour.
GOLDEN = json.loads((ROOT / "tests" / "cli_golden.json").read_text())


def run_cli(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def test_syndrome_command(capsys):
    status, out, _ = run_cli(capsys, "syndrome", "0000001", "--machine")
    assert status == EXIT_OK
    assert out == "record=syndrome word=0000001 n=7 s0=3 s1=26 s2=226 s3=2\n"


def test_syndrome_human_mode(capsys):
    status, out, _ = run_cli(capsys, "syndrome", "0000001")
    assert status == EXIT_OK
    assert out == "0000001: n=7 s0=3 s1=26 s2=226 s3=2\n"


def test_syndrome_reads_files(tmp_path, capsys):
    path = tmp_path / "words.txt"
    path.write_text("0000000\n0000001\n")
    status, out, _ = run_cli(capsys, "syndrome", "--input", str(path), "--machine")
    assert status == EXIT_OK
    assert len(out.splitlines()) == 2


def test_check_command(capsys):
    status, out, _ = run_cli(
        capsys, "check", "--n", "7", "--params", "0,0,0,0", "0000000", "--machine"
    )
    assert status == EXIT_OK
    assert "member=true" in out
    status, out, _ = run_cli(
        capsys, "check", "--n", "7", "--params", "0,0,0,0", "0000001", "--machine"
    )
    assert "member=false" in out


def test_enumerate_and_rank_round_trip(capsys):
    # the largest class at n=11 holds two codewords
    params = ("--n", "11", "--params", "8,10,2434,8")
    status, out, _ = run_cli(capsys, "enumerate", *params)
    assert status == EXIT_OK
    members = out.split()
    assert len(members) == 2
    status, out, _ = run_cli(capsys, "encode", *params, "--index", "1", "--machine")
    assert status == EXIT_OK
    word = out.split("word=")[1].strip()
    assert word == members[1]
    status, out, _ = run_cli(capsys, "rank", *params, word, "--machine")
    assert status == EXIT_OK
    assert "index=1" in out
    status, out, _ = run_cli(capsys, "enumerate", *params, "--machine")
    assert "record=codeword index=0" in out and "record=enumerate size=2" in out


def test_census_and_best_params(capsys):
    status, out, _ = run_cli(capsys, "census", "--n", "7", "--top", "2", "--machine")
    assert status == EXIT_OK
    assert "record=census" in out and "words=128" in out
    status, out, _ = run_cli(capsys, "best-params", "--n", "7", "--machine")
    assert status == EXIT_OK
    assert out.startswith("record=params n=7 ")


def test_decode_success_and_failure(capsys):
    status, out, _ = run_cli(
        capsys, "decode", "--n", "7", "--params", "0,0,0,0", "0000000", "--machine"
    )
    assert status == EXIT_OK and "word=0000000" in out
    # two deletions
    status, out, _ = run_cli(
        capsys, "decode", "--n", "7", "--params", "0,0,0,0", "00000", "--machine"
    )
    assert status == EXIT_OK and "word=0000000" in out
    status, out, _ = run_cli(
        capsys, "decode", "--n", "9", "--params", "0,0,0,0", "111111111", "--machine"
    )
    assert status == EXIT_VIOLATION
    assert "record=decode-failure" in out and "kind=no_candidate" in out


def test_corrupt_pattern_and_seeded_random(capsys):
    status, out, _ = run_cli(
        capsys, "corrupt", "--pattern", "del@2", "0000001", "--machine"
    )
    assert status == EXIT_OK
    assert "result=000001" in out
    status, first, _ = run_cli(capsys, "corrupt", "--random", "--seed", "5", "0000001")
    status, second, _ = run_cli(capsys, "corrupt", "--random", "--seed", "5", "0000001")
    assert first == second


def test_corrupt_parses_its_pattern_before_the_batch(capsys, monkeypatch):
    import io

    expected = (EXIT_USAGE, "", "error: malformed pattern item 'garbage'\n")
    monkeypatch.setattr("sys.stdin", io.StringIO(""))
    assert run_cli(capsys, "corrupt", "--pattern", "garbage") == expected
    assert run_cli(capsys, "corrupt", "--pattern", "garbage", "0000001") == expected


def test_corrupt_checks_its_pattern_on_every_word_before_the_first_record(capsys):
    expected = (EXIT_USAGE, "", "error: deletion position 9 outside word of length 7\n")
    argv = ("corrupt", "--pattern", "del@9", "01011011010", "0000001", "--machine")
    assert run_cli(capsys, *argv) == expected
    assert run_cli(capsys, *argv[:4], "--machine")[0] == EXIT_OK


def test_verify_modes(capsys):
    for mode in ("bucket", "exact"):
        status, out, _ = run_cli(capsys, "verify", "--n", "7", "--mode", mode, "--machine")
        assert status == EXIT_OK
        assert f"mode={mode}" in out and "status=ok" in out


def test_verify_output_identical_across_workers(capsys):
    _, seq, _ = run_cli(capsys, "verify", "--n", "8", "--machine")
    _, par, _ = run_cli(capsys, "verify", "--n", "8", "--workers", "4", "--machine")
    assert seq == par
    _, seq_h, _ = run_cli(capsys, "verify", "--n", "8")
    _, par_h, _ = run_cli(capsys, "verify", "--n", "8", "--workers", "3")
    assert seq_h == par_h


def test_analyze_sigma(capsys):
    status, out, _ = run_cli(capsys, "analyze", "sigma", "--vector", "1,0,1,-1,-2,3", "--machine")
    assert status == EXIT_OK
    assert out.strip().endswith("value=3")
    status, out, _ = run_cli(
        capsys, "analyze", "sigma", "--x", "0000001", "--y", "0000010", "--machine"
    )
    assert status == EXIT_OK
    assert "value=" in out


def test_analyze_classify(capsys):
    status, out, _ = run_cli(capsys, "analyze", "classify", "--x", "001", "--y", "111", "--machine")
    assert status == EXIT_OK
    lines = out.splitlines()
    assert lines[-1].startswith("record=pair-type")
    assert "kinds=sub,sub" in lines[-1]
    assert "values=-2,2" in lines[-1]


def test_analyze_classify_classifies_once(capsys, monkeypatch):
    # classify_errors' body runs once, and checks the alignment that
    # separate_errors built once, in O(#errors)
    calls, checks = [], []
    classify, check = analysis._classify, analysis.check_alignment
    monkeypatch.setattr(analysis, "_classify", lambda *a: calls.append(a) or classify(*a))
    monkeypatch.setattr(analysis, "check_alignment", lambda *a: checks.append(a) or check(*a))
    argv = ("analyze", "classify", "--x", "0001011", "--y", "0110001", "--machine")
    status, out, _ = run_cli(capsys, *argv)
    assert status == EXIT_OK and "record=pair-type" in out
    assert len(calls) == 1 and len(checks) == 1


_CLASSIFY_PAIR = ("analyze", "classify", "--x", "0001011", "--y", "0110001", "--machine")


def test_analyze_classify_takes_k_up_to_the_bound(capsys):
    status, out, err = run_cli(capsys, *_CLASSIFY_PAIR, "--k", str(MAX_SEPARATION))
    assert status == EXIT_OK and err == ""
    assert "record=pair-type" in out.splitlines()[-1]


@pytest.mark.parametrize(
    "k, message",
    (
        (0, "separation distance must be at least 1"),
        (MAX_SEPARATION + 1, f"--k must be at most {MAX_SEPARATION}, got {MAX_SEPARATION + 1}"),
    ),
)
def test_analyze_classify_rejects_k_out_of_range(capsys, k, message):
    expected = (EXIT_USAGE, "", f"error: {message}\n")
    assert run_cli(capsys, *_CLASSIFY_PAIR, "--k", str(k)) == expected


def test_analyze_segment_worked_example(capsys):
    status, out, _ = run_cli(
        capsys,
        "analyze",
        "segment",
        "--x",
        "00010",
        "--y",
        "01110",
        "--cut",
        "4,2",
        "--rel",
        "2,0",
        "--machine",
    )
    assert status == EXIT_OK
    assert "filler=111" in out
    assert "x_out=00011110" in out and "y_out=01111110" in out


def test_usage_errors(capsys):
    # outside the batches that give a failure record, a malformed word is a usage error
    status, _, err = run_cli(capsys, "rank", "--n", "11", "--params", "8,10,2434,8", "01a")
    assert status == EXIT_USAGE and "error" in err
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "segment", "--x", "00010", "--y", "01110"])
    assert exc.value.code == EXIT_USAGE
    status, _, err = run_cli(capsys, "check", "--n", "7", "--params", "1,2,3", "0000000")
    assert status == EXIT_USAGE
    # a length below 7 is refused before the residues are reduced: n = 0 has zero moduli
    for n in ("0", "5"):
        expected = (EXIT_USAGE, "", f"error: length must be at least 7, got {n}\n")
        assert run_cli(capsys, "check", "--n", n, "--params", "0,0,0,0", "0000000") == expected
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == EXIT_USAGE


@pytest.mark.parametrize(
    "flag, text", (("--cut", "4,2,1"), ("--rel", "2"), ("--cut", "4,x"), ("--params", "8,x,2434,8"))
)
def test_a_flag_names_itself_on_a_bad_value(capsys, flag, text):
    # the last occurrence of a flag wins, so each argv is valid up to the appended one
    if flag == "--params":
        argv, wanted = VALID_ARGV["decode"], "comma-separated integers"
    else:
        argv = ("analyze", "segment", "--x", "00010", "--y", "01110", "--cut", "4,2")
        wanted = "two comma-separated integers"
    status, out, err = run_cli(capsys, *argv, flag, text)
    assert status == EXIT_USAGE and out == ""
    assert err == f"error: {flag} needs {wanted}, got '{text}'\n"


def all_actions(parser: argparse.ArgumentParser):
    """Every option and positional of ``parser`` and of its subparsers."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                yield from all_actions(sub)
        else:
            yield action


# what Python's int() takes and the CLI does not
NOT_ASCII_INTEGERS = ("1_0", "+1", " 1", "1\n", "\u0663", "\uff11", "--1", "-", "", "0x1")


def test_every_integer_option_uses_the_ascii_parser():
    converters = {action.type for action in all_actions(build_parser())} - {None}
    assert converters == {_integer}
    assert [_integer(text) for text in ("0", "12", "-3", "007", "-0")] == [0, 12, -3, 7, 0]


@pytest.mark.parametrize("text", NOT_ASCII_INTEGERS)
def test_integers_are_ascii_digits_only(capsys, text):
    with pytest.raises(argparse.ArgumentTypeError):
        _integer(text)
    with pytest.raises(SystemExit) as exc:
        main(["census", f"--n={text}"])
    assert exc.value.code == EXIT_USAGE
    assert f"argument --n: invalid int value: {text!r}" in capsys.readouterr().err
    vector = f"1,{text},2"
    status, out, err = run_cli(capsys, "analyze", "sigma", "--vector", vector)
    assert status == EXIT_USAGE and out == ""
    assert err == f"error: --vector needs comma-separated integers, got {vector!r}\n"


def test_verify_violation_exit_and_witness(capsys, monkeypatch):
    from twoedit.code import DistanceViolation, SweepReport
    from twoedit.words import Word

    fake = SweepReport(
        n=8,
        mode="bucket",
        words=256,
        groups=1,
        pairs=1,
        min_distance=3,
        violations=(DistanceViolation(Word("00000000"), Word("00000111"), 3, (0, 0, 0, 0)),),
    )
    monkeypatch.setattr("twoedit.code.scan_pairwise_distance", lambda *a, **k: fake)
    status = main(["verify", "--n", "8", "--machine"])
    out = capsys.readouterr().out
    assert status == EXIT_VIOLATION
    assert "record=violation" in out and "x=00000000" in out and "distance=3" in out
    assert "status=violated" in out
    assert record_types(out) == {"violation", "verify"}


def test_verify_respects_enum_cap(capsys):
    status, out, _ = run_cli(capsys, "verify", "--n", "26", "--machine")
    assert status == EXIT_RESOURCE
    assert "kind=resource" in out


def test_resource_cap_exit(capsys):
    status, out, _ = run_cli(
        capsys, "census", "--n", "30", "--enum-cap", "12", "--machine"
    )
    assert status == EXIT_RESOURCE
    assert "record=error" in out and "kind=resource" in out


def test_stdin_words(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("0000001\n"))
    status, out, _ = run_cli(capsys, "syndrome", "--machine")
    assert status == EXIT_OK
    assert "word=0000001" in out


def _golden_id(case):
    return " ".join([f"{k}={v}" for k, v in case["env"].items()] + case["argv"])


@pytest.mark.parametrize("case", GOLDEN, ids=_golden_id)
def test_golden_outputs(case, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage and help to the terminal
    for name, value in case["env"].items():
        monkeypatch.setenv(name, value)
    try:
        status = main(list(case["argv"]))
    except SystemExit as exc:
        status = exc.code
    captured = capsys.readouterr()
    assert (status, captured.out, captured.err) == (case["exit"], case["stdout"], case["stderr"])


def golden_interpreters() -> dict[tuple[int, ...], str]:
    """One executable per distinct Python 3.10-3.13 that starts: the
    ``python3`` and ``python3.10``..``python3.13`` of every PATH directory
    and each ``~/.pyenv/versions/*/bin/python3``, keyed by version."""
    names = ["python3"] + [f"python3.{minor}" for minor in range(10, 14)]
    dirs = [Path(d) for d in os.environ.get("PATH", "").split(os.pathsep) if d]
    candidates = [d / name for d in dirs for name in names]
    candidates += sorted(Path.home().glob(".pyenv/versions/*/bin/python3"))
    probe = "import sys; print(*sys.version_info[:3])"
    found: dict[tuple[int, ...], str] = {}
    for exe in dict.fromkeys(path.resolve() for path in candidates if path.is_file()):
        try:
            proc = subprocess.run([exe, "-c", probe], capture_output=True, text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            continue
        version = tuple(map(int, proc.stdout.split())) if proc.returncode == 0 else ()
        if (3, 10) <= version < (3, 14):
            found.setdefault(version, str(exe))
    return found


def test_the_golden_table_matches_on_every_installed_interpreter():
    found = golden_interpreters()
    if not found:
        pytest.skip("no Python 3.10-3.13 interpreter starts")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    script = str(ROOT / "tests" / "golden_check.py")
    failed = {}
    for version, exe in sorted(found.items()):
        proc = subprocess.run([exe, script], env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            failed[".".join(map(str, version))] = proc.stdout + proc.stderr
    assert failed == {}


def readme_schema() -> dict[str, list[tuple[str, ...]]]:
    """Record type -> the field lists the README's machine-mode table allows:
    the leading code spans of a row, alternatives joined by "or"."""
    text = (ROOT / "README.md").read_text()
    section = text.split("### Machine mode schema", 1)[1].split("\n### ", 1)[0]
    schema = {}
    for name, cell in re.findall(r"^\| `([a-z-]+)` \| (.*) \|$", section, re.M):
        lead = re.match(r"`[^`]+`(?: or `[^`]+`)*", cell).group(0)
        schema[name] = [tuple(fields.split()) for fields in re.findall(r"`([^`]+)`", lead)]
    return schema


def record_types(text: str) -> set[str]:
    """Check every line of machine-mode ``text`` against the README schema
    and return the record types seen."""
    schema = readme_schema()
    seen = set()
    for line in text.splitlines():
        tokens = [token.partition("=") for token in line.split(" ")]
        assert all(sep == "=" and re.fullmatch(r"[a-z0-9_]+", k) for k, sep, _ in tokens), line
        (key, _, record), *fields = tokens
        assert key == "record" and record in schema, line
        assert tuple(k for k, _, _ in fields) in schema[record], line
        seen.add(record)
    return seen


def leaf_commands(parser: argparse.ArgumentParser, path: tuple[str, ...] = ()):
    """The argv prefix of every parser under ``parser`` that takes no
    further subcommand, nested subparsers included."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield path
    for action in subs:
        for name, sub in action.choices.items():
            yield from leaf_commands(sub, (*path, name))


def test_every_leaf_command_has_a_golden_help_text():
    helped = {tuple(case["argv"][:-1]) for case in GOLDEN if case["argv"][-1:] == ["--help"]}
    leaves = list(leaf_commands(build_parser()))
    assert ("analyze", "segment") in leaves and ("syndrome",) in leaves
    assert [" ".join(path) for path in leaves if path not in helped] == []


def test_machine_records_follow_the_readme_schema():
    seen = set()
    for case in GOLDEN:
        if "--machine" in case["argv"]:
            seen |= record_types(case["stdout"])
    # no class at n <= 11 has a violation; the witness test checks that record
    assert seen == set(readme_schema()) - {"violation"}


def test_census_rejects_negative_top(capsys):
    status, out, err = run_cli(capsys, "census", "--n", "7", "--top", "-1", "--machine")
    assert status == EXIT_USAGE and out == "" and "--top" in err


def test_sigma_rejects_words_of_unequal_length(capsys):
    status, out, err = run_cli(capsys, "analyze", "sigma", "--x", "0", "--y", "0110")
    assert status == EXIT_USAGE and out == "" and "equal length" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("analyze", "sigma", "--vector", "-1,0,1"),
        ("check", "--n", "11", "01011011010", "--params", "-3,10,2434,8"),
        ("analyze", "segment", "--x", "00010", "--y", "01110", "--cut", "4,2", "--rel", "-1,0"),
    ],
    ids=lambda argv: " ".join(argv[:2]),
)
def test_a_comma_list_may_start_with_a_minus_sign(argv, capsys):
    # the list as the next argument reads as it does joined by "="
    *head, flag, value = argv
    assert run_cli(capsys, *argv) == run_cli(capsys, *head, f"{flag}={value}")


@pytest.mark.parametrize("command", ("verify",))
def test_workers_below_one_are_rejected(capsys, command):
    status, out, err = run_cli(capsys, command, "--n", "7", "--workers", "0", "--machine")
    assert status == EXIT_USAGE and out == "" and "workers" in err


FIELDS_11 = " n=11 k1=8 k2=10 k3=2434 k4=8"


def test_decode_batch_continues_past_a_bad_length(capsys):
    args = ("decode", "--n", "11", "--params", "8,10,2434,8", "--machine")
    status, out, _ = run_cli(capsys, *args, "0111011010", "0101", "0111011010")
    assert status == EXIT_VIOLATION
    assert out.splitlines() == [
        "record=decode received=0111011010 word=01011011010",
        "record=decode-failure received=0101 kind=length n=11 k1=8 k2=10 k3=2434 k4=8",
        "record=decode received=0111011010 word=01011011010",
    ]


def test_decode_batch_continues_past_an_ambiguous_word(capsys, monkeypatch):
    # the paper's moduli never leave two survivors, so accept every candidate;
    # each word has at least three placed candidates
    monkeypatch.setattr(decoder, "member_value", lambda v, p: True)
    words = ("0001010101", "000010101010")
    params = SyndromeTuple(11, 8, 10, 2434, 8)
    assert all(len(decoder.candidate_preimages(Word(w), params)) >= 3 for w in words)
    with pytest.raises(decoder.AmbiguousDecodeError):
        decoder.decode(Word(words[0]), params)
    args = ("decode", "--n", "11", "--params", "8,10,2434,8", "--machine")
    status, out, _ = run_cli(capsys, *args, *words)
    assert status == EXIT_VIOLATION
    assert out.splitlines() == [
        f"record=decode-failure received={w} kind=ambiguous{FIELDS_11}" for w in words
    ]
    assert record_types(out) == {"decode-failure"}


# per command: the argv of a batch, its failure record, the field naming the
# word, the code's fields, and a word that succeeds
SYMBOL_BATCHES = [
    pytest.param(("syndrome",), "syndrome-failure", "word", "", "0000001", id="syndrome"),
    pytest.param(
        ("check", "--n", "11", "--params", "8,10,2434,8"),
        "check-failure", "word", FIELDS_11, "01011011010", id="check",
    ),
    pytest.param(
        ("decode", "--n", "11", "--params", "8,10,2434,8"),
        "decode-failure", "received", FIELDS_11, "0111011010", id="decode",
    ),
]


@pytest.mark.parametrize("argv, failure, key, fields, good", SYMBOL_BATCHES)
@pytest.mark.parametrize("source", ("stdin", "input"))
def test_a_bad_symbol_on_a_line_gives_one_record(
    capsys, monkeypatch, tmp_path, argv, failure, key, fields, good, source
):
    import io

    text = f"{good}\n\n01x1\n{good}\n"  # the bad word is on line 3
    path = tmp_path / "words.txt"
    path.write_text(text)
    extra = ("--input", str(path)) if source == "input" else ()
    for machine in (True, False):
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        status, out, err = run_cli(capsys, *argv, *extra, *(["--machine"] * machine))
        lines = out.splitlines()
        assert (status, err, len(lines), lines[0]) == (EXIT_VIOLATION, "", 3, lines[2])
        if machine:
            assert lines[1] == f"record={failure} {key}=01x1 kind=symbol{fields}"
            assert record_types(out) == {failure, failure.removesuffix("-failure")}
        else:
            assert lines[1] == "01x1: invalid symbol 'x' in word '01x1' on line 3"


@pytest.mark.parametrize("argv, failure, key, fields, good", SYMBOL_BATCHES)
def test_a_non_ascii_symbol_gives_the_same_record_from_a_file_as_from_stdin(
    capsys, monkeypatch, tmp_path, argv, failure, key, fields, good
):
    import io

    data = b"0000001\n01\xd9\xa31\n0110100111\n"  # U+0663 in UTF-8 on line 2
    path = tmp_path / "words.txt"
    path.write_bytes(data)
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
    from_stdin = run_cli(capsys, *argv, "--machine")
    from_file = run_cli(capsys, *argv, "--input", str(path), "--machine")
    assert from_file == from_stdin
    status, out, err = from_file
    lines = out.splitlines()
    assert (status, err, len(lines)) == (EXIT_VIOLATION, "", 3)
    assert lines[1] == f"record={failure} {key}=01\u06631 kind=symbol{fields}"


@pytest.mark.parametrize("argv, failure, key, fields, good", SYMBOL_BATCHES)
def test_a_byte_that_is_not_utf8_gives_a_record_from_a_file_and_from_stdin(
    capsys, monkeypatch, tmp_path, argv, failure, key, fields, good
):
    import io

    data = b"0000001\n\xff1\n0110100111\n"
    path = tmp_path / "words.txt"
    path.write_bytes(data)
    for machine in (True, False):
        flags = ["--machine"] * machine
        # stdin as Python opens it in UTF-8 mode, or under the C locale
        stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="surrogateescape")
        monkeypatch.setattr("sys.stdin", stdin)
        from_stdin = run_cli(capsys, *argv, *flags)
        from_file = run_cli(capsys, *argv, "--input", str(path), *flags)
        assert from_file == from_stdin
        status, out, err = from_file
        lines = out.splitlines()
        assert (status, err, len(lines)) == (EXIT_VIOLATION, "", 3)
        if machine:
            assert lines[1] == f"record={failure} {key}=%FF1 kind=symbol{fields}"
        else:
            assert lines[1] == "\\xff1: invalid symbol '\\udcff' in word '\\udcff1' on line 2"


def test_a_malformed_word_keeps_its_record_on_one_line(capsys):
    from urllib.parse import unquote

    bad = "0\t1\n1\x0c 1\u20281%"
    status, out, _ = run_cli(capsys, "syndrome", "0000001", bad, "--machine")
    lines = out.splitlines()
    assert status == EXIT_VIOLATION and len(lines) == 2 and out.count("\n") == 2
    assert record_types(out) == {"syndrome", "syndrome-failure"}
    assert lines[1] == "record=syndrome-failure word=0%091%0A1%0C%201%E2%80%A81%25 kind=symbol"
    assert unquote(lines[1].split()[1].partition("=")[2]) == bad


def test_census_reads_the_largest_class_off_its_top_list(capsys, monkeypatch):
    # at n = 13 the fifth class is smaller than the first
    _, whole, _ = run_cli(capsys, "census", "--n", "13", "--top", "0", "--machine")

    def second_pass(self):
        raise AssertionError("largest() after top()")

    monkeypatch.setattr(code.Census, "largest", second_pass)
    for top in ("1", "5"):
        status, out, _ = run_cli(capsys, "census", "--n", "13", "--top", top, "--machine")
        assert status == EXIT_OK and out.splitlines()[-1] == whole.strip()
    assert "max_count=3 " in whole and out.splitlines()[-2].endswith(" count=2")


def test_negative_enumeration_cap_is_a_usage_error(capsys):
    expected = "error: enumeration cap must be at least 0, got -1\n"
    assert run_cli(capsys, "census", "--n", "9", "--enum-cap", "-1") == (EXIT_USAGE, "", expected)
    argv = ("enumerate", "--n", "9", "--params", "0,0,0,0", "--enum-cap", "-3", "--machine")
    status, out, err = run_cli(capsys, *argv)
    assert (status, out, err) == (EXIT_USAGE, "", expected.replace("-1", "-3"))
    # a cap of 0 is a resource limit that no length fits
    status, out, _ = run_cli(capsys, "census", "--n", "9", "--enum-cap", "0", "--machine")
    assert status == EXIT_RESOURCE and "kind=resource" in out


def test_random_corruption_of_a_one_symbol_word(capsys):
    argv = ("corrupt", "--random", "--seed", "1", "0", "01011011010", "--machine")
    status, out, _ = run_cli(capsys, *argv)
    assert status == EXIT_OK
    assert record_types(out) == {"corrupt"} and len(out.splitlines()) == 2


# a valid invocation of every subcommand, to which a flag is appended
VALID_ARGV = {
    "syndrome": ("syndrome", "0000001"),
    "check": ("check", "--n", "7", "--params", "0,0,0,0", "0000000"),
    "enumerate": ("enumerate", "--n", "9", "--params", "0,0,0,0"),
    "census": ("census", "--n", "9"),
    "best-params": ("best-params", "--n", "9"),
    "encode": ("encode", "--n", "9", "--params", "0,0,0,0", "--index", "0"),
    "rank": ("rank", "--n", "9", "--params", "0,0,0,0", "000000000"),
    "decode": ("decode", "--n", "11", "--params", "8,10,2434,8", "0111011010"),
    "corrupt": ("corrupt", "--pattern", "del@2", "0000001"),
    "verify": ("verify", "--n", "9"),
    "analyze": ("analyze", "classify", "--x", "0001011", "--y", "0110001"),
    "analyze sigma": ("analyze", "sigma", "--vector", "1,0,1,-1,-2,3"),
    "analyze segment": (
        "analyze", "segment", "--x", "00010", "--y", "01110", "--cut", "4,2", "--rel", "2,0"
    ),
}
ENUM_CAP_READERS = ("enumerate", "census", "best-params", "encode", "rank", "verify")
# the flags of another analyze action that each action does not read ("analyze" is classify)
ANALYZE_UNREAD = {
    "analyze": ("--vector", "--cut", "--rel"),
    "analyze sigma": ("--cut", "--rel", "--k"),
    "analyze segment": ("--vector", "--k"),
}
REMOVED_FLAGS = (
    # no subcommand takes a round budget: separation ends by itself
    [(command, "--round-budget") for command in VALID_ARGV]
    + [(command, "--enum-cap") for command in VALID_ARGV if command not in ENUM_CAP_READERS]
    + [(command, flag) for command, flags in ANALYZE_UNREAD.items() for flag in flags]
)


@pytest.mark.parametrize("command,flag", REMOVED_FLAGS)
def test_a_subcommand_rejects_a_flag_it_does_not_read(capsys, command, flag):
    assert run_cli(capsys, *VALID_ARGV[command])[0] == EXIT_OK
    with pytest.raises(SystemExit) as exc:
        main([*VALID_ARGV[command], flag, "0"])
    captured = capsys.readouterr()
    assert exc.value.code == EXIT_USAGE and captured.out == ""
    assert f"unrecognized arguments: {flag}" in captured.err


def test_corrupt_takes_a_pattern_or_random_not_both(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["corrupt", "--random", "--pattern", "del@1", "0000001"])
    captured = capsys.readouterr()
    assert exc.value.code == EXIT_USAGE and captured.out == ""
    assert "argument --pattern: not allowed with argument --random" in captured.err


@pytest.mark.parametrize("command,flag", [(command, "--enum-cap") for command in ENUM_CAP_READERS])
def test_a_subcommand_honours_the_flag_it_reads(capsys, command, flag):
    assert run_cli(capsys, *VALID_ARGV[command])[0] == EXIT_OK
    # a cap of 8 is below every length above
    status, out, _ = run_cli(capsys, *VALID_ARGV[command], flag, "8")
    assert status == EXIT_RESOURCE and "resource cap exceeded" in out


def readme_commands() -> list[list[str]]:
    """The argv of every ``twoedit ...`` line of the README's CLI code block."""
    text = (ROOT / "README.md").read_text()
    block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("twoedit ")]
    return [shlex.split(line, comments=True)[1:] for line in lines]


@pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
def test_readme_examples_succeed(argv, capsys):
    status, out, _ = run_cli(capsys, *argv)
    assert status == EXIT_OK and out


def test_readme_library_example_runs():
    text = (ROOT / "README.md").read_text()
    block = text.split("\n## Library example\n", 1)[1].split("```python\n", 1)[1]
    exec(compile(block.split("```", 1)[0], "README.md", "exec"), {})


def test_a_request_leaves_no_parser_behind(capsys):
    def live_parsers():
        return sum(isinstance(obj, argparse.ArgumentParser) for obj in gc.get_objects())

    main(["syndrome", "0000001"])  # builds the process's parser
    gc.collect()
    gc.disable()  # a parser dropped by a request would now stay until collected
    try:
        before = live_parsers()
        for _ in range(20):
            main(["syndrome", "0000001"])
        assert live_parsers() == before
    finally:
        gc.enable()
    capsys.readouterr()


def test_reusing_the_parser_is_safe(capsys, monkeypatch):
    build_parser.cache_clear()
    monkeypatch.setenv("COLUMNS", "40")
    assert build_parser() is build_parser()
    # help is formatted when printed, so it follows the width of that moment
    monkeypatch.setenv("COLUMNS", "80")
    (case,) = [case for case in GOLDEN if case["argv"] == ["--help"]]
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert (exc.value.code, capsys.readouterr().out) == (case["exit"], case["stdout"])
    # a usage error leaves nothing behind for the next request
    with pytest.raises(SystemExit) as exc:
        main(["decode", "--n"])
    assert exc.value.code == EXIT_USAGE
    capsys.readouterr()
    status, out, _ = run_cli(capsys, *VALID_ARGV["decode"], "--machine")
    assert (status, out) == (EXIT_OK, "record=decode received=0111011010 word=01011011010\n")
    # a value converted by one request does not leak into the next
    assert run_cli(capsys, "analyze", "sigma", "--vector", "1,2")[:2] == (EXIT_OK, "1\n")
    status, out, _ = run_cli(capsys, "analyze", "sigma", "--x", "0110", "--y", "0101")
    assert status == EXIT_OK and out.startswith("profile difference ")


# argv beyond the golden ones: option spellings, strings left over after the
# words, no command word or an unknown one, help, a rejected choice or pair
EDGE_ARGV = (
    ("census", "--n=9"),
    (*VALID_ARGV["census"], "--mach"),
    ("syndrome", "--", "0000001"),
    ("decode", "--he"),
    (*VALID_ARGV["syndrome"], "--bogus"),
    ("census", "--n", "9", "extra"),
    ("analyze",),
    ("analyze", "bogus"),
    (*VALID_ARGV["analyze"], "--extra", "1"),
    (),
    ("bogus",),
    ("-h",),
    ("decode", "-h"),
    ("--", "decode"),
    ("verify", "--n", "8", "--mode", "bogus"),
    ("corrupt", "--random", "--pattern", "del@1", "0000001"),
    # a prefix of a command word names no command
    ("dec", "--n", "11", "--params", "8,10,2434,8", "0111011010"),
    ("analyze", "class", "--x", "0001011", "--y", "0110001"),
)
PARSED_ARGV = [case["argv"] for case in GOLDEN] + [list(argv) for argv in EDGE_ARGV]


def parse_outcome(parse, argv, capsys):
    """What ``parse`` makes of ``argv``: the namespace's fields, or the exit
    code and what was printed on the way out."""
    try:
        return vars(parse(argv))
    except SystemExit as exc:
        captured = capsys.readouterr()
        return exc.code, captured.out, captured.err


@pytest.mark.parametrize("argv", [*PARSED_ARGV, VALID_ARGV["decode"]], ids=repr)
def test_one_pass_parses_as_the_two_pass_parser(argv, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    wanted = parse_outcome(build_parser().parse_args, argv, capsys)
    assert parse_outcome(_parse_args, argv, capsys) == wanted


def test_one_pass_reads_the_process_argv(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["twoedit", *VALID_ARGV["analyze sigma"]])
    assert parse_outcome(_parse_args, None, capsys) == vars(build_parser().parse_args(None))


def subparser(parser: argparse.ArgumentParser, path: tuple[str, ...]):
    """The parser the command words ``path`` name under ``parser``."""
    for word in path:
        (subs,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        parser = subs.choices[word]
    return parser


@pytest.fixture
def parses(monkeypatch):
    """The parser of each ``parse_known_args`` call, in call order."""
    parsers = []
    parse_known_args = argparse.ArgumentParser.parse_known_args

    def counted(self, *args, **kwargs):
        parsers.append(self)
        return parse_known_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
    return parsers


@pytest.mark.parametrize("path", list(leaf_commands(build_parser())), ids=" ".join)
def test_a_request_is_parsed_once_by_its_own_parser(path, parses, capsys):
    argv = next(argv for argv in VALID_ARGV.values() if argv[: len(path)] == path)
    assert run_cli(capsys, *argv)[0] == EXIT_OK
    assert parses == [subparser(build_parser(), path)]


@pytest.mark.parametrize("argv", (["--help"], [], ["bogus"]), ids=repr)
def test_an_argv_without_a_command_word_reaches_the_top_level_parser(argv, parses, capsys):
    with pytest.raises(SystemExit):
        main(argv)
    capsys.readouterr()
    assert parses == [build_parser()]


def test_a_new_parser_is_walked_after_the_cache_is_cleared(parses, capsys):
    old = subparser(build_parser(), ("decode",))
    build_parser.cache_clear()
    assert run_cli(capsys, *VALID_ARGV["decode"])[0] == EXIT_OK
    assert parses == [subparser(build_parser(), ("decode",))] and parses[0] is not old


def test_importing_the_cli_leaves_decoder_and_analysis_unloaded():
    # each, and channel too, is imported by the first command that uses it
    code = "import sys, twoedit.cli; print(*sorted(m for m in sys.modules if 'twoedit' in m))"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.split()
    assert "twoedit.cli" in loaded
    assert "twoedit.decoder" not in loaded and "twoedit.analysis" not in loaded
    assert "twoedit.channel" not in loaded


def test_importing_the_library_loads_neither_dataclasses_nor_inspect():
    # compared with what the interpreter held before the imports, so that a
    # site hook that loads either module first does not count
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import twoedit.cli, twoedit.analysis, twoedit.channel, twoedit.decoder\n"
        "print(*sorted(set(sys.modules) - before))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    added = set(proc.stdout.split())
    assert "twoedit.decoder" in added
    assert not added & {"dataclasses", "inspect"}


def test_verify_starts_no_pool():
    # a fresh interpreter, so that nothing else has loaded multiprocessing;
    # n = 11 has 8 shared classes, enough for two workers to split
    script = (
        "import contextlib, io, json, sys, twoedit.cli as cli\n"
        "outs = []\n"
        "for workers in ('2', '1'):\n"
        "    with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        "        status = cli.main(['verify', '--n', '11', '--workers', workers, '--machine'])\n"
        "    outs.append((status, out.getvalue()))\n"
        "print(json.dumps(['multiprocessing' in sys.modules, outs]))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    loaded, (two, one) = json.loads(proc.stdout)
    assert not loaded
    assert two == one and one[0] == EXIT_OK and "groups=" in one[1]


def test_one_sweep_plan_per_length_and_radices():
    # a fresh interpreter: importing the CLI builds no plan, census,
    # best-params and verify at one n share one, and exact keys need another
    script = (
        "import contextlib, io, twoedit.cli as cli, twoedit.code as code\n"
        "print(code._plan.cache_info().misses)\n"
        "for argv in (['census', '--n', '10'], ['best-params', '--n', '10'],\n"
        "             ['verify', '--n', '10'], ['verify', '--n', '10', '--mode', 'exact']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(argv) == 0, argv\n"
        "    print(code._plan.cache_info().misses)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "1", "1", "1", "2"]


def test_sweeps_in_one_process_print_what_fresh_launches_print():
    # every (n, radices) plan is built once and then shared, in any order
    best = {}
    for n in (12, 13):
        p = code.best_params(n)[0]
        best[n] = f"{p.s0},{p.s1},{p.s2},{p.s3}"
    requests = [
        ["census", "--n", "12", "--machine"],
        ["verify", "--n", "13", "--mode", "exact", "--machine"],
        ["enumerate", "--n", "13", "--params", best[13]],
        ["verify", "--n", "12", "--mode", "exact"],
        ["census", "--n", "13", "--top", "3"],
        ["verify", "--n", "12", "--machine"],
        ["enumerate", "--n", "12", "--params", best[12], "--machine"],
        ["verify", "--n", "13"],
        ["best-params", "--n", "12", "--machine"],
    ]
    script = (
        "import sys, twoedit.cli as cli\n"
        f"for argv in {requests!r}:\n"
        "    assert cli.main(argv) == 0, argv\n"
        "    print('\\0', flush=True)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    *mixed, rest = proc.stdout.split("\0\n")
    assert rest == ""
    for argv, out in zip(requests, mixed, strict=True):
        fresh = subprocess.run([sys.executable, "-m", "twoedit.cli", *argv], env=env,
                               capture_output=True, text=True)
        assert (fresh.returncode, fresh.stdout) == (0, out), argv


def test_every_package_export_resolves_on_first_use():
    import twoedit

    for name in twoedit.__all__:
        module = importlib.import_module(f"twoedit.{twoedit._EXPORTS[name]}")
        assert getattr(twoedit, name) is getattr(module, name)
    namespace: dict = {}
    exec("from twoedit import *", namespace)
    assert set(twoedit.__all__) <= set(namespace) and set(twoedit.__all__) <= set(dir(twoedit))
    with pytest.raises(AttributeError, match="no_such_name"):
        twoedit.no_such_name
