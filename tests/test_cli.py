import json
import re
from pathlib import Path

import pytest

from twoedit import analysis
from twoedit.cli import (
    EXIT_OK,
    EXIT_RESOURCE,
    EXIT_USAGE,
    EXIT_VIOLATION,
    ROUND_BUDGET_ENV,
    main,
)
from twoedit.code import ENUM_CAP_ENV

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
    calls = []
    classify = analysis.classify_errors
    monkeypatch.setattr(analysis, "classify_errors", lambda *a: calls.append(a) or classify(*a))
    argv = ("analyze", "classify", "--x", "0001011", "--y", "0110001", "--machine")
    status, out, _ = run_cli(capsys, *argv)
    assert status == EXIT_OK and "record=pair-type" in out
    assert len(calls) == 1


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
    status, _, err = run_cli(capsys, "syndrome", "01a")
    assert status == EXIT_USAGE and "error" in err
    status, _, err = run_cli(capsys, "analyze", "segment", "--x", "00010", "--y", "01110")
    assert status == EXIT_USAGE
    status, _, err = run_cli(capsys, "check", "--n", "7", "--params", "1,2,3", "0000000")
    assert status == EXIT_USAGE
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == EXIT_USAGE


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


def test_enum_cap_env_override(capsys, monkeypatch):
    monkeypatch.setenv("TWOEDIT_ENUM_CAP", "8")
    status, out, _ = run_cli(capsys, "census", "--n", "9", "--machine")
    assert status == EXIT_RESOURCE


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
    for name in (ENUM_CAP_ENV, ROUND_BUDGET_ENV):
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage and help to the terminal
    for name, value in case["env"].items():
        monkeypatch.setenv(name, value)
    try:
        status = main(list(case["argv"]))
    except SystemExit as exc:
        status = exc.code
    captured = capsys.readouterr()
    assert (status, captured.out, captured.err) == (case["exit"], case["stdout"], case["stderr"])


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


@pytest.mark.parametrize("command", ("verify",))
def test_workers_below_one_are_rejected(capsys, command):
    status, out, err = run_cli(capsys, command, "--n", "7", "--workers", "0", "--machine")
    assert status == EXIT_USAGE and out == "" and "workers" in err


def test_decode_batch_continues_past_a_bad_length(capsys):
    args = ("decode", "--n", "11", "--params", "8,10,2434,8", "--machine")
    status, out, _ = run_cli(capsys, *args, "0111011010", "0101", "0111011010")
    assert status == EXIT_VIOLATION
    assert out.splitlines() == [
        "record=decode received=0111011010 word=01011011010",
        "record=decode-failure received=0101 kind=length n=11 k1=8 k2=10 k3=2434 k4=8",
        "record=decode received=0111011010 word=01011011010",
    ]


def test_round_budget_env_is_read_only_by_classify(capsys, monkeypatch):
    monkeypatch.setenv(ROUND_BUDGET_ENV, "x")
    status, out, _ = run_cli(capsys, "syndrome", "0000001", "--machine")
    assert status == EXIT_OK
    assert out == "record=syndrome word=0000001 n=7 s0=3 s1=26 s2=226 s3=2\n"
    status, _, err = run_cli(capsys, "analyze", "classify", "--x", "001", "--y", "111")
    assert status == EXIT_USAGE and "'x'" in err
    monkeypatch.setenv(ROUND_BUDGET_ENV, "0")
    status, out, _ = run_cli(capsys, "analyze", "classify", "--x", "0001011", "--y", "0110001")
    assert status == EXIT_RESOURCE and "budget of 0 rounds" in out
    # the flag still wins over the environment
    status, _, _ = run_cli(
        capsys, "analyze", "classify", "--x", "0001011", "--y", "0110001", "--round-budget", "9"
    )
    assert status == EXIT_OK
