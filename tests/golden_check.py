"""Run the CLI golden table under the interpreter that runs this script.

    PYTHONPATH=src python3.13 tests/golden_check.py   # from the repository root

Each entry of ``tests/cli_golden.json`` goes through ``twoedit.cli.main`` in
this process, with COLUMNS=80 and the entry's environment, as
``test_cli.test_golden_outputs`` runs it; every entry whose exit code,
stdout or stderr differs is printed with both versions.  It needs only the
standard library, so it runs on a Python without pytest.  Exit status 0 if
every entry matches, else 1.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path
from unittest import mock

from twoedit.cli import main

GOLDEN = Path(__file__).resolve().parent / "cli_golden.json"


def run(case: dict) -> tuple[int, str, str]:
    """(exit, stdout, stderr) of one golden entry."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, {"COLUMNS": "80", **case["env"]}):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                status = main(list(case["argv"]))
            except SystemExit as exc:
                status = exc.code
    return status, out.getvalue(), err.getvalue()


def check() -> int:
    cases = json.loads(GOLDEN.read_text())
    bad = 0
    for case in cases:
        got = run(case)
        want = (case["exit"], case["stdout"], case["stderr"])
        if got != want:
            bad += 1
            print(f"MISMATCH {' '.join(case['argv'])!r} env={case['env']}")
            for name, g, w in zip(("exit", "stdout", "stderr"), got, want):
                if g != w:
                    print(f"  {name} want: {w!r}\n  {name} got:  {g!r}")
    version = ".".join(map(str, sys.version_info[:3]))
    print(f"Python {version}: {len(cases) - bad} of {len(cases)} golden entries match")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(check())
