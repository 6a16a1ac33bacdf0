"""Tests of the benchmark itself: smoke run, trace restoration, independent
references.  No timing is asserted."""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def test_smoke_run_reports_every_metric_without_failures():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = [{m["name"] for m in spec[kind]} for kind in ("end_to_end", "per_layer")]
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    assert len(lines) == 2 * len(spec["workloads"])
    for i, result in enumerate(lines):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert set(result["metrics"]) == expected[i % 2]


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tracer_restores_every_binding():
    import importlib

    from twoedit.words import Word

    before = {(m, a): getattr(importlib.import_module(m), a, None) for m, a, *_ in tracing.BINDINGS}
    word_attrs = {a: Word.__dict__.get(a) for a in ("__init__", "from_int")}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert Word("0110") == Word.from_int(6, 4)
        assert tracer.counts["words.constructed"] > 0
    finally:
        tracer.uninstall()
    for (m, a), fn in before.items():
        assert getattr(importlib.import_module(m), a, None) is fn
    assert all(Word.__dict__.get(a) is fn for a, fn in word_attrs.items())


def test_residue_reference_matches_the_paper_definition_in_the_library():
    from twoedit.syndrome import syndrome_tuple
    from twoedit.words import Word

    rng = random.Random(3)
    for n in (7, 16, 33, 64):
        for _ in range(50):
            x = workloads.random_bits(rng, n)
            st = syndrome_tuple(Word(x))
            assert workloads.residues(x) == (st.s0, st.s1, st.s2, st.s3)


def test_confusable_pairs_are_within_four_edits():
    from twoedit.channel import edit_distance
    from twoedit.words import Word

    rng = random.Random(4)
    for n in workloads.SEPARATE_LENGTHS:
        for i in range(21):
            x, y = workloads.confusable_pair(rng, n, i % 3)
            assert len(x) == len(y) == n and x != y
            assert edit_distance(Word(x), Word(y)) <= 4
