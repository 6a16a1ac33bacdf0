"""Benchmark for twoedit: four closed-loop workloads, end-to-end and per layer.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload decode --seed 1 --seconds 28 --trace 0

With ``--trace 0`` the last stdout line is a JSON object holding the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced run (see tracing.py).  The line before it is a JSON object of run
metadata.  ``--smoke`` runs every workload, its checks and the traced run at
tiny sizes and checks only the result keys and that nothing failed.

Each run repeats the workload's fixed input set (a "pass") until
``--seconds`` are used up.  Other tenants of the host slow it down, by up to
2x, in spells of milliseconds to minutes, and interference only ever adds
time, so a request's latency is its fastest timing over the passes (as with
``timeit``).  A spell can outlast a whole run, so latencies are also scaled
to a nominal host speed: between requests the loop times a fixed reference
kernel (``workloads.reference_kernel``), and every latency is multiplied by
``REFERENCE_S`` over the kernel's fastest timing in the same run.
``lat_p50_ms`` and ``lat_tail_ms`` are taken over the scaled latencies, and
``wall_s`` is their sum: the time of one pass over the input set at nominal
speed.  ``setup_s`` is the fastest of its launches, unscaled.  Outputs are
checked outside the timed region.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPS = 6  # fresh-interpreter launches for each setup.* metric of a traced run
SETUP_EVERY_S = 1.5  # run time between two set-up launches during the loop
REFERENCE_S = 0.0013  # reference kernel's fastest time on the 2-core VM the bounds were set on
REFERENCE_EVERY_S = 0.05  # request time between two timings of the reference kernel


def load_spec() -> dict:
    """Metric names and units, as declared in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        "why": {w["name"]: w["why"] for w in spec["workloads"]},
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


# --- fresh interpreters ------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def fresh(code: str) -> tuple[float, str]:
    """Wall time and stdout of ``python -c code`` in a new interpreter."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code], env=child_env(), cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"fresh interpreter failed: {proc.stderr.strip()[-500:]}")
    return elapsed, proc.stdout


class Setup:
    """Launches that time starting Python, importing twoedit.cli and serving
    one small request of the workload's kind.  The first launch only fills
    the bytecode cache and is not counted.  The loop launches one between
    passes every ``SETUP_EVERY_S``, so the samples span the same stretch of
    time as the loop's timings."""

    def __init__(self, warmup: str) -> None:
        self.code = ("import contextlib, io\nfrom twoedit import cli\n"
                     f"with contextlib.redirect_stdout(io.StringIO()):\n    {warmup}\n")
        self.samples: list[float] = []
        self.last = -SETUP_EVERY_S
        fresh(self.code)

    def sample(self) -> None:
        self.samples.append(fresh(self.code)[0])
        self.last = time.perf_counter()

    def sample_if_due(self) -> None:
        if time.perf_counter() - self.last >= SETUP_EVERY_S:
            self.sample()

    def seconds(self) -> float:
        return min(self.samples)


def setup_split(reps: int) -> dict[str, float]:
    interpreter = min(fresh("pass")[0] for _ in range(reps))
    timed_import = ("import time\nt = time.perf_counter()\nimport twoedit.cli\n"
                    "print(time.perf_counter() - t)")
    imports = min(float(fresh(timed_import)[1]) for _ in range(reps))
    return {"setup.interpreter_s": interpreter, "setup.import_s": imports}


# --- the closed loop ---------------------------------------------------------


class Loop:
    """Repeats a workload's input set and keeps timings and check results."""

    def __init__(self, wl: workloads.Workload) -> None:
        self.wl = wl
        self.pass_s: list[float] = []
        self.latency: list[list[float]] = [[] for _ in wl.requests]
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.reference_s: list[float] = []
        self.since_reference = REFERENCE_EVERY_S  # time the kernel before the first request

    def time_reference(self) -> None:
        t0 = time.perf_counter()
        workloads.reference_kernel()
        self.reference_s.append(time.perf_counter() - t0)
        self.since_reference = 0.0

    def one_pass(self) -> None:
        total = 0.0
        context: dict = {}
        for i, req in enumerate(self.wl.requests):
            if self.since_reference >= REFERENCE_EVERY_S:
                self.time_reference()
            t0 = time.perf_counter()
            try:
                out = self.wl.call(req)
            except Exception as exc:  # a raising request counts as failed
                out = exc
            dt = time.perf_counter() - t0
            total += dt
            self.since_reference += dt
            self.latency[i].append(dt)
            self.attempted += 1
            try:
                ok = not isinstance(out, Exception) and self.wl.check(req, out, context)
            except Exception as exc:  # an output the check cannot read fails it
                ok, out = False, exc
            if not ok:
                self.failed += 1
                if len(self.failures) < 5:
                    self.failures.append(f"{req.label}: {out!r}"[:300])
        self.pass_s.append(total)

    def run(self, seconds: float, between: Callable[[], None]) -> None:
        """At least one pass; another only if it should end within ``seconds``.
        ``between`` runs after every pass, outside the timed requests."""
        start = time.perf_counter()
        while True:
            self.one_pass()
            between()
            elapsed = time.perf_counter() - start
            if elapsed + self.typical_pass() > seconds:
                return

    def typical_pass(self) -> float:
        return statistics.median(self.pass_s)

    def speed(self) -> float:
        """The reference kernel's fastest time in this run over its nominal
        time: above 1 when the host ran slower than nominal."""
        return min(self.reference_s) / REFERENCE_S

    def scaled(self) -> list[float]:
        """Each request's fastest timing over the passes, at nominal speed."""
        speed = self.speed()
        return [min(ts) / speed for ts in self.latency]

    def wall_s(self) -> float:
        return sum(self.scaled())

    def latencies(self) -> tuple[float, float, float, int]:
        """p50 and tail of the scaled per-request latency, the tail's
        percentile, and the sample count.  The tail is the highest order
        statistic with at least ten samples above it; with ten or fewer
        samples it is the maximum."""
        samples = sorted(self.scaled())
        count = len(samples)
        index = count - 11 if count > 10 else count - 1
        return statistics.median(samples), samples[index], 100.0 * (index + 1) / count, count


# --- runs --------------------------------------------------------------------


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest reaped child (KiB on Linux)."""
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def git_sha() -> str:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = ROOT / ".git" / name
        if path.exists():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool):
    wl = workloads.WORKLOADS[name](seed, smoke)
    meta = {"workload": name, "seed": seed, "trace": int(trace), "requests": len(wl.requests)}
    reps = 1 if smoke else SETUP_REPS
    if not trace:
        setup = Setup(wl.warmup)
        loop = Loop(wl)
        loop.run(seconds, setup.sample_if_due)
        p50, tail, pct, count = loop.latencies()
        metrics = {"setup_s": setup.seconds(), "wall_s": loop.wall_s(), "lat_p50_ms": 1e3 * p50,
                   "lat_tail_ms": 1e3 * tail, "peak_rss_mb": peak_rss_mb()}
        meta.update(passes=len(loop.pass_s), latency_samples=count, tail_percentile=pct,
                    setup_samples=len(setup.samples),
                    reference_samples=len(loop.reference_s), speed=loop.speed(),
                    unscaled_wall_s=sum(min(ts) for ts in loop.latency))
        loops = [loop]
    else:
        plain, traced, tracer = Loop(wl), Loop(wl), tracing.Tracer()
        start = time.perf_counter()
        while True:  # alternate, so both loops see the same machine load
            plain.one_pass()
            tracer.install()
            try:
                traced.one_pass()
            finally:
                tracer.uninstall()
            elapsed = time.perf_counter() - start
            if elapsed + plain.typical_pass() + traced.typical_pass() > seconds:
                break
        passes = len(traced.pass_s)
        metrics = tracer.metrics(passes)
        metrics.update(setup_split(reps))
        metrics["trace.overhead_frac"] = traced.typical_pass() / plain.typical_pass() - 1.0
        mean_pass = sum(traced.pass_s) / passes
        shares = {layer: round(metrics[f"{layer}.self_s"] / mean_pass, 4) for layer in tracing.LAYERS}
        meta.update(passes=passes, traced_pass_s=traced.typical_pass(), layer_self_share=shares,
                    absent_bindings=tracer.absent)
        loops = [plain, traced]
    attempted = sum(lp.attempted for lp in loops)
    failed = sum(lp.failed for lp in loops)
    meta.update(fail_frac=failed / attempted, failures=[f for lp in loops for f in lp.failures])
    return attempted, failed, metrics, meta


def result_line(attempted: int, failed: int, metrics: dict, units: dict) -> str:
    return json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    })


def smoke(spec: dict) -> int:
    """Every workload, checked and traced, at tiny sizes; no timing gates."""
    bad = []
    for name in workloads.WORKLOADS:
        for trace, units in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
            attempted, failed, metrics, meta = run_workload(name, 1, 0.0, trace, True)
            if failed or set(metrics) != set(units):
                bad.append((name, trace, failed, sorted(set(units) ^ set(metrics)), meta["failures"]))
            else:
                print(result_line(attempted, failed, metrics, units))
    if bad:
        print(f"smoke failures: {bad}", file=sys.stderr)
    return 1 if bad else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "twoedit" / "__init__.py").is_file():
        print(f"error: no twoedit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = load_spec()
    if args.smoke:
        return smoke(spec)
    if args.workload is None:
        parser.error("--workload is required")
    attempted, failed, metrics, meta = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), False)
    meta.update(nproc=os.cpu_count(), python=platform.python_version(), git_sha=git_sha(),
                why=spec["why"][args.workload])
    print(json.dumps({"meta": meta}))
    print(result_line(attempted, failed, metrics, spec["per_layer" if args.trace else "end_to_end"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
