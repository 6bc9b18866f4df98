"""Benchmark runner for heatline: one seeded workload, one closed-loop client.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload verify-d1 --seed 1 --seconds 30 --trace 0

The runner builds the workload's pass (a fixed list of ops, see
workloads.py) from the seed, runs a warm-up op, then repeats the pass
back to back, one op at a time, checking every output against closed forms
it computes itself and checking that each op's CSV/JSON export (or result
values) repeats byte for byte.

--trace 0 measures the end-to-end metrics: set-up time of a fresh
interpreter, throughput, p50/p90 op latency and peak memory.  The timed
phase is whole passes until --seconds have passed.

--trace 1 alternates untraced passes with passes in which every heatline
layer is wrapped (tracing.py) until --seconds have passed, and reports
per-layer counts and self times per traced pass, plus the tracing overhead.

Times are reported at a reference machine speed.  On a shared machine,
other tenants slow everything down by the same factor -- a plain Python
loop and heatline's ops alike, by 40% or more, in phases lasting seconds to
minutes -- so the runner times a fixed reference loop between passes and
scales each pass's times by REFERENCE_LOOP_S over the loop's mean time
just before and just after that pass.  Raw wall-clock figures are printed too.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The exit code is 0 only when every
op passed its checks; 2 means the runner refused to run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# these change the work heatline does, so a run under them is not comparable
REFUSED_ENV = ("HEATLINE_BUDGET", "HEATLINE_RADIUS_LADDER", "HEATLINE_POINTS_LADDER")
# one BLAS thread: the client is single-threaded and the machine may be shared
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 9
# at least this many op samples per run, so that p90 has ten beyond it
MIN_SAMPLES = 100
# what _reference_loop takes on a quiet 2-vCPU Xeon virtual machine
# (Python 3.11); times are scaled to that speed
REFERENCE_LOOP_S = 0.007
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _refusal() -> str | None:
    set_vars = [v for v in REFUSED_ENV if v in os.environ]
    if set_vars:
        return f"refusing to run with {', '.join(set_vars)} set: it changes the work heatline does"
    if not (SRC / "heatline" / "__init__.py").is_file():
        return f"no heatline sources under {SRC}"
    return None


class Tally:
    """Ops attempted and failed, by kind, with the first few problems kept."""

    def __init__(self) -> None:
        self.attempted: dict[str, int] = {}
        self.failed: dict[str, int] = {}
        self.problems: list[str] = []

    def add(self, kind: str, problems: list) -> None:
        self.attempted[kind] = self.attempted.get(kind, 0) + 1
        if problems:
            self.failed[kind] = self.failed.get(kind, 0) + 1
            if len(self.problems) < 20:
                self.problems.append(f"{kind}: {'; '.join(problems)}")

    def total(self) -> tuple[int, int]:
        return sum(self.attempted.values()), sum(self.failed.values())


def _run_op(index, op, digests, tally, op_context=None) -> float:
    """Call one op, check it, and return its latency in seconds."""
    start = perf_counter()
    try:
        with op_context(index, op.kind) if op_context else nullcontext():
            result = op.call()
    except Exception as exc:  # a raising op is a failed op, and the run goes on
        latency = perf_counter() - start
        tally.add(op.kind, [f"raised {type(exc).__name__}: {exc}"])
        return latency
    latency = perf_counter() - start
    try:
        problems = op.check(result)
        digest = op.digest(result)
    except Exception as exc:
        problems, digest = [f"check raised {type(exc).__name__}: {exc}"], None
    if not problems and digests.setdefault(index, digest) != digest:
        problems = ["output differs from an earlier pass"]
    tally.add(op.kind, problems)
    return latency


def _reference_loop() -> int:
    total = 0
    for i in range(100_000):
        total += i * i % 7
    return total


def _machine_time() -> float:
    """Median of three timings of the reference loop: the machine's current speed."""
    times = []
    for _ in range(3):
        start = perf_counter()
        _reference_loop()
        times.append(perf_counter() - start)
    return statistics.median(times)


class Phase:
    """Latencies and wall time of whole passes, with the speed scale of each."""

    def __init__(self) -> None:
        self.latencies: list[list[float]] = []  # one list per pass
        self.walls: list[float] = []
        self.scales: list[float] = []  # REFERENCE_LOOP_S over the loop time around the pass

    def run_pass(self, ops, digests, tally, loop_before: float, op_context=None) -> float:
        """Run every op once; returns the reference-loop time taken right after."""
        start = perf_counter()
        self.latencies.append([_run_op(i, op, digests, tally, op_context) for i, op in enumerate(ops)])
        self.walls.append(perf_counter() - start)
        loop_after = _machine_time()
        self.scales.append(2.0 * REFERENCE_LOOP_S / (loop_before + loop_after))
        return loop_after

    def scaled_wall(self) -> float:
        return sum(w * k for w, k in zip(self.walls, self.scales))

    def scaled_latencies(self) -> list[float]:
        return [t * k for per_pass, k in zip(self.latencies, self.scales) for t in per_pass]


def _nearest_rank(sorted_values, p: float) -> float:
    return sorted_values[max(0, math.ceil(p * len(sorted_values)) - 1)]


def _setup_seconds(args) -> float:
    """Median scaled wall time of fresh interpreters that import, build the workload and warm up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
           "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for _ in range(SETUP_PROBES):
        before = _machine_time()
        start = perf_counter()
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=120)
        elapsed = perf_counter() - start
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
        times.append(elapsed * 2.0 * REFERENCE_LOOP_S / (before + _machine_time()))
    return statistics.median(times)


def _untraced(args, ops, tally) -> dict:
    setup_s = _setup_seconds(args)
    min_passes = max(2, math.ceil(MIN_SAMPLES / len(ops)))
    phase, digests = Phase(), {}
    loop = _machine_time()
    start = perf_counter()
    while len(phase.walls) < min_passes or perf_counter() - start < args.seconds:
        loop = phase.run_pass(ops, digests, tally, loop)
    samples = sorted(phase.scaled_latencies())
    raw = sorted(t for per_pass in phase.latencies for t in per_pass)
    print(f"timed phase: {len(phase.walls)} passes of {len(ops)} ops, {len(samples)} op samples; "
          f"mean speed scale {statistics.fmean(phase.scales):.4f}; "
          f"raw wall: {len(raw) / sum(phase.walls):.4g} ops/s, p50 {_nearest_rank(raw, 0.5) * 1e3:.4g} ms, "
          f"p90 {_nearest_rank(raw, 0.9) * 1e3:.4g} ms")
    return {
        "setup_s": setup_s,
        "ops_per_s": len(samples) / phase.scaled_wall(),
        "op_p50_ms": 1e3 * _nearest_rank(samples, 0.5),
        "op_p90_ms": 1e3 * _nearest_rank(samples, 0.9),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _traced(args, ops, tally) -> tuple[dict, list]:
    """Alternate untraced and traced passes, so drift and warm-up hit both alike."""
    import tracing

    plain, traced, digests = Phase(), Phase(), {}
    recorder = tracing.Recorder()
    loop = _machine_time()
    start = perf_counter()
    while not traced.walls or perf_counter() - start < args.seconds:
        loop = plain.run_pass(ops, digests, tally, loop)
        with tracing.instrument(recorder):
            loop = traced.run_pass(ops, digests, tally, loop, recorder.op)
    passes = len(traced.walls)
    print(f"traced run: {passes} untraced passes in {sum(plain.walls):.3f} s, {passes} traced passes "
          f"in {sum(traced.walls):.3f} s, {len(recorder.spans)} spans")
    metrics = tracing.layer_metrics(recorder.spans, passes)
    scale = statistics.fmean(traced.scales)
    for name in metrics:
        if name.endswith(".self_s"):
            metrics[name] *= scale
    metrics["trace.overhead_frac"] = traced.scaled_wall() / plain.scaled_wall() - 1.0
    recorder.write(ROOT / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
    return metrics, tracing.metric_specs()


def main(argv=None) -> int:
    args = _args(argv)
    refusal = _refusal()
    if refusal:
        print(refusal, file=sys.stderr)
        return 2
    for var in BLAS_ENV:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import numpy as np

    import heatline  # noqa: F401  (set-up covers importing the package and its CLI)
    import heatline.cli  # noqa: F401
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; expected one of {', '.join(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    ops = workloads.build(args.workload, args.seed)
    warm = Tally()
    _run_op(0, ops[0], {}, warm)
    if args.probe_setup:
        return 1 if warm.failed else 0

    tally = Tally()
    if args.trace:
        values, specs = _traced(args, ops, tally)
    else:
        values, specs = _untraced(args, ops, tally), END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in specs}

    for name, unit in specs:
        print(f"{name} {values[name]!r} {unit}")
    for kind in sorted(tally.attempted):
        bad, n = tally.failed.get(kind, 0), tally.attempted[kind]
        print(f"fail_frac[{kind}] {bad / n!r} ratio ({bad}/{n})")
    for problem in warm.problems + tally.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    attempted, failed = tally.total()
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "nproc": os.cpu_count(),
        "numpy": np.__version__,
        "blas_threads": {var: os.environ[var] for var in BLAS_ENV},
        "pass_ops": len(ops),
    }))
    correct = failed == 0 and not warm.failed
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
