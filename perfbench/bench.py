"""The gutterlp benchmark: verified-solve goodput and solve latency per workload.

One client in a closed loop: one process, one solve at a time, default
`SolverConfig`. Each timed operation is one `solve_feasibility` or
`solve_optimum` call (preceded by `cli.parse_lp` on LP text workloads); every
result is judged against a reference computed before the loop (see verify.py).

With `--trace 0` nothing in the package is patched. The loop passes over the
whole seeded pool until `--seconds` have passed, and each instance counts once,
at the median time of its repeats. Times are scaled to a reference host speed
by a calibration kernel timed between blocks of solves (see calibrate.py); the
raw wall-time figures are printed beside.
  ok_per_s      verified-correct instances / sum of their solve times (goodput)
  solve_ms.p50  median solve time; a failed instance ranks above every time,
  solve_ms.p90  so a percentile that lands on a failure reads +inf
  fail_frac     failed instances / instances, with fail.<reason> counts
  setup_s       import gutterlp + build the pool's inputs, median of fresh
                interpreters, each scaled by a kernel timed in it (drawing the
                pool and the references is not in it)
With `--trace 1` untraced and traced passes over a fixed prefix of the pool
alternate, giving the per-layer metrics (see layers.py) and the tracing
overhead (traced over untraced wall time).

The last line of output is one JSON object with the metrics named in
BENCHMARK.json, and with `attempted` and `failed` counted in instances, so
that they depend on the seed alone; the lines before it are the full report.
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import os
import pickle
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

import numpy as np
import scipy

import gutterlp
from gutterlp import cli

import calibrate
import layers
import verify
import workloads

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 7
BLOCK_S = 0.2   # seconds of solving between two runs of the calibration kernel


@dataclass(frozen=True)
class Attempt:
    kind: str
    seconds: float
    reason: Optional[str]   # None: verified correct; "bench_error": no reference to judge by


def operation(workload, inst, x, trace=None):
    lp = cli.parse_lp(x) if workload.text else x
    solve = gutterlp.solve_optimum if inst.kind.task == "optimize" else gutterlp.solve_feasibility
    return solve(lp, trace=trace)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile of an already sorted list."""
    return values[max(math.ceil(q / 100.0 * len(values)) - 1, 0)]


class Run:
    """One workload at one seed: its pool, references, inputs and set-up time."""

    def __init__(self, workload, seed: int, root: Path):
        self.workload = workload
        start = time.perf_counter()
        self.pool = workloads.draw(workload, seed)
        self.draw_s = time.perf_counter() - start

        start = time.perf_counter()
        self.refs, self.bench_errors = [], []
        for inst in self.pool:
            try:
                self.refs.append(verify.reference(inst, cross_check=workload.text))
            except verify.BenchError as exc:
                self.refs.append(None)
                self.bench_errors.append(str(exc))
        self.reference_s = time.perf_counter() - start

        self.setup_samples = self._probe_setup(root)
        self.inputs = workloads.build_inputs(workload, self.pool)
        self.check_lps = ([workloads.build_lp(inst) for inst in self.pool] if workload.text
                          else self.inputs)
        self.exceptions: Counter = Counter()

    def _probe_setup(self, root: Path) -> list[dict]:
        payload = pickle.dumps(self.pool)
        samples = []
        for _ in range(SETUP_PROBES):
            proc = subprocess.run(
                [sys.executable, str(HERE / "setup_probe.py"), str(root / "src"),
                 self.workload.name],
                input=payload, capture_output=True, timeout=120, check=True)
            samples.append(json.loads(proc.stdout.decode().splitlines()[-1]))
        return samples

    def setup_s(self, reference: bool = True) -> float:
        return statistics.median(
            (s["import_s"] + s["build_s"]) * (calibrate.scale(s["kernel_s"]) if reference else 1.0)
            for s in self.setup_samples)

    def attempt(self, k: int, trace=None):
        """Solve pool instance k % len(pool) once: (Attempt, SolveResult or None)."""
        k %= len(self.pool)
        inst = self.pool[k]
        start = time.perf_counter()
        try:
            result = operation(self.workload, inst, self.inputs[k], trace)
        except Exception as exc:  # a crash is that solve's failure; the run goes on
            self.exceptions[f"{type(exc).__name__}: {exc}"] += 1
            return Attempt(inst.kind.label, time.perf_counter() - start, "exception"), None
        seconds = time.perf_counter() - start
        ref = self.refs[k]
        reason = ("bench_error" if ref is None
                  else verify.judge(inst, self.check_lps[k], ref, result))
        return Attempt(inst.kind.label, seconds, reason), result

    def timed(self, seconds: float) -> tuple[list[Attempt], list[float]]:
        """Pass over the whole pool until the deadline: (every attempt, its scale factor).

        Only whole passes are made, ending at the pass boundary nearest the
        deadline, so every instance is solved equally often and the attempted
        and failed instance counts depend on the seed alone. The calibration
        kernel runs after every BLOCK_S of solving and at the end of each pass;
        each solve is scaled by the kernel times at the two ends of its block.
        """
        attempts: list[Attempt] = []
        factors: list[float] = []
        block = 0
        gc.collect()
        before = calibrate.kernel_seconds()
        start = block_start = time.perf_counter()
        deadline = start + seconds
        passes = 0
        while True:
            for k in range(len(self.pool)):
                attempts.append(self.attempt(k)[0])
                block += 1
                if time.perf_counter() - block_start >= BLOCK_S or k == len(self.pool) - 1:
                    after = calibrate.kernel_seconds()
                    factors += [calibrate.scale([before, after])] * block
                    block, before, block_start = 0, after, time.perf_counter()
            passes += 1
            now = time.perf_counter()
            if now + (now - start) / passes / 2 >= deadline:
                return attempts, factors

    def traced(self, seconds: float):
        """Alternate untraced and traced passes over the pool's first trace_rounds rounds."""
        count = self.workload.trace_rounds * len(self.workload.round)
        tracer, totals = layers.Tracer(), {}
        plain_walls, traced_walls, attempts = [], [], []
        mismatches = 0
        gc.collect()
        deadline = time.perf_counter() + seconds
        while not plain_walls or time.perf_counter() < deadline:
            plain = [self.attempt(k) for k in range(count)]
            traced = []
            with tracer.installed():
                for k in range(count):
                    with tracer.solve(len(traced_walls) * count + k, self.pool[k].kind.m):
                        traced.append(self.attempt(k, trace=tracer.sink))
                    if traced[-1][1] is not None:
                        tracer.counts["solver.inner_iters"] += traced[-1][1].iterations
            tracer.fold_spans(totals)
            mismatches += sum(not _same(p[1], t[1]) for p, t in zip(plain, traced))
            plain_walls.append(sum(a.seconds for a, _ in plain))
            traced_walls.append(sum(a.seconds for a, _ in traced))
            attempts += [a for a, _ in plain] + [a for a, _ in traced]
        overhead = statistics.median(traced_walls) / statistics.median(plain_walls)
        return attempts, tracer, totals, overhead, mismatches, len(plain_walls)


def per_instance(attempts: list[Attempt], count: int) -> list[Attempt]:
    """One entry per instance (attempt i solved instance i % count).

    An instance takes the median time of its repeats and keeps its first
    failure, so it counts as correct only if every repeat was.
    """
    repeats: dict[int, list[Attempt]] = {}
    for i, a in enumerate(attempts):
        repeats.setdefault(i % count, []).append(a)
    return [Attempt(group[0].kind, statistics.median(a.seconds for a in group),
                    next((a.reason for a in group if a.reason), None))
            for group in repeats.values()]


def _same(a, b) -> bool:
    """Whether two solve results are identical (tracing must not change an answer)."""
    if a is None or b is None:
        return a is b
    return (a.verdict is b.verdict and a.iterations == b.iterations
            and (a.point is None) == (b.point is None)
            and (a.point is None or np.array_equal(a.point, b.point)))


def end_to_end(instances: list[Attempt], setup_s: float) -> dict[str, tuple[float, str]]:
    """Metrics over the pool's instances, each at its median solve time (see per_instance)."""
    ok = sum(a.reason is None for a in instances)
    ranked = sorted(a.seconds * 1000.0 if a.reason is None else math.inf for a in instances)
    return {
        "ok_per_s": (ok / sum(a.seconds for a in instances), "1/s"),
        "solve_ms.p50": (percentile(ranked, 50), "ms"),
        "solve_ms.p90": (percentile(ranked, 90), "ms"),
        "fail_frac": (sum(a.reason in verify.REASONS for a in instances) / len(instances), "ratio"),
        "setup_s": (setup_s, "s"),
    }


NOTES = {
    "ok_per_s": "verified-correct instances per second of their solve times",
    "solve_ms.p50": "over all instances; a failed solve ranks above every time",
    "fail_frac": "failed instances / instances",
}


def _fmt(value: float) -> str:
    return "+inf" if math.isinf(value) else f"{value:.6g}"


def report_cells(attempts: list[Attempt], what: str) -> None:
    by_kind: dict[str, list[Attempt]] = {}
    for a in attempts:
        by_kind.setdefault(a.kind, []).append(a)
    print(f"# per cell: {what}, their median ms, failures by reason")
    for kind, group in by_kind.items():
        reasons = Counter(a.reason for a in group if a.reason is not None)
        median = statistics.median(a.seconds * 1000.0 for a in group)
        detail = " ".join(f"{r}={c}" for r, c in sorted(reasons.items())) or "-"
        print(f"cell {kind:<32} n={len(group):<6} median_ms={median:<10.4g} {detail}")


def run_workload(name: str, seed: int, seconds: float, trace: int, root: Path,
                 declared: dict) -> dict:
    workload = workloads.WORKLOADS[name]
    run = Run(workload, seed, root)
    print(f"# workload {name} seed {seed} seconds {seconds} trace {trace}: {workload.why}")
    print(f"# pool {len(run.pool)} instances ({workload.rounds} rounds of "
          f"{len(workload.round)}); draw {run.draw_s:.3g} s, references {run.reference_s:.3g} s "
          f"(the benchmark's own work, not part of setup_s)")
    for error in run.bench_errors:
        print(f"# BENCHMARK ERROR: {error}")

    metrics: dict[str, tuple[float, str]] = {}
    mismatches = 0
    if trace:
        attempts, tracer, totals, overhead, mismatches, passes = run.traced(seconds)
        prefix = workload.trace_rounds * len(workload.round)
        instances = per_instance(attempts, prefix)
        print(f"# traced run: {passes} pairs of untraced/traced passes over the first "
              f"{prefix} instances; per-solve values")
        metrics.update(layers.layer_metrics(tracer, totals))
        metrics["trace_overhead"] = (overhead, "ratio")
        solve_total = totals.get("solve", (0, 0.0, 0.0))
        metrics["solve.self_s"] = (solve_total[2] / max(tracer.solves, 1), "s/solve")
        for key in sorted(tracer.counts):
            if key.startswith("solver.events.") and key not in metrics:
                metrics[key] = (tracer.counts[key] / max(tracer.solves, 1), "1/solve")
        if tracer.absent:
            print("# absent (no longer in the package, reported as 0): "
                  + " ".join(tracer.absent))
        if mismatches:
            print(f"# TRACE MISMATCH: {mismatches} traced solves differ from their untraced twin")
    else:
        attempts, factors = run.timed(seconds)
        size = len(run.pool)
        instances = per_instance([replace(a, seconds=a.seconds * f)
                                  for a, f in zip(attempts, factors)], size)
        print("# closed loop, one client, one solve at a time, default SolverConfig, trace=None;"
              f" {len(attempts)} solves of {size} instances; times at the reference speed"
              f" (calibration kernel {calibrate.REF_S * 1000:g} ms, measured median "
              f"{calibrate.REF_S / statistics.median(factors) * 1000:.4g} ms)")
        metrics.update(end_to_end(instances, run.setup_s()))
        raw = end_to_end(per_instance(attempts, size), run.setup_s(reference=False))
        print("# raw wall time, not scaled: " + ", ".join(
            f"{key} {_fmt(value)} {unit}" for key, (value, unit) in raw.items()
            if key != "fail_frac"))
        samples = ", ".join(f"{s['import_s']:.3g}+{s['build_s']:.3g}" for s in run.setup_samples)
        print(f"# setup_s: median of {SETUP_PROBES} fresh interpreters, import+build s: {samples}")

    reasons = Counter(a.reason for a in instances if a.reason in verify.REASONS)
    for key, (value, unit) in metrics.items():
        note = NOTES.get(key, "")
        if key == "solve_ms.p50":
            beyond = len(instances) - math.ceil(0.9 * len(instances))
            note += f"; n={len(instances)}, {beyond} beyond p90"
        print(f"{key:<44} {_fmt(value):>12} {unit:<8} {note}")
    print(f"{'attempted':<44} {len(instances):>12} instances ({len(attempts)} solves)")
    for reason in verify.REASONS:
        print(f"{'fail.' + reason:<44} {reasons[reason]:>12} instances")
    for text, count in run.exceptions.most_common():
        print(f"# exception x{count}: {text}")
    report_cells(instances, "instances at their median solve time")

    wanted = declared["per_layer" if trace else "end_to_end"]
    correct = not run.bench_errors and not mismatches
    return {
        "correct": correct,
        "attempted": len(instances),
        "failed": sum(a.reason in verify.REASONS for a in instances),
        "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]}
                    for m in wanted},
    }


def main(argv, root: Path) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    declared = json.loads((root / "BENCHMARK.json").read_text())
    threads = " ".join(f"{k}={v}" for k, v in sorted(os.environ.items())
                       if k.endswith("_THREADS"))
    print(f"# python {platform.python_version()} numpy {np.__version__} scipy {scipy.__version__} "
          f"nproc {os.cpu_count()} affinity {len(os.sched_getaffinity(0))} {threads}")
    wrong = verify.self_test()
    if wrong:
        print("error: the checker misjudges known answers: " + ", ".join(wrong), file=sys.stderr)
        return 3
    print("# checker self-test passed (wrong answers rejected, right ones accepted)")

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        record = run_workload(name, args.seed, args.seconds, args.trace, root, declared)
        print(json.dumps(record))
    return 0
