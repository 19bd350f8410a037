"""One sha256 per instance pool over every solver result, for bit-identity checks.

    python3 scripts/result_digest.py --seeds 1 2 3

The pools are the benchmark's workloads (`perfbench/workloads.py`, drawn at
each seed) plus a sense grid the benchmark pools lack: strict (GT) copies of
`testkit.gen_feasible` at (5,20) and (10,50), solved for feasibility and, at
(5,20), optimized too, and the one-equality-row family of
`tests/test_equivalence.py` at (3,8) and (5,20).

Each instance is solved untraced and then traced, on the same input object
(LP text is parsed once, as `cli.parse_lp` reads it). The digest covers the
verdict, iteration count, point bytes, objective, final epsilon and
diagnostics of both solves, and every trace event (iteration, kind, center,
direction, gutter and detail, MOVE included). Two source trees give the same
line for a pool only when they compute the same results bit for bit.

Next to each pool's line, a `<pool>/outcomes` line hashes behaviour only: the
verdict, iteration count and diagnostics of both solves, and the iteration,
kind and gutter of every trace event except MOVE, the notion of behaviour that
`tests/test_equivalence.py` fixes. A rewrite that moves only the last bits of
points keeps every outcomes line while its bit-level lines move.

The `tiny-text/arrays` pool solves the tiny-text instances again, built from
their arrays with `workloads.build_lp` instead of parsed from LP text; a parsed
program is normalized once, like an array-built one, so both lines must be
equal.

Exits 1, after printing a MISMATCH line, when a traced solve returns a
different result from the untraced solve before it, or when the tiny-text and
tiny-text/arrays digests differ. BLAS pools are pinned to one thread, as the
benchmark pins them, before numpy is imported.

    python3 scripts/result_digest.py --seeds 0 1 --against main

compares this checkout with a git revision: REV's `src/` is unpacked with
`git archive` into a temporary directory beside copies of this checkout's
`perfbench/` and this script, which computes the same lines there in a fresh
interpreter. One SAME or DIFFERS line follows per pool and seed, and any
DIFFERS exits 1.
"""
import argparse
import hashlib
import io
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SENSE_INSTANCES = 20   # instances per sense-grid cell and seed


def _result_record(result) -> str:
    point = None if result.point is None else result.point.tobytes().hex()
    return repr((result.verdict.name, result.iterations, point, result.objective_value,
                 result.epsilon_final, result.diagnostics))


def _event_record(event) -> str:
    return repr((event.iteration, event.kind.name, event.p0, event.dir,
                 event.gutter_indices, event.detail))


def _outcome_record(result) -> str:
    return repr((result.verdict.name, result.iterations, result.diagnostics))


def _step_record(event) -> str:
    return repr((event.iteration, event.kind.name, event.gutter_indices))


def _sense_grid(seed: int):
    """(label, program, solve) for the strict and equality cells at one seed."""
    import numpy as np
    from gutterlp import Direction, LinearProgram, Objective, Sense, testkit
    from gutterlp import solve_feasibility, solve_optimum

    for k in range(SENSE_INSTANCES):
        s = seed * SENSE_INSTANCES + k
        for n, m in ((5, 20), (10, 50)):
            lp = testkit.gen_feasible(n, m, 0.1, s).lp
            yield "gt", LinearProgram.from_arrays(lp.A, lp.b, [Sense.GT] * m), solve_feasibility
        rng = np.random.default_rng((s, 5, 7))
        objective = Objective(Direction.MAX if rng.random() < 0.5 else Direction.MIN,
                              rng.standard_normal(5))
        lp = testkit.gen_feasible(5, 20, 0.1, s).lp
        yield "gt-optimize", LinearProgram.from_arrays(lp.A, lp.b, [Sense.GT] * 20,
                                                       objective), solve_optimum
        for n, m in ((3, 8), (5, 20)):
            # row 0 becomes an equality through the certified interior point
            inst = testkit.gen_feasible(n, m, 0.1, s)
            offsets = inst.lp.b.copy()
            offsets[0] = float(inst.lp.A[0] @ inst.certificate.point)
            yield "eq", LinearProgram.from_arrays(inst.lp.A, offsets,
                                                  [Sense.EQ] + [Sense.GE] * (m - 1)), \
                solve_feasibility


def _workload_pool(name: str, seed: int, arrays: bool = False):
    """(label, program, solve) for one benchmark workload pool; `arrays` skips LP text."""
    import workloads
    from gutterlp import cli, solve_feasibility, solve_optimum

    workload = workloads.WORKLOADS[name]
    pool = workloads.draw(workload, seed)
    if arrays:
        inputs = [workloads.build_lp(inst) for inst in pool]
    else:
        inputs = workloads.build_inputs(workload, pool)
    for inst, x in zip(pool, inputs):
        lp = cli.parse_lp(x) if isinstance(x, str) else x
        yield inst.kind.label, lp, solve_optimum if inst.kind.task == "optimize" else \
            solve_feasibility


def digest(instances) -> tuple[str, str, int, list[str]]:
    """(sha256, outcomes sha256, instance count, labels of traced solves that differed) over a pool."""
    h = hashlib.sha256()
    outcomes = hashlib.sha256()
    count = 0
    mismatched = []
    for label, lp, solve in instances:
        untraced = solve(lp)
        events = []
        traced = solve(lp, trace=events.append)
        untraced_record, traced_record = _result_record(untraced), _result_record(traced)
        if traced_record != untraced_record:
            mismatched.append(f"{label} #{count}")
        h.update(untraced_record.encode())
        h.update(traced_record.encode())
        outcomes.update(_outcome_record(untraced).encode())
        outcomes.update(_outcome_record(traced).encode())
        for event in events:
            h.update(_event_record(event).encode())
            if event.kind.name != "MOVE":
                outcomes.update(_step_record(event).encode())
        count += 1
    return h.hexdigest(), outcomes.hexdigest(), count, mismatched


def digest_lines(seeds) -> tuple[list[str], bool]:
    """Print and return every pool's lines at each seed; the flag is True after a MISMATCH."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads

    lines = []
    failed = False
    for seed in seeds:
        pools = [(name, _workload_pool(name, seed)) for name in workloads.WORKLOADS]
        pools.append(("tiny-text/arrays", _workload_pool("tiny-text", seed, arrays=True)))
        pools.append(("senses", _sense_grid(seed)))
        shas = {}
        for name, instances in pools:
            sha, outcomes, count, mismatched = digest(instances)
            shas[name] = sha
            for label, value in ((name, sha), (name + "/outcomes", outcomes)):
                lines.append(f"{label:<26} seed {seed:<6} {count:>5} instances  {value}")
                print(lines[-1], flush=True)
            for label in mismatched:
                print(f"MISMATCH {name} seed {seed}: traced result differs at {label}")
                failed = True
        if shas["tiny-text"] != shas["tiny-text/arrays"]:
            print(f"MISMATCH tiny-text seed {seed}: LP text and arrays give different results")
            failed = True
    return lines, failed


def lines_at(rev: str, seeds) -> list[str]:
    """The digest lines of REV's src/, computed by this script in a fresh interpreter."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"],
                             capture_output=True)
    if archive.returncode:
        raise SystemExit(f"error: git archive {rev}: {archive.stderr.decode().strip()}")
    with tempfile.TemporaryDirectory() as tmp:
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(tmp, filter="data")
        shutil.copytree(ROOT / "perfbench", Path(tmp) / "perfbench")
        (Path(tmp) / "scripts").mkdir()
        script = Path(tmp) / "scripts" / Path(__file__).name
        shutil.copy(__file__, script)
        run = subprocess.run([sys.executable, str(script), "--seeds", *map(str, seeds)],
                             capture_output=True, text=True)
    sys.stderr.write(run.stderr)
    if run.returncode not in (0, 1):
        raise SystemExit(f"error: the digest of {rev} failed with exit code {run.returncode}")
    for line in run.stdout.splitlines():
        if line.startswith("MISMATCH"):
            print(f"{rev}: {line}")
    return [line for line in run.stdout.splitlines() if not line.startswith("MISMATCH")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--against", metavar="REV",
                        help="also compute the lines at git revision REV and compare")
    args = parser.parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    lines, failed = digest_lines(args.seeds)
    if args.against is None:
        return 1 if failed else 0

    # a line's key is its pool, "seed" and the seed
    theirs = {tuple(line.split()[:3]): line for line in lines_at(args.against, args.seeds)}
    differs = False
    for line in lines:
        key = tuple(line.split()[:3])
        same = theirs.get(key) == line
        differs |= not same
        print(f"{'SAME' if same else 'DIFFERS':<8} {' '.join(key)}"
              f"{'' if key in theirs else f'  (no such line at {args.against})'}")
    return 1 if failed or differs else 0


if __name__ == "__main__":
    sys.exit(main())
