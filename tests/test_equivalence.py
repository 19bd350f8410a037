"""Behaviour-preservation check against a recorded fixture.

The fixture holds, for every instance of a fixed seeded grid, the verdict, the
inner iteration count, a sha256 of the sequence of non-MOVE trace events (kind
plus gutter indices) and the objective value, as produced by the solver when
the fixture was recorded. A refactor keeps behaviour when all of these still
match; points and objectives may differ in the last bits (BLAS matrix-vector
products round differently from per-row dot products), so the objective is
compared with a relative tolerance of 1e-9 and MOVE events, whose zero-length
cases flip with such rounding, are left out of the hash.

Record a new fixture only when a change is meant to alter behaviour:

    PYTHONPATH=src python tests/test_equivalence.py
"""
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from gutterlp import Direction, LinearProgram, Objective, Sense, SolverConfig, solve_feasibility, solve_optimum
from gutterlp import testkit
from gutterlp.solver import EventKind

FIXTURE = Path(__file__).with_name("data") / "equivalence.json"
SEEDS = range(30)
GRID = (
    [("feasible", n, m) for n, m in ((2, 6), (3, 8), (5, 20), (10, 50), (20, 200))]
    + [("infeasible", n, m) for n, m in ((2, 6), (3, 8), (5, 20), (10, 50), (20, 200))]
    + [("optimize", n, m) for n, m in ((2, 6), (3, 8), (5, 20), (10, 50))]
    + [("equality", n, m) for n, m in ((3, 8), (5, 20))]
)


def _key(family: str, n: int, m: int, seed: int) -> str:
    return f"{family}/{n}x{m}/{seed}"


def run_instance(family: str, n: int, m: int, seed: int) -> dict:
    events = []
    if family == "infeasible":
        lp = testkit.gen_infeasible(n, m, seed).lp
        result = solve_feasibility(lp, SolverConfig(), trace=events.append)
    elif family == "feasible":
        lp = testkit.gen_feasible(n, m, 0.1, seed).lp
        result = solve_feasibility(lp, SolverConfig(), trace=events.append)
    elif family == "equality":
        # row 0 becomes an equality through the certified interior point
        inst = testkit.gen_feasible(n, m, 0.1, seed)
        offsets = inst.lp.b.copy()
        offsets[0] = float(inst.lp.A[0] @ inst.certificate.point)
        lp = LinearProgram.from_arrays(inst.lp.A, offsets, [Sense.EQ] + [Sense.GE] * (m - 1))
        result = solve_feasibility(lp, SolverConfig(), trace=events.append)
    else:
        base = testkit.gen_feasible(n, m, 0.1, seed).lp
        rng = np.random.default_rng((seed, n, 7))
        direction = Direction.MAX if rng.random() < 0.5 else Direction.MIN
        objective = Objective(direction, rng.standard_normal(n))
        lp = LinearProgram.from_arrays(base.A, base.b, objective=objective)
        result = solve_optimum(lp, SolverConfig(), trace=events.append)
    steps = [[e.kind.value, list(e.gutter_indices)] for e in events if e.kind is not EventKind.MOVE]
    return {
        "verdict": result.verdict.value,
        "iterations": result.iterations,
        "events_sha256": hashlib.sha256(json.dumps(steps).encode()).hexdigest(),
        "objective": None if result.objective_value is None else float(result.objective_value),
    }


def _load() -> dict:
    return json.loads(FIXTURE.read_text())["instances"]


@pytest.mark.parametrize("family,n,m", GRID, ids=[f"{f}-{n}x{m}" for f, n, m in GRID])
def test_matches_recorded_behaviour(family, n, m):
    recorded = _load()
    for seed in SEEDS:
        key = _key(family, n, m, seed)
        got, want = run_instance(family, n, m, seed), recorded[key]
        assert got["verdict"] == want["verdict"], key
        assert got["iterations"] == want["iterations"], key
        assert got["events_sha256"] == want["events_sha256"], key
        if want["objective"] is None:
            assert got["objective"] is None, key
        else:
            assert abs(got["objective"] - want["objective"]) <= \
                1e-9 * max(1.0, abs(want["objective"])), key


def test_fixture_covers_the_grid():
    assert set(_load()) == {_key(f, n, m, s) for f, n, m in GRID for s in SEEDS}


if __name__ == "__main__":
    instances = {_key(f, n, m, s): run_instance(f, n, m, s) for f, n, m in GRID for s in SEEDS}
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps({"instances": instances}, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(instances)} instances to {FIXTURE}")
