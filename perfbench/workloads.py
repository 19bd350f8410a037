"""Seeded workloads: which instances a run solves, and how their inputs are built.

A workload is a fixed "round" of instance kinds repeated `rounds` times. The
instance seeds of a pool come from the run seed alone, so the same seed always
gives the same pool. The generators live in `gutterlp.testkit`; drawing a pool
is the benchmark's own work, while turning the drawn arrays into solver inputs
(`build_inputs`) goes through the package's public constructors and is what
`setup_s` times.
"""
from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Optional

import numpy as np

from gutterlp import Direction, LinearProgram, Objective
from gutterlp import testkit

SLACK = 0.1


@dataclass(frozen=True)
class Kind:
    """One cell of a workload: size, generator family and what is asked."""

    n: int
    m: int
    family: str  # "feasible" | "infeasible"
    task: str    # "feasibility" | "optimize"

    @property
    def label(self) -> str:
        return f"{self.task}/{self.family} ({self.n},{self.m})"


@dataclass(frozen=True)
class Workload:
    name: str
    text: bool                # inputs are LP text, parsed inside the timed operation
    round: tuple[Kind, ...]
    rounds: int               # pool size is rounds * len(round)
    trace_rounds: int         # rounds solved by each pass of the traced run
    why: str


@dataclass(frozen=True)
class Instance:
    kind: Kind
    seed: int
    normals: np.ndarray                       # m x n unit rows, all ">="
    offsets: np.ndarray
    certificate: object                       # testkit.FeasibleInterior | InfeasiblePair
    objective: Optional[tuple[str, np.ndarray]] = None   # ("max" | "min", c)


def _feas(n, m):
    return Kind(n, m, "feasible", "feasibility")


def _infeas(n, m):
    return Kind(n, m, "infeasible", "feasibility")


def _opt(n, m):
    return Kind(n, m, "feasible", "optimize")


def _spread(*counts: tuple[Kind, int]) -> tuple[Kind, ...]:
    """A round holding each kind `count` times, each kind spaced evenly through it."""
    slots = [((i + 0.5) / count, order, kind)
             for order, (kind, count) in enumerate(counts) for i in range(count)]
    return tuple(kind for _, _, kind in sorted(slots, key=lambda s: s[:2]))


# The counts in each round put the median and the 90th percentile of the solve
# time inside one cell's time range, not on the edge of a cell, where a
# percentile would jump from run to run. On wide-scan, 83% of the solves take
# 10-30 ms ((10,200) and infeasible (20,200)) and 15% are feasible (20,200) at
# 25-70 ms; above them rank 2.5% (50,500) solves and the failed solves, so the
# 90th percentile falls inside the feasible (20,200) range.
WORKLOADS = {
    "wide-scan": Workload(
        "wide-scan", False,
        _spread((_feas(10, 200), 10), (_infeas(10, 200), 28), (_infeas(20, 200), 28),
                (_feas(20, 200), 12), (_infeas(50, 500), 1), (_feas(50, 500), 1)),
        rounds=4, trace_rounds=1,
        why="m/n >= 10 feasibility: the obstacle scan over all planes dominates, gutters stay shallow"),
    "optimize-deep": Workload(
        "optimize-deep", False,
        _spread((_opt(20, 60), 2), (_opt(30, 90), 1)),
        rounds=150, trace_rounds=8,
        why="phase II at m/n = 3 fills the gutter to n rows every cycle: Gram, slide and rebuild work"),
    "tiny-text": Workload(
        "tiny-text", True,
        _spread(*[(kind(n, m), count) for n, m in ((2, 6), (3, 8), (4, 12))
                  for kind, count in ((_feas, 1), (_infeas, 1), (_opt, 2))]),
        rounds=100, trace_rounds=40,
        why="LP text at n <= 4, parsed per solve: fixed per-solve costs decide the speed"),
}


def _objective(seed: int, n: int) -> tuple[str, np.ndarray]:
    rng = np.random.default_rng((seed, n, 0x0B))
    c = rng.standard_normal(n)
    return ("max" if rng.random() < 0.5 else "min"), c


def draw(workload: Workload, seed: int) -> list[Instance]:
    """The workload's instance pool for one run seed, in solve order."""
    rng = np.random.default_rng((int(seed), zlib.crc32(workload.name.encode())))
    pool = []
    for _ in range(workload.rounds):
        for kind in workload.round:
            s = int(rng.integers(2**31))
            if kind.family == "feasible":
                gen = testkit.gen_feasible(kind.n, kind.m, SLACK, s)
            else:
                gen = testkit.gen_infeasible(kind.n, kind.m, s)
            objective = _objective(s, kind.n) if kind.task == "optimize" else None
            pool.append(Instance(kind, s, gen.lp.matrix(), gen.lp.offsets(),
                                 gen.certificate, objective))
    return pool


def lp_text(inst: Instance) -> str:
    """The instance in the LP file format read by `gutterlp.cli.parse_lp`."""
    lines = [f"vars {inst.kind.n}"]
    if inst.objective is not None:
        direction, c = inst.objective
        lines.append(f"objective {direction} " + " ".join(repr(float(x)) for x in c))
    for a, b in zip(inst.normals, inst.offsets):
        lines.append("c " + " ".join(repr(float(x)) for x in a) + " >= " + repr(float(b)))
    return "\n".join(lines) + "\n"


def build_lp(inst: Instance) -> LinearProgram:
    objective = None
    if inst.objective is not None:
        direction, c = inst.objective
        objective = Objective(Direction(direction), c)
    return LinearProgram.from_arrays(inst.normals, inst.offsets, objective=objective)


def build_inputs(workload: Workload, pool: list[Instance]) -> list:
    """Solver inputs for the pool: LP text, or programs built from the arrays."""
    if workload.text:
        return [lp_text(inst) for inst in pool]
    return [build_lp(inst) for inst in pool]
