"""What happens when the ball does not fit: shrinking and equality pinning.

A steep wedge whose apex sits near the violated plane. Depending on where that
plane cuts the wedge, the solver shrinks the ball to squeeze through, pins the
touching planes as equalities (non-full-dimensional region), or proves the
region empty.
"""
import numpy as np

from gutterlp import LinearProgram, SolverConfig, solve_feasibility

WALL = np.sqrt(17.0)
ROWS = np.array([[-4.0 / WALL, 1.0 / WALL],   # left wall of the wedge
                 [4.0 / WALL, 1.0 / WALL],    # right wall
                 [0.0, -1.0]])                # the plane to reach: y <= h
START = np.array([0.2, 1.0])


def run(h, label):
    lp = LinearProgram.from_arrays(ROWS, np.array([0.0, 0.0, -h]))
    events = []
    result = solve_feasibility(lp, SolverConfig(epsilon=0.01),
                               start=START, trace=events.append)
    print(f"{label} (h = {h}):")
    print(f"  verdict {result.verdict.value}, final ball radius {result.epsilon_final:.6f}")
    for ev in events:
        if ev.kind.value in ("SHRINK_BALL", "EQUALITY_SWITCH", "GUTTER_FULL"):
            print(f"    {ev.kind.value:<16} {ev.detail}")
    if result.point is not None:
        print(f"  point {np.round(result.point, 6)}, wall distances "
              f"{np.round(lp.A[:2] @ result.point - lp.b[:2], 6).tolist()}")
    print()


run(0.02, "ball too big for the gap, shrink and pass")
run(0.0, "plane through the apex, switch to equalities")
run(-0.02, "plane below the apex, provably empty")
