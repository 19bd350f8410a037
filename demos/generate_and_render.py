"""Generate a certified random instance, solve it, and render the walk as SVG.

Writes demo_instance.lp, demo_instance.lp.cert.json and demo_walk.svg into the
current directory. The certificate point is a guaranteed interior point, so
the solver's verdict can be checked without trusting the solver.
"""
import json
import numpy as np

from gutterlp import SolverConfig, check_point, solve_feasibility
from gutterlp import cli, testkit

instance = testkit.gen_feasible(n=2, m=7, slack=0.15, seed=20)
print("certificate interior point:", instance.certificate.point,
      "slack:", instance.certificate.slack)

doc = cli.LpFileDocument(
    dimension=2,
    objective=None,
    rows=tuple((tuple(a), ">=", offset)
               for a, offset in zip(instance.lp.A.tolist(), instance.lp.b.tolist())),
)
with open("demo_instance.lp", "w", encoding="utf-8") as handle:
    handle.write(cli.serialize_lp(doc))
with open("demo_instance.lp.cert.json", "w", encoding="utf-8") as handle:
    json.dump({"kind": "feasible_interior",
               "point": [float(x) for x in instance.certificate.point],
               "slack": instance.certificate.slack}, handle)

events = []
result = solve_feasibility(instance.lp, SolverConfig(epsilon=0.01),
                           trace=events.append)
print("verdict:", result.verdict.value, " point:", np.round(result.point, 5))
print("witness verified independently:", check_point(instance.lp, result.point))

trajectory = [np.asarray(ev.p0) for ev in events]
with open("demo_walk.svg", "w", encoding="utf-8") as handle:
    handle.write(cli.render_svg(instance.lp, trajectory, result))
print("wrote demo_instance.lp, demo_instance.lp.cert.json, demo_walk.svg")

problems = testkit.check_trace(instance.lp, events, epsilon=0.01)
print("trace checker violations:", problems or "none")
