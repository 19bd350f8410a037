"""gutterlp: LP feasibility and optimum search by geometric direction search.

An epsilon-ball is moved through n-space to satisfy violated linear
constraints one at a time, sliding along "gutters" of touching planes via
least-squares projections onto their intersections.
"""

from .model import (
    DimensionMismatchError,
    Direction,
    LinearProgram,
    Objective,
    Sense,
    SolveResult,
    SolverConfig,
    Verdict,
    ZeroNormalError,
    check_point,
    normalize,
)
from .geometry import project_onto_intersection
from .gram import DegenerateBasisError, DuplicateIndexError, GutterBasis
from .solver import (
    EventKind,
    InconsistentEqualityError,
    SolverState,
    TraceEvent,
    initial_point,
    resolve_constraint,
    repair_or_conclude,
    solve_feasibility,
    solve_optimum,
)

__version__ = "0.1.0"

__all__ = [
    "DegenerateBasisError",
    "DimensionMismatchError",
    "Direction",
    "DuplicateIndexError",
    "EventKind",
    "GutterBasis",
    "InconsistentEqualityError",
    "LinearProgram",
    "Objective",
    "Sense",
    "SolveResult",
    "SolverConfig",
    "SolverState",
    "TraceEvent",
    "Verdict",
    "ZeroNormalError",
    "check_point",
    "initial_point",
    "normalize",
    "project_onto_intersection",
    "repair_or_conclude",
    "resolve_constraint",
    "solve_feasibility",
    "solve_optimum",
]
