"""Per-layer tracing from the benchmark's side of the package boundary.

`Tracer.installed()` wraps functions, methods and classes of `gutterlp` for the
duration of a `with` block and restores every original afterwards. A function
is replaced under every module name it is bound to (the solver imports
`signed_distance`, `normalize` and friends by name), so the wrapper sees each
call wherever the caller looks the name up. A wrapped name that no longer
exists is recorded in `absent` and skipped.

Timed names record a span (solve id, span id, parent span id, name, start,
end); hot leaf names and classes are only counted, so their time stays in the
caller's self time. Nothing is recorded outside `Tracer.solve()`.
"""
from __future__ import annotations

import importlib
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

SPAN, COUNT, CLASS = "span", "count", "class"
_MISSING = object()

# (metric prefix, module, attribute path, how)
TARGETS = (
    ("solver.resolve_constraint", "gutterlp.solver", "resolve_constraint", SPAN),
    ("solver.slide_direction", "gutterlp.solver", "_slide_direction", SPAN),
    ("solver.repair_or_conclude", "gutterlp.solver", "repair_or_conclude", SPAN),
    ("geometry.signed_distance", "gutterlp.geometry", "signed_distance", COUNT),
    ("geometry.Ray", "gutterlp.geometry", "Ray", CLASS),
    ("geometry.project_onto_intersection", "gutterlp.geometry", "project_onto_intersection", SPAN),
    ("gram.append_row", "gutterlp.gram", "GutterBasis.append_row", SPAN),
    ("gram.correction", "gutterlp.gram", "GutterBasis.correction", SPAN),
    ("gram.normals_matrix", "gutterlp.gram", "GutterBasis.normals_matrix", COUNT),
    ("model.normalize", "gutterlp.model", "normalize", SPAN),
    ("model.check_point", "gutterlp.model", "check_point", SPAN),
    ("model.Constraint", "gutterlp.model", "Constraint", CLASS),
    ("model.LinearProgram", "gutterlp.model", "LinearProgram", CLASS),
    ("cli.parse_lp", "gutterlp.cli", "parse_lp", SPAN),
)

EVENT_KINDS = ("SELECT_TARGET", "MOVE", "RESOLVED", "OBSTACLE_BACKOFF", "GUTTER_APPEND",
               "GUTTER_SKIP_DEGENERATE", "SHRINK_BALL", "EQUALITY_SWITCH", "STALL",
               "GUTTER_FULL", "M_ESCALATION")


def _lookup(module: str, path: str):
    """(owner, attribute, object) for a dotted path, or None when it does not exist."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    obj = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    return None if obj is None else (owner, attr, obj)


class Tracer:
    def __init__(self):
        self.absent: list[str] = []
        self.counts: Counter = Counter()     # counters summed over every traced solve
        self.depths: list[int] = []          # gutter rows when each resolve cycle ends
        self.spans: list[tuple] = []         # spans of the current pass, see fold_spans()
        self.solves = 0
        self._solve_id = None
        self._m = 0
        self._stack: list[int] = []
        self._next_span = 0
        self._undo: list[tuple] = []

    # ---- installing and removing the wrappers -------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, value)

    @contextmanager
    def installed(self):
        self.absent = []
        try:
            for metric, module, path, how in TARGETS:
                found = _lookup(module, path)
                if found is None:
                    self.absent.append(metric)
                    continue
                owner, attr, obj = found
                if how == CLASS:
                    self._set(obj, "__init__", self._counted(metric + ".count", obj.__init__))
                    continue
                wrapper = (self._spanned(metric, obj) if how == SPAN
                           else self._counted(metric + ".calls", obj))
                if isinstance(owner, type):
                    self._set(owner, attr, wrapper)
                    continue
                for mod in list(sys.modules.values()):
                    name = getattr(mod, "__name__", "")
                    if name != "gutterlp" and not name.startswith("gutterlp."):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is obj:
                            self._set(mod, key, wrapper)
            yield self
        finally:
            while self._undo:
                owner, attr, old = self._undo.pop()
                if old is _MISSING:
                    delattr(owner, attr)
                else:
                    setattr(owner, attr, old)

    def _counted(self, key, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            if self._solve_id is not None:
                counts[key] += 1
            return fn(*args, **kwargs)
        return counted

    def _spanned(self, metric, fn):
        observe = {"solver.resolve_constraint": self._observe_resolve,
                   "gram.append_row": self._observe_append}.get(metric)

        def spanned(*args, **kwargs):
            if self._solve_id is None:
                return fn(*args, **kwargs)
            parent = self._stack[-1]
            span = self._next_span
            self._next_span += 1
            self._stack.append(span)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append((self._solve_id, span, parent, metric, start, end))
            if observe is not None:
                observe(args, result)
            return result
        return spanned

    def _observe_resolve(self, args, result):
        outcome = result[0] if isinstance(result, tuple) else result
        if getattr(outcome, "name", None) == "RESOLVED":
            self.counts["solver.resolve_constraint.resolved"] += 1
        lp, state = (args + (None, None))[:2]
        gutter = getattr(state, "gutter", None)
        if gutter is not None:
            self.depths.append(gutter.size)
        # phase II resolves an artificial objective row appended to the program
        if getattr(lp, "num_constraints", 0) > self._m:
            self.counts["solver.phase2_cycles"] += 1
        else:
            self.counts["solver.outer_iters"] += 1

    def _observe_append(self, args, result):
        if result is True:
            self.counts["gram.append_row.accepted"] += 1

    # ---- one traced solve -----------------------------------------------------

    @contextmanager
    def solve(self, solve_id: int, num_constraints: int):
        """Root span of one timed operation; `num_constraints` is the instance's m."""
        self._solve_id, self._m = solve_id, num_constraints
        root = self._next_span
        self._next_span += 1
        self._stack = [root]
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self.spans.append((solve_id, root, None, "solve", start, end))
            self._solve_id = None
            self._stack = []
            self.solves += 1

    def sink(self, event) -> None:
        """Trace sink passed to the solver: counts events by kind."""
        self.counts["solver.events." + event.kind.name] += 1

    def fold_spans(self, totals: dict) -> None:
        """Add this pass's spans to totals[name] = [calls, seconds, self seconds]; clear them."""
        child = defaultdict(float)
        for _, _, parent, _, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        for _, span, _, name, start, end in self.spans:
            entry = totals.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - child[span]
        self.spans = []


def layer_metrics(tracer: Tracer, totals: dict) -> dict[str, tuple[float, str]]:
    """Per-solve layer metrics from the counters and folded span totals."""
    solves = max(tracer.solves, 1)
    out: dict[str, tuple[float, str]] = {}
    for metric, _, _, how in TARGETS:
        if how == SPAN:
            calls, secs, self_secs = totals.get(metric, (0, 0.0, 0.0))
            out[metric + ".calls"] = (calls / solves, "1/solve")
            out[metric + ".s"] = (secs / solves, "s/solve")
            out[metric + ".self_s"] = (self_secs / solves, "s/solve")
        elif how == COUNT:
            out[metric + ".calls"] = (tracer.counts[metric + ".calls"] / solves, "1/solve")
        else:
            out[metric + ".count"] = (tracer.counts[metric + ".count"] / solves, "1/solve")
    c = tracer.counts
    resolves = totals.get("solver.resolve_constraint", (0,))[0]
    appends = totals.get("gram.append_row", (0,))[0]
    out["solver.resolve_constraint.resolved_frac"] = (
        c["solver.resolve_constraint.resolved"] / resolves if resolves else 0.0, "ratio")
    out["gram.append_row.accept_frac"] = (
        c["gram.append_row.accepted"] / appends if appends else 0.0, "ratio")
    out["gram.depth.mean"] = (
        sum(tracer.depths) / len(tracer.depths) if tracer.depths else 0.0, "rows")
    out["gram.depth.max"] = (float(max(tracer.depths, default=0)), "rows")
    for key in ("solver.inner_iters", "solver.outer_iters", "solver.phase2_cycles"):
        out[key] = (c[key] / solves, "1/solve")
    for kind in EVENT_KINDS:
        out["solver.events." + kind] = (c["solver.events." + kind] / solves, "1/solve")
    return out
