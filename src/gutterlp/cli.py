"""Command-line front end: LP file parsing, solve/gen/oracle/bench, traces, SVG.

LP file format (line oriented, '#' starts a comment):

    vars <n>
    objective <min|max> <c1> ... <cn>     # optional
    c <a1> ... <an> <op> <b>              # op in {>=, >, =, <=, <}

LE/LT rows are negated into GE/GT when building the program, so the solver
only ever sees {>=, >, =}.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import stat
import sys
import time
from contextlib import ExitStack
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .model import (
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
from .solver import TraceEvent, solve_feasibility, solve_optimum
from . import testkit

EXIT_FEASIBLE = 0
EXIT_INFEASIBLE = 1
EXIT_UNBOUNDED = 2
EXIT_STALLED = 3
EXIT_USAGE = 64
EXIT_DATA = 65
EXIT_NOINPUT = 66
EXIT_CANTCREAT = 73

_VERDICT_EXIT = {
    Verdict.FEASIBLE: EXIT_FEASIBLE,
    Verdict.OPTIMAL: EXIT_FEASIBLE,
    Verdict.INFEASIBLE: EXIT_INFEASIBLE,
    Verdict.UNBOUNDED: EXIT_UNBOUNDED,
    Verdict.STALLED: EXIT_STALLED,
}

_FLIP_OPS = {"<=": ">=", "<": ">"}
_SENSE_BY_OP = {">=": Sense.GE, ">": Sense.GT, "=": Sense.EQ}


class LpFormatError(ValueError):
    def __init__(self, line_no: int, message: str):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


@dataclass(frozen=True)
class LpFileDocument:
    """Parsed file content, kept raw so serialize/parse round-trips exactly."""

    dimension: int
    objective: Optional[tuple[str, tuple[float, ...]]]
    rows: tuple[tuple[tuple[float, ...], str, float], ...]


def parse_lp_document(text: str) -> LpFileDocument:
    dimension: Optional[int] = None
    objective: Optional[tuple[str, tuple[float, ...]]] = None
    rows: list[tuple[tuple[float, ...], str, float]] = []

    for line_no, line in enumerate(text.splitlines(), start=1):
        if "#" in line:
            line = line[:line.index("#")]
        tokens = line.split()
        if not tokens:
            continue
        keyword = tokens[0].lower()

        if keyword == "vars":
            if dimension is not None:
                raise LpFormatError(line_no, "duplicate vars line")
            if len(tokens) != 2:
                raise LpFormatError(line_no, "expected: vars <n>")
            try:
                dimension = int(tokens[1])
            except ValueError:
                raise LpFormatError(line_no, f"bad variable count {tokens[1]!r}") from None
            if dimension < 1:
                raise LpFormatError(line_no, "variable count must be positive")
            continue

        if dimension is None:
            raise LpFormatError(line_no, "vars line must come first")

        if keyword == "objective":
            if objective is not None:
                raise LpFormatError(line_no, "duplicate objective line")
            if len(tokens) != 2 + dimension:
                raise LpFormatError(line_no, f"expected {dimension} objective coefficients")
            sense = tokens[1].lower()
            if sense not in ("min", "max"):
                raise LpFormatError(line_no, "objective direction must be min or max")
            try:
                coeffs = tuple(map(float, tokens[2:]))
            except ValueError:
                raise LpFormatError(line_no, "bad objective coefficient") from None
            objective = (sense, coeffs)
            continue

        if keyword == "c":
            if len(tokens) != 3 + dimension:
                raise LpFormatError(
                    line_no, f"expected {dimension} coefficients, an operator, and a bound")
            op = tokens[1 + dimension]
            if op not in (">=", ">", "=", "<=", "<"):
                raise LpFormatError(line_no, f"unknown operator {op!r}")
            try:
                coeffs = tuple(map(float, tokens[1:1 + dimension]))
                rhs = float(tokens[2 + dimension])
            except ValueError:
                raise LpFormatError(line_no, "bad numeric value") from None
            rows.append((coeffs, op, rhs))
            continue

        raise LpFormatError(line_no, f"unknown directive {tokens[0]!r}")

    if dimension is None:
        raise LpFormatError(0, "missing vars line")
    if not rows:
        raise LpFormatError(0, "no constraints")
    return LpFileDocument(dimension, objective, tuple(rows))


def serialize_lp(doc: LpFileDocument) -> str:
    lines = [f"vars {doc.dimension}"]
    if doc.objective is not None:
        sense, coeffs = doc.objective
        lines.append("objective " + sense + " " + " ".join(repr(x) for x in coeffs))
    for coeffs, op, rhs in doc.rows:
        lines.append("c " + " ".join(repr(x) for x in coeffs) + f" {op} " + repr(rhs))
    return "\n".join(lines) + "\n"


def document_to_lp(doc: LpFileDocument, geom_tol: float = 1e-9) -> LinearProgram:
    """The document's program, LE/LT rows negated into GE/GT and every row normalized."""
    rows = doc.rows
    # one flat list converts faster than a list of row tuples
    normals = np.array([x for coeffs, _, _ in rows for x in coeffs], dtype=float)
    normals = normals.reshape(len(rows), doc.dimension)
    offsets = np.array([rhs for _, _, rhs in rows], dtype=float)
    ops = [op for _, op, _ in rows]
    senses = None
    if ops.count(">=") != len(ops):
        flipped = [k for k, op in enumerate(ops) if op in _FLIP_OPS]
        if flipped:
            # negation is exact, so flipping in place gives the bits of negating each row
            normals[flipped] *= -1.0
            offsets[flipped] *= -1.0
        senses = [_SENSE_BY_OP[_FLIP_OPS.get(op, op)] for op in ops]
    objective = None
    if doc.objective is not None:
        direction = Direction.MIN if doc.objective[0] == "min" else Direction.MAX
        objective = Objective(direction, doc.objective[1])
    lp = LinearProgram.from_arrays(normals, offsets, senses, objective)
    return normalize(lp, geom_tol)


def parse_lp(text: str) -> LinearProgram:
    """Parse the LP file format into a normalized program.

    The program is normalized here, once: the solve functions give it back
    unchanged from their own normalize, so it solves bit for bit like the
    same rows passed to `LinearProgram.from_arrays`.
    """
    return document_to_lp(parse_lp_document(text))


def _result_record(result: SolveResult) -> str:
    return json.dumps({
        "verdict": result.verdict.value,
        "point": None if result.point is None else [float(x) for x in result.point],
        "objective": None if result.objective_value is None else float(result.objective_value),
        "iterations": result.iterations,
        "epsilon_final": float(result.epsilon_final),
        "diagnostics": list(result.diagnostics),
    })


def _event_record(event: TraceEvent) -> str:
    return json.dumps({
        "iteration": event.iteration,
        "kind": event.kind.value,
        "p0": list(event.p0),
        "dir": list(event.dir),
        "gutter": list(event.gutter_indices),
        "detail": event.detail,
    })


def _read_file(path: str) -> str:
    # utf-8-sig drops a leading byte-order mark, which some editors write
    with open(path, "r", encoding="utf-8-sig") as handle:
        return handle.read()


def _build_config(args) -> SolverConfig:
    kwargs = {}
    if args.epsilon is not None:
        kwargs["epsilon"] = args.epsilon
    if args.feas_tol is not None:
        kwargs["feas_tol"] = args.feas_tol
    if args.geom_tol is not None:
        kwargs["geom_tol"] = args.geom_tol
    if args.max_iter is not None:
        kwargs["max_iters"] = args.max_iter
    return SolverConfig(**kwargs)


def _open_outputs(outputs: ExitStack, *paths: Optional[str]) -> list:
    """One file per path (None for none), truncated only once all are open, so a failed open
    leaves every existing output as it was; a device or pipe is never truncated."""
    files = [outputs.enter_context(open(path, "a", encoding="utf-8")) if path else None
             for path in paths]
    for handle in files:
        if handle is not None and stat.S_ISREG(os.fstat(handle.fileno()).st_mode):
            handle.truncate(0)
    return files


def run_solve(args) -> int:
    try:
        text = _read_file(args.file)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOINPUT
    except UnicodeDecodeError as exc:
        print(f"error: {args.file}: not UTF-8 text ({exc})", file=sys.stderr)
        return EXIT_DATA
    try:
        lp = parse_lp(text)
    except (LpFormatError, ZeroNormalError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA

    if args.svg and lp.dimension != 2:
        print("error: --svg requires a 2-variable program", file=sys.stderr)
        return EXIT_USAGE
    if args.phase == "optimize" and lp.objective is None:
        print("error: --phase optimize requires an objective line", file=sys.stderr)
        return EXIT_USAGE

    start = None
    if args.start:
        try:
            start = np.array([float(tok) for tok in args.start.split(",")])
        except ValueError:
            print(f"error: bad --start value {args.start!r}", file=sys.stderr)
            return EXIT_USAGE
        if start.shape[0] != lp.dimension:
            print("error: --start length does not match vars", file=sys.stderr)
            return EXIT_USAGE
        if not np.all(np.isfinite(start)):
            print(f"error: --start values must be finite, got {args.start!r}", file=sys.stderr)
            return EXIT_USAGE

    try:
        config = _build_config(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    events: list[TraceEvent] = []
    with ExitStack() as outputs:
        # both outputs are opened before solving, so a bad path costs no solve
        try:
            trace_file, svg_file = _open_outputs(outputs, args.trace, args.svg)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_CANTCREAT

        def sink(event: TraceEvent) -> None:
            if trace_file is not None:
                trace_file.write(_event_record(event) + "\n")
            if svg_file is not None:
                events.append(event)

        use_sink = sink if (trace_file is not None or svg_file is not None) else None
        if args.phase == "optimize":
            result = solve_optimum(lp, config, start=start, trace=use_sink)
        else:
            result = solve_feasibility(lp, config, start=start, trace=use_sink)

        if svg_file is not None:
            trajectory = [np.asarray(ev.p0) for ev in events]
            if start is not None:
                trajectory.insert(0, start)
            svg_file.write(render_svg(lp, trajectory, result))

    print(_result_record(result))
    return _VERDICT_EXIT[result.verdict]


def run_gen(args) -> int:
    if args.output is None:
        print("error: gen requires -o/--output", file=sys.stderr)
        return EXIT_USAGE
    if args.feasible == args.infeasible:
        print("error: choose exactly one of --feasible/--infeasible", file=sys.stderr)
        return EXIT_USAGE
    try:
        instance, cert = _generate(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    doc = LpFileDocument(
        dimension=instance.lp.dimension,
        objective=None,
        rows=tuple(
            (tuple(a), ">=", offset)
            for a, offset in zip(instance.lp.A.tolist(), instance.lp.b.tolist())
        ),
    )
    with ExitStack() as outputs:
        # a bad size is reported before any file exists, a bad path before either is written
        try:
            lp_file, cert_file = _open_outputs(outputs, args.output, args.output + ".cert.json")
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_CANTCREAT
        lp_file.write(serialize_lp(doc))
        json.dump(cert, cert_file)
        cert_file.write("\n")
    print(json.dumps({"written": args.output, "certificate": args.output + ".cert.json"}))
    return 0


def _generate(args):
    """The instance `gen` asked for and its certificate record; ValueError on bad sizes."""
    if args.feasible:
        instance = testkit.gen_feasible(args.n, args.m, args.slack, args.seed)
        return instance, {
            "kind": "feasible_interior",
            "point": [float(x) for x in instance.certificate.point],
            "slack": instance.certificate.slack,
            "seed": instance.seed,
        }
    instance = testkit.gen_infeasible(args.n, args.m, args.seed)
    return instance, {
        "kind": "infeasible_pair",
        "index_a": instance.certificate.index_a,
        "index_b": instance.certificate.index_b,
        "seed": instance.seed,
    }


def run_oracle(args) -> int:
    try:
        text = _read_file(args.file)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOINPUT
    except UnicodeDecodeError as exc:
        print(f"error: {args.file}: not UTF-8 text ({exc})", file=sys.stderr)
        return EXIT_DATA
    try:
        lp = parse_lp(text)
        verdict = testkit.oracle_solve(lp, bound=args.bound)
    except (LpFormatError, ZeroNormalError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    print(json.dumps({
        "verdict": verdict.verdict.value,
        "point": None if verdict.point is None else [float(x) for x in verdict.point],
        "objective": None if verdict.value is None else float(verdict.value),
    }))
    return _VERDICT_EXIT[verdict.verdict]


def _parse_seed_range(spec: str) -> list[int]:
    """The seeds of "N" or "A..B"; ValueError when malformed or when B < A."""
    if ".." in spec:
        lo, hi = spec.split("..", 1)
        seeds = list(range(int(lo), int(hi) + 1))
        if not seeds:
            raise ValueError("empty seed range")
        return seeds
    return [int(spec)]


def run_bench(args) -> int:
    if args.feasible == args.infeasible:
        print("error: choose exactly one of --feasible/--infeasible", file=sys.stderr)
        return EXIT_USAGE
    try:
        seeds = _parse_seed_range(args.seeds)
    except ValueError:
        print(f"error: bad --seeds value {args.seeds!r}", file=sys.stderr)
        return EXIT_USAGE

    try:
        config = SolverConfig(epsilon=args.epsilon) if args.epsilon is not None else SolverConfig()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    counts = {"instances": 0, "feasible": 0, "infeasible": 0, "stalled": 0,
              "disagreements": 0, "unsound": 0}
    t_start = time.perf_counter()

    for seed in seeds:
        try:
            if args.feasible:
                instance = testkit.gen_feasible(args.n, args.m, args.slack, seed)
            else:
                instance = testkit.gen_infeasible(args.n, args.m, seed)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        events: list[TraceEvent] = []
        t0 = time.perf_counter()
        result = solve_feasibility(instance.lp, config, trace=events.append)
        elapsed = time.perf_counter() - t0
        expected = (Verdict.FEASIBLE if isinstance(instance.certificate, testkit.FeasibleInterior)
                    else Verdict.INFEASIBLE)

        sound = True
        if result.verdict is Verdict.FEASIBLE:
            sound = check_point(instance.lp, result.point, config.feas_tol)
        trace_problems = testkit.check_trace(instance.lp, events, config.epsilon,
                                             config.feas_tol)
        if trace_problems:
            sound = False
        agree = result.verdict is expected

        counts["instances"] += 1
        if result.verdict is Verdict.FEASIBLE:
            counts["feasible"] += 1
        elif result.verdict is Verdict.INFEASIBLE:
            counts["infeasible"] += 1
        else:
            counts["stalled"] += 1
        if not agree:
            counts["disagreements"] += 1
        if not sound:
            counts["unsound"] += 1

        print(json.dumps({
            "seed": seed,
            "verdict": result.verdict.value,
            "expected": expected.value,
            "agree": agree,
            "sound": sound,
            "iterations": result.iterations,
            "solve_ms": round(elapsed * 1000.0, 3),
        }))

    counts["total_ms"] = round((time.perf_counter() - t_start) * 1000.0, 3)
    print(json.dumps(counts))
    return 0 if counts["unsound"] == 0 else 1


def _clip_halfplane(polygon: list[np.ndarray], normal: np.ndarray,
                    offset: float) -> list[np.ndarray]:
    """Keep the part of the polygon with normal . x - offset >= 0."""
    if not polygon:
        return []
    out: list[np.ndarray] = []
    count = len(polygon)
    for k in range(count):
        cur, nxt = polygon[k], polygon[(k + 1) % count]
        d_cur = float(normal @ cur - offset)
        d_nxt = float(normal @ nxt - offset)
        if d_cur >= 0:
            out.append(cur)
        if (d_cur >= 0) != (d_nxt >= 0):
            t = d_cur / (d_cur - d_nxt)
            out.append(cur + t * (nxt - cur))
    return out


def render_svg(lp: LinearProgram, trajectory: list[np.ndarray],
               result: SolveResult, size: int = 640) -> str:
    """Constraint lines, feasible half-plane shading, and the center trajectory (n=2)."""
    points = [np.asarray(p, dtype=float) for p in trajectory]
    if result.point is not None:
        points.append(np.asarray(result.point))
    if not points:
        points = [np.zeros(2)]
    stack = np.stack(points)
    lo = stack.min(axis=0)
    hi = stack.max(axis=0)
    span = float(max(np.max(hi - lo), 1.0))
    lo = lo - 0.35 * span
    hi = hi + 0.35 * span
    span_x, span_y = float(hi[0] - lo[0]), float(hi[1] - lo[1])
    scale = size / max(span_x, span_y)

    def to_px(p: np.ndarray) -> tuple[float, float]:
        return (float((p[0] - lo[0]) * scale), float(size - (p[1] - lo[1]) * scale))

    corners = [np.array([lo[0], lo[1]]), np.array([hi[0], lo[1]]),
               np.array([hi[0], hi[1]]), np.array([lo[0], hi[1]])]

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
    ]

    on_line = 1e-9 * max(1.0, span)   # distance that counts as on a constraint line
    feasible_poly = list(corners)
    for normal, offset, sense in zip(lp.A, lp.b, lp.senses):
        feasible_poly = _clip_halfplane(feasible_poly, normal, offset)
        if sense is Sense.EQ:
            # the other side too, keeping the vertices that rounding puts just past the line
            feasible_poly = _clip_halfplane(feasible_poly, -normal, -offset - on_line)
    if feasible_poly:
        pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in (to_px(p) for p in feasible_poly))
        parts.append(f'<polygon points="{pts}" fill="rgb(70,160,90)" fill-opacity="0.25"/>')

    for idx, (normal, offset) in enumerate(zip(lp.A, lp.b)):
        half = _clip_halfplane(list(corners), normal, offset)
        if half:
            pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in (to_px(p) for p in half))
            parts.append(f'<polygon points="{pts}" fill="rgb(90,120,200)" fill-opacity="0.05"/>')
        boundary = [p for p in half if abs(float(normal @ p - offset)) < on_line]
        if len(boundary) >= 2:
            (x1, y1), (x2, y2) = to_px(boundary[0]), to_px(boundary[1])
            parts.append(
                f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}" '
                f'stroke="rgb(60,80,160)" stroke-width="1.2"/>')
            parts.append(
                f'<text x="{(x1 + x2) / 2:.2f}" y="{(y1 + y2) / 2 - 4:.2f}" '
                f'font-size="11" fill="rgb(60,80,160)">c{idx}</text>')

    if len(trajectory) >= 2:
        pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in (to_px(np.asarray(p)) for p in trajectory))
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="rgb(200,60,40)" stroke-width="1.6"/>')
    for k, p in enumerate(trajectory):
        x, y = to_px(np.asarray(p))
        color = "rgb(30,140,40)" if k == 0 else "rgb(200,60,40)"
        parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="2.5" fill="{color}"/>')
    if result.point is not None:
        x, y = to_px(np.asarray(result.point))
        parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="4" fill="none" '
                     f'stroke="rgb(30,140,40)" stroke-width="2"/>')
    parts.append(f'<text x="8" y="16" font-size="12" fill="black">{result.verdict.value}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _add_solver_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--epsilon", type=float, default=None, help="ball radius")
    parser.add_argument("--feas-tol", type=float, default=None, dest="feas_tol")
    parser.add_argument("--geom-tol", type=float, default=None, dest="geom_tol")
    parser.add_argument("--max-iter", type=int, default=None, dest="max_iter",
                        help="cap on both the outer cycles and the inner steps of each cycle")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gutterlp",
                                     description="Geometric direction-search LP solver")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve an LP file")
    p_solve.add_argument("file")
    _add_solver_flags(p_solve)
    p_solve.add_argument("--phase", choices=["feasibility", "optimize"], default="feasibility")
    p_solve.add_argument("--start", default=None,
                         help="comma-separated start point, e.g. --start -1,2 or --start=-1,2")
    p_solve.add_argument("--trace", default=None, help="write JSONL trace to PATH")
    p_solve.add_argument("--svg", default=None, help="write an SVG trajectory (n=2 only)")
    p_solve.set_defaults(func=run_solve)

    p_gen = sub.add_parser("gen", help="generate a certified random instance")
    p_gen.add_argument("--feasible", action="store_true")
    p_gen.add_argument("--infeasible", action="store_true")
    p_gen.add_argument("-n", type=int, default=3)
    p_gen.add_argument("-m", type=int, default=8)
    p_gen.add_argument("--slack", type=float, default=0.1)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("-o", "--output", default=None)
    p_gen.set_defaults(func=run_gen)

    p_oracle = sub.add_parser("oracle", help="brute-force verdict for an LP file")
    p_oracle.add_argument("file")
    p_oracle.add_argument("--bound", type=float, default=100.0)
    p_oracle.set_defaults(func=run_oracle)

    p_bench = sub.add_parser("bench", help="solver vs generator certificate over a seeded batch")
    p_bench.add_argument("--seeds", default="1..10", help="N or A..B")
    p_bench.add_argument("--feasible", action="store_true")
    p_bench.add_argument("--infeasible", action="store_true")
    p_bench.add_argument("-n", type=int, default=3)
    p_bench.add_argument("-m", type=int, default=8)
    p_bench.add_argument("--slack", type=float, default=0.1)
    p_bench.add_argument("--epsilon", type=float, default=None)
    p_bench.set_defaults(func=run_bench)

    return parser


_NUMBER_LIST = re.compile(r"-[0-9.]")


def _join_start_values(argv: Sequence[str]) -> list[str]:
    """Rewrite `--start -1,2` as `--start=-1,2`.

    argparse takes a value that starts with '-' and is not a single number
    for an option, so a start point whose first coordinate is negative would
    be refused. A value that starts with '-' and a digit or '.' cannot be an
    option of this parser.
    """
    out: list[str] = []
    args = iter(argv)
    for arg in args:
        if arg == "--":
            out.append(arg)
            out.extend(args)
            break
        if arg == "--start":
            value = next(args, None)
            if value is not None and _NUMBER_LIST.match(value):
                out.append(f"--start={value}")
                continue
            out.append(arg)
            if value is not None:
                out.append(value)
            continue
        out.append(arg)
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    argv = _join_start_values(sys.argv[1:] if argv is None else argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
