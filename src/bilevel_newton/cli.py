"""Command-line front end.

Modes:
    solve              one run at a fixed penalty
    sweep              run the default (or given) penalty grid and aggregate
    check-derivatives  finite-difference validation of a problem's derivatives
    diagnose           regularity report at a certified or computed point

Exit codes: 0 success/converged, 2 solver non-convergence, 1 usage or
evaluation errors.

``main`` can be called again in the same process: it parses with one parser
per process (``build_parser`` is cached) and reads the problems from the
shared registry, looking up ``get_entry`` and the mode functions when it
is called.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import sys

import numpy as np

from . import problem, reporting
from .problem import EvaluationError, check_derivatives
from .problems import BenchmarkEntry, get_entry, problem_names
from .regularity import InconsistentPoint, diagnose
from .solver import EVALUATION_FAILED, SOLVED, SolverConfig, run
from .sweep import DEFAULT_LAMBDA_GRID, SweepConfig, delta_metrics, resolve_start, sweep

MODES = ("solve", "sweep", "check-derivatives", "diagnose")
# the modes whose report has a CSV form; the others write JSON only
CSV_MODES = ("solve", "sweep")

# Every solver parameter but the penalty is a flag, named, typed and
# defaulted by its SolverConfig field.
_SOLVER_FIELDS = tuple(f for f in dataclasses.fields(SolverConfig) if f.name != "lam")


def _float_list(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated floats, got {text!r}") from exc


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing does not change it."""
    parser = argparse.ArgumentParser(
        prog="bilevel-newton",
        allow_abbrev=False,
        description="Semismooth Newton solver for optimistic bilevel programs "
                    "via value-function penalization.",
    )
    parser.add_argument("mode", choices=MODES, help=f"one of: {', '.join(MODES)}")
    parser.add_argument("--problem", required=True,
                        help=f"benchmark problem name; one of: {', '.join(problem_names())}")
    parser.add_argument("--lambda", dest="lam", type=float, default=1.0,
                        help="penalty parameter for solve/diagnose (default 1.0)")
    parser.add_argument("--lambda-grid", type=_float_list, default=None,
                        help="comma-separated penalties for sweep (default 0.5,1,...,128)")
    for field in _SOLVER_FIELDS:
        parser.add_argument("--" + field.name.replace("_", "-"), type=type(field.default), default=field.default)
    parser.add_argument("--x0", type=_float_list, default=None,
                        help="override the upper-level starting point (comma-separated)")
    parser.add_argument("--y0", type=_float_list, default=None,
                        help="override the lower-level starting point (comma-separated)")
    parser.add_argument("--out", default=None, help="output file (default: stdout)")
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    return parser


def _solver_config(args, lam: float) -> SolverConfig:
    return SolverConfig(lam=lam, **{f.name: getattr(args, f.name) for f in _SOLVER_FIELDS})


def _emit(text: str, out_path: str | None):
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w") as fh:
            fh.write(text)


def _cmd_solve(entry: BenchmarkEntry, args) -> int:
    report = run(entry.problem, _solver_config(args, args.lam), resolve_start(entry.problem, args.x0, args.y0))
    deltas = delta_metrics(report.F, report.f, entry.problem.known_F, entry.problem.known_f, entry.status)
    if args.format == "csv":
        _emit(reporting.solve_report_to_csv(report, deltas), args.out)
    else:
        _emit(reporting.to_json(reporting.solve_report_to_dict(report, deltas)), args.out)
    if report.status == SOLVED:
        return 0
    if report.status == EVALUATION_FAILED:
        print(f"error: {report.error}", file=sys.stderr)
        return 1
    print(f"solver did not converge: {report.status}", file=sys.stderr)
    return 2


def _cmd_sweep(entry: BenchmarkEntry, args) -> int:
    grid = DEFAULT_LAMBDA_GRID if args.lambda_grid is None else tuple(args.lambda_grid)
    # sweep gives each run its grid penalty; 1.0 only fills the template
    config = SweepConfig(lambda_grid=grid, base=_solver_config(args, 1.0))
    start = resolve_start(entry.problem, args.x0, args.y0)
    report = sweep(entry.problem, config, start=start, status_known=entry.status)
    if args.format == "csv":
        _emit(reporting.sweep_report_to_csv(report), args.out)
    else:
        _emit(reporting.to_json(reporting.sweep_report_to_dict(report)), args.out)
    if report.converged:
        return 0
    print("no penalty in the grid reached convergence", file=sys.stderr)
    return 2


def _cmd_check_derivatives(entry: BenchmarkEntry, args) -> int:
    d = entry.problem.dims
    rng = np.random.default_rng(20240801)
    points = [(rng.uniform(-2, 2, d.n), rng.uniform(-2, 2, d.m)) for _ in range(10)]
    report = check_derivatives(entry.problem, points)
    tree = {
        "problem": entry.problem.name,
        "passed": report.passed,
        "tolerance": problem.FD_TOL,
        "worst_error": report.worst,
        "gradient_errors": report.grad_errors,
        "hessian_errors": report.hess_errors,
        "num_points": len(points),
    }
    _emit(reporting.to_json(tree), args.out)
    return 0 if report.passed else 1


def _cmd_diagnose(entry: BenchmarkEntry, args) -> int:
    lam = args.lam
    zeta = None
    source = None
    for cp in entry.certified_points:
        if cp.admissible(lam):
            zeta = cp.build(lam)
            source = f"certified point ({cp.condition})"
            break
    if zeta is None:
        solve_report = run(entry.problem, _solver_config(args, lam), resolve_start(entry.problem, args.x0, args.y0))
        zeta = solve_report.final
        source = f"computed point (status {solve_report.status})"
    report = diagnose(entry.problem, zeta, lam)
    tree = {
        "problem": entry.problem.name,
        "lambda": lam,
        "point_source": source,
        "point": reporting.point_to_dict(zeta),
        "regularity": reporting.regularity_report_to_dict(report),
    }
    _emit(reporting.to_json(tree), args.out)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.format == "csv" and args.mode not in CSV_MODES:
            parser.error(f"--format csv is for {' and '.join(CSV_MODES)} only, not {args.mode}")
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1

    try:
        entry = get_entry(args.problem)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 1

    try:
        if args.mode == "solve":
            return _cmd_solve(entry, args)
        if args.mode == "sweep":
            return _cmd_sweep(entry, args)
        if args.mode == "check-derivatives":
            return _cmd_check_derivatives(entry, args)
        return _cmd_diagnose(entry, args)
    except (EvaluationError, InconsistentPoint, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
