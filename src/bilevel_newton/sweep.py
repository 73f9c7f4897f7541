"""Penalty-parameter sweep driver and solution-quality metrics.

The stationarity system depends on the penalty parameter, for which there
is no a-priori best value; the driver therefore runs the Newton iteration
over a grid of penalties (default 2^-1 .. 2^7), starts each run from the
same transformed starting point, picks the best converged run by
upper-level objective value, and reports normalized gaps against the best
known objective values where available.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .problem import BilevelProblem, evaluate_all
from .solver import SOLVED, SolveReport, SolverConfig, run
from .system import Iterate, valid_penalty

__all__ = [
    "DEFAULT_LAMBDA_GRID", "SweepConfig", "SweepReport", "DeltaMetrics",
    "delta_metrics", "resolve_start", "sweep",
]

DEFAULT_LAMBDA_GRID: tuple[float, ...] = tuple(float(2.0**k) for k in range(-1, 8))

KNOWN_STATUSES = ("optimal", "known", "unknown")


@dataclass(frozen=True)
class SweepConfig:
    """Grid of penalty values plus the per-run solver template."""

    lambda_grid: tuple[float, ...] = DEFAULT_LAMBDA_GRID
    base: SolverConfig = SolverConfig(lam=1.0)

    def __post_init__(self):
        if len(self.lambda_grid) == 0:
            raise ValueError("lambda grid must be non-empty")
        if not all(valid_penalty(lam) for lam in self.lambda_grid):
            raise ValueError("lambda grid entries must be finite and positive")


@dataclass(frozen=True)
class DeltaMetrics:
    """Normalized objective gaps against best known values."""

    delta_F: float | None
    delta_f: float | None
    delta: float | None


@dataclass
class SweepReport:
    problem: str
    lambda_grid: tuple[float, ...]
    runs: list[SolveReport]
    deltas: list[DeltaMetrics]
    converged: bool
    best_index: int
    best_lambda: float
    delta_star: float | None

    @property
    def best(self) -> SolveReport:
        return self.runs[self.best_index]


def delta_metrics(
    F_val: float,
    f_val: float,
    F_known: float | None,
    f_known: float | None,
    status_known: str,
) -> DeltaMetrics:
    """delta_F, delta_f and their combination delta.

    delta is the max of absolute gaps for status "optimal", the signed max
    for "known" (may be negative), and absent for "unknown".
    """
    if status_known not in KNOWN_STATUSES:
        raise ValueError(f"status_known must be one of {KNOWN_STATUSES}, got {status_known!r}")
    dF = None if F_known is None else (F_val - F_known) / max(1.0, abs(F_known))
    df = None if f_known is None else (f_val - f_known) / max(1.0, abs(f_known))
    if status_known == "unknown" or dF is None or df is None:
        return DeltaMetrics(delta_F=dF, delta_f=df, delta=None)
    if status_known == "optimal":
        return DeltaMetrics(delta_F=dF, delta_f=df, delta=max(abs(dF), abs(df)))
    return DeltaMetrics(delta_F=dF, delta_f=df, delta=max(dF, df))


def resolve_start(problem: BilevelProblem, x0=None, y0=None) -> Iterate:
    """The reference start: a primal point lifted to the full stacked variable.

    x0 and y0 override the primal start; each of them that is not given
    is all ones.  z starts at y0, multipliers at the absolute constraint
    values: u_i = |G_i(x0, y0)|, v_j = |g_j(x0, y0)|, w = v.  A start of
    the wrong length raises ValueError before anything is evaluated.
    """
    d = problem.dims
    x0 = np.ones(d.n) if x0 is None else np.asarray(x0, dtype=float)
    y0 = np.ones(d.m) if y0 is None else np.asarray(y0, dtype=float)
    for name, part, size, dim in (("x0", x0, d.n, "n"), ("y0", y0, d.m, "m")):
        if part.size != size:
            raise ValueError(f"{name} has length {part.size}, expected {dim} = {size}")
    bundle = evaluate_all(problem, x0, y0)
    v0 = np.abs(bundle.g)
    return Iterate.of(d, x0, y0, y0, np.abs(bundle.G), v0, v0)


def sweep(
    problem: BilevelProblem,
    config: SweepConfig | None = None,
    start: Iterate | None = None,
    status_known: str = "unknown",
) -> SweepReport:
    """Run the solver once per grid penalty and aggregate.

    The best run is the converged one with smallest upper-level objective;
    when no run converges, the one with smallest final residual norm is
    reported and the sweep is flagged as not converged.  Results are keyed
    to the grid order.
    """
    config = config if config is not None else SweepConfig()
    zeta0 = start if start is not None else resolve_start(problem)
    runs = [run(problem, dataclasses.replace(config.base, lam=lam), zeta0) for lam in config.lambda_grid]

    deltas = [
        delta_metrics(r.F, r.f, problem.known_F, problem.known_f, status_known)
        for r in runs
    ]

    solved = [i for i, r in enumerate(runs) if r.status == SOLVED]
    if solved:
        best_index = min(solved, key=lambda i: runs[i].F)
        converged = True
    else:
        best_index = min(range(len(runs)), key=lambda i: runs[i].final_residual_norm)
        converged = False

    available = [d.delta for d in deltas if d.delta is not None]
    delta_star = min(available) if available else None

    return SweepReport(
        problem=problem.name,
        lambda_grid=tuple(config.lambda_grid),
        runs=runs,
        deltas=deltas,
        converged=converged,
        best_index=best_index,
        best_lambda=config.lambda_grid[best_index],
        delta_star=delta_star,
    )
