"""Globalized semismooth Newton iteration on the stationarity system.

One run keeps the penalty parameter fixed and iterates

    step:        solve W d = -Phi for a selected generalized-Jacobian
                 element W; accept d only if the merit-descent test
                 grad_Psi . d <= -beta * ||d||^t holds, otherwise fall
                 back to the steepest-descent direction -grad_Psi;
    line search: Armijo backtracking with ratio rho and slope fraction
                 sigma on the merit function Psi = 0.5*||Phi||^2;
    update:      zeta <- zeta + alpha d,

until ||Phi|| <= eps, the iteration cap, a merit-stationary point, or a
stalled line search.

A line-search trial is staged.  It evaluates the follower point (x, z)
first, with f and g only; when the follower rows of Phi alone already put
Psi above the Armijo threshold merit0 + sigma*alpha*slope (with a proven
rounding margin), the trial is rejected without evaluating the leader
point (x, y).  Every other trial is assembled in full and tested exactly as
before, so iterates and step sizes do not depend on the staging.  A run's
final F and f come from the last leader evaluation.
"""
from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from .linalg import SingularMatrixError, lu_solve
from .problem import BilevelProblem, EvaluationError, evaluate_all
from .system import Iterate, ResidualVector, assemble_jacobian, assemble_residual, valid_penalty

SOLVED = "Solved"
MERIT_STATIONARY = "MeritStationary"
MAX_ITER = "MaxIter"
LINE_SEARCH_STALL = "LineSearchStall"
EVALUATION_FAILED = "EvaluationFailed"

NEWTON = "Newton"
GRADIENT = "Gradient"

# A point is merit-stationary when ||grad Psi|| <= GRAD_STALL_TOL.
GRAD_STALL_TOL = 1e-12
# A line search tries the steps rho**s for s = 0..MAX_BACKTRACKS, then stalls.
MAX_BACKTRACKS = 60


@dataclass(frozen=True)
class SolverConfig:
    """Algorithm parameters; defaults follow the reference protocol."""

    lam: float
    beta: float = 1e-8
    eps: float = 1e-8
    t: float = 2.1
    rho: float = 0.5
    sigma: float = 1e-4
    max_iter: int = 2000

    def __post_init__(self):
        for field in fields(self):
            value = getattr(self, field.name)
            if isinstance(value, numbers.Real) and not math.isfinite(value):
                raise ValueError(f"{field.name} must be finite, got {value}")
        checks = [
            (valid_penalty(self.lam), "lam must be finite and > 0"),
            (self.beta > 0, "beta must be > 0"),
            (self.eps >= 0, "eps must be >= 0"),
            (self.t > 2, "t must be > 2"),
            (0 < self.rho < 1, "rho must be in (0, 1)"),
            (0 < self.sigma < 0.5, "sigma must be in (0, 0.5)"),
            (self.max_iter >= 0, "max_iter must be >= 0"),
        ]
        for ok, msg in checks:
            if not ok:
                raise ValueError(msg)


@dataclass(frozen=True)
class StepRecord:
    """Per-iteration record handed to a run() callback (used for audits)."""

    k: int
    zeta: Iterate
    direction: np.ndarray
    direction_type: str
    slope: float
    merit_before: float
    alpha: float
    backtracks: int


@dataclass
class SolveReport:
    """Trace and outcome of one run at a fixed penalty."""

    problem: str
    lam: float
    status: str
    iterations: int
    residual_norms: list[float]
    step_sizes: list[float]
    direction_types: list[str]
    final: Iterate
    final_residual_norm: float
    F: float
    f: float
    eoc: float | None
    wall_time: float
    error: str | None = None


@dataclass(frozen=True)
class LineSearchResult:
    alpha: float
    backtracks: int
    zeta_next: Iterate
    residual_next: ResidualVector


def eoc(residual_norms: list[float]) -> float | None:
    """Experimental order of convergence from the last three residual norms.

    Returns the larger of the two successive log-norm ratios, None when the
    history is too short or no ratio is defined, and math.inf when one of
    the trailing norms is exactly zero (to be presented as "exact").
    """
    if len(residual_norms) < 3:
        return None
    tail = residual_norms[-3:]
    if any(nrm == 0.0 for nrm in tail):
        return math.inf
    ratios = []
    for prev, cur in ((tail[0], tail[1]), (tail[1], tail[2])):
        denom = math.log(prev)
        if denom != 0.0:
            ratios.append(math.log(cur) / denom)
    return max(ratios) if ratios else None


def _direction(
    config: SolverConfig, W: np.ndarray, resid_vec: np.ndarray, grad: np.ndarray
) -> tuple[np.ndarray, str]:
    try:
        d = lu_solve(W, -resid_vec)
    except SingularMatrixError:
        return -grad, GRADIENT
    if float(grad @ d) <= -config.beta * float(np.linalg.norm(d)) ** config.t:
        return d, NEWTON
    return -grad, GRADIENT


def _backtrack(
    problem: BilevelProblem,
    config: SolverConfig,
    zeta: Iterate,
    d: np.ndarray,
    merit0: float,
    slope: float,
) -> LineSearchResult | None:
    if slope >= 0:
        raise ValueError(f"line search needs a descent direction, slope={slope}")
    zeta_vec = zeta.to_vector()
    for s in range(MAX_BACKTRACKS + 1):
        alpha = config.rho**s
        trial = Iterate.from_vector(zeta_vec + alpha * d, problem.dims)
        threshold = merit0 + config.sigma * alpha * slope
        r_trial = assemble_residual(problem, config.lam, trial, merit_bound=threshold)
        if r_trial is not None and r_trial.merit() <= threshold:
            return LineSearchResult(alpha=alpha, backtracks=s, zeta_next=trial, residual_next=r_trial)
    return None


def run(
    problem: BilevelProblem,
    config: SolverConfig,
    zeta0: Iterate,
    callback: Callable[[StepRecord], None] | None = None,
) -> SolveReport:
    """Iterate from zeta0 until a termination status is reached."""
    start_time = time.perf_counter()
    norms: list[float] = []
    alphas: list[float] = []
    dtypes: list[str] = []
    zeta = zeta0
    status = None
    error = None
    F_val = f_val = None  # at zeta's leader point, once evaluated
    W_buf = np.empty((problem.dims.N,) * 2)  # W is rebuilt here at every step

    try:
        resid = assemble_residual(problem, config.lam, zeta)
        F_val, f_val = resid.at_y.F, resid.at_y.f
        norms.append(resid.norm())
        k = 0
        while True:
            if norms[-1] <= config.eps:
                status = SOLVED
                break
            if k >= config.max_iter:
                status = MAX_ITER
                break
            W = assemble_jacobian(resid, out=W_buf)
            phi, merit0 = resid.vec, resid.merit()
            resid = ls = None  # this point's evaluations are not needed past W
            grad = W.T @ phi
            if float(np.linalg.norm(grad)) <= GRAD_STALL_TOL:
                status = MERIT_STATIONARY
                break
            d, dtype = _direction(config, W, phi, grad)
            slope = float(grad @ d)
            ls = _backtrack(problem, config, zeta, d, merit0, slope)
            if ls is None:
                status = LINE_SEARCH_STALL
                break
            if callback is not None:
                callback(StepRecord(
                    k=k, zeta=zeta, direction=d, direction_type=dtype, slope=slope,
                    merit_before=merit0, alpha=ls.alpha, backtracks=ls.backtracks,
                ))
            zeta, resid = ls.zeta_next, ls.residual_next
            F_val, f_val = resid.at_y.F, resid.at_y.f
            norms.append(resid.norm())
            alphas.append(ls.alpha)
            dtypes.append(dtype)
            k += 1
    except EvaluationError as exc:
        status = EVALUATION_FAILED
        error = str(exc)

    if norms:
        final_norm = norms[-1]
    else:
        final_norm = math.nan
    if F_val is None:  # the start failed before its leader point was evaluated
        try:
            bundle = evaluate_all(problem, zeta.x, zeta.y)
            F_val, f_val = bundle.F, bundle.f
        except EvaluationError:
            F_val = f_val = math.nan

    return SolveReport(
        problem=problem.name,
        lam=config.lam,
        status=status,
        iterations=len(alphas),
        residual_norms=norms,
        step_sizes=alphas,
        direction_types=dtypes,
        final=zeta,
        final_residual_norm=final_norm,
        F=F_val,
        f=f_val,
        eoc=eoc(norms),
        wall_time=time.perf_counter() - start_time,
        error=error,
    )
