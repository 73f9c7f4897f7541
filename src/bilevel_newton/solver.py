"""Globalized semismooth Newton iteration on the stationarity system.

One run keeps the penalty parameter fixed and iterates

    step:        solve W d = -Phi for a selected generalized-Jacobian
                 element W; accept d only if the merit-descent test
                 grad_Psi . d <= -BETA * ||d||^T holds, otherwise fall
                 back to the steepest-descent direction -grad_Psi;
    line search: Armijo backtracking with ratio RHO and slope fraction
                 SIGMA on the merit function Psi = 0.5*||Phi||^2;
    update:      zeta <- zeta + alpha d,

until ||Phi|| <= EPS, the iteration cap, a merit-stationary point, or a
stalled line search.  BETA, T, RHO, SIGMA and EPS are the reference
protocol's values, module constants read at call time.

A line-search trial is staged.  It evaluates the follower point (x, z)
first, with f and g only; when the follower rows of Phi alone already put
Psi above the Armijo threshold merit0 + SIGMA*alpha*slope (with a proven
rounding margin), the trial is rejected without evaluating the leader
point (x, y).  Every other trial is assembled in full and tested exactly as
before, so iterates and step sizes do not depend on the staging.  A run's
final F and f come from the last leader evaluation.
"""
from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass
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

# A Newton direction d is kept when grad Psi . d <= -BETA * ||d||**T
# (De Luca, Facchinei & Kanzow, 1996).
BETA = 1e-8
T = 2.1
# A line search tries the steps RHO**s for s = 0..MAX_BACKTRACKS, then stalls;
# it accepts the first with Psi <= Psi0 + SIGMA * RHO**s * slope.
RHO = 0.5
SIGMA = 1e-4
MAX_BACKTRACKS = 60
# A run is Solved when ||Phi|| <= EPS.
EPS = 1e-8
# A point is merit-stationary when ||grad Psi|| <= GRAD_STALL_TOL.
GRAD_STALL_TOL = 1e-12


@dataclass(frozen=True)
class SolverConfig:
    """The penalty of one run and its iteration cap (reference protocol: 2000)."""

    lam: float
    max_iter: int = 2000

    def __post_init__(self):
        if not valid_penalty(self.lam):
            raise ValueError(f"lam must be finite and > 0, got {self.lam}")
        if not isinstance(self.max_iter, numbers.Integral) or self.max_iter < 0:
            raise ValueError(f"max_iter must be an integer >= 0, got {self.max_iter!r}")


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


def _direction(W: np.ndarray, resid_vec: np.ndarray, grad: np.ndarray) -> tuple[np.ndarray, str]:
    try:
        d = lu_solve(W, -resid_vec)
    except SingularMatrixError:
        return -grad, GRADIENT
    if float(grad @ d) <= -BETA * float(np.linalg.norm(d)) ** T:
        return d, NEWTON
    return -grad, GRADIENT


def _backtrack(
    problem: BilevelProblem,
    lam: float,
    zeta: Iterate,
    d: np.ndarray,
    merit0: float,
    slope: float,
) -> LineSearchResult | None:
    if slope >= 0:
        raise ValueError(f"line search needs a descent direction, slope={slope}")
    for s in range(MAX_BACKTRACKS + 1):
        alpha = RHO**s
        trial = Iterate(zeta.vec + alpha * d, zeta.dims)
        threshold = merit0 + SIGMA * alpha * slope
        r_trial = assemble_residual(problem, lam, trial, merit_bound=threshold)
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
            if norms[-1] <= EPS:
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
            d, dtype = _direction(W, phi, grad)
            slope = float(grad @ d)
            ls = _backtrack(problem, config.lam, zeta, d, merit0, slope)
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
