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

A line-search trial is staged (``assemble_residual``): through the
per-function step ``evaluate_function`` it calls g at the follower point
(x, z), then f there, then G and g at the leader point (x, y), then F and
f there, and builds the rows of Phi each stage gives.
Once the rows built so far put Psi above the Armijo threshold
merit0 + SIGMA*alpha*slope (with a proven rounding margin), the trial is
rejected and no later stage is evaluated.  Every other trial is assembled
in full and its merit tested against the threshold exactly, so iterates
and step sizes do not depend on the staging; the evaluation bundles are
built only for a trial that completes.  Before it assembles any trial, a
line search passes over each leading trial whose negative multipliers alone
prove the test fails (a row fb(-c, mu) with mu < 0 is at least -mu): such a
trial calls no evaluator and still counts as a backtrack.  It stops testing
signs at the first trial they do not reject: in exact arithmetic no later
trial would be, as their excess over the threshold is convex in alpha and
not positive at alpha = 0.  A start that kept its evaluations
(as ``resolve_start``'s does) is not evaluated again.  A run's final F and
f come from the last leader evaluation; when a run fails before its start's
leader point completes, the report calls F, then f, there (not at all when
F itself failed), and F and f are NaN unless both calls succeed.

A run ends at an exact fixed point: when an accepted step leaves the bytes
of the iterate unchanged (+0.0 and -0.0 differ), every later iteration,
with pure evaluators, repeats it.  Its step size, norm and direction type
are then repeated up to the cap, and the run ends MaxIter with the report
iterating would give; the callback gets no record of those iterations.
"""
from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .linalg import SingularMatrixError, lu_solve
from .problem import BilevelProblem, EvaluationError, evaluate_function
# evaluate_all is not called here: bench/probe.py traces calls through this binding
from .problem import evaluate_all  # noqa: F401
from .system import Iterate, ResidualVector, _rows_reject, assemble_jacobian, assemble_residual, valid_penalty

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
        if not isinstance(self.max_iter, numbers.Integral) or isinstance(self.max_iter, bool) or self.max_iter < 0:
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


class LineSearchResult(NamedTuple):
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


def _direction(W: np.ndarray, resid_vec: np.ndarray, grad: np.ndarray) -> tuple[np.ndarray, str, float]:
    """The direction, its type and its slope grad . d."""
    try:
        d = lu_solve(W, -resid_vec)
    except SingularMatrixError:
        pass
    else:
        slope = float(grad @ d)
        # sqrt(d.d) is np.linalg.norm's arithmetic for a real vector, same bits
        if slope <= -BETA * math.sqrt(d.dot(d)) ** T:
            return d, NEWTON, slope
    d = -grad
    return d, GRADIENT, float(grad @ d)


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
    N, k = zeta.dims.N, zeta.dims.n + 2 * zeta.dims.m  # the multipliers u, v and w follow x, y and z
    mus, dmus = zeta.vec.tolist()[k:], d.tolist()[k:]
    leading = True
    for s in range(MAX_BACKTRACKS + 1):
        alpha = RHO**s
        threshold = merit0 + SIGMA * alpha * slope
        if leading:  # a negative trial multiplier t puts its row at -t or above (_rows_reject)
            s_p = 0.0
            for mu, dmu in zip(mus, dmus):
                t = mu + alpha * dmu  # the trial's entry, bitwise
                if t < 0.0:
                    s_p += t * t
            if _rows_reject(s_p, N, threshold):
                continue
            leading = False
        trial = Iterate(zeta.vec + alpha * d, zeta.dims)
        r_trial = assemble_residual(problem, lam, trial, merit_bound=threshold)
        if r_trial is not None:  # its merit is at most the threshold
            return LineSearchResult(alpha=alpha, backtracks=s, zeta_next=trial, residual_next=r_trial)
    return None


def run(
    problem: BilevelProblem,
    config: SolverConfig,
    zeta0: Iterate,
    callback: Callable[[StepRecord], None] | None = None,
) -> SolveReport:
    """Iterate from zeta0 until a termination status is reached; callback
    gets a StepRecord of each iteration made (none after a fixed point)."""
    start_time = time.perf_counter()
    norms: list[float] = []
    alphas: list[float] = []
    dtypes: list[str] = []
    zeta = zeta0
    status = None
    error = failed = None  # the message and the function of an EvaluationError
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
            phi, merit0 = resid.vec, 0.5 * norms[-1] ** 2  # resid.merit() from its norm, the same bits
            grad = W.T @ phi
            if math.sqrt(grad.dot(grad)) <= GRAD_STALL_TOL:
                status = MERIT_STATIONARY
                break
            d, dtype, slope = _direction(W, phi, grad)
            ls = _backtrack(problem, config.lam, zeta, d, merit0, slope)
            if ls is None:
                status = LINE_SEARCH_STALL
                break
            if callback is not None:
                callback(StepRecord(
                    k=k, zeta=zeta, direction=d, direction_type=dtype, slope=slope,
                    merit_before=merit0, alpha=ls.alpha, backtracks=ls.backtracks,
                ))
            fixed = ls.zeta_next.vec.tobytes() == zeta.vec.tobytes()  # -0.0 is not +0.0
            zeta, resid = ls.zeta_next, ls.residual_next
            F_val, f_val = resid.at_y.F, resid.at_y.f
            norms.append(resid.norm())
            alphas.append(ls.alpha)
            dtypes.append(dtype)
            k += 1
            if fixed:  # every later iteration repeats this one, up to the cap
                for record in (norms, alphas, dtypes):
                    record += record[-1:] * (config.max_iter - k)
                k = config.max_iter
    except EvaluationError as exc:
        status = EVALUATION_FAILED
        error = str(exc)
        failed = exc.function

    if norms:
        final_norm = norms[-1]
    else:
        final_norm = math.nan
    if F_val is None:  # the start failed before its leader point was evaluated
        F_val = f_val = math.nan
        if failed != "F":  # F failing there would fail again
            try:
                F_val, f_val = [evaluate_function(problem, name, zeta.x, zeta.y)[0] for name in "Ff"]
            except EvaluationError:
                pass

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
