"""Problem data contract for bilevel programs.

A problem is given by four twice continuously differentiable functions of
the leader variable x (dim n) and a follower variable (dim m):

    F : upper-level objective         (scalar)
    G : upper-level constraints <= 0  (p components, p >= 0)
    f : lower-level objective         (scalar)
    g : lower-level constraints <= 0  (q components, q >= 0)

Each evaluator returns values together with exact first and second
derivatives with respect to the stacked point (x, y) in R^{n+m}.  Hessians
are symmetrized on ingestion.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

ScalarEval = Callable[[np.ndarray, np.ndarray], tuple[float, np.ndarray, np.ndarray]]
VectorEval = Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray, np.ndarray]]


class EvaluationError(RuntimeError):
    """A problem function produced a non-finite or malformed value."""

    def __init__(self, function: str, point: np.ndarray, detail: str = "non-finite value"):
        self.function = function
        self.point = np.asarray(point, dtype=float)
        super().__init__(f"{detail} while evaluating {function} at {self.point.tolist()}")


@dataclass(frozen=True)
class ProblemDims:
    """Variable and constraint counts; N is the stationarity-system size."""

    n: int
    m: int
    p: int
    q: int

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise ValueError(f"need n >= 1 and m >= 1, got n={self.n}, m={self.m}")
        if self.p < 0 or self.q < 0:
            raise ValueError(f"need p >= 0 and q >= 0, got p={self.p}, q={self.q}")

    @property
    def N(self) -> int:
        return self.n + 2 * self.m + self.p + 2 * self.q


@dataclass(frozen=True)
class BilevelProblem:
    """Evaluator bundle defining one bilevel program.

    Scalar evaluators map (x, y) -> (value, grad, hess) with grad in
    R^{n+m} and hess (n+m)x(n+m).  Vector evaluators map (x, y) ->
    (values, jacobian, hessians) shaped (k,), (k, n+m), (k, n+m, n+m).
    ``G`` may be None when p == 0.  Evaluators must be pure: no hidden
    state.
    """

    name: str
    dims: ProblemDims
    F: ScalarEval
    f: ScalarEval
    g: VectorEval
    G: VectorEval | None = None
    known_F: float | None = None
    known_f: float | None = None
    known_start: tuple[np.ndarray, np.ndarray] | None = None

    def __post_init__(self):
        if self.dims.p > 0 and self.G is None:
            raise ValueError(f"problem {self.name!r} has p={self.dims.p} but no G evaluator")


@dataclass(frozen=True)
class EvalBundle:
    """All problem data at one point (x, y): values, gradients, Hessians.

    Gradients are stored over the stacked (x, y) coordinates; the leading
    n entries are the derivatives w.r.t. the upper-level variable and the
    trailing m entries w.r.t. the lower-level one.
    """

    n: int
    F: float
    dF: np.ndarray
    d2F: np.ndarray
    f: float
    df: np.ndarray
    d2f: np.ndarray
    G: np.ndarray
    dG: np.ndarray
    d2G: np.ndarray
    g: np.ndarray
    dg: np.ndarray
    d2g: np.ndarray


def _sym(h: np.ndarray) -> np.ndarray:
    return 0.5 * (h + h.T)


def _check_scalar(name: str, point: np.ndarray, out, nm: int):
    try:
        val, grad, hess = out
        val = float(val)
        grad = np.asarray(grad, dtype=float).reshape(nm)
        hess = np.asarray(hess, dtype=float).reshape(nm, nm)
    except (TypeError, ValueError) as exc:
        raise EvaluationError(name, point, f"malformed value: {exc}") from exc
    hess = _sym(hess)
    if not (np.isfinite(val) and np.all(np.isfinite(grad)) and np.all(np.isfinite(hess))):
        raise EvaluationError(name, point)
    return val, grad, hess


def _check_vector(name: str, point: np.ndarray, out, k: int, nm: int):
    if k == 0:
        return (np.zeros(0), np.zeros((0, nm)), np.zeros((0, nm, nm)))
    try:
        vals, jac, hessians = out
        vals = np.asarray(vals, dtype=float).reshape(k)
        jac = np.asarray(jac, dtype=float).reshape(k, nm)
        hessians = np.asarray(hessians, dtype=float).reshape(k, nm, nm)
    except (TypeError, ValueError) as exc:
        raise EvaluationError(name, point, f"malformed value: {exc}") from exc
    hessians = 0.5 * (hessians + np.transpose(hessians, (0, 2, 1)))
    if not (np.all(np.isfinite(vals)) and np.all(np.isfinite(jac)) and np.all(np.isfinite(hessians))):
        raise EvaluationError(name, point)
    return vals, jac, hessians


def evaluate_all(problem: BilevelProblem, x: np.ndarray, y: np.ndarray) -> EvalBundle:
    """Evaluate F, G, f, g with derivatives at one point (x, y).

    Raises EvaluationError (carrying the function name and point) when an
    evaluator returns a non-finite entry.  Deterministic: repeated calls at
    the same point return bitwise-equal arrays.
    """
    d = problem.dims
    x = np.asarray(x, dtype=float).reshape(d.n)
    y = np.asarray(y, dtype=float).reshape(d.m)
    point = np.concatenate([x, y])
    nm = d.n + d.m

    Fv, dF, d2F = _check_scalar("F", point, problem.F(x, y), nm)
    fv, df, d2f = _check_scalar("f", point, problem.f(x, y), nm)
    Gout = problem.G(x, y) if problem.G is not None else None
    Gv, dG, d2G = _check_vector("G", point, Gout, d.p, nm)
    gv, dg, d2g = _check_vector("g", point, problem.g(x, y), d.q, nm)

    return EvalBundle(
        n=d.n,
        F=Fv, dF=dF, d2F=d2F,
        f=fv, df=df, d2f=d2f,
        G=Gv, dG=dG, d2G=d2G,
        g=gv, dg=dg, d2g=d2g,
    )


@dataclass
class DerivativeCheckReport:
    """Worst finite-difference relative errors per function over the sampled points."""

    grad_errors: dict[str, float] = field(default_factory=dict)
    hess_errors: dict[str, float] = field(default_factory=dict)
    points: list[tuple[np.ndarray, np.ndarray]] = field(default_factory=list)
    tolerance: float = 1e-4

    @property
    def worst(self) -> float:
        errs = list(self.grad_errors.values()) + list(self.hess_errors.values())
        return max(errs) if errs else 0.0

    @property
    def passed(self) -> bool:
        return self.worst <= self.tolerance


def _rel_err(approx: np.ndarray, exact: np.ndarray) -> float:
    approx = np.atleast_1d(np.asarray(approx, dtype=float))
    exact = np.atleast_1d(np.asarray(exact, dtype=float))
    scale = max(1.0, float(np.max(np.abs(exact))))
    return float(np.max(np.abs(approx - exact)) / scale)


def check_derivatives(
    problem: BilevelProblem,
    points: Sequence[tuple[np.ndarray, np.ndarray]],
    h: float | None = None,
    tolerance: float = 1e-4,
) -> DerivativeCheckReport:
    """Validate supplied gradients/Hessians against central differences.

    Gradients are checked against central differences of the values;
    Hessians against central differences of the gradients.  The default
    step is 1e-6 * max(1, ||point||) per point.
    """
    if h is not None and h <= 0:
        raise ValueError("finite-difference step h must be positive")
    d = problem.dims
    nm = d.n + d.m
    report = DerivativeCheckReport(tolerance=tolerance)

    for x0, y0 in points:
        x0 = np.asarray(x0, dtype=float).reshape(d.n)
        y0 = np.asarray(y0, dtype=float).reshape(d.m)
        pt = np.concatenate([x0, y0])
        step = h if h is not None else 1e-6 * max(1.0, float(np.linalg.norm(pt)))
        report.points.append((x0, y0))

        base = evaluate_all(problem, x0, y0)
        checks = [("F", lambda b: (b.F, b.dF), base.dF, base.d2F),
                  ("f", lambda b: (b.f, b.df), base.df, base.d2f)]
        for j in range(d.p):
            checks.append((f"G[{j}]", lambda b, j=j: (b.G[j], b.dG[j]), base.dG[j], base.d2G[j]))
        for j in range(d.q):
            checks.append((f"g[{j}]", lambda b, j=j: (b.g[j], b.dg[j]), base.dg[j], base.d2g[j]))

        # one coordinate at a time, so only its two perturbed bundles are held
        grad_fd = np.empty((len(checks), nm))
        hess_fd = np.empty((len(checks), nm, nm))
        for i in range(nm):
            e = np.zeros(nm)
            e[i] = step
            pp, pm = pt + e, pt - e
            bp = evaluate_all(problem, pp[: d.n], pp[d.n:])
            bm = evaluate_all(problem, pm[: d.n], pm[d.n:])
            for c, (_, extract, _, _) in enumerate(checks):
                vp, gp = extract(bp)
                vm, gm = extract(bm)
                grad_fd[c, i] = (vp - vm) / (2 * step)
                hess_fd[c, i] = (gp - gm) / (2 * step)

        for c, (name, _, grad_exact, hess_exact) in enumerate(checks):
            ge = _rel_err(grad_fd[c], grad_exact)
            he = _rel_err(_sym(hess_fd[c]), hess_exact)
            report.grad_errors[name] = max(report.grad_errors.get(name, 0.0), ge)
            report.hess_errors[name] = max(report.hess_errors.get(name, 0.0), he)

    return report
