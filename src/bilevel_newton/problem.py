"""Problem data contract for bilevel programs.

A problem is given by four twice continuously differentiable functions of
the leader variable x (dim n) and a follower variable (dim m):

    F : upper-level objective         (scalar)
    G : upper-level constraints <= 0  (p components, p >= 0)
    f : lower-level objective         (scalar)
    g : lower-level constraints <= 0  (q components, q >= 0)

Each evaluator returns values together with exact first and second
derivatives with respect to the stacked point (x, y) in R^{n+m}.  A
returned array is scanned for non-finite entries only when its sum of
squares is not finite.  A Hessian that is exactly symmetric (bit for bit)
is used as returned, without a copy; any other Hessian is symmetrized on
ingestion as (H + H^T) / 2.
A large Hessian that an evaluator returns again from the same memory (as a
quadratic objective or linear constraints often do) is checked once, not at
every point: evaluators must not write into an array they have returned,
so its bits cannot have changed.  One that is exactly zero is recognised
then, and the Hessian contraction of the system skips it.

The leader functions F and G are evaluated only at the leader point (x, y).
At the follower copy (x, z) the system reads f and g alone, so a follower
bundle (``evaluate_all(..., upper=False)``) calls neither F nor G and holds
None in their fields.
"""
from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.linalg.blas import ddot

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
    state, and no later write into an array they have returned, because
    bundles hold returned values, Jacobians and exactly symmetric Hessians
    without copying them.
    """

    name: str
    dims: ProblemDims
    F: ScalarEval
    f: ScalarEval
    g: VectorEval
    G: VectorEval | None = None
    known_F: float | None = None
    known_f: float | None = None

    def __post_init__(self):
        if self.dims.p > 0 and self.G is None:
            raise ValueError(f"problem {self.name!r} has p={self.dims.p} but no G evaluator")


@dataclass(frozen=True)
class EvalBundle:
    """All problem data at one point (x, y): values, gradients, Hessians.

    Gradients are stored over the stacked (x, y) coordinates; the leading
    n entries are the derivatives w.r.t. the upper-level variable and the
    trailing m entries w.r.t. the lower-level one.  A follower bundle, at
    a point (x, z), holds None in the six F and G fields: F and G are
    never evaluated there.
    """

    n: int
    F: float | None
    dF: np.ndarray | None
    d2F: np.ndarray | None
    f: float
    df: np.ndarray
    d2f: np.ndarray
    G: np.ndarray | None
    dG: np.ndarray | None
    d2G: np.ndarray | None
    g: np.ndarray
    dg: np.ndarray
    d2g: np.ndarray


def _sym(h: np.ndarray) -> np.ndarray:
    s = h + h.swapaxes(-1, -2)
    s *= 0.5  # in place: the same bits as 0.5 * (h + h^T), one temporary fewer
    return s


# Large Hessians found finite and exactly symmetric, by the memory they were
# read from: (id of the array owning it, first byte, shape, strides) ->
# (weak reference to that owner, whether every entry is +0.0).  Evaluators
# do not write into arrays they have returned, so such a region need not be
# read again.  The references are weak: this keeps no array alive.
_CHECKED: dict[tuple, tuple[weakref.ref, bool]] = {}
# Smaller Hessians are checked at every call, with one ddot and one compare
# of their bytes to those of their transpose: cheaper than the bookkeeping.
_CHECKED_MIN_BYTES = 1 << 16


def _region(h: np.ndarray):
    """The array owning h's memory and the key of the region h reads, or
    None when h is too small to be recorded or its memory is not an array's."""
    if h.nbytes < _CHECKED_MIN_BYTES:
        return None
    owner = h if h.base is None else h.base
    if type(owner) is not np.ndarray:
        return None
    return owner, (id(owner), h.ctypes.data, h.shape, h.strides)


def _checked(h: np.ndarray):
    """h's region as ``_region`` gives it, and its ``_CHECKED`` entry, or
    None for either."""
    region = _region(h)
    if region is None:
        return None, None
    owner, key = region
    entry = _CHECKED.get(key)
    return region, (entry if entry is not None and entry[0]() is owner else None)


def is_zero_hessian(h: np.ndarray) -> bool:
    """Whether h, as ingested by ``evaluate_all``, is a large Hessian (stack)
    found to hold only +0.0, as linear functions give."""
    _, entry = _checked(h)
    return entry is not None and entry[1]


def _ingest_hessian(h: np.ndarray) -> tuple[np.ndarray, bool]:
    """The symmetrized Hessian (or stack of them), and whether it is known finite.

    When the sum of squares is finite, every entry is finite and below
    sqrt(DBL_MAX), so h + h^T cannot overflow and the result is known
    finite without a scan; when h also equals its transpose bit for bit,
    0.5 * (h + h^T) = 0.5 * (2 h) is exactly h, and h is returned as it
    is.  The bits are compared (as bytes for a small h, as integers for a
    large one) so that a -0.0/+0.0 pair, which symmetrization turns into
    +0.0, is not taken as symmetric.  An overflowing sum, on which ddot
    does not warn, only sends h to the symmetrizing path.

    A large h read from memory that passed both checks before is returned
    without reading it again (``_CHECKED``).
    """
    region, entry = _checked(h)
    if entry is not None:
        return h, True
    flat = h.ravel(order="K")
    if not math.isfinite(ddot(flat, flat)):
        return _sym(h), False
    if region is None:  # small: the bytes of h and of h^T, both in C order
        return (h, True) if h.tobytes() == h.swapaxes(-1, -2).tobytes() else (_sym(h), True)
    bits = h.view(np.int64)
    if (bits == bits.swapaxes(-1, -2)).all():
        owner, key = region
        _CHECKED[key] = (weakref.ref(owner, lambda _, key=key, pop=_CHECKED.pop: pop(key, None)),
                         not bits.any())
        return h, True
    return _sym(h), True


def _finite(a: np.ndarray) -> bool:
    """Whether every entry of a is finite; a is scanned only when its sum of
    squares is not.  BLAS ddot, unlike ndarray.dot, does not warn on overflow."""
    flat = a.ravel(order="K")
    return math.isfinite(ddot(flat, flat)) or bool(np.isfinite(flat).all())


def _check_scalar(name: str, xy: tuple[np.ndarray, np.ndarray], out, nm: int):
    try:
        val, grad, hess = out
        val = float(val)
        grad = np.asarray(grad, dtype=float).reshape(nm)
        hess = np.asarray(hess, dtype=float).reshape(nm, nm)
    except (TypeError, ValueError) as exc:
        raise EvaluationError(name, np.concatenate(xy), f"malformed value: {exc}") from exc
    hess, finite = _ingest_hessian(hess)
    if not (math.isfinite(val) and _finite(grad) and (finite or np.isfinite(hess).all())):
        raise EvaluationError(name, np.concatenate(xy))
    return val, grad, hess


def _check_vector(name: str, xy: tuple[np.ndarray, np.ndarray], out, k: int, nm: int):
    if k == 0:
        return (np.zeros(0), np.zeros((0, nm)), np.zeros((0, nm, nm)))
    try:
        vals, jac, hessians = out
        vals = np.asarray(vals, dtype=float).reshape(k)
        jac = np.asarray(jac, dtype=float).reshape(k, nm)
        hessians = np.asarray(hessians, dtype=float).reshape(k, nm, nm)
    except (TypeError, ValueError) as exc:
        raise EvaluationError(name, np.concatenate(xy), f"malformed value: {exc}") from exc
    hessians, finite = _ingest_hessian(hessians)
    if not (_finite(vals) and _finite(jac) and (finite or np.isfinite(hessians).all())):
        raise EvaluationError(name, np.concatenate(xy))
    return vals, jac, hessians


def evaluate_all(problem: BilevelProblem, x: np.ndarray, y: np.ndarray, *, upper: bool = True) -> EvalBundle:
    """Evaluate F, G, f, g with derivatives at one point (x, y).

    With ``upper=False`` the point is a follower point (x, z): only f and g
    are called, and the bundle's F and G fields are None.  Raises
    EvaluationError (carrying the function name and point) when an
    evaluator returns a non-finite entry.  Deterministic: repeated calls at
    the same point return bitwise-equal arrays.
    """
    d = problem.dims
    x = np.asarray(x, dtype=float).reshape(d.n)
    y = np.asarray(y, dtype=float).reshape(d.m)
    xy = (x, y)  # concatenated only for an error report
    nm = d.n + d.m

    # each evaluator's output is checked before the next one is called; a
    # constraint evaluator with no components (p = 0 or q = 0) is not called.
    # Each check gives (value, gradient, Hessian), the bundle's field order.
    F = _check_scalar("F", xy, problem.F(x, y), nm) if upper else (None,) * 3
    f = _check_scalar("f", xy, problem.f(x, y), nm)
    G = _check_vector("G", xy, problem.G(x, y) if d.p else None, d.p, nm) if upper else (None,) * 3
    g = _check_vector("g", xy, problem.g(x, y) if d.q else None, d.q, nm)
    return EvalBundle(d.n, *F, *f, *G, *g)


# check_derivatives' central-difference step, relative to max(1, ||point||),
# and the worst relative error a passing check allows.
FD_STEP = 1e-6
FD_TOL = 1e-4


@dataclass
class DerivativeCheckReport:
    """Worst finite-difference relative errors per function over the sampled points."""

    grad_errors: dict[str, float] = field(default_factory=dict)
    hess_errors: dict[str, float] = field(default_factory=dict)

    @property
    def worst(self) -> float:
        # np.max, unlike max, keeps a NaN error, which then fails the check
        return float(np.max([*self.grad_errors.values(), *self.hess_errors.values()], initial=0.0))

    @property
    def passed(self) -> bool:
        return self.worst <= FD_TOL


def _stacked(b: EvalBundle) -> tuple[np.ndarray, np.ndarray]:
    """The values and gradient rows of F, f, G and g at b, as 2 + p + q rows."""
    return np.hstack([b.F, b.f, b.G, b.g]), np.vstack([b.dF, b.df, b.dG, b.dg])


def _row_rel_errors(approx: np.ndarray, exact: np.ndarray) -> np.ndarray:
    """max |approx - exact| / max(1, max |exact|) for each row of the two
    stacks, which it overwrites."""
    axes = tuple(range(1, exact.ndim))
    approx -= exact
    err = np.abs(approx, out=approx).max(axis=axes)
    return err / np.maximum(1.0, np.abs(exact, out=exact).max(axis=axes))


def check_derivatives(
    problem: BilevelProblem, points: Sequence[tuple[np.ndarray, np.ndarray]]
) -> DerivativeCheckReport:
    """Validate supplied gradients/Hessians against central differences.

    Gradients are checked against central differences of the values;
    Hessians against the symmetrized central differences of the gradients.
    The step is FD_STEP * max(1, ||point||) per point.  At each coordinate
    the two perturbed bundles fill the rows of every function at once, and
    only that coordinate's pair is held.
    """
    if len(points) == 0:
        raise ValueError("check_derivatives needs at least one point")
    d = problem.dims
    nm = d.n + d.m
    names = ["F", "f", *(f"G[{j}]" for j in range(d.p)), *(f"g[{j}]" for j in range(d.q))]
    grad_worst, hess_worst = np.zeros(len(names)), np.zeros(len(names))  # np.maximum keeps a NaN

    for x0, y0 in points:
        x0 = np.asarray(x0, dtype=float).reshape(d.n)
        y0 = np.asarray(y0, dtype=float).reshape(d.m)
        pt = np.concatenate([x0, y0])
        step = FD_STEP * max(1.0, float(np.linalg.norm(pt)))

        base = evaluate_all(problem, x0, y0)
        grad_fd = np.empty((len(names), nm))
        hess_fd = np.empty((len(names), nm, nm))
        for i in range(nm):
            e = np.zeros(nm)
            e[i] = step
            pp, pm = pt + e, pt - e
            vp, gp = _stacked(evaluate_all(problem, pp[: d.n], pp[d.n:]))
            vm, gm = _stacked(evaluate_all(problem, pm[: d.n], pm[d.n:]))
            grad_fd[:, i] = (vp - vm) / (2 * step)
            hess_fd[:, i] = (gp - gm) / (2 * step)
            # rows 0..i are filled now: symmetrize the pairs (i, j <= i) in place
            s = hess_fd[:, i, : i + 1] + hess_fd[:, : i + 1, i]
            s *= 0.5
            hess_fd[:, i, : i + 1] = hess_fd[:, : i + 1, i] = s

        grad_worst = np.maximum(grad_worst, _row_rel_errors(grad_fd, _stacked(base)[1]))
        hess = np.concatenate([base.d2F[None], base.d2f[None], base.d2G, base.d2g])
        hess_worst = np.maximum(hess_worst, _row_rel_errors(hess_fd, hess))

    return DerivativeCheckReport(dict(zip(names, grad_worst.tolist())), dict(zip(names, hess_worst.tolist())))
