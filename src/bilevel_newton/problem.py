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
squares is not finite.  The sum of squares is one BLAS ``ddot``, scipy's own
``scipy.linalg.blas.ddot`` object, which ``_lapack`` loads without
importing the ``scipy.linalg`` package (or imports from it, when scipy's
layout has no compiled module to load).  A Hessian that is exactly
symmetric (bit for bit) is used as returned, without a copy; any other
Hessian is symmetrized on ingestion as (H + H^T) / 2.
A Hessian returned again (as a quadratic objective or linear constraints
often do) is checked once when it is the same float64 array of the
requested shape, read-only or large: evaluators must not write into an
array they have returned, so its bits cannot have changed; so return
constant derivatives read-only, as the same object at every call.  The
Hessian contraction skips a large zero one.

The leader functions F and G are evaluated only at the leader point (x, y).
At the follower copy (x, z) the system reads f and g alone.
``evaluate_function`` is the per-function step: it calls one evaluator and
checks its output, giving a (value, gradient, Hessian) triple; every
partial evaluation goes through it.  ``evaluate_all`` calls F, f, G and g
through the same step.  A follower bundle is built from the f and g triples
alone, as ``EvalBundle.of(n, f=..., g=...)``, and holds None in the F and G
fields.
"""
from __future__ import annotations

import functools
import math
import weakref
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np

from ._lapack import ddot

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

    @functools.cached_property
    def N(self) -> int:
        return self.n + 2 * self.m + self.p + 2 * self.q

    def __reduce__(self):  # a copy does not take what N and block_slices keep in __dict__
        return type(self), (self.n, self.m, self.p, self.q)


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


_NOT_CALLED = (None,) * 3


class EvalBundle(NamedTuple):
    """All problem data at one point (x, y): values, gradients, Hessians.

    Gradients are stored over the stacked (x, y) coordinates; the leading
    n entries are the derivatives w.r.t. the upper-level variable and the
    trailing m entries w.r.t. the lower-level one.  A function not called
    holds None in its three fields, as F and G do in a follower bundle at
    a point (x, z), where they are never evaluated.
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

    @classmethod
    def of(cls, n: int, F=_NOT_CALLED, f=_NOT_CALLED, G=_NOT_CALLED, g=_NOT_CALLED) -> "EvalBundle":
        """The bundle of checked (value, gradient, Hessian) triples, as
        ``evaluate_function`` gives them; a function not given was not
        called.  Built without the constructor's argument parsing."""
        return tuple.__new__(cls, (n, *F, *f, *G, *g))

    def triple(self, name: str) -> tuple:
        """The (value, gradient, Hessian) fields of F, f, G or g."""
        i = 3 * "FfGg".index(name) + 1
        return self[i:i + 3]


def _sym(h: np.ndarray) -> np.ndarray:
    s = h + h.swapaxes(-1, -2)
    s *= 0.5  # in place: the same bits as 0.5 * (h + h^T), one temporary fewer
    return s


# Hessians found finite and exactly symmetric, by (id, shape) of the float64
# array an evaluator returned, read-only or large (a small writable one, likely
# new at every call, would pay for an entry it never hits): a weak reference to
# it (none is kept alive), and whether a large one holds only +0.0.
_CHECKED: dict[tuple, tuple[weakref.ref, bool]] = {}
_CHECKED_MIN_BYTES = 1 << 16


def is_zero_hessian(h: np.ndarray) -> bool:
    """Whether h, as ingested by ``evaluate_function``, is a large Hessian (stack)
    found to hold only +0.0, as linear functions give."""
    entry = _CHECKED.get((id(h), h.shape))
    return entry is not None and entry[1] and entry[0]() is h


def _hessian(raw, shape: tuple[int, ...]) -> tuple[np.ndarray, bool]:
    """The Hessian (or stack of them) raw read at shape, symmetrized, and
    whether it is known finite.

    When the sum of squares is finite, every entry is finite and below
    sqrt(DBL_MAX), so h + h^T cannot overflow and the result is known
    finite without a scan; when h also equals its transpose bit for bit,
    0.5 * (h + h^T) = 0.5 * (2 h) is exactly h, and h is returned as it
    is.  The bits are compared (as bytes for a small h, as integers for a
    large one) so that a -0.0/+0.0 pair, which symmetrization turns into
    +0.0, is not taken as symmetric.  An overflowing sum, on which ddot
    does not warn, only sends h to the symmetrizing path.

    A float64 raw of that shape is h.  Read-only or large, it is recorded
    in ``_CHECKED`` once it passes, and then not read again.
    """
    entry = _CHECKED.get(key := (id(raw), shape))
    if entry is not None and entry[0]() is raw:
        return raw, True
    h = np.asarray(raw, dtype=float)
    h = h if h.shape == shape else h.reshape(shape)
    flat = h.ravel(order="K")
    if not math.isfinite(ddot(flat, flat)):
        return _sym(h), False
    large = h.nbytes >= _CHECKED_MIN_BYTES
    if large:
        bits = h.view(np.int64)
        symmetric = (bits == bits.swapaxes(-1, -2)).all()
    else:  # the bytes of h and of h^T, both in C order
        symmetric = h.tobytes() == h.swapaxes(-1, -2).tobytes()
    if not symmetric:
        return _sym(h), True
    if h is raw and (large or not raw.flags.writeable):
        _CHECKED[key] = (weakref.ref(raw, lambda _, key=key, pop=_CHECKED.pop: pop(key, None)),
                         large and not bits.any())
    return h, True


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
        hess, finite = _hessian(hess, (nm, nm))
    except (TypeError, ValueError) as exc:
        raise EvaluationError(name, np.concatenate(xy), f"malformed value: {exc}") from exc
    if not (math.isfinite(val) and _finite(grad) and (finite or np.isfinite(hess).all())):
        raise EvaluationError(name, np.concatenate(xy))
    return val, grad, hess


@functools.cache
def _no_components(nm: int) -> tuple[np.ndarray, ...]:  # read-only, shared by every bundle
    return tuple(np.broadcast_to(0.0, shape) for shape in ((0,), (0, nm), (0, nm, nm)))


def _check_vector(name: str, xy: tuple[np.ndarray, np.ndarray], out, k: int, nm: int):
    if k == 0:
        return _no_components(nm)
    try:
        vals, jac, hessians = out
        vals = np.asarray(vals, dtype=float).reshape(k)
        jac = np.asarray(jac, dtype=float).reshape(k, nm)
        hessians, finite = _hessian(hessians, (k, nm, nm))
    except (TypeError, ValueError) as exc:
        raise EvaluationError(name, np.concatenate(xy), f"malformed value: {exc}") from exc
    if not (_finite(vals) and _finite(jac) and (finite or np.isfinite(hessians).all())):
        raise EvaluationError(name, np.concatenate(xy))
    return vals, jac, hessians


def evaluate_function(problem: BilevelProblem, name: str, x: np.ndarray, y: np.ndarray) -> tuple:
    """The checked (value, gradient, Hessian) of the evaluator ``name``
    ("F", "f", "G" or "g") at (x, y), given as float64 arrays of shapes
    (n,) and (m,).

    Raises EvaluationError (carrying the function name and point) when the
    output is malformed or has a non-finite entry.  A constraint evaluator
    with no components (p = 0 or q = 0) is not called; it gives empty
    read-only arrays.
    """
    d = problem.dims
    nm = d.n + d.m
    if name == "F" or name == "f":
        return _check_scalar(name, (x, y), getattr(problem, name)(x, y), nm)
    k = d.p if name == "G" else d.q
    return _check_vector(name, (x, y), getattr(problem, name)(x, y) if k else None, k, nm)


def evaluate_all(problem: BilevelProblem, x: np.ndarray, y: np.ndarray) -> EvalBundle:
    """Evaluate F, f, G, g with derivatives at one point (x, y).

    They are called in the order F, f, G, g, each through
    ``evaluate_function`` and checked before the next is called.  Raises
    EvaluationError (carrying the function name and point) when an
    evaluator returns a non-finite entry.  Deterministic: repeated calls at
    the same point return bitwise-equal arrays.
    """
    d = problem.dims
    n, m = d.n, d.m
    x = np.asarray(x, dtype=float)
    if x.shape != (n,):
        x = x.reshape(n)
    y = np.asarray(y, dtype=float)
    if y.shape != (m,):
        y = y.reshape(m)
    F = evaluate_function(problem, "F", x, y)
    f = evaluate_function(problem, "f", x, y)
    G = evaluate_function(problem, "G", x, y)
    g = evaluate_function(problem, "g", x, y)
    return EvalBundle.of(n, F, f, G, g)


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


def _put_rows(b: EvalBundle, vals: np.ndarray, grads: np.ndarray, p: int) -> None:
    """Write the values and gradient rows of F, f, G and g at b into the
    2 + p + q entries of vals and rows of grads."""
    vals[0], vals[1], vals[2:2 + p], vals[2 + p:] = b.F, b.f, b.G, b.g
    grads[0], grads[1], grads[2:2 + p], grads[2 + p:] = b.dF, b.df, b.dG, b.dg


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
    the bundles at pt + e and then pt - e are evaluated, their values and
    gradient rows, every function's at once, are written into two buffers
    of the point, and the difference goes straight into the point's
    finite-difference arrays; the Hessians are symmetrized once per point.
    No bundle is held past the coordinate it was evaluated for.
    """
    if len(points) == 0:
        raise ValueError("check_derivatives needs at least one point")
    d = problem.dims
    nm = d.n + d.m
    names = ["F", "f", *(f"G[{j}]" for j in range(d.p)), *(f"g[{j}]" for j in range(d.q))]
    k = len(names)
    grad_worst, hess_worst = np.zeros(k), np.zeros(k)  # np.maximum keeps a NaN

    for x0, y0 in points:
        x0 = np.asarray(x0, dtype=float).reshape(d.n)
        y0 = np.asarray(y0, dtype=float).reshape(d.m)
        pt = np.concatenate([x0, y0])
        step = FD_STEP * max(1.0, float(np.linalg.norm(pt)))

        base = evaluate_all(problem, x0, y0)
        # column i of grad_fd and row i of each hess_fd matrix: the values
        # and gradient rows at pt + e less those at pt - e, then over 2 * step
        grad_fd = np.empty((k, nm))
        hess_fd = np.empty((k, nm, nm))
        vals_p, vals_m = np.empty(k), np.empty(k)
        grads_p, grads_m = np.empty((k, nm)), np.empty((k, nm))
        for i in range(nm):
            e = np.zeros(nm)
            e[i] = step
            pp, pm = pt + e, pt - e
            _put_rows(evaluate_all(problem, pp[: d.n], pp[d.n:]), vals_p, grads_p, d.p)
            _put_rows(evaluate_all(problem, pm[: d.n], pm[d.n:]), vals_m, grads_m, d.p)
            np.subtract(vals_p, vals_m, out=grad_fd[:, i])
            np.subtract(grads_p, grads_m, out=hess_fd[:, i])
        grad_fd /= 2 * step
        hess_fd /= 2 * step
        hess_fd = _sym(hess_fd)  # the unsymmetrized stack is freed before the exact one is built

        grad = np.vstack([base.dF, base.df, base.dG, base.dg])
        grad_worst = np.maximum(grad_worst, _row_rel_errors(grad_fd, grad))
        hess = np.concatenate([base.d2F[None], base.d2f[None], base.d2G, base.d2g])
        hess_worst = np.maximum(hess_worst, _row_rel_errors(hess_fd, hess))

    return DerivativeCheckReport(dict(zip(names, grad_worst.tolist())), dict(zip(names, hess_worst.tolist())))
