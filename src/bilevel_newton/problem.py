"""Problem data contract for bilevel programs.

A problem is given by four twice continuously differentiable functions of
the leader variable x (dim n) and a follower variable (dim m):

    F : upper-level objective         (scalar)
    G : upper-level constraints <= 0  (p components, p >= 0)
    f : lower-level objective         (scalar)
    g : lower-level constraints <= 0  (q components, q >= 0)

Each evaluator returns values together with exact first and second
derivatives with respect to the stacked point (x, y) in R^{n+m}.  The
returned value and gradient (or values and Jacobian) are scanned for
non-finite entries only when one sum over them is not finite: the value
plus the gradient's sum of squares (or the two sums of squares), as a sum
with a non-finite term is not.  A sum of squares is one BLAS ``ddot``, scipy's own
``scipy.linalg.blas.ddot`` object, which ``_lapack`` loads without
importing the ``scipy.linalg`` package (or imports from it, when scipy's
layout has no compiled module to load).  A Hessian that is exactly
symmetric (bit for bit) is used as returned, without a copy; any other
Hessian is symmetrized on ingestion as (H + H^T) / 2.
A Hessian returned again (as a quadratic objective or linear constraints
often do) is checked once when it is the same float64 array of the
requested shape, read-only or of 4 KiB or more: evaluators must not write
into an array they have returned, so its bits cannot have changed; so
return constant derivatives read-only, as the same object at every call.
The Hessian contraction skips a zero one of 64 KiB or more.

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


def _sym(h: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    s = np.add(h, h.swapaxes(-1, -2), out=out)
    s *= 0.5  # in place: the same bits as 0.5 * (h + h^T), one temporary fewer
    return s


# Hessians found finite and exactly symmetric, by (id, shape) of the float64
# array an evaluator returned, read-only or of _CHECKED_MIN_BYTES or more: a
# weak reference to it (none is kept alive), and whether a large one holds
# only +0.0.  A large array's bits are compared as integers, a smaller one's
# as bytes.  An entry saves an array returned again 1.9 us (72 bytes) to
# 8.4 us (32 KiB) per call and costs a writable one that is new at every call
# 0.8-1.4 us (evaluate_function on one k x k Hessian, 2-core VM), at every
# size, so cost sets no floor.  The floor for writable arrays rests on the
# one such traffic measured: the only writable Hessians under 64 KiB that the
# benchmark workloads return are the n = m = q = 20 LQ check's two 12,800-byte
# ones, the same objects at 160 of 162 calls per pass, and the floor reaches
# them.  No workload returns a writable Hessian under it, so neither side of
# 4 KiB is measured.  Under it a writable Hessian is read at every call, as
# before, so a small buffer that an evaluator refills is still checked.
_CHECKED: dict[tuple, tuple[weakref.ref, bool]] = {}
_CHECKED_MIN_BYTES = 1 << 12
_LARGE_BYTES = 1 << 16


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

    A float64 raw of that shape is h.  Read-only or of
    ``_CHECKED_MIN_BYTES`` or more, it is recorded in ``_CHECKED`` once it
    passes, and then not read again.
    """
    entry = _CHECKED.get(key := (id(raw), shape))
    if entry is not None and entry[0]() is raw:
        return raw, True
    h = np.asarray(raw, dtype=float)
    h = h if h.shape == shape else h.reshape(shape)
    flat = h.ravel(order="K")
    if not math.isfinite(ddot(flat, flat)):
        return _sym(h), False
    large = h.nbytes >= _LARGE_BYTES
    if large:
        bits = h.view(np.int64)
        symmetric = (bits == bits.swapaxes(-1, -2)).all()
    else:  # the bytes of h and of h^T, both in C order
        symmetric = h.tobytes() == h.swapaxes(-1, -2).tobytes()
    if not symmetric:
        return _sym(h), True
    if h is raw and (h.nbytes >= _CHECKED_MIN_BYTES or not raw.flags.writeable):
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
        grad = np.asarray(grad, dtype=float)
        if grad.shape != (nm,):  # reshaped only when its shape differs
            grad = grad.reshape(nm)
        hess, finite = _hessian(hess, (nm, nm))
    except (TypeError, ValueError) as exc:
        raise EvaluationError(name, np.concatenate(xy), f"malformed value: {exc}") from exc
    # a sum with a non-finite term is not finite: one ddot proves val and grad finite (_finite)
    if not ((math.isfinite(val + ddot(grad, grad)) or math.isfinite(val) and _finite(grad))
            and (finite or np.isfinite(hess).all())):
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
        vals = np.asarray(vals, dtype=float)
        if vals.shape != (k,):  # reshaped only when its shape differs
            vals = vals.reshape(k)
        jac = np.asarray(jac, dtype=float)
        if jac.shape != (k, nm):
            jac = jac.reshape(k, nm)
        hessians, finite = _hessian(hessians, (k, nm, nm))
    except (TypeError, ValueError) as exc:
        raise EvaluationError(name, np.concatenate(xy), f"malformed value: {exc}") from exc
    flat = jac.ravel(order="K")
    if not ((math.isfinite(ddot(vals, vals) + ddot(flat, flat)) or _finite(vals) and _finite(flat))
            and (finite or np.isfinite(hessians).all())):
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
# check_derivatives' chunk budget: the bytes of one of a chunk's two stacks
# of gradient rows (at pt + e and at pt - e), each the size of the chunk's
# Hessians; a point that needs more is a chunk of its own.  Ten points of a
# bundled problem (at most 360 bytes each) are one chunk, which takes 16-28 %
# off their checks against one point per chunk; a point at n = m = q = 20
# (281,600 bytes) is one, so the check's memory stays per point where the
# stacks are large.  Any budget from 3,600 to 281,599 bytes chunks the
# benchmark's checks alike, so the value within that range is not measured.
_FD_CHUNK_BYTES = 1 << 16


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
    vals[0], vals[1], vals[2 + p:] = b.F, b.f, b.g
    grads[0], grads[1], grads[2 + p:] = b.dF, b.df, b.dg
    if p:  # an empty slice costs as much to write as a row
        vals[2:2 + p], grads[2:2 + p] = b.G, b.dG


def _row_rel_errors(approx: np.ndarray, exact: np.ndarray) -> np.ndarray:
    """max |approx - exact| / max(1, max |exact|) for each (point, function)
    row of the two chunk stacks, which it overwrites."""
    axes = tuple(range(2, exact.ndim))
    approx -= exact
    err = np.abs(approx, out=approx).max(axis=axes)
    return err / np.maximum(1.0, np.abs(exact, out=exact).max(axis=axes))


def _checked_points(d: ProblemDims, points) -> list[tuple[np.ndarray, np.ndarray]]:
    """The points as float64 blocks of lengths n and m; a point with a block
    of another length raises ValueError naming it."""
    out = []
    for j, (x0, y0) in enumerate(points):
        x0, y0 = np.asarray(x0, dtype=float), np.asarray(y0, dtype=float)
        for block, v, dim, size in (("x", x0, "n", d.n), ("y", y0, "m", d.m)):
            if v.size != size:
                raise ValueError(f"point {j}: {block} has length {v.size}, expected {dim} = {size}")
        out.append((x0.reshape(d.n), y0.reshape(d.m)))
    return out


def check_derivatives(
    problem: BilevelProblem, points: Sequence[tuple[np.ndarray, np.ndarray]]
) -> DerivativeCheckReport:
    """Validate supplied gradients/Hessians against central differences.

    Gradients are checked against central differences of the values;
    Hessians against the symmetrized central differences of the gradients.
    The step is FD_STEP * max(1, ||point||) per point.  Every point's block
    lengths are checked before any evaluator is called.  The points are
    taken in chunks whose gradient rows at pt + e (and again at pt - e) fill
    up to _FD_CHUNK_BYTES (at least one point each).  At each point of a
    chunk the bundle at the point is evaluated, then at each coordinate the
    bundles at pt + e and at pt - e (``evaluate_all``), and their values and
    gradient rows are written into the chunk's stacks.  The differences, the
    division by 2 step, the symmetrization and the error maxima then run
    once per chunk, with the same elementwise operations as one point at a
    time, so the errors and the evaluator calls do not depend on the
    chunking.
    """
    if len(points) == 0:
        raise ValueError("check_derivatives needs at least one point")
    d = problem.dims
    n, nm = d.n, d.n + d.m
    points = _checked_points(d, points)
    names = ["F", "f", *(f"G[{j}]" for j in range(d.p)), *(f"g[{j}]" for j in range(d.q))]
    k = len(names)
    grad_worst, hess_worst = np.zeros(k), np.zeros(k)  # np.maximum keeps a NaN
    chunk = max(1, _FD_CHUNK_BYTES // (8 * k * nm * nm))

    for start in range(0, len(points), chunk):
        block = points[start:start + chunk]
        c = len(block)
        # entry [s, j, i] holds the values and gradient rows at point j of
        # the chunk plus (s = 0) or minus (s = 1) the step along coordinate i
        vals, grads = np.empty((2, c, nm, k)), np.empty((2, c, nm, k, nm))
        two_steps, bases = np.empty(c), []
        for j, (x0, y0) in enumerate(block):
            pt = np.concatenate([x0, y0])
            step = FD_STEP * max(1.0, float(np.linalg.norm(pt)))
            two_steps[j] = 2 * step
            bases.append(evaluate_all(problem, x0, y0))
            e = np.zeros((nm, nm))  # row i: the step along coordinate i, zeros elsewhere
            e.flat[::nm + 1] = step
            for pp, pm, vp, vm, gp, gm in zip(pt + e, pt - e, vals[0, j], vals[1, j], grads[0, j], grads[1, j]):
                _put_rows(evaluate_all(problem, pp[:n], pp[n:]), vp, gp, d.p)
                _put_rows(evaluate_all(problem, pm[:n], pm[n:]), vm, gm, d.p)
        # the values and gradient rows at pt + e less those at pt - e, over
        # 2 * step, read with the functions before the coordinates: entry
        # [j, f, i] of grad_fd and row [j, f, i] of hess_fd; hess_fd is
        # symmetrized into the minus stack, and the exact gradients and
        # Hessians are written into the stacks the differences have freed
        grad_fd = np.subtract(vals[0], vals[1], out=vals[0]).swapaxes(1, 2)
        grad_fd /= two_steps[:, None, None]
        hess_fd = np.subtract(grads[0], grads[1], out=grads[0]).swapaxes(1, 2)
        hess_fd /= two_steps[:, None, None, None]
        hess_fd = _sym(hess_fd, out=grads[1].swapaxes(1, 2))

        exact_grads, exact_hess = vals[1].swapaxes(1, 2), grads[0].swapaxes(1, 2)
        for b, g, h in zip(bases, exact_grads, exact_hess):
            g[0], g[1], g[2:2 + d.p], g[2 + d.p:] = b.dF, b.df, b.dG, b.dg
            h[0], h[1], h[2:2 + d.p], h[2 + d.p:] = b.d2F, b.d2f, b.d2G, b.d2g
        grad_worst = np.maximum(grad_worst, _row_rel_errors(grad_fd, exact_grads).max(axis=0))
        hess_worst = np.maximum(hess_worst, _row_rel_errors(hess_fd, exact_hess).max(axis=0))

    return DerivativeCheckReport(dict(zip(names, grad_worst.tolist())), dict(zip(names, hess_worst.tolist())))
