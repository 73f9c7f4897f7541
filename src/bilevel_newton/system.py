"""Stationarity residual, generalized Jacobian, and merit function.

For a fixed penalty lam > 0 the stationarity conditions of the penalized
program are written as a square system Phi(zeta) = 0 in the stacked
variable zeta = (x, y, z, u, v, w) of size N = n + 2m + p + 2q:

    rows x (n):      grad_x of the penalized Lagrangian
    rows y (m):      grad_y of the penalized Lagrangian
    rows z (m):      -lam * (grad_z of the follower Lagrangian)
    rows u (p):      fb(-G_i(x,y), u_i)
    rows v (q):      fb(-g_j(x,y), v_j)
    rows w (q):      fb(-g_j(x,z), w_j)

where the penalized Lagrangian is

    L(x,y,z,u,v,w) = F(x,y) + u.G(x,y) + v.g(x,y) + lam*f(x,y)
                     - lam*(f(x,z) + w.g(x,z))

and ell(x,z,w) = f(x,z) + w.g(x,z) is the follower Lagrangian.  A selected
generalized-Jacobian element W keeps the 6x6 block structure of the system:
the top-left 3x3 super-block is the (symmetric) Hessian of L w.r.t.
(x, y, z); complementarity rows carry a times the constraint gradient
plus b on the matching multiplier diagonal, with (a, b) from
``pair_coeffs``.

Each point is evaluated once: the residual carries its evaluations at
(x, y) and (x, z), and W is built from them, in ``assemble_jacobian`` alone.
A point keeps the evaluations of its last completed residual
(``keep_evaluations``), so a residual at the same point of the same
problem, at any penalty, calls no evaluator again.
``hessian_block`` builds the Hessian super-block; W and the second-order
form of the regularity diagnostics share it.  Both take an optional
``out=`` array to build into: the solver passes one (N, N) buffer per run,
so a step allocates no new W.  Either way the bits are the same.

``assemble_residual`` builds Phi in four stages, each calling the
evaluators it needs through the per-function step ``evaluate_function``:
rows w from g at the follower point (x, z), rows z from f there, rows u
and v from G and g at the leader point (x, y), and rows x and y from F and
f there.  Given a merit bound, it stops after the first stage whose rows
so far prove 0.5 * ||Phi||^2 above the bound, so a rejected line-search
trial calls only the evaluators of the stages it reached.  A trial is a
plain float64 N-vector until it completes: the ``Iterate`` and its two
evaluation bundles are built only for a residual that completes.  An
``Iterate`` of other dims than the problem's raises ValueError before any
evaluator is called (``require_dims``).
"""
from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from itertools import chain
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .complementarity import fb, pair_coeffs
from .problem import BilevelProblem, EvalBundle, ProblemDims, _no_components, evaluate_function, is_zero_hessian
# evaluate_all is not called here: bench/probe.py traces calls through this binding
from .problem import evaluate_all  # noqa: F401

VARIABLE_BLOCKS = ("x", "y", "z", "u", "v", "w")


def block_slices(dims: ProblemDims) -> Mapping[str, slice]:
    """Offsets of the six variable blocks inside a stacked N-vector.

    Computed once per dims object and kept in it, so no call hashes dims;
    shared by every caller, hence read-only.
    """
    slices = dims.__dict__.get("block_slices")
    if slices is None:
        slices, start = {}, 0
        for name, size in zip(VARIABLE_BLOCKS, (dims.n, dims.m, dims.m, dims.p, dims.q, dims.q)):
            slices[name] = slice(start, start + size)
            start += size
        slices = dims.__dict__["block_slices"] = MappingProxyType(slices)
    return slices


def _take_over(vec: np.ndarray, dims: ProblemDims) -> None:
    """Check that vec is a float64 N-vector for dims, and make it read-only."""
    if vec.dtype != np.float64:
        raise ValueError(f"a stacked point is float64, got {vec.dtype}")
    if vec.shape != (dims.N,):
        raise ValueError(f"a stacked point has shape (N,) = ({dims.N},), got {vec.shape}")
    vec.setflags(write=False)


@dataclass(frozen=True, eq=False)
class Iterate:
    """One stacked point zeta = (x, y, z, u, v, w): the float64 N-vector
    ``vec``, made read-only, and its six blocks as properties returning
    read-only views of it at ``block_slices(dims)``.  The constructor takes
    ``vec`` over; ``from_vector`` and ``of`` copy.  Iterates compare and
    hash by identity, not by value."""

    vec: np.ndarray
    dims: ProblemDims
    x, y, z, u, v, w = (property(lambda zeta, b=b: zeta.vec[block_slices(zeta.dims)[b]]) for b in VARIABLE_BLOCKS)

    def __post_init__(self):
        _take_over(self.vec, self.dims)

    def __reduce__(self):  # through the constructor: a copy's vec is read-only, and it keeps no evaluations
        return type(self), (self.vec, self.dims)

    def to_vector(self) -> np.ndarray:
        return self.vec

    @classmethod
    def from_vector(cls, vec: np.ndarray, dims: ProblemDims) -> "Iterate":
        return cls(np.array(vec, dtype=float), dims)

    @classmethod
    def of(cls, dims: ProblemDims, x, y, z, u=(), v=(), w=()) -> "Iterate":
        """Build from loose sequences, validating block lengths."""
        parts = [np.asarray(b, dtype=float).ravel() for b in (x, y, z, u, v, w)]
        for (name, s), part in zip(block_slices(dims).items(), parts):
            if part.size != s.stop - s.start:
                raise ValueError(f"block {name} has length {part.size}, expected {s.stop - s.start}")
        return cls(np.concatenate(parts), dims)


class ResidualVector(NamedTuple):
    """Dense residual of length N, rows in ``block_slices`` order, with the
    penalty, point and evaluations it was assembled from."""

    vec: np.ndarray
    lam: float
    zeta: Iterate
    at_y: EvalBundle
    at_z: EvalBundle

    def norm(self) -> float:
        return math.sqrt(self.vec.dot(self.vec))  # np.linalg.norm's arithmetic, same bits

    def merit(self) -> float:
        """The merit function Psi = 0.5 * ||Phi||^2, as the line search tests it."""
        return _merit(self.vec)


def _merit(vec: np.ndarray) -> float:
    return 0.5 * math.sqrt(vec.dot(vec)) ** 2  # 0.5 * ResidualVector.norm() ** 2


def valid_penalty(lam: float) -> bool:
    """Whether lam is an admissible penalty parameter: finite and positive."""
    return math.isfinite(lam) and lam > 0


def require_penalty(lam: float) -> float:
    """lam as a float, or ValueError when it is not a valid penalty."""
    lam = float(lam)
    if not valid_penalty(lam):
        raise ValueError(f"penalty parameter must be finite and positive, got {lam}")
    return lam


def keep_evaluations(zeta: Iterate, problem: BilevelProblem, at_y: EvalBundle, at_z: EvalBundle) -> None:
    """Keep problem's evaluations at zeta's leader point (x, y) and follower
    point (x, z) with zeta, in place of any it kept.

    ``assemble_residual`` reads them back for the same problem object
    instead of calling the evaluators; ``at_z`` holds None in its F and G
    fields.  They are kept in zeta's ``__dict__``, which a copy or pickle of
    zeta does not take.
    """
    zeta.__dict__["evaluations"] = (problem, at_y, at_z)


def kept_evaluations(zeta: Iterate, problem: BilevelProblem) -> tuple[EvalBundle, EvalBundle] | None:
    """The evaluations (at_y, at_z) kept with zeta for this problem object
    (``keep_evaluations``), or None when zeta keeps none for it."""
    kept = zeta.__dict__.get("evaluations")
    return kept[1:] if kept is not None and kept[0] is problem else None


def require_dims(problem: BilevelProblem, zeta: Iterate) -> None:
    """ValueError, naming both, unless zeta's dims are problem's (the same
    object, or an equal copy): a point is read at its own block offsets."""
    if zeta.dims is not problem.dims and zeta.dims != problem.dims:
        raise ValueError(f"a point of {zeta.dims} given for a problem of {problem.dims}")


def assemble_residual(
    problem: BilevelProblem, lam: float, zeta: Iterate | np.ndarray, *, merit_bound: float | None = None
) -> ResidualVector | None:
    """Stationarity residual Phi at zeta for penalty lam, with the two
    evaluations it was built from.

    zeta is an ``Iterate`` or, as a line-search trial is, a plain float64
    N-vector, checked and made read-only as the ``Iterate`` constructor
    does; the residual's ``zeta`` is then an ``Iterate`` built on that
    vector, only once the residual completes.  An ``Iterate`` of other
    dims than problem's raises ValueError (``require_dims``) before any
    evaluator is called.

    The rows are built in four stages, in this order, each calling only the
    evaluators it needs, through ``evaluate_function``:

    1. rows w, from g at the follower point (x, z);
    2. rows z, from f at (x, z);
    3. rows u and v, from G and g at the leader point (x, y) (G only when
       p > 0: with no upper-level constraint its triple is the shared
       empty one ``evaluate_function`` gives);
    4. rows x and y, from F and f at (x, y).

    Rows w, u and v are Python floats, one ``fb`` call per pair; the
    squares of the rows are summed as they are built (as Python floats, and
    rows z as a dot product), and stage 4 allocates the N-vector and writes
    every row into it once before the final merit test.
    When ``merit_bound`` is given, None is returned unless the residual's
    ``merit() <= merit_bound``: after stage 4 by that test, and after an
    earlier stage as soon as the rows built so far prove that it fails (see
    ``_rows_reject``); no later stage then calls an evaluator.  Any
    returned residual is bitwise the same with or without the bound.
    The stages keep the checked (value, gradient, Hessian) triples; the two
    evaluation bundles are built from them only for a completed residual,
    and kept with zeta (``keep_evaluations``).  A later call at zeta for
    the same problem object reads them instead, and applies a bound stage
    by stage just the same.
    """
    lam = require_penalty(lam)
    d = problem.dims
    if isinstance(zeta, Iterate):
        require_dims(problem, zeta)
        point, kept = zeta.vec, kept_evaluations(zeta, problem)
    else:
        _take_over(zeta, d)
        point, kept = zeta, None
    n, nm, k = d.n, d.n + d.m, d.n + 2 * d.m
    j = k + d.p + d.q  # the multipliers u and v end, and w starts, at j
    x, z = point[:n], point[nm:k]
    entries = point.tolist()  # Python floats: the multipliers u and v at [k:j], w at [j:]
    bounded = merit_bound is not None
    partial = 0.0  # the sum of squares of the rows built so far

    # each stage reads (value, gradient, Hessian) triples, from the kept
    # bundles or from its own evaluator calls
    # stage 1: rows w
    g_z = kept[1].triple("g") if kept else evaluate_function(problem, "g", x, z)
    rows_w = [fb(-c, mu) for c, mu in zip(g_z[0].tolist(), entries[j:])]
    for r in rows_w:
        partial += r * r
    if bounded and _rows_reject(partial, d.N, merit_bound):
        return None

    # stage 2: rows z
    f_z = kept[1].triple("f") if kept else evaluate_function(problem, "f", x, z)
    ell = point[j:].dot(g_z[1])  # g_z[1].T @ w, bitwise, with less overhead
    ell += f_z[1]  # the follower-Lagrangian gradient over (x, z)
    ell *= -lam    # its (x, z) rows: what rows x add, and rows z
    rows_z = ell[n:]
    if bounded:
        partial += float(rows_z.dot(rows_z))
        if _rows_reject(partial, d.N, merit_bound):
            return None

    # stage 3: rows u and v, which follow each other, as do G's and g's pairs
    y = point[n:nm]
    if kept:
        G_y = kept[0].triple("G")
    elif d.p:
        G_y = evaluate_function(problem, "G", x, y)
    else:  # no upper-level constraint: the shared empty triple evaluate_function gives
        G_y = _no_components(nm)
    g_y = kept[0].triple("g") if kept else evaluate_function(problem, "g", x, y)
    rows_uv = [fb(-c, mu) for c, mu in zip(G_y[0].tolist() + g_y[0].tolist(), entries[k:j])]
    for r in rows_uv:
        partial += r * r
    if bounded and _rows_reject(partial, d.N, merit_bound):
        return None

    # stage 4: rows x and y, the upper-Lagrangian gradient over (x, y), plus
    # -lam ell_x in rows x (p = 0: + 0.0, same bits)
    F_y = kept[0].triple("F") if kept else evaluate_function(problem, "F", x, y)
    f_y = kept[0].triple("f") if kept else evaluate_function(problem, "f", x, y)
    vec = np.empty(d.N)
    lag_grad = np.add(F_y[1], point[k:k + d.p].dot(G_y[1]) if d.p else 0.0, out=vec[:nm])
    lag_grad += point[k + d.p:j].dot(g_y[1])
    lag_grad += lam * f_y[1]
    rows_x = lag_grad[:n]
    rows_x += ell[:n]  # a + (-c) is a - c in IEEE arithmetic, same bits
    vec[nm:k] = rows_z
    vec[k:] = rows_uv + rows_w
    if bounded and not _merit(vec) <= merit_bound:
        return None
    if kept:
        at_y, at_z = kept
    else:
        if not isinstance(zeta, Iterate):
            zeta = Iterate(point, d)
        at_y, at_z = EvalBundle.of(n, F_y, f_y, G_y, g_y), EvalBundle.of(n, f=f_z, g=g_z)
        keep_evaluations(zeta, problem, at_y, at_z)
    return ResidualVector(vec=vec, lam=lam, zeta=zeta, at_y=at_y, at_z=at_z)


_U = 2.0**-53      # unit roundoff
_ETA = 2.0**-1074  # smallest subnormal


def _rows_reject(s_p: float, N: int, bound: float) -> bool:
    """Whether rows of Phi whose sum of squares, computed in floating point
    in any order (Python floats added one by one, a dot product, or both),
    is s_p prove that the full Armijo test
    ``0.5 * norm(vec) ** 2 <= bound`` on the N-vector ``vec`` fails.

    Derivation.  Let S be the exact sum of squares of vec (whose entries
    are floats), S_p <= S that of the rows summed, u = 2^-53 and
    eta = 2^-1074.  A floating-point sum of k <= N squares, in any order
    and with or without FMA, is within gamma S' + N eta of its exact value
    S', where gamma = N u / (1 - N u) <= 2 N u; the eta term covers squares
    that round in the subnormal range (a subnormal sum is exact).  s_p, the
    squares of any subset of the rows summed in any order, one by one as
    Python floats or as dot products added, is such a sum, and so is
    D = fl(vec . vec):

        s_p <= (1 + gamma) S_p + N eta,    D >= (1 - gamma) S - N eta.

    ``norm`` is fl(sqrt(D)) >= sqrt(D) (1 - u); ``** 2`` (libm pow, within
    one ulp) and the product with 0.5 lose at most a factor (1 - 2 u) and
    eta in all.  With S >= S_p the full test therefore computes

        psi >= 0.5 c D - eta,           c = (1 - u)^2 (1 - 2 u) >= 1 - 4 u,
            >= 0.5 K (s_p - N eta) - 0.5 N eta - eta,
                                        K = c (1 - gamma) / (1 + gamma)
                                          >= (1 - 4 u)(1 - 4 N u) >= 1 - 4 (N + 1) u,
            >= 0.5 K s_p - (N + 1) eta  when s_p >= N eta.

    The test computes e = fl(fl(fl(0.5 s_p) k) - E) with the exact
    constants k = 1 - 8 (N + 4) u and E = (N + 4) eta.  Its own roundings
    give e <= 0.5 s_p k (1 + u)^2 + (1.01 - N - 4) eta when e > 0, and
    k (1 + u)^2 <= 1 - 4 (N + 1) u <= K.  So for a bound >= 0, e > bound
    forces s_p >= N eta and psi >= 0.5 K s_p - (N + 1) eta > e' >= bound,
    with e' the right-hand side above: the full test fails.  A negative
    bound fails the full test outright (psi >= 0).  A non-finite s_p
    decides nothing; the later stages then run.

    s_p may also sum the squares of floats l_i with 0 <= l_i <= |Phi_i| in
    place of rows, as S_p = sum l_i^2 <= S still holds.  A line search
    tests its trials' signs so: for mu < 0 and finite c the computed row
    fb(-c, mu) is at least -mu, because math.hypot(c, mu) >= max(|c|, |mu|)
    as computed gives fl(h + c) >= 0, and then fl(t - mu) >= -mu (rounding
    is monotone and -mu is a float).
    """
    if bound < 0:
        return True
    return math.isfinite(s_p) and 0.5 * s_p * (1.0 - 8 * (N + 4) * _U) - (N + 4) * _ETA > bound


def _contract(mult: np.ndarray, stack: np.ndarray) -> np.ndarray | float:
    """sum_i mult[i] * stack[i] over a (k, nm, nm) stack.

    This is the single dot that ``np.tensordot(mult, stack, axes=1)``
    makes, so the result is bitwise the same, without tensordot's
    axis bookkeeping.  A recorded stack that ingestion found all +0.0
    (linear constraints, returned as this same array) is not read: with
    finite multipliers the sum is zero, and 0.0 is returned.  Added to a
    matrix, it gives the same bits as the dot's +0.0 entries.  So does an
    empty stack (no constraints), whose dot would be all +0.0.
    """
    k, nm = stack.shape[0], stack.shape[1]
    if k == 0 or (is_zero_hessian(stack) and np.isfinite(mult).all()):
        return 0.0
    return np.dot(mult.reshape(1, k), stack.reshape(k, nm * nm)).reshape(nm, nm)


def hessian_block(
    lam: float, zeta: Iterate, at_y: EvalBundle, at_z: EvalBundle, *, out: np.ndarray | None = None
) -> np.ndarray:
    """Hessian of L w.r.t. (x, y, z): the (n+2m)x(n+2m) top-left block of W.

    With H_lag the upper-Lagrangian Hessian w.r.t. (x, y) and H_ell the
    follower-Lagrangian Hessian w.r.t. (x, z), it is

        [ H_lag_xx - lam H_ell_xx   H_lag_xy   -lam H_ell_xz ]
        [ H_lag_yx                  H_lag_yy    0            ]
        [ -lam H_ell_zx             0          -lam H_ell_zz ]

    Every one of the nine blocks is written, the two zero blocks included,
    so ``out`` (a float64 array of that shape, a view of W's corner for
    instance) may hold anything beforehand; it is returned.  Without
    ``out`` a new array is returned.
    """
    n, m = zeta.dims.n, zeta.dims.m
    nm, k = n + m, n + 2 * m
    K = np.empty((k, k)) if out is None else out
    x, y, z = slice(0, n), slice(n, nm), slice(nm, k)
    # H_lag and -lam H_ell, one new array each, summed left to right in
    # place: no evaluator array is written.  K[x, x] adds fl(-lam b) where
    # the formula subtracts fl(lam b): the same bits, signed zeros included,
    # since a - c is a + (-c) in IEEE arithmetic
    H_lag = at_y.d2F + _contract(zeta.u, at_y.d2G)
    H_lag += _contract(zeta.v, at_y.d2g)
    H_lag += lam * at_y.d2f
    E = at_z.d2f + _contract(zeta.w, at_z.d2g)
    E *= -lam

    K[:nm, :nm] = H_lag
    K[x, x] += E[:n, :n]
    K[x, z] = E[:n, n:]
    K[z, x] = E[n:, :n]
    K[z, z] = E[n:, n:]
    K[y, z] = 0.0
    K[z, y] = 0.0
    return K


def assemble_jacobian(residual: ResidualVector, *, out: np.ndarray | None = None) -> np.ndarray:
    """One element W of the generalized Jacobian of Phi at the residual's point.

    W is built from the evaluations the residual carries; nothing is
    evaluated again.  Without ``out`` it is a new array.  With ``out``, a
    float64 (N, N) array of any layout (a run passes the same buffer at
    every step), W is built there and ``out`` is returned; it is zeroed
    first, so what it held does not matter.  ``out`` is trusted like any
    internal buffer: its shape and type are not checked.  The bits are the
    same either way.

    Every region is written as whole blocks: ``hessian_block`` writes the
    (x, y, z) corner in place; one broadcast product a[:, None] * grad
    gives the point-column entries of all complementarity rows, copied in
    as three blocks; one strided write puts every b on the multiplier
    diagonal.  The coefficients (a, b) come from one scalar ``pair_coeffs``
    call per pair, gathered for all pairs as one flat list of floats.
    """
    d, lam, zeta = residual.zeta.dims, residual.lam, residual.zeta
    at_y, at_z = residual.at_y, residual.at_z
    n, k, N = d.n, d.n + 2 * d.m, d.N
    s = block_slices(d)

    if out is None:
        W = np.zeros((N, N))
    else:
        W = out
        W.fill(0.0)
    hessian_block(lam, zeta, at_y, at_z, out=W[:k, :k])

    # multiplier columns of the gradient rows; rows x and y together are
    # the (x, y) coordinates of the leader-point constraint gradients
    W[:n + d.m, s["u"]] = at_y.dG.T
    W[:n + d.m, s["v"]] = at_y.dg.T
    cols_w = at_z.dg.T * -lam
    W[s["x"], s["w"]] = cols_w[:n]
    W[s["z"], s["w"]] = cols_w[n:]

    # complementarity rows, one per pair in row order (u, v, w, the blocks
    # that end zeta): a times the constraint gradient on the point columns,
    # b on the multiplier diagonal
    cons = at_y.G.tolist() + at_y.g.tolist() + at_z.g.tolist()
    coeffs = np.array(list(chain.from_iterable(map(pair_coeffs, cons, zeta.vec[k:].tolist())))).reshape(-1, 2)
    rows = np.concatenate((at_y.dG, at_y.dg, at_z.dg))
    rows *= coeffs[:, :1]
    j = d.p + d.q  # rows u and v differentiate in y, rows w in z
    W[k:, s["x"]] = rows[:, :n]
    W[k:k + j, s["y"]] = rows[:j, n:]
    W[k + j:, s["z"]] = rows[j:, n:]
    # the multiplier blocks follow each other on W's diagonal
    W.flat[k * (N + 1)::N + 1] = coeffs[:, 1]

    return W
