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
``hessian_block`` builds the Hessian super-block; W and the second-order
form of the regularity diagnostics share it.  Both take an optional
``out=`` array to build into: the solver passes one (N, N) buffer per run,
so a step allocates no new W.  Either way the bits are the same.

The rows z and w read only f and g at the follower point (x, z), which is
evaluated first.  Given a merit bound, ``assemble_residual`` stops there
when those rows alone prove 0.5 * ||Phi||^2 above the bound, so a rejected
line-search trial need not evaluate (x, y) at all.
"""
from __future__ import annotations

import functools
import math
from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .complementarity import fb, pair_coeffs
from .problem import BilevelProblem, EvalBundle, ProblemDims, evaluate_all, is_zero_hessian

VARIABLE_BLOCKS = ("x", "y", "z", "u", "v", "w")


@functools.cache
def block_slices(dims: ProblemDims) -> Mapping[str, slice]:
    """Offsets of the six variable blocks inside a stacked N-vector.

    Computed once per dimension set (a process sees only a few) and
    shared by every caller, hence read-only.
    """
    slices, start = {}, 0
    for name, size in zip(VARIABLE_BLOCKS, (dims.n, dims.m, dims.m, dims.p, dims.q, dims.q)):
        slices[name] = slice(start, start + size)
        start += size
    return MappingProxyType(slices)


@dataclass(frozen=True)
class Iterate:
    """One stacked point zeta = (x, y, z, u, v, w): the float N-vector
    ``vec``, made read-only, and its six blocks as attributes holding
    read-only views of it at ``block_slices(dims)``, made once.  The
    constructor takes ``vec`` over; ``from_vector`` and ``of`` copy."""

    vec: np.ndarray
    dims: ProblemDims

    def __post_init__(self):
        if self.vec.shape != (self.dims.N,):
            raise ValueError(f"a stacked point has shape (N,) = ({self.dims.N},), got {self.vec.shape}")
        self.vec.flags.writeable = False
        for name, s in block_slices(self.dims).items():
            object.__setattr__(self, name, self.vec[s])

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


@dataclass(frozen=True)
class ResidualVector:
    """Dense residual of length N, rows in ``block_slices`` order, with the
    penalty, point and evaluations it was assembled from."""

    vec: np.ndarray
    lam: float
    zeta: Iterate
    at_y: EvalBundle
    at_z: EvalBundle

    def norm(self) -> float:
        return float(np.linalg.norm(self.vec))

    def merit(self) -> float:
        """The merit function Psi = 0.5 * ||Phi||^2, as the line search tests it."""
        return 0.5 * self.norm() ** 2


def valid_penalty(lam: float) -> bool:
    """Whether lam is an admissible penalty parameter: finite and positive."""
    return math.isfinite(lam) and lam > 0


def require_penalty(lam: float) -> float:
    """lam as a float, or ValueError when it is not a valid penalty."""
    lam = float(lam)
    if not valid_penalty(lam):
        raise ValueError(f"penalty parameter must be finite and positive, got {lam}")
    return lam


def _split(vec: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    return vec[:n], vec[n:]


def assemble_residual(
    problem: BilevelProblem, lam: float, zeta: Iterate, *, merit_bound: float | None = None
) -> ResidualVector | None:
    """Stationarity residual Phi at zeta for penalty lam, with the two
    evaluations it was built from.

    The follower point (x, z) is evaluated first, with f and g only.  When
    ``merit_bound`` is given and the follower rows alone prove that the
    residual's ``merit() <= merit_bound`` fails (see ``_follower_rejects``),
    None is returned and (x, y) is not evaluated.  Any returned residual
    is bitwise the same with or without the bound.
    """
    lam = require_penalty(lam)
    d = problem.dims
    s = block_slices(d)
    vec = np.empty(d.N)

    at_z = evaluate_all(problem, zeta.x, zeta.z, upper=False)
    # follower-Lagrangian gradient pieces at (x, z)
    ell_grad = at_z.df + at_z.dg.T @ zeta.w  # over (x, z) coordinates
    ell_x, ell_z = _split(ell_grad, d.n)
    vec[s["z"]] = -lam * ell_z
    vec[s["w"]] = _fb_rows(at_z.g, zeta.w)
    if merit_bound is not None and _follower_rejects(vec[s["z"]], vec[s["w"]], d.N, merit_bound):
        return None

    at_y = evaluate_all(problem, zeta.x, zeta.y)
    lag_grad = at_y.dF + at_y.dG.T @ zeta.u + at_y.dg.T @ zeta.v + lam * at_y.df
    lag_x, lag_y = _split(lag_grad, d.n)
    vec[s["x"]] = lag_x - lam * ell_x
    vec[s["y"]] = lag_y
    vec[s["u"]] = _fb_rows(at_y.G, zeta.u)
    vec[s["v"]] = _fb_rows(at_y.g, zeta.v)
    return ResidualVector(vec=vec, lam=lam, zeta=zeta, at_y=at_y, at_z=at_z)


_U = 2.0**-53      # unit roundoff
_ETA = 2.0**-1074  # smallest subnormal


def _follower_rejects(rows_z: np.ndarray, rows_w: np.ndarray, N: int, bound: float) -> bool:
    """Whether rows z and w of Phi alone prove that the full Armijo test
    ``0.5 * norm(vec) ** 2 <= bound`` on the N-vector ``vec`` fails.

    Derivation.  Let S be the exact sum of squares of vec (whose entries
    are floats), S_f <= S that of the follower rows, u = 2^-53 and
    eta = 2^-1074.  A floating-point sum of k <= N squares, in any order
    and with or without FMA, is within gamma S' + N eta of its exact value
    S', where gamma = N u / (1 - N u) <= 2 N u; the eta term covers squares
    that round in the subnormal range (a subnormal sum is exact).  s_f,
    two dot products added, is such a sum, and so is D = fl(vec . vec):

        s_f <= (1 + gamma) S_f + N eta,    D >= (1 - gamma) S - N eta.

    ``norm`` is fl(sqrt(D)) >= sqrt(D) (1 - u); ``** 2`` (libm pow, within
    one ulp) and the product with 0.5 lose at most a factor (1 - 2 u) and
    eta in all.  With S >= S_f the full test therefore computes

        psi >= 0.5 c D - eta,           c = (1 - u)^2 (1 - 2 u) >= 1 - 4 u,
            >= 0.5 K (s_f - N eta) - 0.5 N eta - eta,
                                        K = c (1 - gamma) / (1 + gamma)
                                          >= (1 - 4 u)(1 - 4 N u) >= 1 - 4 (N + 1) u,
            >= 0.5 K s_f - (N + 1) eta  when s_f >= N eta.

    The test computes e = fl(fl(fl(0.5 s_f) k) - E) with the exact
    constants k = 1 - 8 (N + 4) u and E = (N + 4) eta.  Its own roundings
    give e <= 0.5 s_f k (1 + u)^2 + (1.01 - N - 4) eta when e > 0, and
    k (1 + u)^2 <= 1 - 4 (N + 1) u <= K.  So for a bound >= 0, e > bound
    forces s_f >= N eta and psi >= 0.5 K s_f - (N + 1) eta > e' >= bound,
    with e' the right-hand side above: the full test fails.  A negative
    bound fails the full test outright (psi >= 0).  A non-finite s_f
    decides nothing; the full test then runs.
    """
    if bound < 0:
        return True
    s_f = float(rows_z.dot(rows_z)) + float(rows_w.dot(rows_w))
    return math.isfinite(s_f) and 0.5 * s_f * (1.0 - 8 * (N + 4) * _U) - (N + 4) * _ETA > bound


def _fb_rows(cons: np.ndarray, mults: np.ndarray) -> list[float]:
    # Python floats: fb on numpy scalars costs twice as much, same bits
    return [fb(-c, mu) for c, mu in zip(cons.tolist(), mults.tolist())]


def _contract(mult: np.ndarray, stack: np.ndarray) -> np.ndarray | float:
    """sum_i mult[i] * stack[i] over a (k, nm, nm) stack.

    This is the single dot that ``np.tensordot(mult, stack, axes=1)``
    makes, so the result is bitwise the same, without tensordot's
    axis bookkeeping.  A stack that ingestion found to be all +0.0 (the
    constraints are linear) is not read: with finite multipliers the sum
    is zero, and 0.0 is returned.  Added to a matrix, it gives the same
    bits as the dot's +0.0 entries.  So does an empty stack (no
    constraints), whose dot would be all +0.0.
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
    k = n + 2 * m
    K = np.empty((k, k)) if out is None else out
    x, y, z = slice(0, n), slice(n, n + m), slice(n + m, k)
    # one new array each, summed left to right in place: no evaluator array is written
    H_lag = at_y.d2F + _contract(zeta.u, at_y.d2G)
    H_lag += _contract(zeta.v, at_y.d2g)
    H_lag += lam * at_y.d2f
    H_ell = at_z.d2f + _contract(zeta.w, at_z.d2g)

    np.subtract(H_lag[:n, :n], lam * H_ell[:n, :n], out=K[x, x])
    K[x, y] = H_lag[:n, n:]
    K[y, x] = H_lag[n:, :n]
    K[y, y] = H_lag[n:, n:]
    K[y, z] = 0.0
    K[z, y] = 0.0
    np.multiply(-lam, H_ell[:n, n:], out=K[x, z])
    np.multiply(-lam, H_ell[n:, :n], out=K[z, x])
    np.multiply(-lam, H_ell[n:, n:], out=K[z, z])
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
    call per pair, gathered for all pairs in one pass.
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
    np.multiply(-lam, at_z.dg[:, :n].T, out=W[s["x"], s["w"]])
    np.multiply(-lam, at_z.dg[:, n:].T, out=W[s["z"], s["w"]])

    # complementarity rows, one per pair in row order (u, v, w, the blocks
    # that end zeta): a times the constraint gradient on the point columns,
    # b on the multiplier diagonal
    cons = at_y.G.tolist() + at_y.g.tolist() + at_z.g.tolist()
    coeffs = np.array([pair_coeffs(c, mu) for c, mu in zip(cons, zeta.vec[k:].tolist())]).reshape(-1, 2)
    rows = np.concatenate((at_y.dG, at_y.dg, at_z.dg))
    rows *= coeffs[:, :1]
    j = d.p + d.q  # rows u and v differentiate in y, rows w in z
    W[k:, s["x"]] = rows[:, :n]
    W[k:k + j, s["y"]] = rows[:j, n:]
    W[k + j:, s["z"]] = rows[j:, n:]
    # the multiplier blocks follow each other on W's diagonal
    W.flat[k * (N + 1)::N + 1] = coeffs[:, 1]

    return W


def merit_grad(problem: BilevelProblem, lam: float, zeta: Iterate) -> np.ndarray:
    """Gradient of the merit function, W^T Phi.

    The merit function is continuously differentiable, so the result does
    not depend on the kink-element choice: residual entries of exactly
    kinked pairs are zero.
    """
    r = assemble_residual(problem, lam, zeta)
    return assemble_jacobian(r).T @ r.vec
