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
(x, y, z); complementarity rows carry a_coef times the constraint gradient
plus b_coef on the matching multiplier diagonal.

Each point is evaluated once: the residual carries its evaluations at
(x, y) and (x, z), and W is built from them.  ``hessian_block`` builds the
Hessian super-block; W and the second-order form of the regularity
diagnostics share it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .complementarity import fb, pair_coeffs
from .problem import BilevelProblem, EvalBundle, ProblemDims, evaluate_all

RESIDUAL_BLOCKS = ("grad_x", "grad_y", "grad_z", "comp_G", "comp_g_upper", "comp_g_lower")
VARIABLE_BLOCKS = ("x", "y", "z", "u", "v", "w")


def block_slices(dims: ProblemDims) -> dict[str, slice]:
    """Offsets of the six variable blocks inside a stacked N-vector."""
    n, m, p, q = dims.n, dims.m, dims.p, dims.q
    edges = np.cumsum([0, n, m, m, p, q, q])
    return {name: slice(int(a), int(b)) for name, a, b in zip(VARIABLE_BLOCKS, edges[:-1], edges[1:])}


@dataclass(frozen=True)
class Iterate:
    """One stacked point zeta = (x, y, z, u, v, w)."""

    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    u: np.ndarray
    v: np.ndarray
    w: np.ndarray

    def to_vector(self) -> np.ndarray:
        return np.concatenate([self.x, self.y, self.z, self.u, self.v, self.w])

    @classmethod
    def from_vector(cls, vec: np.ndarray, dims: ProblemDims) -> "Iterate":
        vec = np.asarray(vec, dtype=float).reshape(dims.N)
        s = block_slices(dims)
        return cls(*(vec[s[name]].copy() for name in VARIABLE_BLOCKS))

    @classmethod
    def of(cls, dims: ProblemDims, x, y, z, u=(), v=(), w=()) -> "Iterate":
        """Build from loose sequences, validating block lengths."""
        parts = [np.atleast_1d(np.asarray(b, dtype=float)).ravel() for b in (x, y, z, u, v, w)]
        sizes = (dims.n, dims.m, dims.m, dims.p, dims.q, dims.q)
        for name, part, size in zip(VARIABLE_BLOCKS, parts, sizes):
            if part.size != size:
                raise ValueError(f"block {name} has length {part.size}, expected {size}")
        return cls(*parts)


@dataclass(frozen=True)
class ResidualVector:
    """Dense residual of length N with named slices in fixed row order,
    with the penalty, point and evaluations it was assembled from."""

    vec: np.ndarray
    dims: ProblemDims
    lam: float
    zeta: Iterate
    at_y: EvalBundle
    at_z: EvalBundle

    def _slice(self, name: str) -> np.ndarray:
        return self.vec[block_slices(self.dims)[name]]

    @property
    def grad_x(self) -> np.ndarray:
        return self._slice("x")

    @property
    def grad_y(self) -> np.ndarray:
        return self._slice("y")

    @property
    def grad_z(self) -> np.ndarray:
        return self._slice("z")

    @property
    def comp_G(self) -> np.ndarray:
        return self._slice("u")

    @property
    def comp_g_upper(self) -> np.ndarray:
        return self._slice("v")

    @property
    def comp_g_lower(self) -> np.ndarray:
        return self._slice("w")

    def norm(self) -> float:
        return float(np.linalg.norm(self.vec))


@dataclass(frozen=True)
class JacobianMatrix:
    """Selected generalized-Jacobian element with block offset metadata."""

    mat: np.ndarray
    dims: ProblemDims

    @property
    def offsets(self) -> dict[str, slice]:
        return block_slices(self.dims)

    def block(self, row: str, col: str) -> np.ndarray:
        s = block_slices(self.dims)
        return self.mat[s[row], s[col]]


def _require_lambda(lam: float) -> float:
    lam = float(lam)
    if lam <= 0:
        raise ValueError(f"penalty parameter must be positive, got {lam}")
    return lam


def _split(vec: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    return vec[:n], vec[n:]


def assemble_residual(problem: BilevelProblem, lam: float, zeta: Iterate) -> ResidualVector:
    """Stationarity residual Phi at zeta for penalty lam, with the two
    evaluations it was built from."""
    lam = _require_lambda(lam)
    d = problem.dims
    at_y = evaluate_all(problem, zeta.x, zeta.y)
    at_z = evaluate_all(problem, zeta.x, zeta.z)
    vec = _residual_from_bundles(d, lam, zeta, at_y, at_z)
    return ResidualVector(vec=vec, dims=d, lam=lam, zeta=zeta, at_y=at_y, at_z=at_z)


def _comp_blocks(zeta: Iterate, at_y: EvalBundle, at_z: EvalBundle):
    """The three complementarity blocks in row order: constraint values,
    multipliers, constraint gradients, follower block, multiplier block."""
    return ((at_y.G, zeta.u, at_y.dG, "y", "u"),
            (at_y.g, zeta.v, at_y.dg, "y", "v"),
            (at_z.g, zeta.w, at_z.dg, "z", "w"))


def _residual_from_bundles(
    d: ProblemDims, lam: float, zeta: Iterate, at_y: EvalBundle, at_z: EvalBundle
) -> np.ndarray:
    n = d.n
    # follower-Lagrangian gradient pieces at (x, z)
    ell_grad = at_z.df + at_z.dg.T @ zeta.w  # over (x, z) coordinates
    ell_x, ell_z = _split(ell_grad, n)

    lag_grad = at_y.dF + at_y.dG.T @ zeta.u + at_y.dg.T @ zeta.v + lam * at_y.df
    lag_x, lag_y = _split(lag_grad, n)

    comp = [np.array([fb(-c, mu) for c, mu in zip(cons, mults)])
            for cons, mults, *_ in _comp_blocks(zeta, at_y, at_z)]

    return np.concatenate([lag_x - lam * ell_x, lag_y, -lam * ell_z, *comp])


def hessian_block(lam: float, zeta: Iterate, at_y: EvalBundle, at_z: EvalBundle) -> np.ndarray:
    """Hessian of L w.r.t. (x, y, z): the (n+2m)x(n+2m) top-left block of W.

    With H_lag the upper-Lagrangian Hessian w.r.t. (x, y) and H_ell the
    follower-Lagrangian Hessian w.r.t. (x, z), it is

        [ H_lag_xx - lam H_ell_xx   H_lag_xy   -lam H_ell_xz ]
        [ H_lag_yx                  H_lag_yy    0            ]
        [ -lam H_ell_zx             0          -lam H_ell_zz ]
    """
    n, m = zeta.x.size, zeta.y.size
    x, y, z = slice(0, n), slice(n, n + m), slice(n + m, n + 2 * m)
    H_lag = at_y.d2F + np.tensordot(zeta.u, at_y.d2G, axes=1) \
        + np.tensordot(zeta.v, at_y.d2g, axes=1) + lam * at_y.d2f
    H_ell = at_z.d2f + np.tensordot(zeta.w, at_z.d2g, axes=1)

    K = np.zeros((n + 2 * m, n + 2 * m))
    K[x, x] = H_lag[:n, :n] - lam * H_ell[:n, :n]
    K[x, y] = H_lag[:n, n:]
    K[y, x] = H_lag[n:, :n]
    K[y, y] = H_lag[n:, n:]
    K[x, z] = -lam * H_ell[:n, n:]
    K[z, x] = -lam * H_ell[n:, :n]
    K[z, z] = -lam * H_ell[n:, n:]
    return K


def assemble_jacobian(
    residual: ResidualVector,
    kink_tol: float = 1e-12,
    kink_coeffs: tuple[float, float] | None = None,
) -> JacobianMatrix:
    """One element W of the generalized Jacobian of Phi at the residual's point.

    W is built from the evaluations the residual carries; nothing is
    evaluated again.  ``kink_coeffs`` overrides the disc element used for
    exactly-kinked complementarity pairs; any admissible choice yields a
    valid element.
    """
    d, lam, zeta = residual.dims, residual.lam, residual.zeta
    at_y, at_z = residual.at_y, residual.at_z
    n, k = d.n, d.n + 2 * d.m
    s = block_slices(d)

    W = np.zeros((d.N, d.N))
    W[:k, :k] = hessian_block(lam, zeta, at_y, at_z)

    # multiplier columns of the gradient rows
    W[s["x"], s["u"]] = at_y.dG[:, :n].T
    W[s["y"], s["u"]] = at_y.dG[:, n:].T
    W[s["x"], s["v"]] = at_y.dg[:, :n].T
    W[s["y"], s["v"]] = at_y.dg[:, n:].T
    W[s["x"], s["w"]] = -lam * at_z.dg[:, :n].T
    W[s["z"], s["w"]] = -lam * at_z.dg[:, n:].T

    # complementarity rows: a*grad(constraint) on the point columns, b on
    # the own-multiplier diagonal
    for cons, mults, grads, col, blk in _comp_blocks(zeta, at_y, at_z):
        r0 = s[blk].start
        for i in range(len(cons)):
            cf = pair_coeffs(cons[i], mults[i], kink_tol, kink_coeffs)
            W[r0 + i, s["x"]] = cf.a_coef * grads[i, :n]
            W[r0 + i, s[col]] = cf.a_coef * grads[i, n:]
            W[r0 + i, r0 + i] = cf.b_coef

    return JacobianMatrix(mat=W, dims=d)


def merit(problem: BilevelProblem, lam: float, zeta: Iterate) -> float:
    """Half squared Euclidean norm of the residual."""
    r = assemble_residual(problem, lam, zeta)
    return 0.5 * float(r.vec @ r.vec)


def merit_grad(
    problem: BilevelProblem,
    lam: float,
    zeta: Iterate,
    kink_tol: float = 1e-12,
    kink_coeffs: tuple[float, float] | None = None,
) -> np.ndarray:
    """Gradient of the merit function, W^T Phi.

    The merit function is continuously differentiable, so the result does
    not depend on the kink-element choice: residual entries of exactly
    kinked pairs are zero.
    """
    r = assemble_residual(problem, lam, zeta)
    return assemble_jacobian(r, kink_tol, kink_coeffs).mat.T @ r.vec
