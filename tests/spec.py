"""An executable specification of the penalized stationarity system and of
one globalized semismooth Newton run, written straight from the
definitions, for the tests to compare the library with bit for bit.

For a penalty lam > 0 and the stacked point zeta = (x, y, z, u, v, w):

    Phi_x = grad_x F + G_x^T u + g_x^T v + lam grad_x f  -  lam (grad_x f + g_x^T w)(x, z)
    Phi_y = grad_y F + G_y^T u + g_y^T v + lam grad_y f
    Phi_z = -lam (grad_z f + g_z^T w)(x, z)
    Phi_u = fb(-G, u),  Phi_v = fb(-g, v),  Phi_w = fb(-g(x, z), w),

every unmarked function taken at the leader point (x, y).  W is one
element of the generalized Jacobian of Phi, the run is Newton with the De
Luca-Facchinei-Kanzow descent test and a steepest-descent fallback, and
its steps are found by Armijo backtracking on Psi = 0.5 ||Phi||^2.

Nothing here is staged, kept, buffered or written in place: every point
is evaluated afresh and in full, so a trial whose leader point fails ends
a run here even where the library rejects the trial before that point.
Failure semantics, evaluator call counts, buffers and the Hessian record
are left to their own tests.  From the library this module reads only the
types, the protocol constants (at call time, so that a patched constant
acts here too), the status and direction names and ``pair_coeffs``.
"""
import itertools
import math
import warnings
from typing import NamedTuple

import numpy as np
import scipy.linalg

from bilevel_newton.complementarity import pair_coeffs
from bilevel_newton.problem import EvaluationError
from bilevel_newton.solver import (EVALUATION_FAILED, GRADIENT, LINE_SEARCH_STALL, MAX_ITER,
                                   MERIT_STATIONARY, NEWTON, SOLVED)


def evaluate(problem, name, x, y):
    """(value, gradient, Hessian) of the evaluator ``name`` ("F", "f", "G"
    or "g") at (x, y), each Hessian symmetrized as 0.5 (H + H^T).

    Raises EvaluationError when the output is malformed or has a
    non-finite entry.  A constraint evaluator with no components is not
    called.
    """
    d = problem.dims
    nm = d.n + d.m
    k = {"G": d.p, "g": d.q}.get(name)
    if k == 0:
        return np.zeros(0), np.zeros((0, nm)), np.zeros((0, nm, nm))
    lead = () if k is None else (k,)
    try:
        value, grad, hess = getattr(problem, name)(x, y)
        value = float(value) if k is None else np.asarray(value, dtype=float).reshape(k)
        grad = np.asarray(grad, dtype=float).reshape(*lead, nm)
        hess = np.asarray(hess, dtype=float).reshape(*lead, nm, nm)
    except (TypeError, ValueError) as exc:
        raise EvaluationError(name, np.concatenate([x, y]), f"malformed value: {exc}") from exc
    hess = 0.5 * (hess + hess.swapaxes(-1, -2))
    finite = math.isfinite(value) if k is None else np.isfinite(value).all()
    if not (finite and np.isfinite(grad).all() and np.isfinite(hess).all()):
        raise EvaluationError(name, np.concatenate([x, y]))
    return value, grad, hess


def blocks(dims, vec):
    """The six blocks x, y, z, u, v, w of a stacked N-vector."""
    sizes = (dims.n, dims.m, dims.m, dims.p, dims.q, dims.q)
    return [vec[end - size:end] for size, end in zip(sizes, itertools.accumulate(sizes))]


def evaluations(problem, vec):
    """F, f, G and g at the leader point (x, y), and f and g at the
    follower point (x, z), by name."""
    x, y, z = blocks(problem.dims, vec)[:3]
    return ({name: evaluate(problem, name, x, y) for name in "FfGg"},
            {name: evaluate(problem, name, x, z) for name in "fg"})


def fb(a, b):
    """The Fischer-Burmeister function sqrt(a^2 + b^2) - a - b."""
    return math.hypot(a, b) - a - b


def norm(vec):
    return float(np.linalg.norm(vec))


def merit(phi):
    """Psi = 0.5 ||Phi||^2."""
    return 0.5 * norm(phi) ** 2


def residual(problem, lam, vec):
    """Phi at the stacked point vec (an N-vector) for penalty lam."""
    n, lam = problem.dims.n, float(lam)
    u, v, w = blocks(problem.dims, vec)[3:]
    at_y, at_z = evaluations(problem, vec)
    # the upper Lagrangian's gradient over (x, y) and the follower Lagrangian's over (x, z)
    lag = at_y["F"][1] + at_y["G"][1].T @ u + at_y["g"][1].T @ v + lam * at_y["f"][1]
    ell = at_z["f"][1] + at_z["g"][1].T @ w
    rows_x, rows_y, rows_z = lag[:n] - lam * ell[:n], lag[n:], -lam * ell[n:]
    pairs = [(at_y["G"][0], u), (at_y["g"][0], v), (at_z["g"][0], w)]
    rows_uvw = [fb(-c, mu) for cons, mults in pairs for c, mu in zip(cons.tolist(), mults.tolist())]
    return np.concatenate([rows_x, rows_y, rows_z, np.array(rows_uvw, dtype=float)])


def hessian_block(dims, lam, vec, at_y, at_z):
    """The Hessian of the penalized Lagrangian over (x, y, z), W's corner."""
    n, m = dims.n, dims.m
    u, v, w = blocks(dims, vec)[3:]
    H_lag = (at_y["F"][2] + np.tensordot(u, at_y["G"][2], axes=1)
             + np.tensordot(v, at_y["g"][2], axes=1) + lam * at_y["f"][2])
    H_ell = at_z["f"][2] + np.tensordot(w, at_z["g"][2], axes=1)
    zero = np.zeros((m, m))
    return np.block([
        [H_lag[:n, :n] - lam * H_ell[:n, :n], H_lag[:n, n:], -lam * H_ell[:n, n:]],
        [H_lag[n:, :n], H_lag[n:, n:], zero],
        [-lam * H_ell[n:, :n], zero, -lam * H_ell[n:, n:]],
    ])


def jacobian(problem, lam, vec):
    """W, the generalized-Jacobian element of Phi the library selects: at
    each complementarity pair the coefficients (a, b) of ``pair_coeffs``."""
    d, lam = problem.dims, float(lam)
    n, k, N = d.n, d.n + 2 * d.m, d.N
    x, y, z = slice(0, n), slice(n, n + d.m), slice(n + d.m, k)
    at_y, at_z = evaluations(problem, vec)
    W = np.zeros((N, N))
    W[:k, :k] = hessian_block(d, lam, vec, at_y, at_z)
    # the multiplier columns of rows x, y and z
    u, v, w = slice(k, k + d.p), slice(k + d.p, k + d.p + d.q), slice(k + d.p + d.q, N)
    W[x, u], W[y, u] = at_y["G"][1][:, :n].T, at_y["G"][1][:, n:].T
    W[x, v], W[y, v] = at_y["g"][1][:, :n].T, at_y["g"][1][:, n:].T
    W[x, w], W[z, w] = -lam * at_z["g"][1][:, :n].T, -lam * at_z["g"][1][:, n:].T
    # one complementarity row per pair: a times the constraint gradient, b on the diagonal
    pairs = [(c, grad, y) for c, grad in zip(at_y["G"][0].tolist(), at_y["G"][1])]
    pairs += [(c, grad, y) for c, grad in zip(at_y["g"][0].tolist(), at_y["g"][1])]
    pairs += [(c, grad, z) for c, grad in zip(at_z["g"][0].tolist(), at_z["g"][1])]
    for row, ((c, grad, cols), mu) in enumerate(zip(pairs, vec[k:].tolist()), start=k):
        a, b = pair_coeffs(c, mu)
        W[row, x], W[row, cols], W[row, row] = a * grad[:n], a * grad[n:], b
    return W


def merit_grad(problem, lam, vec):
    """grad Psi = W^T Phi."""
    return jacobian(problem, lam, vec).T @ residual(problem, lam, vec)


def solve(A, b):
    """The solution of A d = b by LU with partial pivoting, or None when
    the smallest pivot is at most PIVOT_TOL times max |A|, the solution is
    not finite, or ||A d - b|| > 1e-8 max(1, ||b||)."""
    from bilevel_newton.linalg import PIVOT_TOL
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)  # an exactly zero pivot
        lu, piv = scipy.linalg.lu_factor(A, check_finite=False)
    scale = np.abs(A).max()
    if scale == 0.0 or np.abs(np.diag(lu)).min() <= PIVOT_TOL * scale:
        return None
    d = scipy.linalg.lu_solve((lu, piv), b, check_finite=False)
    if not np.isfinite(d).all() or norm(A @ d - b) > 1e-8 * max(1.0, norm(b)):
        return None
    return d


def direction(W, phi):
    """(d, its type, the slope grad Psi . d): the Newton direction when
    W d = -Phi is solved and grad Psi . d <= -BETA ||d||^T, else -grad Psi."""
    from bilevel_newton.solver import BETA, T
    grad = W.T @ phi
    d = solve(W, -phi)
    if d is not None and float(grad @ d) <= -BETA * norm(d) ** T:
        return d, NEWTON, float(grad @ d)
    return -grad, GRADIENT, float(grad @ -grad)


def line_search(problem, lam, vec, d, psi0, slope):
    """Armijo backtracking: for s = 0 .. MAX_BACKTRACKS, the first step
    alpha = RHO^s with Psi(vec + alpha d) <= psi0 + SIGMA alpha slope, as
    (alpha, s, the new point, Phi there); None when no step passes."""
    from bilevel_newton.solver import MAX_BACKTRACKS, RHO, SIGMA
    if slope >= 0:
        raise ValueError(f"line search needs a descent direction, slope={slope}")
    for s in range(MAX_BACKTRACKS + 1):
        alpha = RHO**s
        trial = vec + alpha * d
        phi = residual(problem, lam, trial)
        if merit(phi) <= psi0 + SIGMA * alpha * slope:
            return alpha, s, trial, phi
    return None


def eoc(norms):
    """The larger of the last two ratios log ||Phi_k+1|| / log ||Phi_k||:
    None for fewer than three norms or no defined ratio, inf when one of
    the last three norms is zero."""
    if len(norms) < 3:
        return None
    tail = norms[-3:]
    if 0.0 in tail:
        return math.inf
    ratios = [math.log(new) / math.log(old) for old, new in zip(tail, tail[1:]) if math.log(old) != 0.0]
    return max(ratios) if ratios else None


class Run(NamedTuple):
    status: str
    iterates: list      # the start and every accepted point
    norms: list         # ||Phi|| at each of them
    step_sizes: list
    direction_types: list
    slopes: list
    F: float            # at the last point's leader point, NaN if F or f fails there
    f: float
    eoc: float | None


def run(problem, lam, vec, max_iter):
    """One run from the stacked point vec, until ||Phi|| <= EPS (Solved),
    max_iter steps (MaxIter), ||grad Psi|| <= GRAD_STALL_TOL
    (MeritStationary), no step passes the line search (LineSearchStall),
    or an evaluator fails (EvaluationFailed)."""
    from bilevel_newton.solver import EPS, GRAD_STALL_TOL
    iterates, norms, alphas, types, slopes = [np.array(vec, dtype=float)], [], [], [], []
    try:
        phi = residual(problem, lam, iterates[0])
        norms.append(norm(phi))
        while norms[-1] > EPS and len(alphas) < max_iter:
            W = jacobian(problem, lam, iterates[-1])
            if norm(W.T @ phi) <= GRAD_STALL_TOL:
                status = MERIT_STATIONARY
                break
            d, kind, slope = direction(W, phi)
            step = line_search(problem, lam, iterates[-1], d, merit(phi), slope)
            if step is None:
                status = LINE_SEARCH_STALL
                break
            alpha, _, point, phi = step
            iterates.append(point)
            norms.append(norm(phi))
            alphas.append(alpha)
            types.append(kind)
            slopes.append(slope)
        else:
            status = SOLVED if norms[-1] <= EPS else MAX_ITER
    except EvaluationError:
        status = EVALUATION_FAILED
    x, y = blocks(problem.dims, iterates[-1])[:2]
    try:
        F, f = evaluate(problem, "F", x, y)[0], evaluate(problem, "f", x, y)[0]
    except EvaluationError:
        F = f = math.nan
    return Run(status, iterates, norms, alphas, types, slopes, F, f, eoc(norms))


def check_derivatives(problem, points, step=1e-6):
    """The worst relative errors, over the points, of each function's
    gradient against central differences of its values and of its Hessian
    against the symmetrized central differences of its gradient, by name
    (F, f, G[j], g[j]); the step is ``step`` max(1, ||point||) and the
    error max |approx - exact| / max(1, max |exact|)."""
    d = problem.dims
    names = ["F", "f", *(f"G[{j}]" for j in range(d.p)), *(f"g[{j}]" for j in range(d.q))]

    def stacked(point):  # every function's value, gradient and Hessian, one row each
        at = {name: evaluate(problem, name, point[:d.n], point[d.n:]) for name in "FfGg"}
        return [np.concatenate([[at["F"][i]], [at["f"][i]], at["G"][i], at["g"][i]]) for i in range(3)]

    grad_errors, hess_errors = {name: [] for name in names}, {name: [] for name in names}
    for x0, y0 in points:
        pt = np.concatenate([np.asarray(x0, dtype=float).reshape(d.n), np.asarray(y0, dtype=float).reshape(d.m)])
        h = step * max(1.0, norm(pt))
        _, grad, hess = stacked(pt)
        grad_fd, hess_fd = np.empty(grad.shape), np.empty(hess.shape)
        for i in range(pt.size):
            e = np.zeros(pt.size)
            e[i] = h
            (vp, gp, _), (vm, gm, _) = stacked(pt + e), stacked(pt - e)
            grad_fd[:, i], hess_fd[:, i] = (vp - vm) / (2 * h), (gp - gm) / (2 * h)
        hess_fd = 0.5 * (hess_fd + hess_fd.swapaxes(-1, -2))
        for j, name in enumerate(names):
            for errors, approx, exact in ((grad_errors, grad_fd, grad), (hess_errors, hess_fd, hess)):
                errors[name].append(np.abs(approx[j] - exact[j]).max() / max(1.0, np.abs(exact[j]).max()))
    # np.max keeps a NaN error
    return ({name: float(np.max(e)) for name, e in grad_errors.items()},
            {name: float(np.max(e)) for name, e in hess_errors.items()})
