"""Small dense linear-algebra kernel used by the solver and diagnostics.

Thin, contract-checked wrappers over LAPACK routines: LU with partial
pivoting (plus explicit singularity detection), the smallest eigenvalue of
a symmetric matrix, and null-space bases.  Everything here is deterministic
for fixed input.

The LU factorization and solve call LAPACK ``dgetrf``/``dgetrs`` directly.
These are the routines behind scipy's LU wrappers in ``scipy.linalg``, so
the results are bitwise the same; the direct call skips scipy's batching and
argument-checking wrappers, which cost several times the arithmetic at the
system sizes of the bundled problems, and it does not warn on an exactly
zero pivot, which the pivot test here reports instead.  ``sym_eig_min``
asks LAPACK ``dsyevr`` for the one eigenvalue it reports, not all of them.
``null_space_basis`` decides the rank from singular values computed without
vectors, and takes the basis from a complete QR of the transpose when the
rows are independent, from a full SVD only when they are not.  The three
routines, and ``problem``'s ``ddot``, come from ``_lapack``: the objects
``scipy.linalg.lapack`` exposes, taken from scipy's compiled module without
importing the ``scipy.linalg`` package, which would double the library's
import time; when scipy's layout has no such module, ``_lapack`` imports
them from ``scipy.linalg.lapack`` and ``scipy.linalg.blas`` instead.
"""
from __future__ import annotations

import math

import numpy as np

from ._lapack import dgetrf, dgetrs, dsyevr
from .problem import _finite


class SingularMatrixError(RuntimeError):
    """Linear system flagged as (numerically) singular; expected control flow."""


# A pivot is tiny when its magnitude is <= PIVOT_TOL times the largest
# absolute entry of the matrix.
PIVOT_TOL = 1e-12
# null_space_basis counts a singular value toward the rank when it exceeds
# NULL_SPACE_TOL times the largest one.
NULL_SPACE_TOL = 1e-10


def lu_solve(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve A d = b by LU with partial pivoting; raises SingularMatrixError
    instead of returning garbage.

    A tiny pivot (see PIVOT_TOL) reports A singular.  The scale is
    max(max A, -min A), read in two passes over A with no |A| temporary.
    Besides the pivot test, the multiplied-back residual must satisfy
    ||A d - b|| <= 1e-8 * max(1, ||b||); severely ill-conditioned systems
    are therefore also reported as singular.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    b = np.asarray(b, dtype=float).reshape(A.shape[0])
    if A.size == 0:
        # dgetrf rejects a 0 x 0 matrix as an illegal argument
        raise SingularMatrixError("pivot 0.000e+00 below threshold")
    lu, piv, info = dgetrf(A)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of LAPACK dgetrf")
    # info > 0 reports an exactly zero pivot; the pivot test flags it
    min_pivot = float(np.abs(lu.diagonal()).min())
    scale = max(float(A.max()), -float(A.min()))
    if scale == 0.0 or min_pivot <= PIVOT_TOL * scale:
        raise SingularMatrixError(f"pivot {min_pivot:.3e} below threshold")
    d, info = dgetrs(lu, piv, b)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of LAPACK dgetrs")
    if not _finite(d):  # one ddot; d is scanned only when its sum of squares is not finite
        raise SingularMatrixError("non-finite solution")
    # sqrt(r.r) is the arithmetic np.linalg.norm does for a real vector
    r = A @ d - b
    resid = math.sqrt(r.dot(r))
    if resid > 1e-8 * max(1.0, math.sqrt(b.dot(b))):
        raise SingularMatrixError(f"solve residual {resid:.3e} too large")
    return d


def sym_eig_min(A: np.ndarray) -> float:
    """Smallest eigenvalue of a symmetric matrix (symmetrized internally).

    LAPACK ``dsyevr`` computes that one eigenvalue only, without vectors.
    A symmetrized matrix with a non-finite entry gives NaN (``dsyevr``
    would report it as a finite eigenvalue with a nonzero ``info``); a
    nonzero ``info`` on a finite one raises ``np.linalg.LinAlgError``; a
    matrix that is not square, or empty, raises ValueError.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    if A.size == 0:
        raise ValueError("sym_eig_min needs a non-empty matrix")
    S = 0.5 * (A + A.T)
    if not _finite(S):
        return math.nan
    w, _, _, _, info = dsyevr(S, compute_v=0, range="I", il=1, iu=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"LAPACK dsyevr failed with info {info}")
    return float(w[0])


def null_space_basis(A: np.ndarray) -> np.ndarray:
    """Orthonormal columns spanning {d : A d = 0}.

    The numerical rank counts singular values above NULL_SPACE_TOL times
    the largest one, so rank is decided deterministically; they are
    computed without singular vectors.  When the rank is the number of
    rows, the basis is the trailing columns of a complete QR of A.T;
    otherwise it is the trailing right singular vectors of a full SVD.
    Returns a (k, k - rank) array for an r x k input.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    r, k = A.shape
    if r == 0 or k == 0:
        return np.eye(k)
    s = np.linalg.svd(A, compute_uv=False)
    rank = int(np.sum(s > NULL_SPACE_TOL * s[0])) if s[0] > 0 else 0
    if rank == r:
        # copied C-contiguous, as the SVD basis is: products with a strided
        # view of Q round differently
        return np.linalg.qr(A.T, mode="complete")[0][:, r:].copy()
    return np.linalg.svd(A, full_matrices=True)[2][rank:].T.copy()
