"""Dense kernel tests: LU solve, symmetric eigenvalues, null spaces."""
import importlib
import math
import re
import warnings

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg.lapack import dgetrf

from bilevel_newton import SingularMatrixError, linalg, lu_solve, null_space_basis, sym_eig_min
from bilevel_newton.linalg import NULL_SPACE_TOL, PIVOT_TOL
from bilevel_newton.regularity import classify, ssosc_matrices
from bilevel_newton.solver import SolverConfig, run

from conftest import bench_module, growth_matrix

EPS = np.finfo(float).eps


def char_poly_coeffs(A):
    """Faddeev-LeVerrier characteristic polynomial (no eigenvalue calls)."""
    k = A.shape[0]
    coeffs = [1.0]
    M = np.zeros_like(A)
    for i in range(1, k + 1):
        M = A @ M + coeffs[-1] * np.eye(k)
        coeffs.append(-np.trace(A @ M) / i)
    return np.array(coeffs)


def test_lu_solve_identity():
    b = np.array([3.0, -1.0, 2.0])
    np.testing.assert_allclose(lu_solve(np.eye(3), b), b)


def test_lu_solve_zero_matrix_singular():
    with pytest.raises(SingularMatrixError):
        lu_solve(np.zeros((3, 3)), np.ones(3))


def test_lu_solve_random_systems_residual():
    rng = np.random.default_rng(12)
    for _ in range(100):
        A = rng.normal(size=(10, 10)) + 10 * np.eye(10)
        b = rng.normal(size=10)
        d = lu_solve(A, b)
        assert np.linalg.norm(A @ d - b) <= 1e-10


def test_lu_solve_flags_duplicate_rows():
    A = np.array([[1.0, 2.0], [1.0, 2.0]])
    with pytest.raises(SingularMatrixError):
        lu_solve(A, np.array([1.0, 1.0]))


def _well_conditioned(n, order, integer):
    rng = np.random.default_rng(n)
    if integer:
        return np.asarray(rng.integers(-9, 10, size=(n, n)) + 10 * n * np.eye(n, dtype=int), order=order)
    return np.asarray(rng.normal(size=(n, n)) + n * np.eye(n), order=order)


@pytest.mark.parametrize("n", [1, 2, 6, 50, 250])
@pytest.mark.parametrize("order,integer", [("C", False), ("F", False), ("C", True)])
def test_lu_matches_scipy_bitwise(n, order, integer):
    A = _well_conditioned(n, order, integer)
    b = np.random.default_rng(n + 1).normal(size=n)
    lu_ref, piv_ref = scipy.linalg.lu_factor(A)
    assert np.array_equal(lu_solve(A, b), scipy.linalg.lu_solve((lu_ref, piv_ref), b))


def _expect_solve_residual_rejection(A, b):
    # the residual is the one np.linalg.norm gives for scipy's solution
    d = scipy.linalg.lu_solve(scipy.linalg.lu_factor(A), b)
    expected = f"solve residual {np.linalg.norm(A @ d - b):.3e} too large"
    with pytest.raises(SingularMatrixError) as exc:
        lu_solve(A, b)
    assert str(exc.value) == expected


@pytest.mark.parametrize("n", [13, 15, 17])
def test_lu_solve_residual_test_on_hilbert_matrices(n, monkeypatch):
    # with the pivot test off, these ill-conditioned systems fail the
    # backward-residual test
    monkeypatch.setattr(linalg, "PIVOT_TOL", 0.0)
    _expect_solve_residual_rejection(scipy.linalg.hilbert(n), np.ones(n))


@pytest.mark.parametrize("n", [40, 55, 64])
def test_lu_solve_residual_test_on_growth_matrices(n):
    # these pass the pivot test and fail the backward-residual test
    _expect_solve_residual_rejection(growth_matrix(n), np.random.default_rng(0).normal(size=n))


def test_lu_exactly_singular_is_flagged_without_warning():
    A = np.array([[1.0, 2.0], [2.0, 4.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularMatrixError, match=r"^pivot 0\.000e\+00 below threshold$"):
            lu_solve(A, np.ones(2))


def test_lu_factor_empty_matrix_is_singular_and_silent(capfd):
    with pytest.raises(SingularMatrixError, match=r"^pivot 0\.000e\+00 below threshold$"):
        lu_solve(np.zeros((0, 0)), np.zeros(0))
    assert capfd.readouterr() == ("", "")


def _lu_rejects_pivot(A):
    try:
        lu_solve(A, np.ones(A.shape[0]))
    except SingularMatrixError as exc:
        return "below threshold" in str(exc)
    return False


def _singular_with_abs_scale(A, pivot_tol):
    """The pivot test with the scale taken from an |A| temporary."""
    min_pivot = float(np.abs(dgetrf(A)[0].diagonal()).min())
    scale = float(np.abs(A).max())
    return scale == 0.0 or min_pivot <= pivot_tol * scale


# largest magnitude 4: a minimum pivot of exactly 4 * PIVOT_TOL is tiny,
# one ulp above it is not
_AT_PIVOT_TOL = np.array([[-4.0, 0.0], [0.0, 4 * PIVOT_TOL]])
_ABOVE_PIVOT_TOL = np.array([[-4.0, 0.0], [0.0, np.nextafter(4 * PIVOT_TOL, 1.0)]])


@pytest.mark.parametrize("A,pivot_tol", [
    (np.zeros((3, 3)), 1e-12),
    (np.full((3, 3), -0.0), 1e-12),
    (np.full((3, 3), -0.0), 0.0),
    # largest magnitude negative: min_pivot 1e-3 is exactly pivot_tol * 4
    (np.array([[-4.0, 0.0], [0.0, 1e-3]]), 2.5e-4),
    (np.array([[-4.0, 0.0], [0.0, 1e-3]]), 2.4e-4),
    (np.array([[1e-3, 0.0], [0.0, -4.0]]), 2.5e-4),
    (np.array([[2.0, -3.0], [1.0, 0.5]]), 0.1),
    (_AT_PIVOT_TOL, PIVOT_TOL),
    (_ABOVE_PIVOT_TOL, PIVOT_TOL),
])
def test_pivot_scale_without_a_temporary_decides_as_abs(A, pivot_tol, monkeypatch):
    monkeypatch.setattr(linalg, "PIVOT_TOL", pivot_tol)
    assert _lu_rejects_pivot(A) == _singular_with_abs_scale(A, pivot_tol)


def test_pivot_scale_cases_reach_both_decisions():
    assert _singular_with_abs_scale(np.array([[-4.0, 0.0], [0.0, 1e-3]]), 2.5e-4)
    assert not _singular_with_abs_scale(np.array([[-4.0, 0.0], [0.0, 1e-3]]), 2.4e-4)
    assert _lu_rejects_pivot(_AT_PIVOT_TOL) and _singular_with_abs_scale(_AT_PIVOT_TOL, PIVOT_TOL)
    assert not _lu_rejects_pivot(_ABOVE_PIVOT_TOL) and not _singular_with_abs_scale(_ABOVE_PIVOT_TOL, PIVOT_TOL)


def test_sym_eig_min_diagonal():
    assert sym_eig_min(np.diag([1.0, 2.0, 3.0])) == pytest.approx(1.0, abs=1e-12)


def test_sym_eig_min_off_diagonal():
    assert sym_eig_min(np.array([[0.0, 1.0], [1.0, 0.0]])) == pytest.approx(-1.0, abs=1e-12)


def test_sym_eig_min_vs_char_poly_roots():
    rng = np.random.default_rng(8)
    for _ in range(20):
        A = rng.normal(size=(6, 6))
        A = 0.5 * (A + A.T)
        roots = np.roots(char_poly_coeffs(A))
        oracle = float(np.min(roots.real))
        assert sym_eig_min(A) == pytest.approx(oracle, abs=1e-6)


def test_sym_eig_min_orthogonal_invariance():
    rng = np.random.default_rng(4)
    for _ in range(20):
        A = rng.normal(size=(5, 5))
        A = 0.5 * (A + A.T)
        Q, _ = np.linalg.qr(rng.normal(size=(5, 5)))
        assert sym_eig_min(Q.T @ A @ Q) == pytest.approx(sym_eig_min(A), abs=1e-7)


@pytest.mark.parametrize("entry", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("k", [1, 2, 5])
def test_sym_eig_min_of_a_non_finite_matrix_is_nan(entry, k):
    # dsyevr alone would give a finite eigenvalue, with info 4 for NaN
    A = np.eye(k)
    A[0, k - 1] = entry
    assert math.isnan(sym_eig_min(A))


@pytest.mark.parametrize("k", [1, 2, 107])
def test_sym_eig_min_matches_eigvalsh(k):
    A = np.random.default_rng(k).normal(size=(k, k))
    A = A + A.T
    expected = np.linalg.eigvalsh(A)[0]
    assert abs(sym_eig_min(A) - expected) <= 64 * EPS * np.linalg.norm(A, 2)


def test_sym_eig_min_of_a_non_symmetric_matrix_is_that_of_its_symmetric_part():
    A = np.random.default_rng(6).normal(size=(9, 9))
    assert sym_eig_min(A) == sym_eig_min(0.5 * (A + A.T))


def test_sym_eig_min_rejects_an_empty_matrix():
    with pytest.raises(ValueError, match="non-empty"):
        sym_eig_min(np.zeros((0, 0)))


@pytest.mark.parametrize("shape", [(1, 3), (3, 1), (3,), (2, 2, 2)])
def test_sym_eig_min_rejects_a_matrix_that_is_not_square(shape):
    # A + A.T would broadcast a row or a column into a square matrix
    with pytest.raises(ValueError, match=re.escape(f"expected a square matrix, got shape {shape}")):
        sym_eig_min(np.ones(shape))


def test_sym_eig_min_raises_when_dsyevr_fails(monkeypatch):
    def failing(*args, **kwargs):
        w, z, m, isuppz, _ = dsyevr(*args, **kwargs)
        return w, z, m, isuppz, 3
    dsyevr = linalg.dsyevr
    monkeypatch.setattr(linalg, "dsyevr", failing)
    with pytest.raises(np.linalg.LinAlgError, match="info 3"):
        sym_eig_min(np.eye(2))


def _svd_basis(A):
    """The basis null_space_basis took from a full SVD for every input."""
    _, s, vt = np.linalg.svd(A, full_matrices=True)
    rank = int(np.sum(s > NULL_SPACE_TOL * s[0])) if s[0] > 0 else 0
    return vt[rank:].T


def _lq_constraints():
    """C of the second-order check at a run's final point on the benchmark's
    LQ instance (n = m = q = 50, 43 nu-active bounds)."""
    lq = bench_module("lq")
    problem = lq.make_lq((1, 0), 50, 50)
    sweep = importlib.import_module("bilevel_newton.sweep")
    final = run(problem, SolverConfig(lam=1.0), sweep.resolve_start(problem)).final
    return ssosc_matrices(problem, final, 1.0, classify(problem, final))[0]


def _null_space_input(case):
    rng = np.random.default_rng(11)
    if case == "random wide":
        return rng.normal(size=(43, 150))
    if case == "LQ constraints":
        return _lq_constraints()
    A = rng.normal(size=(4, 9))
    if case == "duplicated rows":
        A[2] = A[0]
    elif case == "zero row":
        A[1] = 0.0
    else:  # a row dependent on the others below NULL_SPACE_TOL
        A[3] = A[0] - 2.0 * A[1] + 1e-3 * NULL_SPACE_TOL * rng.normal(size=9)
    return A


@pytest.mark.parametrize("case,path,rank", [
    ("random wide", "qr", 43),
    ("LQ constraints", "qr", 43),
    ("duplicated rows", "svd", 3),
    ("zero row", "svd", 3),
    ("dependent below tolerance", "svd", 3),
])
def test_null_space_paths(monkeypatch, case, path, rank):
    A = _null_space_input(case)
    calls = []
    qr, svd = np.linalg.qr, np.linalg.svd

    def spy_qr(*args, **kwargs):
        calls.append(("qr", kwargs))
        return qr(*args, **kwargs)

    def spy_svd(*args, **kwargs):
        calls.append(("svd", kwargs))
        return svd(*args, **kwargs)
    monkeypatch.setattr(np.linalg, "qr", spy_qr)
    monkeypatch.setattr(np.linalg, "svd", spy_svd)
    Z = null_space_basis(A)
    monkeypatch.undo()
    # the rank from singular values alone, then one basis computation
    basis = ("qr", {"mode": "complete"}) if path == "qr" else ("svd", {"full_matrices": True})
    assert calls == [("svd", {"compute_uv": False}), basis]
    k = A.shape[1]
    s = np.linalg.svd(A, compute_uv=False)
    assert Z.shape == (k, k - rank) and Z.flags.c_contiguous
    bound = 8 * k * EPS
    assert np.linalg.norm(Z.T @ Z - np.eye(k - rank), 2) <= bound
    # a row dependent below the tolerance leaves its singular value in A Z
    dropped = s[rank] if rank < s.size else 0.0
    assert np.linalg.norm(A @ Z, 2) <= bound * s[0] + dropped
    Z0 = _svd_basis(A)
    assert np.linalg.norm(Z @ Z.T - Z0 @ Z0.T, 2) <= bound * s[0] / s[rank - 1]


def test_null_space_identity_empty():
    Z = null_space_basis(np.eye(2))
    assert Z.shape == (2, 0)


def test_null_space_single_row():
    Z = null_space_basis(np.array([[1.0, 1.0]]))
    assert Z.shape == (2, 1)
    expected = np.array([1.0, -1.0]) / np.sqrt(2)
    assert abs(abs(Z[:, 0] @ expected) - 1.0) <= 1e-12


def test_null_space_random_wide_matrix():
    rng = np.random.default_rng(15)
    A = rng.normal(size=(3, 7))
    Z = null_space_basis(A)
    assert Z.shape == (7, 4)
    assert np.linalg.norm(A @ Z) <= 1e-8 * np.linalg.norm(A)
    np.testing.assert_allclose(Z.T @ Z, np.eye(4), atol=1e-10)


def test_null_space_zero_matrix_full_basis():
    Z = null_space_basis(np.zeros((2, 3)))
    assert Z.shape == (3, 3)
    np.testing.assert_allclose(Z.T @ Z, np.eye(3), atol=1e-12)


def test_null_space_rank_reads_the_module_tolerance(monkeypatch):
    # singular values 1 and 1e-9: full rank at 1e-10, rank one at 1e-8
    A = np.diag([1.0, 1e-9])
    assert linalg.NULL_SPACE_TOL == 1e-10
    assert null_space_basis(A).shape == (2, 0)
    monkeypatch.setattr(linalg, "NULL_SPACE_TOL", 1e-8)
    Z = null_space_basis(A)
    assert Z.shape == (2, 1) and abs(Z[1, 0]) == 1.0
    with pytest.raises(TypeError):
        null_space_basis(A, rank_tol=1e-8)
