"""Dense kernel tests: LU solve, symmetric eigenvalues, null spaces."""
import warnings

import numpy as np
import pytest
import scipy.linalg

from bilevel_newton import SingularMatrixError, lu_solve, null_space_basis, sym_eig_min
from bilevel_newton.linalg import lu_factor


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


def test_lu_factor_reconstruction():
    rng = np.random.default_rng(2)
    A = rng.normal(size=(8, 8)) + 8 * np.eye(8)
    fac = lu_factor(A)
    assert not fac.singular
    L = np.tril(fac.lu, -1) + np.eye(8)
    U = np.triu(fac.lu)
    PA = A.copy()
    for i, piv in enumerate(fac.piv):
        PA[[i, piv]] = PA[[piv, i]]
    assert np.linalg.norm(PA - L @ U) <= 1e-10 * np.linalg.norm(A)


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
    fac = lu_factor(A)
    assert np.array_equal(fac.lu, lu_ref) and np.array_equal(fac.piv, piv_ref)
    assert not fac.singular
    assert np.array_equal(lu_solve(A, b), scipy.linalg.lu_solve((lu_ref, piv_ref), b))


@pytest.mark.parametrize("n", [13, 15, 17])
def test_lu_solve_residual_test_on_hilbert_matrices(n):
    # with the pivot test off, these ill-conditioned systems fail the
    # backward-residual test; the residual is the one np.linalg.norm gives
    H, b = scipy.linalg.hilbert(n), np.ones(n)
    d = scipy.linalg.lu_solve(scipy.linalg.lu_factor(H), b)
    expected = f"solve residual {np.linalg.norm(H @ d - b):.3e} too large"
    with pytest.raises(SingularMatrixError) as exc:
        lu_solve(H, b, pivot_tol=0.0)
    assert str(exc.value) == expected


def test_lu_exactly_singular_is_flagged_without_warning():
    A = np.array([[1.0, 2.0], [2.0, 4.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fac = lu_factor(A)
        assert fac.singular and fac.min_pivot == 0.0
        with pytest.raises(SingularMatrixError, match="below threshold"):
            lu_solve(A, np.ones(2))


def test_lu_factor_empty_matrix_is_singular_and_silent(capfd):
    fac = lu_factor(np.zeros((0, 0)))
    assert fac.singular and fac.lu.shape == (0, 0) and fac.piv.size == 0
    assert capfd.readouterr() == ("", "")


def _singular_with_abs_scale(A, pivot_tol):
    """The pivot test with the scale taken from an |A| temporary."""
    fac = lu_factor(A, pivot_tol)
    scale = float(np.abs(A).max())
    return scale == 0.0 or fac.min_pivot <= pivot_tol * scale


@pytest.mark.parametrize("A,pivot_tol", [
    (np.zeros((3, 3)), 1e-12),
    (np.full((3, 3), -0.0), 1e-12),
    (np.full((3, 3), -0.0), 0.0),
    # largest magnitude negative: min_pivot 1e-3 is exactly pivot_tol * 4
    (np.array([[-4.0, 0.0], [0.0, 1e-3]]), 2.5e-4),
    (np.array([[-4.0, 0.0], [0.0, 1e-3]]), 2.4e-4),
    (np.array([[1e-3, 0.0], [0.0, -4.0]]), 2.5e-4),
    (np.array([[2.0, -3.0], [1.0, 0.5]]), 0.1),
])
def test_pivot_scale_without_a_temporary_decides_as_abs(A, pivot_tol):
    expected = _singular_with_abs_scale(A, pivot_tol)
    assert lu_factor(A, pivot_tol).singular == expected


def test_pivot_scale_cases_reach_both_decisions():
    assert _singular_with_abs_scale(np.array([[-4.0, 0.0], [0.0, 1e-3]]), 2.5e-4)
    assert not _singular_with_abs_scale(np.array([[-4.0, 0.0], [0.0, 1e-3]]), 2.4e-4)


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


def test_null_space_requires_positive_tol():
    with pytest.raises(ValueError):
        null_space_basis(np.eye(2), rank_tol=0.0)
