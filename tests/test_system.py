"""Residual, Jacobian, and merit-function assembly tests."""
import numpy as np
import pytest

import bilevel_newton as bn
from bilevel_newton.complementarity import KINK_A, KINK_B
from bilevel_newton.system import block_slices

from conftest import counting_F, fd_jacobian, fd_merit_grad, max_rel_err, sample_kink_free


def test_iterate_round_trip(problems):
    rng = np.random.default_rng(0)
    for p in problems.values():
        vec = rng.normal(size=p.dims.N)
        zeta = bn.Iterate.from_vector(vec, p.dims)
        assert np.array_equal(zeta.to_vector(), vec)


def test_iterate_of_validates_lengths(problems):
    p = problems["xy-linear"]
    with pytest.raises(ValueError):
        bn.Iterate.of(p.dims, x=[1.0, 2.0], y=[0.0], z=[0.0], u=[0.0], v=[0.0], w=[0.0])


def test_residual_rejects_nonpositive_lambda(problems):
    p = problems["xy-linear"]
    zeta = bn.Iterate.from_vector(np.zeros(p.dims.N), p.dims)
    with pytest.raises(ValueError):
        bn.assemble_residual(p, 0.0, zeta)


def test_residual_zero_at_certified_points(entries):
    for entry in entries.values():
        for lam in (1.0, 2.0, 4.0, 8.0):
            cp = entry.certified_points[0]
            if cp.admissible(lam):
                assert bn.assemble_residual(entry.problem, lam, cp.build(lam)).norm() <= 1e-12


def test_residual_frozen_example_xy_linear(problems):
    p = problems["xy-linear"]
    zeta = bn.Iterate.of(p.dims, x=[1.0], y=[1.0], z=[1.0], u=[0.0], v=[0.0], w=[0.0])
    r = bn.assemble_residual(p, 1.0, zeta)
    np.testing.assert_allclose(r.vec, [1.0, 2.0, -1.0, 0.0, 0.0, 0.0], atol=1e-14)
    assert bn.merit(p, 1.0, zeta) == pytest.approx(3.0, abs=1e-14)


def test_residual_slices_cover_vector(problems):
    p = problems["quadratic-projection"]
    zeta = bn.Iterate.from_vector(np.arange(p.dims.N, dtype=float), p.dims)
    r = bn.assemble_residual(p, 1.0, zeta)
    stacked = np.concatenate([r.grad_x, r.grad_y, r.grad_z, r.comp_G, r.comp_g_upper, r.comp_g_lower])
    assert np.array_equal(stacked, r.vec)
    assert r.comp_G.size == 0  # p = 0


def test_single_condition_violation_moves_residual(entries):
    # perturbing one coordinate of a certified point by delta must push
    # the residual norm to at least delta / 2
    entry = entries["xy-linear"]
    delta = 1e-3
    base = entry.certified_points[0].build(1.0).to_vector()
    for i in range(base.size):
        vec = base.copy()
        vec[i] += delta
        r = bn.assemble_residual(entry.problem, 1.0, bn.Iterate.from_vector(vec, entry.problem.dims))
        assert r.norm() >= delta / 2, f"coordinate {i}"


def test_jacobian_matches_finite_differences(problems):
    rng = np.random.default_rng(7)
    for p in problems.values():
        for _ in range(10):
            zeta = sample_kink_free(p, rng)
            lam = float(rng.uniform(0.5, 8))
            W = bn.assemble_jacobian(bn.assemble_residual(p, lam, zeta)).mat
            assert max_rel_err(fd_jacobian(p, lam, zeta), W) <= 1e-5


def test_jacobian_top_left_symmetric(problems):
    rng = np.random.default_rng(21)
    for p in problems.values():
        n, m = p.dims.n, p.dims.m
        zeta = bn.Iterate.from_vector(rng.uniform(-2, 2, p.dims.N), p.dims)
        W = bn.assemble_jacobian(bn.assemble_residual(p, 3.0, zeta)).mat
        k = n + 2 * m
        np.testing.assert_allclose(W[:k, :k], W[:k, :k].T, atol=1e-12)


def test_jacobian_zero_pattern(problems):
    # entries outside the declared block pattern are exactly zero
    rng = np.random.default_rng(33)
    for p in problems.values():
        s = block_slices(p.dims)
        zeta = bn.Iterate.from_vector(rng.uniform(-2, 2, p.dims.N), p.dims)
        W = bn.assemble_jacobian(bn.assemble_residual(p, 2.0, zeta)).mat
        zero_blocks = [
            ("y", "z"), ("y", "w"), ("z", "y"), ("z", "u"), ("z", "v"),
            ("u", "z"), ("u", "v"), ("u", "w"),
            ("v", "z"), ("v", "u"), ("v", "w"),
            ("w", "y"), ("w", "u"), ("w", "v"),
        ]
        for row, col in zero_blocks:
            assert np.all(W[s[row], s[col]] == 0.0), (p.name, row, col)
        # off-diagonal entries of the multiplier diagonal blocks
        for blk in ("u", "v", "w"):
            D = W[s[blk], s[blk]]
            assert np.all(D[~np.eye(D.shape[0], dtype=bool)] == 0.0)


def test_jacobian_kink_rows_use_kink_element(problems):
    p = problems["xy-linear"]
    zeta = bn.Iterate.of(p.dims, x=[1.0], y=[1.0], z=[1.0], u=[0.0], v=[0.0], w=[0.0])
    W = bn.assemble_jacobian(bn.assemble_residual(p, 1.0, zeta))
    s = block_slices(p.dims)
    # all three pairs are exact kinks at this point; G row: grad (1, 1)
    np.testing.assert_allclose(W.mat[s["u"], s["x"]], [[KINK_A]], atol=1e-15)
    np.testing.assert_allclose(W.mat[s["u"], s["y"]], [[KINK_A]], atol=1e-15)
    np.testing.assert_allclose(W.mat[s["u"], s["u"]], [[KINK_B]], atol=1e-15)
    # g(x,y) row: grad (1, -1)
    np.testing.assert_allclose(W.mat[s["v"], s["x"]], [[KINK_A]], atol=1e-15)
    np.testing.assert_allclose(W.mat[s["v"], s["y"]], [[-KINK_A]], atol=1e-15)


def test_merit_nonnegative_and_zero_at_solution(entries):
    entry = entries["quadratic-projection"]
    zeta = entry.certified_points[0].build(2.0)
    assert bn.merit(entry.problem, 2.0, zeta) == pytest.approx(0.0, abs=1e-24)
    rng = np.random.default_rng(2)
    for _ in range(5):
        z = bn.Iterate.from_vector(rng.uniform(-2, 2, entry.problem.dims.N), entry.problem.dims)
        assert bn.merit(entry.problem, 2.0, z) >= 0.0


def test_merit_invariant_under_constraint_permutation():
    # swap the two follower constraints of quadratic-projection together
    # with the multiplier order
    base = bn.get_problem("quadratic-projection")

    def g_swapped(x, y):
        vals, jac, hess = base.g(x, y)
        return vals[::-1], jac[::-1], hess[::-1]

    swapped = bn.BilevelProblem(name="swapped", dims=base.dims, F=base.F, f=base.f, g=g_swapped)
    rng = np.random.default_rng(6)
    for _ in range(10):
        x = rng.uniform(-2, 2, 1)
        y = rng.uniform(-2, 2, 2)
        z = rng.uniform(-2, 2, 2)
        v = rng.uniform(-1, 2, 2)
        w = rng.uniform(-1, 2, 2)
        z1 = bn.Iterate.of(base.dims, x=x, y=y, z=z, v=v, w=w)
        z2 = bn.Iterate.of(base.dims, x=x, y=y, z=z, v=v[::-1], w=w[::-1])
        assert bn.merit(base, 1.5, z1) == pytest.approx(bn.merit(swapped, 1.5, z2), rel=1e-14)


def test_merit_grad_matches_finite_differences(problems):
    rng = np.random.default_rng(11)
    for p in problems.values():
        for _ in range(10):
            zeta = bn.Iterate.from_vector(rng.uniform(-2, 2, p.dims.N), p.dims)
            lam = float(rng.uniform(0.5, 4))
            g = bn.merit_grad(p, lam, zeta)
            assert max_rel_err(fd_merit_grad(p, lam, zeta), g) <= 1e-4


def test_merit_grad_at_kink_points(problems):
    # x = y makes g vanish; zero multipliers put all pairs at the kink
    p = problems["xy-linear"]
    zeta = bn.Iterate.of(p.dims, x=[0.7], y=[0.7], z=[0.7], u=[0.3], v=[0.0], w=[0.0])
    g = bn.merit_grad(p, 1.5, zeta)
    assert max_rel_err(fd_merit_grad(p, 1.5, zeta), g) <= 1e-4


def test_merit_grad_independent_of_kink_element(problems):
    p = problems["xy-linear"]
    zeta = bn.Iterate.of(p.dims, x=[0.7], y=[0.7], z=[0.7], u=[0.3], v=[0.0], w=[0.0])
    g_default = bn.merit_grad(p, 1.5, zeta)
    for alt in [(1.0, 0.0), (0.0, -1.0), (1.0, -1.0)]:
        g_alt = bn.merit_grad(p, 1.5, zeta, kink_coeffs=alt)
        assert np.max(np.abs(g_default - g_alt)) <= 1e-14


def test_merit_grad_evaluates_the_point_once(problems):
    # one evaluation at (x, y) and one at (x, z); W reuses them
    p, calls = counting_F(problems["quadratic-projection"])
    zeta = bn.Iterate.from_vector(np.linspace(-1, 1, p.dims.N), p.dims)
    bn.merit_grad(p, 2.0, zeta)
    assert len(calls) == 2


def test_merit_grad_zero_at_solution(entries):
    entry = entries["xy-linear"]
    zeta = entry.certified_points[0].build(4.0)
    assert np.max(np.abs(bn.merit_grad(entry.problem, 4.0, zeta))) <= 1e-14


def test_residual_affine_in_lambda(problems):
    # grad_x and grad_z blocks are affine in the penalty; comparing the
    # lam = 2 residual with the interpolation of lam = 1 and lam = 4
    rng = np.random.default_rng(14)
    for p in problems.values():
        n, m = p.dims.n, p.dims.m
        zeta = bn.Iterate.from_vector(rng.uniform(-2, 2, p.dims.N), p.dims)
        r1 = bn.assemble_residual(p, 1.0, zeta).vec
        r2 = bn.assemble_residual(p, 2.0, zeta).vec
        r4 = bn.assemble_residual(p, 4.0, zeta).vec
        interp = r1 + (2.0 - 1.0) / (4.0 - 1.0) * (r4 - r1)
        head = slice(0, n + 2 * m)
        assert np.max(np.abs(r2[head] - interp[head])) <= 1e-10
