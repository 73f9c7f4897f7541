"""Problem-contract tests: evaluation bundles, derivative checks, registry."""
import tracemalloc

import numpy as np
import pytest

import bilevel_newton as bn


def test_dims_invariants():
    d = bn.ProblemDims(n=1, m=2, p=0, q=2)
    assert d.N == 1 + 4 + 0 + 4
    with pytest.raises(ValueError):
        bn.ProblemDims(n=0, m=1, p=0, q=0)
    with pytest.raises(ValueError):
        bn.ProblemDims(n=1, m=1, p=-1, q=0)


def test_registry_contents():
    names = bn.problem_names()
    assert len(bn.registry()) == 3
    assert names == ("quadratic-projection", "xy-linear", "dempe-parabola")
    with pytest.raises(KeyError):
        bn.get_problem("nosuch")


def test_evaluate_all_xy_linear_at_ones():
    p = bn.get_problem("xy-linear")
    b = bn.evaluate_all(p, np.array([1.0]), np.array([1.0]))
    assert b.F == 1.0
    np.testing.assert_allclose(b.dF, [1.0, 1.0])
    np.testing.assert_allclose(b.G, [0.0])
    np.testing.assert_allclose(b.g, [0.0])
    assert b.f == 1.0
    np.testing.assert_allclose(b.df, [0.0, 1.0])


def test_evaluate_all_quadratic_projection_at_origin():
    p = bn.get_problem("quadratic-projection")
    b = bn.evaluate_all(p, np.array([0.0]), np.array([0.0, 0.0]))
    assert b.F == 0.0


def test_hessians_symmetric(problems):
    rng = np.random.default_rng(1)
    for p in problems.values():
        for _ in range(5):
            x = rng.uniform(-2, 2, p.dims.n)
            y = rng.uniform(-2, 2, p.dims.m)
            b = bn.evaluate_all(p, x, y)
            np.testing.assert_allclose(b.d2F, b.d2F.T, atol=1e-12)
            np.testing.assert_allclose(b.d2f, b.d2f.T, atol=1e-12)
            for H in b.d2G:
                np.testing.assert_allclose(H, H.T, atol=1e-12)
            for H in b.d2g:
                np.testing.assert_allclose(H, H.T, atol=1e-12)


def test_evaluate_all_deterministic(problems):
    p = problems["dempe-parabola"]
    x, y = np.array([0.3]), np.array([-1.2])
    b1 = bn.evaluate_all(p, x, y)
    b2 = bn.evaluate_all(p, x, y)
    assert b1.F == b2.F and b1.f == b2.f
    assert np.array_equal(b1.dF, b2.dF)
    assert np.array_equal(b1.d2f, b2.d2f)
    assert np.array_equal(b1.dg, b2.dg)


def test_evaluate_all_flags_nonfinite():
    dims = bn.ProblemDims(n=1, m=1, p=0, q=1)

    def bad_F(x, y):
        return np.nan, np.zeros(2), np.zeros((2, 2))

    def ok_f(x, y):
        return y[0], np.array([0.0, 1.0]), np.zeros((2, 2))

    def ok_g(x, y):
        return np.array([x[0]]), np.array([[1.0, 0.0]]), np.zeros((1, 2, 2))

    p = bn.BilevelProblem(name="nan-problem", dims=dims, F=bad_F, f=ok_f, g=ok_g)
    with pytest.raises(bn.EvaluationError) as exc:
        bn.evaluate_all(p, np.array([1.0]), np.array([1.0]))
    assert exc.value.function == "F"


def test_check_derivatives_all_bundled_problems(problems):
    rng = np.random.default_rng(77)
    for p in problems.values():
        points = [(rng.uniform(-2, 2, p.dims.n), rng.uniform(-2, 2, p.dims.m)) for _ in range(10)]
        report = bn.check_derivatives(p, points)
        assert report.passed, (p.name, report.grad_errors, report.hess_errors)


def test_check_derivatives_near_exact_on_quadratic():
    dims = bn.ProblemDims(n=1, m=1, p=0, q=1)

    def F(x, y):
        val = x[0] ** 2 + 3 * x[0] * y[0]
        return val, np.array([2 * x[0] + 3 * y[0], 3 * x[0]]), np.array([[2.0, 3.0], [3.0, 0.0]])

    def f(x, y):
        return y[0] ** 2, np.array([0.0, 2 * y[0]]), np.array([[0.0, 0.0], [0.0, 2.0]])

    def g(x, y):
        return np.array([x[0] - y[0]]), np.array([[1.0, -1.0]]), np.zeros((1, 2, 2))

    p = bn.BilevelProblem(name="quad", dims=dims, F=F, f=f, g=g)
    report = bn.check_derivatives(p, [(np.array([0.4]), np.array([-1.1]))])
    assert report.grad_errors["F"] <= 1e-9


def test_check_derivatives_detects_corrupted_gradient():
    dims = bn.ProblemDims(n=1, m=1, p=0, q=1)

    def F(x, y):
        # gradient off by 10%
        return x[0] ** 2 + y[0] ** 2, 1.1 * np.array([2 * x[0], 2 * y[0]]), 2 * np.eye(2)

    def f(x, y):
        return y[0], np.array([0.0, 1.0]), np.zeros((2, 2))

    def g(x, y):
        return np.array([x[0]]), np.array([[1.0, 0.0]]), np.zeros((1, 2, 2))

    p = bn.BilevelProblem(name="corrupt", dims=dims, F=F, f=f, g=g)
    report = bn.check_derivatives(p, [(np.array([1.0]), np.array([1.0]))])
    assert not report.passed


def _quadratic_problem(rng, n):
    """n = m = q: quadratic F and f, q quadratic follower constraints."""
    k = 2 * n
    A = rng.standard_normal((k, k))
    P = A @ A.T / k + np.eye(k)
    J = rng.standard_normal((n, k))
    Hg = rng.standard_normal((n, k, k))
    Hg = Hg + Hg.transpose(0, 2, 1)

    def F(x, y):
        s = np.concatenate([x, y])
        return 0.5 * s @ P @ s, P @ s, P

    def f(x, y):
        s = np.concatenate([x, y])
        return s @ s, 2 * s, 2 * np.eye(k)

    def g(x, y):
        s = np.concatenate([x, y])
        return J @ s + 0.5 * (Hg @ s) @ s, J + Hg @ s, Hg

    return bn.BilevelProblem(name="quad", dims=bn.ProblemDims(n=n, m=n, p=0, q=n), F=F, f=f, g=g)


def test_check_derivatives_memory_is_per_coordinate():
    # 2(n+m) perturbed bundles of q(n+m)^2 Hessian entries would be about
    # 20 MB here; one coordinate's pair is well under 1 MB
    rng = np.random.default_rng(5)
    p = _quadratic_problem(rng, 20)
    points = [(rng.uniform(-1, 1, 20), rng.uniform(-1, 1, 20))]
    tracemalloc.start()
    try:
        report = bn.check_derivatives(p, points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak < 5 * 2**20


def test_check_derivatives_rejects_bad_step(problems):
    with pytest.raises(ValueError):
        bn.check_derivatives(problems["xy-linear"], [(np.ones(1), np.ones(1))], h=-1.0)


def test_certified_points_residual_zero(entries):
    for entry in entries.values():
        for lam in (1.0, 2.0, 4.0, 8.0):
            for cp in entry.certified_points:
                if not cp.admissible(lam):
                    continue
                r = bn.assemble_residual(entry.problem, lam, cp.build(lam))
                assert r.norm() <= 1e-10, (entry.problem.name, lam)


def test_dempe_parabola_point_outside_admissible_range(entries):
    # at lam = 2 the stationary multiplier would be negative: residual entry 2
    entry = entries["dempe-parabola"]
    zeta = entry.certified_points[0].build(2.0)
    r = bn.assemble_residual(entry.problem, 2.0, zeta)
    assert r.comp_g_upper[0] == pytest.approx(2.0, abs=1e-14)
    assert r.norm() >= 1.0


def test_missing_G_with_positive_p_rejected():
    dims = bn.ProblemDims(n=1, m=1, p=1, q=1)

    def f(x, y):
        return y[0], np.array([0.0, 1.0]), np.zeros((2, 2))

    def g(x, y):
        return np.array([x[0]]), np.array([[1.0, 0.0]]), np.zeros((1, 2, 2))

    with pytest.raises(ValueError):
        bn.BilevelProblem(name="noG", dims=dims, F=f, f=f, g=g)
