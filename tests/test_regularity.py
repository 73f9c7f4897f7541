"""Regularity diagnostics tests: index sets, LICQ, LSCC, second-order check."""
import dataclasses
import math

import numpy as np
import pytest

import bilevel_newton as bn
from bilevel_newton import linalg
from bilevel_newton.linalg import null_space_basis, sym_eig_min
from bilevel_newton.regularity import RANK_TOL, _independent, ssosc_matrices
from bilevel_newton.system import hessian_block

from conftest import counting


def test_classify_quadratic_projection_certified(entries):
    entry = entries["quadratic-projection"]
    zeta = entry.certified_points[0].build(2.0)
    part = bn.classify(entry.problem, zeta)
    assert part.lower_y.nu == (0, 1)
    assert part.lower_z.nu == (0, 1)
    assert part.lower_y.theta == () and part.lower_z.theta == ()
    assert part.upper.nu == ()  # p = 0


def test_classify_dempe_parabola_certified(entries):
    entry = entries["dempe-parabola"]
    zeta = entry.certified_points[0].build(4.0)
    part = bn.classify(entry.problem, zeta)
    assert part.lower_y.nu == (0,) and part.lower_y.theta == () and part.lower_y.eta == ()
    assert part.lower_z.nu == (0,) and part.lower_z.theta == () and part.lower_z.eta == ()


def test_classify_kink_pair_goes_to_theta(problems):
    p = problems["xy-linear"]
    # g(x,z) = 0 with w = 0: theta index in the follower block; LSCC fails
    zeta = bn.Iterate.of(p.dims, x=[-1.0], y=[0.5], z=[-1.0], u=[0.0], v=[0.0], w=[0.0])
    part = bn.classify(p, zeta)
    assert part.lower_z.theta == (0,)
    assert not bn.check_lscc(part)


def test_classify_flags_inconsistent_points(problems):
    p = problems["xy-linear"]
    # constraint violated: g(x,y) = 2 > 0
    zeta = bn.Iterate.of(p.dims, x=[2.0], y=[0.0], z=[0.0], u=[0.0], v=[0.0], w=[0.0])
    with pytest.raises(bn.InconsistentPoint):
        bn.classify(p, zeta)
    # negative multiplier on an active constraint
    zeta2 = bn.Iterate.of(p.dims, x=[0.0], y=[0.0], z=[0.0], u=[0.0], v=[-1.0], w=[1.0])
    with pytest.raises(bn.InconsistentPoint):
        bn.classify(p, zeta2)


def test_classify_scale_robust():
    # shrinking the constraint values by 0.1% keeps the partition when all
    # margins are comfortably larger than the activity tolerance
    base = bn.get_problem("xy-linear")

    def g_scaled(x, y):
        vals, jac, hess = base.g(x, y)
        return 0.999 * vals, 0.999 * jac, 0.999 * hess

    scaled = bn.BilevelProblem(name="scaled", dims=base.dims, F=base.F, f=base.f,
                               g=g_scaled, G=base.G)
    zeta = bn.Iterate.of(base.dims, x=[0.0], y=[0.5], z=[1.0], u=[0.0], v=[0.0], w=[0.0])
    p1 = bn.classify(base, zeta)
    p2 = bn.classify(scaled, zeta)
    assert p1 == p2


def test_check_licq_dempe_parabola(entries):
    entry = entries["dempe-parabola"]
    zeta = entry.certified_points[0].build(4.0)
    part = bn.classify(entry.problem, zeta)
    ulicq, llicq_xy, llicq_xz = bn.check_licq(entry.problem, zeta, part)
    # single active gradient d/dz g = 2z = 2 at z = 1
    assert llicq_xz and llicq_xy and ulicq


def test_check_licq_vacuous_on_inactive_sets(problems):
    p = problems["xy-linear"]
    # x < y strictly and G inactive: no active constraints anywhere
    zeta = bn.Iterate.of(p.dims, x=[-1.0], y=[0.5], z=[0.8], u=[0.0], v=[0.0], w=[0.0])
    part = bn.classify(p, zeta)
    assert part.upper.eta == (0,)
    assert bn.check_licq(p, zeta, part) == (True, True, True)


def test_check_licq_fails_on_duplicated_constraints():
    dims = bn.ProblemDims(n=1, m=1, p=0, q=2)

    def F(x, y):
        return x[0] ** 2, np.array([2 * x[0], 0.0]), np.diag([2.0, 0.0])

    def f(x, y):
        return y[0], np.array([0.0, 1.0]), np.zeros((2, 2))

    def g(x, y):
        row = np.array([1.0, -1.0])
        return np.array([x[0] - y[0]] * 2), np.stack([row, row]), np.zeros((2, 2, 2))

    p = bn.BilevelProblem(name="dup2", dims=dims, F=F, f=f, g=g)
    zeta = bn.Iterate.of(dims, x=[1.0], y=[1.0], z=[1.0], v=[1.0, 1.0], w=[1.0, 1.0])
    part = bn.classify(p, zeta)
    ulicq, llicq_xy, llicq_xz = bn.check_licq(p, zeta, part)
    assert not ulicq and not llicq_xy and not llicq_xz


_RANK_EDGE = np.nextafter(RANK_TOL, 1.0)


@pytest.mark.parametrize("columns,independent", [
    # smallest singular value at the threshold, and one ulp above it
    (np.diag([1.0, RANK_TOL]), False),
    (np.diag([1.0, _RANK_EDGE]), True),
    (np.diag([4.0, 4 * RANK_TOL, 1.0]), False),
    (np.diag([4.0, 4 * _RANK_EDGE, 1.0]), True),
    (np.array([[1.0, 2.0, 3.0], [0.0, 1.0, 1.0]]), False),  # more columns than rows
    (np.zeros((2, 2)), False),
    (np.zeros((3, 0)), True),  # empty family: vacuously independent
    (np.random.default_rng(3).normal(size=(5, 3)), True),
])
def test_independent_decides_as_the_null_space(monkeypatch, columns, independent):
    holds, margin = _independent(columns)
    assert holds is independent
    monkeypatch.setattr(linalg, "NULL_SPACE_TOL", RANK_TOL)
    assert holds == (null_space_basis(columns).shape[1] == 0)
    if columns.shape[1] == 0:
        assert margin is None
    else:
        assert margin == float(np.linalg.svd(columns, compute_uv=False)[-1])


def test_check_ssosc_quadratic_projection(entries):
    entry = entries["quadratic-projection"]
    for lam in (0.5, 1.0, 4.0):
        zeta = entry.certified_points[0].build(lam)
        part = bn.classify(entry.problem, zeta)
        min_eig, holds = bn.check_ssosc(entry.problem, zeta, lam, part)
        assert holds
        assert min_eig == pytest.approx(2.0, abs=1e-6)


def test_check_ssosc_dempe_parabola_vanishes(entries):
    entry = entries["dempe-parabola"]
    zeta = entry.certified_points[0].build(4.0)
    part = bn.classify(entry.problem, zeta)
    min_eig, holds = bn.check_ssosc(entry.problem, zeta, 4.0, part)
    assert abs(min_eig) <= 1e-8
    assert not holds


def test_check_ssosc_vacuous_when_fully_constrained(problems):
    # all three constraint rows active with positive multipliers span R^3
    p = problems["xy-linear"]
    zeta = bn.Iterate.of(p.dims, x=[1.0], y=[1.0], z=[1.0], u=[1.0], v=[1.0], w=[1.0])
    part = bn.classify(p, zeta)
    min_eig, holds = bn.check_ssosc(p, zeta, 1.0, part)
    assert holds
    assert math.isinf(min_eig)


def test_ssosc_invariant_under_null_space_rotation(entries):
    entry = entries["quadratic-projection"]
    zeta = entry.certified_points[0].build(2.0)
    part = bn.classify(entry.problem, zeta)
    C, M = ssosc_matrices(entry.problem, zeta, 2.0, part)
    Z = null_space_basis(C)
    rng = np.random.default_rng(19)
    k = Z.shape[1]
    Q, _ = np.linalg.qr(rng.normal(size=(k, k)))
    assert sym_eig_min(Z.T @ M @ Z) == pytest.approx(sym_eig_min((Z @ Q).T @ M @ (Z @ Q)), abs=1e-7)


def test_diagnose_quadratic_projection(entries):
    entry = entries["quadratic-projection"]
    zeta = entry.certified_points[0].build(1.0)
    report = bn.diagnose(entry.problem, zeta, 1.0)
    assert report.ulicq_holds and report.llicq_at_xy and report.llicq_at_xz
    assert report.lscc_holds
    assert report.ssosc_holds
    assert report.ssosc_min_eig == pytest.approx(2.0, abs=1e-6)
    assert report.ssosc_subspace_dim == 1


def test_diagnose_dempe_parabola(entries):
    entry = entries["dempe-parabola"]
    zeta = entry.certified_points[0].build(4.0)
    report = bn.diagnose(entry.problem, zeta, 4.0)
    assert report.lscc_holds and report.llicq_at_xz
    assert not report.ssosc_holds
    assert abs(report.ssosc_min_eig) <= 1e-8


def test_diagnose_augmented_variant_penalizes_kinks(problems):
    p = problems["xy-linear"]
    zeta = bn.Iterate.of(p.dims, x=[-1.0], y=[0.5], z=[-1.0], u=[0.0], v=[0.0], w=[0.0])
    report = bn.diagnose(p, zeta, 2.0)
    assert not report.lscc_holds
    # kink index contributes -lam to the augmented diagonal
    assert report.ssosc_augmented_min_eig <= -2.0 + 1e-12


@pytest.mark.parametrize("lam", [0.0, -1.0, math.nan, math.inf])
def test_diagnostics_reject_an_invalid_penalty(entries, lam):
    entry = entries["dempe-parabola"]
    zeta = entry.certified_points[0].build(4.0)
    part = bn.classify(entry.problem, zeta)
    with pytest.raises(ValueError, match="penalty"):
        bn.diagnose(entry.problem, zeta, lam)
    with pytest.raises(ValueError, match="penalty"):
        ssosc_matrices(entry.problem, zeta, lam, part)
    with pytest.raises(ValueError, match="penalty"):
        bn.check_ssosc(entry.problem, zeta, lam, part)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_diagnostics_reject_a_non_finite_point(entries, value):
    entry = entries["dempe-parabola"]
    finite = entry.certified_points[0].build(4.0)
    part = bn.classify(entry.problem, finite)
    vec = finite.vec.copy()
    vec[3] = value  # v, the follower multiplier at (x, y)
    zeta = bn.Iterate.from_vector(vec, entry.problem.dims)
    p, calls = counting(entry.problem, "F", "f", "g")
    for diagnostic in (lambda: bn.classify(p, zeta), lambda: bn.check_licq(p, zeta, part),
                       lambda: ssosc_matrices(p, zeta, 4.0, part), lambda: bn.check_ssosc(p, zeta, 4.0, part),
                       lambda: bn.diagnose(p, zeta, 4.0)):
        with pytest.raises(ValueError, match=r"finite point; entries \[3\]"):
            diagnostic()
    assert not any(calls.values())


def test_diagnose_evaluates_the_point_once(entries):
    entry = entries["dempe-parabola"]
    zeta = entry.certified_points[0].build(4.0)
    p, calls = counting(entry.problem, "F", "f")
    bn.diagnose(p, zeta, 4.0)
    # F only at (x, y); f there and at (x, z)
    assert (len(calls["F"]), len(calls["f"])) == (1, 2)


def test_diagnostics_evaluate_the_leader_point_before_the_follower_point(problems):
    # g is non-finite everywhere: the error names it at (x, y), not at (x, z)
    base = problems["quadratic-projection"]
    p, calls = counting(dataclasses.replace(
        base, g=lambda x, y: (np.full(2, np.nan), np.zeros((2, 3)), np.zeros((2, 3, 3)))), "F", "f", "g")
    with pytest.raises(bn.EvaluationError) as exc:
        bn.diagnose(p, bn.Iterate.of(p.dims, [0], [0, 0], [2, 2], v=[1, 1], w=[1, 1]), 1.0)
    assert exc.value.function == "g" and exc.value.point.tolist() == [0.0, 0.0, 0.0]
    assert {name: [[*x, *y] for x, y in c] for name, c in calls.items()} == dict.fromkeys("Ffg", [[0.0] * 3])


def test_ssosc_form_is_the_jacobian_hessian_block(entries):
    entry = entries["quadratic-projection"]
    n, m = entry.problem.dims.n, entry.problem.dims.m
    zeta = entry.certified_points[0].build(2.0)
    part = bn.classify(entry.problem, zeta)
    _, M = ssosc_matrices(entry.problem, zeta, 2.0, part)
    r = bn.assemble_residual(entry.problem, 2.0, zeta)
    W = bn.assemble_jacobian(r)
    assert np.array_equal(M, W[: n + 2 * m, : n + 2 * m])
    assert np.array_equal(M, hessian_block(2.0, zeta, r.at_y, r.at_z))


def _diagnostics(problem, zeta, lam):
    part = bn.classify(problem, zeta)
    return (bn.diagnose(problem, zeta, lam), part, bn.check_licq(problem, zeta, part),
            bn.check_ssosc(problem, zeta, lam, part), ssosc_matrices(problem, zeta, lam, part))


def _same_diagnostics(a, b):
    report_a, *rest_a = a
    report_b, *rest_b = b
    (C_a, M_a), (C_b, M_b) = rest_a.pop(), rest_b.pop()
    return (report_a == report_b and rest_a == rest_b
            and np.array_equal(C_a, C_b) and np.array_equal(M_a.view(np.int64), M_b.view(np.int64)))


@pytest.mark.parametrize("name,lam", [("quadratic-projection", 2.0), ("xy-linear", 2.0), ("dempe-parabola", 4.0)])
def test_diagnostics_read_the_evaluations_a_run_final_point_keeps(entries, name, lam):
    raw = entries[name].problem
    p, calls = counting(raw, "F", "f", "G", "g")
    report = bn.run(p, bn.SolverConfig(lam=lam), bn.resolve_start(p))
    assert report.status == bn.SOLVED
    for c in calls.values():
        c.clear()
    kept = _diagnostics(p, report.final, lam)
    assert not any(calls.values())
    # a copy keeps no evaluations, and another problem object, even an
    # equal one, does not read them: both are evaluated as before, with the
    # same results
    per_point = {"F": 1, "f": 2, "G": 1 if raw.dims.p else 0, "g": 2 if raw.dims.q else 0}
    copy = bn.Iterate.from_vector(report.final.vec, raw.dims)
    other, other_calls = counting(raw, "F", "f", "G", "g")
    for problem, zeta, counted in ((p, copy, calls), (other, report.final, other_calls)):
        assert _same_diagnostics(_diagnostics(problem, zeta, lam), kept)
        # the first of diagnose, classify, check_licq, check_ssosc and
        # ssosc_matrices evaluates both points once and keeps them for the rest
        assert {k: len(c) for k, c in counted.items()} == per_point
        for c in counted.values():
            c.clear()


@pytest.mark.parametrize("name,lam", [("quadratic-projection", 2.0), ("xy-linear", 2.0), ("dempe-parabola", 4.0)])
def test_diagnostics_and_a_residual_at_a_fresh_point_call_each_evaluator_once_per_point(entries, name, lam):
    raw = entries[name].problem
    final = bn.run(raw, bn.SolverConfig(lam=lam), bn.resolve_start(raw)).final
    p, calls = counting(raw, "F", "f", "G", "g")
    zeta = bn.Iterate.from_vector(final.vec, raw.dims)
    _diagnostics(p, zeta, lam)
    r = bn.assemble_residual(p, lam, zeta)
    leader, follower = [*zeta.x, *zeta.y], [*zeta.x, *zeta.z]
    expected = {"F": [leader], "f": [leader, follower], "G": [leader] if raw.dims.p else [],
                "g": [leader, follower] if raw.dims.q else []}
    assert {k: [[*x, *y] for x, y in c] for k, c in calls.items()} == expected
    fresh = bn.assemble_residual(raw, lam, bn.Iterate.from_vector(final.vec, raw.dims))
    assert r.vec.tobytes() == fresh.vec.tobytes()
