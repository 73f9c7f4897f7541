"""Newton iteration tests: directions, line search, full runs."""
import dataclasses

import numpy as np
import pytest

import bilevel_newton as bn
from bilevel_newton.solver import GRADIENT, NEWTON, StepRecord

from conftest import counting_F


def make_duplicated_constraint_problem():
    """Two identical follower constraints give duplicate Jacobian rows."""
    dims = bn.ProblemDims(n=1, m=1, p=0, q=2)

    def F(x, y):
        return x[0] ** 2 + y[0] ** 2, np.array([2 * x[0], 2 * y[0]]), 2 * np.eye(2)

    def f(x, y):
        return (y[0] - 1) ** 2, np.array([0.0, 2 * (y[0] - 1)]), np.array([[0.0, 0.0], [0.0, 2.0]])

    def g(x, y):
        row = np.array([1.0, -1.0])
        return np.array([x[0] - y[0]] * 2), np.stack([row, row]), np.zeros((2, 2, 2))

    return bn.BilevelProblem(name="dup", dims=dims, F=F, f=f, g=g)


def test_config_defaults_match_protocol():
    cfg = bn.SolverConfig(lam=1.0)
    assert (cfg.beta, cfg.eps, cfg.t, cfg.rho, cfg.sigma) == (1e-8, 1e-8, 2.1, 0.5, 1e-4)
    assert cfg.max_iter == 2000
    assert cfg.max_backtracks == 60
    assert (cfg.kink_tol, cfg.pivot_tol, cfg.grad_stall_tol) == (1e-12, 1e-12, 1e-12)


@pytest.mark.parametrize("field,value", [
    ("lam", 0.0), ("beta", 0.0), ("t", 2.0), ("rho", 1.0), ("sigma", 0.5), ("eps", -1.0),
])
def test_config_validates_ranges(field, value):
    kwargs = {"lam": 1.0, field: value}
    with pytest.raises(ValueError):
        bn.SolverConfig(**kwargs)


def test_step_newton_near_solution(entries):
    entry = entries["quadratic-projection"]
    cfg = bn.SolverConfig(lam=1.0)
    zeta0 = entry.certified_points[0].build(1.0)
    vec = zeta0.to_vector() + 1e-3
    zeta = bn.Iterate.from_vector(vec, entry.problem.dims)
    d, dtype = bn.step(entry.problem, cfg, zeta)
    assert dtype == NEWTON
    slope = float(bn.merit_grad(entry.problem, 1.0, zeta) @ d)
    assert slope <= -cfg.beta * np.linalg.norm(d) ** cfg.t


def test_step_gradient_fallback_on_singular_jacobian():
    p = make_duplicated_constraint_problem()
    cfg = bn.SolverConfig(lam=1.0)
    # both duplicate pairs active with positive multipliers: identical rows
    zeta = bn.Iterate.of(p.dims, x=[1.0], y=[1.0], z=[1.0], v=[1.0, 1.0], w=[1.0, 1.0])
    d, dtype = bn.step(p, cfg, zeta)
    assert dtype == GRADIENT
    grad = bn.merit_grad(p, 1.0, zeta)
    np.testing.assert_allclose(d, -grad)


def test_line_search_full_step_near_solution(entries):
    entry = entries["quadratic-projection"]
    cfg = bn.SolverConfig(lam=1.0)
    vec = entry.certified_points[0].build(1.0).to_vector() + 1e-3
    zeta = bn.Iterate.from_vector(vec, entry.problem.dims)
    d, _ = bn.step(entry.problem, cfg, zeta)
    result = bn.line_search(entry.problem, cfg, zeta, d)
    assert result is not None
    assert result.alpha == 1.0 and result.backtracks == 0


def test_line_search_replays_armijo_inequality(entries):
    entry = entries["xy-linear"]
    cfg = bn.SolverConfig(lam=2.0)
    zeta = bn.resolve_start(entry.problem)
    d, _ = bn.step(entry.problem, cfg, zeta)
    result = bn.line_search(entry.problem, cfg, zeta, d)
    assert result is not None
    psi0 = bn.merit(entry.problem, 2.0, zeta)
    slope = float(bn.merit_grad(entry.problem, 2.0, zeta) @ d)
    trial = bn.Iterate.from_vector(zeta.to_vector() + result.alpha * d, entry.problem.dims)
    assert bn.merit(entry.problem, 2.0, trial) <= psi0 + cfg.sigma * result.alpha * slope


def test_line_search_tiny_gradient_direction(entries):
    # near-solution steepest-descent direction must terminate one way or another
    entry = entries["xy-linear"]
    cfg = bn.SolverConfig(lam=1.0)
    vec = entry.certified_points[0].build(1.0).to_vector() + 1e-7
    zeta = bn.Iterate.from_vector(vec, entry.problem.dims)
    d = -bn.merit_grad(entry.problem, 1.0, zeta)
    result = bn.line_search(entry.problem, cfg, zeta, d)
    if result is not None:
        assert result.backtracks <= cfg.max_backtracks


def test_line_search_stall_on_tight_budget(entries):
    entry = entries["xy-linear"]
    cfg = bn.SolverConfig(lam=1.0, max_backtracks=1)
    zeta = bn.resolve_start(entry.problem)
    # huge descent-scaled direction: the first two trial points overshoot
    d = -1e12 * bn.merit_grad(entry.problem, 1.0, zeta)
    assert bn.line_search(entry.problem, cfg, zeta, d) is None


def test_line_search_rejects_ascent(entries):
    entry = entries["xy-linear"]
    cfg = bn.SolverConfig(lam=1.0)
    zeta = bn.resolve_start(entry.problem)
    d = bn.merit_grad(entry.problem, 1.0, zeta)  # ascent direction
    with pytest.raises(ValueError):
        bn.line_search(entry.problem, cfg, zeta, d)


def test_run_solves_quadratic_projection(entries):
    entry = entries["quadratic-projection"]
    report = bn.run(entry.problem, bn.SolverConfig(lam=1.0), bn.resolve_start(entry.problem))
    assert report.status == bn.SOLVED
    assert report.final_residual_norm <= 1e-8
    assert np.max(np.abs(report.final.x)) <= 1e-6
    assert np.max(np.abs(report.final.y)) <= 1e-6


def test_run_zero_iterations_from_certified_point(entries):
    entry = entries["xy-linear"]
    report = bn.run(entry.problem, bn.SolverConfig(lam=1.0), entry.certified_points[0].build(1.0))
    assert report.status == bn.SOLVED
    assert report.iterations == 0
    assert report.eoc is None  # history too short


def test_run_eoc_superlinear_on_quadratic_projection(entries):
    entry = entries["quadratic-projection"]
    report = bn.run(entry.problem, bn.SolverConfig(lam=1.0), bn.resolve_start(entry.problem))
    assert report.eoc is not None and report.eoc >= 1.5


def test_run_quadratic_tail(entries):
    entry = entries["quadratic-projection"]
    report = bn.run(entry.problem, bn.SolverConfig(lam=1.0), bn.resolve_start(entry.problem))
    tail = report.residual_norms[-3:]
    assert tail[1] <= 10 * tail[0] ** 2
    assert tail[2] <= 10 * tail[1] ** 2


def test_run_merit_monotonicity(entries):
    for entry in entries.values():
        report = bn.run(entry.problem, bn.SolverConfig(lam=2.0, max_iter=200), bn.resolve_start(entry.problem))
        norms = report.residual_norms
        assert all(norms[k + 1] < norms[k] for k in range(len(norms) - 1))


def test_run_solved_status_sound(entries):
    entry = entries["xy-linear"]
    cfg = bn.SolverConfig(lam=4.0)
    report = bn.run(entry.problem, cfg, bn.resolve_start(entry.problem))
    assert report.status == bn.SOLVED
    replay = bn.assemble_residual(entry.problem, 4.0, report.final)
    assert replay.norm() <= cfg.eps
    assert replay.norm() == report.final_residual_norm


def test_run_max_iter_status(entries):
    entry = entries["quadratic-projection"]
    report = bn.run(entry.problem, bn.SolverConfig(lam=1.0, max_iter=1), bn.resolve_start(entry.problem))
    assert report.status == bn.MAX_ITER
    assert report.iterations == 1


def test_run_deterministic(entries):
    entry = entries["dempe-parabola"]
    cfg = bn.SolverConfig(lam=4.0)
    r1 = bn.run(entry.problem, cfg, bn.resolve_start(entry.problem))
    r2 = bn.run(entry.problem, cfg, bn.resolve_start(entry.problem))
    assert r1.residual_norms == r2.residual_norms
    assert r1.step_sizes == r2.step_sizes
    assert np.array_equal(r1.final.to_vector(), r2.final.to_vector())


def test_run_armijo_contract_replay(entries):
    # every accepted step satisfies the sufficient-decrease inequality and,
    # unless it was a full step, the next larger step violates it
    entry = entries["dempe-parabola"]
    cfg = bn.SolverConfig(lam=4.0)
    records: list[StepRecord] = []
    bn.run(entry.problem, cfg, bn.resolve_start(entry.problem), callback=records.append)
    assert records
    for rec in records:
        base = rec.zeta.to_vector()
        trial = bn.Iterate.from_vector(base + rec.alpha * rec.direction, entry.problem.dims)
        psi_trial = bn.merit(entry.problem, cfg.lam, trial)
        assert psi_trial <= rec.merit_before + cfg.sigma * rec.alpha * rec.slope
        if rec.backtracks > 0:
            alpha_prev = rec.alpha / cfg.rho
            prev = bn.Iterate.from_vector(base + alpha_prev * rec.direction, entry.problem.dims)
            psi_prev = bn.merit(entry.problem, cfg.lam, prev)
            assert psi_prev > rec.merit_before + cfg.sigma * alpha_prev * rec.slope


def test_run_reports_evaluation_failure():
    dims = bn.ProblemDims(n=1, m=1, p=0, q=1)

    def F(x, y):
        if abs(x[0]) > 2.0:
            return np.nan, np.zeros(2), np.zeros((2, 2))
        return x[0] * y[0], np.array([y[0], x[0]]), np.array([[0.0, 1.0], [1.0, 0.0]])

    def f(x, y):
        return y[0], np.array([0.0, 1.0]), np.zeros((2, 2))

    def g(x, y):
        return np.array([x[0] - y[0]]), np.array([[1.0, -1.0]]), np.zeros((1, 2, 2))

    p = bn.BilevelProblem(name="partial-domain", dims=dims, F=F, f=f, g=g)
    zeta0 = bn.Iterate.of(dims, x=[5.0], y=[1.0], z=[1.0], v=[1.0], w=[1.0])
    report = bn.run(p, bn.SolverConfig(lam=1.0), zeta0)
    assert report.status == "EvaluationFailed"
    assert report.error is not None


@pytest.mark.parametrize("malform", [
    lambda val, grad, hess: (val, grad[:2], hess),   # gradient of length 2 for n + m = 3
    lambda val, grad, hess: (val, grad),             # missing Hessian
    lambda val, grad, hess: (grad, grad, hess),      # vector where a scalar belongs
])
def test_run_reports_malformed_evaluator_output(problems, malform):
    base = problems["quadratic-projection"]
    p = dataclasses.replace(base, F=lambda x, y: malform(*base.F(x, y)))
    zeta0 = bn.resolve_start(base)
    report = bn.run(p, bn.SolverConfig(lam=1.0), zeta0)
    assert report.status == bn.EVALUATION_FAILED
    assert "malformed value" in report.error and "while evaluating F" in report.error
    swept = bn.sweep(p, bn.SweepConfig(lambda_grid=(1.0, 2.0)), start=zeta0)
    assert [r.status for r in swept.runs] == [bn.EVALUATION_FAILED] * 2
    assert not swept.converged


def _counted_start(entry):
    p, calls = counting_F(entry.problem)
    zeta = bn.resolve_start(entry.problem)
    return p, calls, zeta


def test_step_evaluates_the_point_once(entries):
    p, calls, zeta = _counted_start(entries["xy-linear"])
    bn.step(p, bn.SolverConfig(lam=2.0), zeta)
    assert len(calls) == 2


def test_line_search_evaluates_the_start_once(entries):
    # two evaluations at the start, two per trial point
    entry = entries["xy-linear"]
    cfg = bn.SolverConfig(lam=2.0)
    d, _ = bn.step(entry.problem, cfg, bn.resolve_start(entry.problem))
    p, calls, zeta = _counted_start(entry)
    result = bn.line_search(p, cfg, zeta, d)
    assert len(calls) == 2 + 2 * (result.backtracks + 1)


@pytest.mark.parametrize("name,lam", [("quadratic-projection", 1.0), ("dempe-parabola", 4.0)])
def test_run_evaluates_each_point_once(entries, name, lam):
    # the start, every line-search trial, and the final F/f report
    p, calls, zeta = _counted_start(entries[name])
    records: list[StepRecord] = []
    report = bn.run(p, bn.SolverConfig(lam=lam), zeta, callback=records.append)
    assert report.status == bn.SOLVED and records
    assert len(calls) == 2 + 2 * sum(rec.backtracks + 1 for rec in records) + 1


def test_eoc_formula_examples():
    assert bn.eoc([1e-2, 1e-4, 1e-8]) == pytest.approx(2.0, abs=1e-12)
    assert bn.eoc([1e-2, 1e-3, 1e-4]) == pytest.approx(1.5, abs=1e-12)
    assert bn.eoc([1e-2, 1e-4]) is None
    assert bn.eoc([]) is None
    assert bn.eoc([1e-2, 1e-4, 0.0]) == np.inf
    # longer histories use only the last three entries
    assert bn.eoc([5.0, 1e-2, 1e-4, 1e-8]) == pytest.approx(2.0, abs=1e-12)
