"""Newton iteration tests: directions, line search, full runs."""
import dataclasses
import math

import numpy as np
import pytest

import bilevel_newton as bn
from bilevel_newton import solver
from bilevel_newton.complementarity import KINK_TOL
from bilevel_newton.linalg import PIVOT_TOL
from bilevel_newton.problem import BilevelProblem
from bilevel_newton.solver import GRADIENT, NEWTON, LineSearchResult, StepRecord
from bilevel_newton.system import Iterate, assemble_jacobian, assemble_residual

from conftest import counting


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
    assert (solver.BETA, solver.EPS, solver.T, solver.RHO, solver.SIGMA) == (1e-8, 1e-8, 2.1, 0.5, 1e-4)
    assert cfg.max_iter == 2000
    assert solver.MAX_BACKTRACKS == 60
    assert {f.name for f in dataclasses.fields(cfg)} == {"lam", "max_iter"}
    assert (KINK_TOL, PIVOT_TOL, solver.GRAD_STALL_TOL) == (1e-12, 1e-12, 1e-12)


# The protocol's step and stopping parameters are solver constants, not
# SolverConfig fields: a value for one is refused whatever it is.
PROTOCOL_CONSTANTS = ("beta", "eps", "t", "rho", "sigma")


@pytest.mark.parametrize("field,value", [
    ("lam", 0.0), ("lam", math.nan), ("lam", math.inf),
    ("beta", 0.0), ("t", 2.0), ("rho", 1.0), ("sigma", 0.5), ("eps", -1.0),
    ("max_iter", -1), ("max_iter", 2.5), ("max_iter", 3.0), ("max_iter", math.inf), ("max_iter", math.nan),
] + [(name, math.inf) for name in PROTOCOL_CONSTANTS])
def test_config_validates_ranges(field, value):
    kwargs = {"lam": 1.0, field: value}
    if field in PROTOCOL_CONSTANTS:
        with pytest.raises(TypeError, match=f"'{field}'"):
            bn.SolverConfig(**kwargs)
    else:
        with pytest.raises(ValueError, match=rf"^{field} "):
            bn.SolverConfig(**kwargs)


def test_config_takes_a_numpy_integer_cap(entries):
    entry = entries["dempe-parabola"]
    report = bn.run(entry.problem, bn.SolverConfig(lam=0.5, max_iter=np.int64(3)), bn.resolve_start(entry.problem))
    assert (report.status, report.iterations) == (bn.MAX_ITER, 3)


def _merit(problem, lam, zeta):
    return assemble_residual(problem, lam, zeta).merit()


def _first_step(problem, cfg, zeta):
    """The record of run's first iteration from zeta."""
    records: list[StepRecord] = []
    bn.run(problem, dataclasses.replace(cfg, max_iter=1), zeta, callback=records.append)
    (record,) = records
    return record


def _backtrack_from(problem, cfg, zeta, d):
    """solver._backtrack along d, with zeta's merit and slope as run computes them."""
    r = assemble_residual(problem, cfg.lam, zeta)
    slope = float((assemble_jacobian(r).T @ r.vec) @ d)
    return solver._backtrack(problem, cfg.lam, zeta, d, r.merit(), slope)


def test_step_newton_near_solution(entries):
    entry = entries["quadratic-projection"]
    cfg = bn.SolverConfig(lam=1.0)
    zeta0 = entry.certified_points[0].build(1.0)
    vec = zeta0.to_vector() + 1e-3
    zeta = bn.Iterate.from_vector(vec, entry.problem.dims)
    rec = _first_step(entry.problem, cfg, zeta)
    assert rec.direction_type == NEWTON
    slope = float(bn.merit_grad(entry.problem, 1.0, zeta) @ rec.direction)
    assert slope == rec.slope
    assert slope <= -solver.BETA * np.linalg.norm(rec.direction) ** solver.T


def test_step_gradient_fallback_on_singular_jacobian():
    p = make_duplicated_constraint_problem()
    cfg = bn.SolverConfig(lam=1.0)
    # both duplicate pairs active with positive multipliers: identical rows
    zeta = bn.Iterate.of(p.dims, x=[1.0], y=[1.0], z=[1.0], v=[1.0, 1.0], w=[1.0, 1.0])
    rec = _first_step(p, cfg, zeta)
    assert rec.direction_type == GRADIENT
    grad = bn.merit_grad(p, 1.0, zeta)
    np.testing.assert_allclose(rec.direction, -grad)


def test_line_search_full_step_near_solution(entries):
    entry = entries["quadratic-projection"]
    cfg = bn.SolverConfig(lam=1.0)
    vec = entry.certified_points[0].build(1.0).to_vector() + 1e-3
    zeta = bn.Iterate.from_vector(vec, entry.problem.dims)
    rec = _first_step(entry.problem, cfg, zeta)
    assert rec.alpha == 1.0 and rec.backtracks == 0


def test_line_search_replays_armijo_inequality(entries):
    entry = entries["xy-linear"]
    cfg = bn.SolverConfig(lam=2.0)
    zeta = bn.resolve_start(entry.problem)
    rec = _first_step(entry.problem, cfg, zeta)
    psi0 = _merit(entry.problem, 2.0, zeta)
    slope = float(bn.merit_grad(entry.problem, 2.0, zeta) @ rec.direction)
    assert (psi0, slope) == (rec.merit_before, rec.slope)
    trial = bn.Iterate.from_vector(zeta.to_vector() + rec.alpha * rec.direction, entry.problem.dims)
    assert _merit(entry.problem, 2.0, trial) <= psi0 + solver.SIGMA * rec.alpha * slope


def test_line_search_tiny_gradient_direction(entries):
    # near-solution steepest-descent direction must terminate one way or another
    entry = entries["xy-linear"]
    cfg = bn.SolverConfig(lam=1.0)
    vec = entry.certified_points[0].build(1.0).to_vector() + 1e-7
    zeta = bn.Iterate.from_vector(vec, entry.problem.dims)
    d = -bn.merit_grad(entry.problem, 1.0, zeta)
    result = _backtrack_from(entry.problem, cfg, zeta, d)
    if result is not None:
        assert result.backtracks <= solver.MAX_BACKTRACKS


def test_line_search_stall_on_tight_budget(entries, monkeypatch):
    entry = entries["xy-linear"]
    cfg = bn.SolverConfig(lam=1.0)
    monkeypatch.setattr(solver, "MAX_BACKTRACKS", 1)
    zeta = bn.resolve_start(entry.problem)
    # huge descent-scaled direction: the first two trial points overshoot
    d = -1e12 * bn.merit_grad(entry.problem, 1.0, zeta)
    assert _backtrack_from(entry.problem, cfg, zeta, d) is None


def test_line_search_rejects_ascent(entries):
    entry = entries["xy-linear"]
    cfg = bn.SolverConfig(lam=1.0)
    zeta = bn.resolve_start(entry.problem)
    d = bn.merit_grad(entry.problem, 1.0, zeta)  # ascent direction
    with pytest.raises(ValueError):
        _backtrack_from(entry.problem, cfg, zeta, d)


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
    assert replay.norm() <= solver.EPS
    assert replay.norm() == report.final_residual_norm


def test_run_max_iter_status(entries):
    entry = entries["quadratic-projection"]
    report = bn.run(entry.problem, bn.SolverConfig(lam=1.0, max_iter=1), bn.resolve_start(entry.problem))
    assert report.status == bn.MAX_ITER
    assert report.iterations == 1


def _first_step_from_start(entry, lam):
    return _first_step(entry.problem, bn.SolverConfig(lam=lam), bn.resolve_start(entry.problem))


# Each protocol constant is read when a run uses it, so patching it on the
# module changes the next run.
def test_rho_is_read_at_call_time(entries, monkeypatch):
    entry = entries["dempe-parabola"]
    default = bn.run(entry.problem, bn.SolverConfig(lam=1.0), bn.resolve_start(entry.problem))
    monkeypatch.setattr(solver, "RHO", 0.25)
    records: list[StepRecord] = []
    patched = bn.run(entry.problem, bn.SolverConfig(lam=1.0), bn.resolve_start(entry.problem),
                     callback=records.append)
    assert any(rec.backtracks > 0 for rec in records)
    assert all(rec.alpha == 0.25**rec.backtracks for rec in records)
    assert patched.step_sizes != default.step_sizes


def test_eps_is_read_at_call_time(entries, monkeypatch):
    entry = entries["quadratic-projection"]
    default = bn.run(entry.problem, bn.SolverConfig(lam=1.0), bn.resolve_start(entry.problem))
    monkeypatch.setattr(solver, "EPS", 1e-3)
    patched = bn.run(entry.problem, bn.SolverConfig(lam=1.0), bn.resolve_start(entry.problem))
    assert patched.status == default.status == bn.SOLVED
    assert patched.iterations == default.iterations - 1
    assert 1e-8 < patched.final_residual_norm <= 1e-3


@pytest.mark.parametrize("name,value", [("BETA", 1e3), ("T", 30.0)])
def test_descent_test_constants_are_read_at_call_time(entries, monkeypatch, name, value):
    # the first Newton direction from the start has norm about 3.5
    entry = entries["quadratic-projection"]
    assert _first_step_from_start(entry, 1.0).direction_type == NEWTON
    monkeypatch.setattr(solver, name, value)
    assert _first_step_from_start(entry, 1.0).direction_type == GRADIENT


def test_sigma_is_read_at_call_time(entries, monkeypatch):
    entry = entries["xy-linear"]
    assert _first_step_from_start(entry, 1.0).alpha == 0.5
    monkeypatch.setattr(solver, "SIGMA", 0.3)
    assert _first_step_from_start(entry, 1.0).alpha == 0.25


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
        psi_trial = _merit(entry.problem, cfg.lam, trial)
        assert psi_trial <= rec.merit_before + solver.SIGMA * rec.alpha * rec.slope
        if rec.backtracks > 0:
            alpha_prev = rec.alpha / solver.RHO
            prev = bn.Iterate.from_vector(base + alpha_prev * rec.direction, entry.problem.dims)
            psi_prev = _merit(entry.problem, cfg.lam, prev)
            assert psi_prev > rec.merit_before + solver.SIGMA * alpha_prev * rec.slope


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


def test_run_proceeds_when_F_fails_only_at_the_follower_copy(problems):
    # F is never evaluated at (x, z), so a start whose z lies outside F's
    # domain is no evaluation failure
    base = problems["quadratic-projection"]
    nm = base.dims.n + base.dims.m

    def F(x, y):
        if np.max(np.abs(y)) > 5.0:
            return np.nan, np.zeros(nm), np.zeros((nm, nm))
        return base.F(x, y)
    zeta0 = bn.resolve_start(base)
    zeta0 = bn.Iterate.of(zeta0.dims, zeta0.x, zeta0.y, zeta0.z + 9.0, zeta0.u, zeta0.v, zeta0.w)
    report = bn.run(dataclasses.replace(base, F=F), bn.SolverConfig(lam=1.0), zeta0)
    assert report.status == bn.SOLVED and report.error is None


def _nonfinite_at(problem, name, point):
    """The problem with scalar evaluator ``name`` non-finite exactly at ``point``."""
    nm = problem.dims.n + problem.dims.m
    fn = getattr(problem, name)

    def call(x, y):
        if np.array_equal(np.concatenate([x, y]), point):
            return np.nan, np.zeros(nm), np.zeros((nm, nm))
        return fn(x, y)
    return dataclasses.replace(problem, **{name: call})


def _first_trial(problem, cfg):
    """A start with z != y, and the first line-search trial point from it."""
    zeta0 = bn.resolve_start(problem)
    zeta0 = bn.Iterate.of(zeta0.dims, zeta0.x, zeta0.y, zeta0.z + 0.5, zeta0.u, zeta0.v, zeta0.w)
    d = _first_step(problem, cfg, zeta0).direction
    return zeta0, bn.Iterate.from_vector(zeta0.to_vector() + d, problem.dims)


def test_run_names_f_at_a_trial_follower_point(problems):
    base, cfg = problems["quadratic-projection"], bn.SolverConfig(lam=1.0)
    zeta0, trial = _first_trial(base, cfg)
    follower = np.r_[trial.x, trial.z]
    report = bn.run(_nonfinite_at(base, "f", follower), cfg, zeta0)
    assert report.status == bn.EVALUATION_FAILED
    assert report.error == f"non-finite value while evaluating f at {follower.tolist()}"


def test_run_names_the_follower_function_when_both_trial_points_fail(problems):
    base, cfg = problems["quadratic-projection"], bn.SolverConfig(lam=1.0)
    zeta0, trial = _first_trial(base, cfg)
    p = _nonfinite_at(_nonfinite_at(base, "F", np.r_[trial.x, trial.y]), "f", np.r_[trial.x, trial.z])
    report = bn.run(p, cfg, zeta0)
    assert report.status == bn.EVALUATION_FAILED
    assert report.error == f"non-finite value while evaluating f at {np.r_[trial.x, trial.z].tolist()}"


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
    p, calls = counting(entry.problem, "F", "f")
    zeta = bn.resolve_start(entry.problem)
    return p, calls, zeta


def _leader_trials(problem, lam, zeta, d, merit0, slope, backtracks):
    """How many of the first backtracks + 1 trials along d evaluate their
    leader point: those whose follower rows do not reject them."""
    vec = zeta.to_vector()
    count = 0
    for s in range(backtracks + 1):
        alpha = solver.RHO**s
        trial = bn.Iterate.from_vector(vec + alpha * d, problem.dims)
        bound = merit0 + solver.SIGMA * alpha * slope
        count += bn.assemble_residual(problem, lam, trial, merit_bound=bound) is not None
    return count


def test_step_evaluates_the_point_once(entries, monkeypatch):
    # by the time run solves for its first direction: F at the leader point
    # (x, y) only; f there and at the follower point (x, z)
    p, calls, zeta = _counted_start(entries["xy-linear"])
    seen, solver_lu_solve = [], solver.lu_solve

    def lu_solve(*args):
        seen.append((len(calls["F"]), len(calls["f"])))
        return solver_lu_solve(*args)
    monkeypatch.setattr(solver, "lu_solve", lu_solve)
    bn.run(p, bn.SolverConfig(lam=2.0, max_iter=1), zeta)
    assert seen == [(1, 2)]


def test_line_search_evaluates_the_start_once(entries):
    # run's first iteration: the start's two points, then every trial's
    # follower point and the leader point of each trial its follower rows
    # do not reject; the line search does not evaluate the start again
    entry = entries["xy-linear"]
    cfg = bn.SolverConfig(lam=2.0)
    p, calls, zeta = _counted_start(entry)
    rec = _first_step(p, cfg, zeta)
    leader = 1 + _leader_trials(entry.problem, cfg.lam, zeta, rec.direction, rec.merit_before,
                                rec.slope, rec.backtracks)
    assert len(calls["F"]) == leader
    assert len(calls["f"]) == leader + 1 + rec.backtracks + 1


def _assert_run_evaluates_each_point_once(entry, cfg):
    # leader points: the start and every fully assembled trial, the last of
    # which gives the report's F/f; follower points: the start and every trial
    p, calls, zeta = _counted_start(entry)
    records: list[StepRecord] = []
    report = bn.run(p, cfg, zeta, callback=records.append)
    assert records
    leader = 1 + sum(_leader_trials(entry.problem, cfg.lam, rec.zeta, rec.direction, rec.merit_before,
                                    rec.slope, rec.backtracks) for rec in records)
    trials = sum(rec.backtracks + 1 for rec in records)
    assert len(calls["F"]) == leader
    assert len(calls["f"]) == leader + 1 + trials
    return report, leader, trials


@pytest.mark.parametrize("name,lam", [("quadratic-projection", 1.0), ("dempe-parabola", 4.0)])
def test_run_evaluates_each_point_once(entries, name, lam):
    report, _, _ = _assert_run_evaluates_each_point_once(entries[name], bn.SolverConfig(lam=lam))
    assert report.status == bn.SOLVED


def test_run_skips_the_leader_point_of_rejected_trials(entries):
    # dempe at lam = 128 stalls: most trials are rejected, most of those by
    # their follower rows alone
    entry = entries["dempe-parabola"]
    report, leader, trials = _assert_run_evaluates_each_point_once(
        entry, bn.SolverConfig(lam=128.0, max_iter=30))
    assert report.status == bn.MAX_ITER
    assert leader < 1 + trials // 2


def test_run_reads_final_values_from_the_last_leader_point(entries):
    entry = entries["dempe-parabola"]
    for cfg in (bn.SolverConfig(lam=4.0), bn.SolverConfig(lam=128.0, max_iter=30)):
        report = bn.run(entry.problem, cfg, bn.resolve_start(entry.problem))
        final = bn.evaluate_all(entry.problem, report.final.x, report.final.y)
        assert (report.F, report.f) == (final.F, final.f)


def test_run_reports_final_values_when_the_start_follower_point_fails(problems):
    # no leader point is evaluated during the run; the report evaluates one
    base = problems["quadratic-projection"]
    zeta0 = bn.resolve_start(base)
    p = dataclasses.replace(base, g=lambda x, y: (np.full(2, np.nan), np.zeros((2, 3)), np.zeros((2, 3, 3)))
                            if y[0] > 5 else base.g(x, y))
    report = bn.run(p, bn.SolverConfig(lam=1.0), bn.Iterate.of(zeta0.dims, zeta0.x, zeta0.y, zeta0.z + 9.0, zeta0.u, zeta0.v, zeta0.w))
    assert report.status == bn.EVALUATION_FAILED
    assert "while evaluating g at [1.0, 10.0, 10.0]" in report.error
    start = bn.evaluate_all(base, zeta0.x, zeta0.y)
    assert (report.F, report.f) == (start.F, start.f)


# The line search before the staged trial, verbatim but for the backtrack
# cap and the Armijo constants, read from solver: every trial assembles the
# full residual.
def _reference_backtrack(
    problem: BilevelProblem,
    lam: float,
    zeta: Iterate,
    d: np.ndarray,
    merit0: float,
    slope: float,
) -> LineSearchResult | None:
    if slope >= 0:
        raise ValueError(f"line search needs a descent direction, slope={slope}")
    zeta_vec = zeta.to_vector()
    for s in range(solver.MAX_BACKTRACKS + 1):
        alpha = solver.RHO**s
        trial = Iterate.from_vector(zeta_vec + alpha * d, problem.dims)
        r_trial = assemble_residual(problem, lam, trial)
        psi = 0.5 * r_trial.norm() ** 2
        if psi <= merit0 + solver.SIGMA * alpha * slope:
            return LineSearchResult(alpha=alpha, backtracks=s, zeta_next=trial, residual_next=r_trial)
    return None


def _small_lq():
    """n = 2, m = 3, p = 1, q = 3: random convex quadratics, y >= 0, sum(x) <= 1."""
    rng = np.random.default_rng(21)
    n, m = 2, 3
    k = n + m
    a, b = rng.standard_normal((k, k)), rng.standard_normal((k, k))
    P, H = a @ a.T / k + np.eye(k), b @ b.T / k + np.eye(k)
    c, e = rng.standard_normal(k), rng.standard_normal(k)

    def quadratic(M, v):
        def fn(x, y):
            s = np.concatenate([x, y])
            return 0.5 * s @ M @ s + v @ s, M @ s + v, M
        return fn
    G_jac = np.concatenate([np.ones(n), np.zeros(m)])[None, :]
    g_jac = np.hstack([np.zeros((m, n)), -np.eye(m)])
    return bn.BilevelProblem(
        name="small-lq", dims=bn.ProblemDims(n=n, m=m, p=1, q=m),
        F=quadratic(P, c), f=quadratic(H, e),
        G=lambda x, y: (np.array([x.sum() - 1.0]), G_jac, np.zeros((1, k, k))),
        g=lambda x, y: (-y, g_jac, np.zeros((m, k, k))))


def _same_decision(staged, reference):
    if reference is None:
        return staged is None
    return (staged is not None and staged.alpha == reference.alpha
            and staged.backtracks == reference.backtracks
            and np.array_equal(staged.residual_next.vec.view(np.int64),
                               reference.residual_next.vec.view(np.int64))
            and np.array_equal(staged.zeta_next.to_vector().view(np.int64),
                               reference.zeta_next.to_vector().view(np.int64)))


def _line_search_cases(entries):
    named = [(entries[name].problem, lam, 2000) for name, lam in
             (("quadratic-projection", 1.0), ("xy-linear", 2.0), ("dempe-parabola", 4.0))]
    return named + [(entries["dempe-parabola"].problem, 128.0, 40), (_small_lq(), 2.0, 2000)]


def test_staged_line_search_decides_as_the_full_one(entries, monkeypatch):
    early = 0
    for problem, lam, max_iter in _line_search_cases(entries):
        cfg = bn.SolverConfig(lam=lam, max_iter=max_iter)
        records: list[StepRecord] = []
        bn.run(problem, cfg, bn.resolve_start(problem), callback=records.append)
        assert records
        for rec in records:
            args = (problem, lam, rec.zeta, rec.direction, rec.merit_before, rec.slope)
            assert _same_decision(solver._backtrack(*args), _reference_backtrack(*args))
            # a budget one short of the accepted trial stalls both
            if rec.backtracks > 0:
                with monkeypatch.context() as tight:
                    tight.setattr(solver, "MAX_BACKTRACKS", rec.backtracks - 1)
                    assert solver._backtrack(*args) is None and _reference_backtrack(*args) is None
            trials = _leader_trials(problem, lam, rec.zeta, rec.direction, rec.merit_before,
                                    rec.slope, rec.backtracks)
            early += rec.backtracks + 1 - trials
    assert early > 0  # the follower rows alone rejected some trials


def test_eoc_formula_examples():
    assert bn.eoc([1e-2, 1e-4, 1e-8]) == pytest.approx(2.0, abs=1e-12)
    assert bn.eoc([1e-2, 1e-3, 1e-4]) == pytest.approx(1.5, abs=1e-12)
    assert bn.eoc([1e-2, 1e-4]) is None
    assert bn.eoc([]) is None
    assert bn.eoc([1e-2, 1e-4, 0.0]) == np.inf
    # longer histories use only the last three entries
    assert bn.eoc([5.0, 1e-2, 1e-4, 1e-8]) == pytest.approx(2.0, abs=1e-12)


def _bits_of(value):
    """value with every float and array replaced by its bits, for exact comparison."""
    if dataclasses.is_dataclass(value):
        return tuple((f.name, _bits_of(getattr(value, f.name))) for f in dataclasses.fields(value))
    if isinstance(value, (list, tuple)):
        return tuple(_bits_of(v) for v in value)
    if isinstance(value, np.ndarray):
        return (value.shape, value.astype(float).tobytes())
    if isinstance(value, float):
        return np.float64(value).tobytes()
    return value


# dempe at 0.5 takes 5 gradient steps in its first 40 (the LU solve rejects
# W); the small LQ problem has p, q > 0 and solves in a few Newton steps
@pytest.mark.parametrize("case,lam", [("dempe-parabola", 0.5), ("small-lq", 2.0)])
def test_run_builds_every_step_in_the_same_buffer(entries, monkeypatch, case, lam):
    problem = _small_lq() if case == "small-lq" else entries[case].problem
    cfg = bn.SolverConfig(lam=lam, max_iter=40)

    def solve(records):
        report = bn.run(problem, cfg, bn.resolve_start(problem), callback=records.append)
        return dataclasses.replace(report, wall_time=0.0)
    plain_records: list[StepRecord] = []
    plain = solve(plain_records)

    outs = []
    assemble = solver.assemble_jacobian

    def assemble_spy(*args, **kwargs):
        outs.append(kwargs["out"])
        return assemble(*args, **kwargs)
    monkeypatch.setattr(solver, "assemble_jacobian", assemble_spy)
    spied_records: list[StepRecord] = []
    spied = solve(spied_records)

    N = problem.dims.N
    assert len(outs) == plain.iterations > 1
    assert all(out is outs[0] for out in outs) and outs[0].shape == (N, N)
    assert _bits_of(spied_records) == _bits_of(plain_records)
    assert _bits_of(spied) == _bits_of(plain)
