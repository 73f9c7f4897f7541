"""Newton iteration tests: directions, line search, full runs."""
import dataclasses
import math

import numpy as np
import pytest

import bilevel_newton as bn
from bilevel_newton import solver
from bilevel_newton.complementarity import KINK_TOL
from bilevel_newton.linalg import PIVOT_TOL
from bilevel_newton.solver import GRADIENT, NEWTON, StepRecord
from bilevel_newton.system import block_slices

import spec
from conftest import counting, signs_reject, staged_calls


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
    ("max_iter", True), ("max_iter", False),
] + [(name, math.inf) for name in PROTOCOL_CONSTANTS])
def test_config_validates_ranges(field, value):
    kwargs = {"lam": 1.0, field: value}
    if field in PROTOCOL_CONSTANTS:
        with pytest.raises(TypeError, match=f"'{field}'"):
            bn.SolverConfig(**kwargs)
    else:
        with pytest.raises(ValueError, match=rf"^{field} "):
            bn.SolverConfig(**kwargs)


def test_config_names_a_bool_cap():
    with pytest.raises(ValueError, match=r"^max_iter must be an integer >= 0, got True$"):
        bn.SolverConfig(lam=1.0, max_iter=True)


def test_config_takes_a_numpy_integer_cap(entries):
    entry = entries["dempe-parabola"]
    report = bn.run(entry.problem, bn.SolverConfig(lam=0.5, max_iter=np.int64(3)), bn.resolve_start(entry.problem))
    assert (report.status, report.iterations) == (bn.MAX_ITER, 3)


def _first_step(problem, cfg, zeta):
    """The record of run's first iteration from zeta."""
    records: list[StepRecord] = []
    bn.run(problem, dataclasses.replace(cfg, max_iter=1), zeta, callback=records.append)
    (record,) = records
    return record


def _backtrack_from(problem, cfg, zeta, d):
    """solver._backtrack along d, from zeta's merit and slope."""
    psi0 = spec.merit(spec.residual(problem, cfg.lam, zeta.vec))
    slope = float(spec.merit_grad(problem, cfg.lam, zeta.vec) @ d)
    return solver._backtrack(problem, cfg.lam, zeta, d, psi0, slope)


def test_step_newton_near_solution(entries):
    entry = entries["quadratic-projection"]
    cfg = bn.SolverConfig(lam=1.0)
    zeta0 = entry.certified_points[0].build(1.0)
    vec = zeta0.to_vector() + 1e-3
    zeta = bn.Iterate.from_vector(vec, entry.problem.dims)
    rec = _first_step(entry.problem, cfg, zeta)
    assert rec.direction_type == NEWTON
    slope = float(spec.merit_grad(entry.problem, 1.0, zeta.vec) @ rec.direction)
    assert slope == rec.slope
    assert slope <= -solver.BETA * np.linalg.norm(rec.direction) ** solver.T


def test_step_gradient_fallback_on_singular_jacobian():
    p = make_duplicated_constraint_problem()
    cfg = bn.SolverConfig(lam=1.0)
    # both duplicate pairs active with positive multipliers: identical rows
    zeta = bn.Iterate.of(p.dims, x=[1.0], y=[1.0], z=[1.0], v=[1.0, 1.0], w=[1.0, 1.0])
    rec = _first_step(p, cfg, zeta)
    assert rec.direction_type == GRADIENT
    grad = spec.merit_grad(p, 1.0, zeta.vec)
    np.testing.assert_allclose(rec.direction, -grad)


def test_line_search_full_step_near_solution(entries):
    entry = entries["quadratic-projection"]
    cfg = bn.SolverConfig(lam=1.0)
    vec = entry.certified_points[0].build(1.0).to_vector() + 1e-3
    zeta = bn.Iterate.from_vector(vec, entry.problem.dims)
    rec = _first_step(entry.problem, cfg, zeta)
    assert rec.alpha == 1.0 and rec.backtracks == 0


def test_line_search_tiny_gradient_direction(entries):
    # near-solution steepest-descent direction must terminate one way or another
    entry = entries["xy-linear"]
    cfg = bn.SolverConfig(lam=1.0)
    vec = entry.certified_points[0].build(1.0).to_vector() + 1e-7
    zeta = bn.Iterate.from_vector(vec, entry.problem.dims)
    d = -spec.merit_grad(entry.problem, 1.0, zeta.vec)
    result = _backtrack_from(entry.problem, cfg, zeta, d)
    if result is not None:
        assert result.backtracks <= solver.MAX_BACKTRACKS


def test_line_search_stall_on_tight_budget(entries, monkeypatch):
    entry = entries["xy-linear"]
    cfg = bn.SolverConfig(lam=1.0)
    monkeypatch.setattr(solver, "MAX_BACKTRACKS", 1)
    zeta = bn.resolve_start(entry.problem)
    # huge descent-scaled direction: the first two trial points overshoot
    d = -1e12 * spec.merit_grad(entry.problem, 1.0, zeta.vec)
    assert _backtrack_from(entry.problem, cfg, zeta, d) is None


def test_line_search_rejects_ascent(entries):
    entry = entries["xy-linear"]
    cfg = bn.SolverConfig(lam=1.0)
    zeta = bn.resolve_start(entry.problem)
    d = spec.merit_grad(entry.problem, 1.0, zeta.vec)  # ascent direction
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
    """The problem with its evaluators counted, the record of their calls,
    and the reference start.  The start keeps the evaluations of
    entry.problem, not of the counted problem, so a run of the counted
    problem evaluates it once."""
    p, calls = counting(entry.problem, "F", "f", "G", "g")
    zeta = bn.resolve_start(entry.problem)
    return p, calls, zeta


def _counts(calls):
    return {name: len(c) for name, c in calls.items()}


def _add(total, calls):
    for name, count in calls.items():
        total[name] += count
    return total


def _trial_calls(problem, lam, zeta, d, merit0, slope, backtracks):
    """The evaluator calls, by name, of the first backtracks + 1
    line-search trials along d, from a replay of the staged rule at each:
    the leading trials whose multiplier signs reject them call none."""
    total, leading = dict.fromkeys("FfGg", 0), True
    for s in range(backtracks + 1):
        alpha = solver.RHO**s
        trial = bn.Iterate(zeta.vec + alpha * d, problem.dims)
        bound = merit0 + solver.SIGMA * alpha * slope
        if leading and signs_reject(problem, trial.vec, bound):
            continue
        leading = False
        _add(total, staged_calls(problem, spec.residual(problem, lam, trial.vec), bound)[0])
    return total


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
    # run's first iteration: every stage at the start, then the stages each
    # trial reaches; the line search does not evaluate the start again
    entry = entries["xy-linear"]
    cfg = bn.SolverConfig(lam=2.0)
    p, calls, zeta = _counted_start(entry)
    rec = _first_step(p, cfg, zeta)
    expected = _add(staged_calls(entry.problem, None, None)[0], _trial_calls(
        entry.problem, cfg.lam, zeta, rec.direction, rec.merit_before, rec.slope, rec.backtracks))
    assert _counts(calls) == expected


def _assert_run_evaluates_each_point_once(entry, cfg):
    # every stage at the start, then the stages each trial reaches; the
    # last trial is complete and gives the report's F/f
    p, calls, zeta = _counted_start(entry)
    records: list[StepRecord] = []
    report = bn.run(p, cfg, zeta, callback=records.append)
    assert records
    expected = staged_calls(entry.problem, None, None)[0]
    for rec in records:
        _add(expected, _trial_calls(entry.problem, cfg.lam, rec.zeta, rec.direction, rec.merit_before,
                                    rec.slope, rec.backtracks))
    assert _counts(calls) == expected
    return report, expected, sum(rec.backtracks + 1 for rec in records)


@pytest.mark.parametrize("name,lam", [("quadratic-projection", 1.0), ("dempe-parabola", 4.0)])
def test_run_evaluates_each_point_once(entries, name, lam):
    report, _, _ = _assert_run_evaluates_each_point_once(entries[name], bn.SolverConfig(lam=lam))
    assert report.status == bn.SOLVED


def test_run_skips_the_leader_point_of_rejected_trials(entries):
    # dempe at lam = 128 stalls: most trials are rejected, most of those
    # before their leader point, some by their rows w alone
    entry = entries["dempe-parabola"]
    report, calls, trials = _assert_run_evaluates_each_point_once(
        entry, bn.SolverConfig(lam=128.0, max_iter=30))
    assert report.status == bn.MAX_ITER
    assert calls["F"] < 1 + trials // 2
    assert calls["f"] - calls["F"] < 1 + trials  # f at (x, z): the start and the trials rows w do not reject


def test_a_trial_its_multiplier_signs_reject_calls_no_evaluator(problems):
    # the first trials drive w below -100, so their signs prove them rejected
    # and g is never called at the first trial's follower point, where it fails
    base, lam = problems["dempe-parabola"], 1.0
    zeta = bn.resolve_start(base)
    d = np.zeros(base.dims.N)
    d[block_slices(base.dims)["z"]], d[-1] = 1.0, -1e3
    first = bn.Iterate(zeta.vec + d, base.dims)

    def g(x, y):
        value, grad, hess = base.g(x, y)
        return (np.full_like(value, np.nan) if np.array_equal(y, first.z) else value), grad, hess
    p, calls = counting(dataclasses.replace(base, g=g), "F", "f", "g")
    with pytest.raises(bn.EvaluationError, match="while evaluating g"):
        bn.assemble_residual(p, lam, first)
    calls["g"].clear()
    merit0, slope = bn.assemble_residual(base, lam, zeta).merit(), -1.0
    assert signs_reject(base, first.vec, merit0 + solver.SIGMA * slope)
    result = solver._backtrack(p, lam, zeta, d, merit0, slope)
    assert calls["g"] and not any(np.array_equal(y, first.z) for _, y in calls["g"])
    expected = _trial_calls(base, lam, zeta, d, merit0, slope,
                            solver.MAX_BACKTRACKS if result is None else result.backtracks)
    assert _counts(calls) == {name: expected[name] for name in calls}


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
    counted, calls = counting(p, "F", "f", "g")
    report = bn.run(counted, bn.SolverConfig(lam=1.0),
                    bn.Iterate.of(zeta0.dims, zeta0.x, zeta0.y, zeta0.z + 9.0, zeta0.u, zeta0.v, zeta0.w))
    assert report.status == bn.EVALUATION_FAILED
    assert "while evaluating g at [1.0, 10.0, 10.0]" in report.error
    start = bn.evaluate_all(base, zeta0.x, zeta0.y)
    assert (report.F, report.f) == (start.F, start.f)
    # g at (x, z) failed; the report then calls F and f alone
    assert {name: len(c) for name, c in calls.items()} == {"F": 1, "f": 1, "g": 1}


def test_run_reports_nan_without_calling_F_again_when_F_fails_at_the_start(problems):
    base = problems["quadratic-projection"]
    nm = base.dims.n + base.dims.m
    p, calls = counting(dataclasses.replace(base, F=lambda x, y: (np.inf, np.zeros(nm), np.zeros((nm, nm)))),
                        "F", "f", "g")
    zeta0 = bn.resolve_start(base)
    report = bn.run(p, bn.SolverConfig(lam=1.0), bn.Iterate.from_vector(zeta0.vec, zeta0.dims))
    assert report.status == bn.EVALUATION_FAILED and "while evaluating F" in report.error
    assert math.isnan(report.F) and math.isnan(report.f)
    # g and f at (x, z), g and F at (x, y): nothing more for the report
    assert {name: len(c) for name, c in calls.items()} == {"F": 1, "f": 1, "g": 2}


def test_run_reports_F_and_f_together_when_f_fails_at_the_start(problems):
    # the start's follower stages pass and its leader f fails; so does the report's f after F
    base = problems["quadratic-projection"]
    zeta0 = bn.resolve_start(base)
    p, calls = counting(_nonfinite_at(base, "f", np.r_[zeta0.x, zeta0.y]), "F", "f", "g")
    report = bn.run(p, bn.SolverConfig(lam=1.0),
                    bn.Iterate.of(zeta0.dims, zeta0.x, zeta0.y, zeta0.z + 0.5, zeta0.u, zeta0.v, zeta0.w))
    assert report.status == bn.EVALUATION_FAILED and "while evaluating f at [1.0, 1.0, 1.0]" in report.error
    assert math.isnan(report.F) and math.isnan(report.f)
    leader, follower = [1.0, 1.0, 1.0], [1.0, 1.5, 1.5]
    assert {name: [[*x, *y] for x, y in c] for name, c in calls.items()} == {
        "F": [leader, leader], "f": [follower, leader, leader], "g": [follower, leader]}


def _small_lq(n=2, m=3):
    """p = 1, q = m (n = 2, m = 3 by default): random convex quadratics,
    y >= 0, sum(x) <= 1."""
    rng = np.random.default_rng(21)
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
    if isinstance(value, bn.Iterate):
        return _bits_of(value.vec), value.dims
    if dataclasses.is_dataclass(value):
        return tuple((f.name, _bits_of(getattr(value, f.name))) for f in dataclasses.fields(value))
    if isinstance(value, (list, tuple)):
        return tuple(_bits_of(v) for v in value)
    if isinstance(value, np.ndarray):
        return (value.shape, value.astype(float).tobytes())
    if isinstance(value, float):
        return np.float64(value).tobytes()
    return value


def _assert_run_as_the_spec(problem, lam, max_iter, start):
    """A run from start matches the spec's bit for bit, with no more
    evaluator calls; the spec's run is returned."""
    counted, calls = counting(problem, "F", "f", "G", "g")
    records: list[StepRecord] = []
    report = bn.run(counted, bn.SolverConfig(lam=lam, max_iter=max_iter), bn.Iterate.from_vector(start, problem.dims),
                    callback=records.append)
    library_calls = _counts(calls)
    for c in calls.values():
        c.clear()
    expected = spec.run(counted, lam, start, max_iter)
    assert (report.status, report.direction_types) == (expected.status, expected.direction_types)
    assert _bits_of([[rec.zeta.vec for rec in records] + [report.final.vec], report.residual_norms,
                     report.step_sizes, [rec.slope for rec in records], report.F, report.f, report.eoc]) == \
        _bits_of([expected.iterates, expected.norms, expected.step_sizes, expected.slopes, expected.F,
                  expected.f, expected.eoc])
    assert all(count <= len(calls[name]) for name, count in library_calls.items())
    return expected


# dempe at 0.5 takes 5 gradient steps in its first 40 (the LU solve rejects
# W); the small LQ problem has p, q > 0 and solves in a few Newton steps
@pytest.mark.parametrize("case,lam", [("dempe-parabola", 0.5), ("small-lq", 2.0)])
def test_run_builds_every_step_in_the_same_buffer(entries, monkeypatch, case, lam):
    problem = _small_lq() if case == "small-lq" else entries[case].problem
    outs = []
    assemble = solver.assemble_jacobian

    def assemble_spy(*args, **kwargs):
        outs.append(kwargs["out"])
        return assemble(*args, **kwargs)
    monkeypatch.setattr(solver, "assemble_jacobian", assemble_spy)
    expected = _assert_run_as_the_spec(problem, lam, 40, bn.resolve_start(problem).vec)
    N = problem.dims.N
    assert len(outs) == len(expected.step_sizes) > 1
    assert all(out is outs[0] for out in outs) and outs[0].shape == (N, N)


@pytest.mark.parametrize("case,max_iter", [("quadratic-projection", 2000), ("xy-linear", 2000),
                                           ("dempe-parabola", 50), ("lq-10", 50)])
def test_run_keeps_the_steps_of_the_reference_slope_and_norms(entries, case, max_iter):
    # the default grid; on dempe some of the steps are gradient steps
    problem = _small_lq(10, 10) if case == "lq-10" else entries[case].problem
    start = bn.resolve_start(problem).vec
    runs = [_assert_run_as_the_spec(problem, lam, max_iter, start) for lam in bn.DEFAULT_LAMBDA_GRID]
    assert any(GRADIENT in r.direction_types for r in runs) or case != "dempe-parabola"


def test_run_ends_at_a_fixed_point_with_the_report_of_every_iteration(entries):
    # dempe at 0.5: iterate 235 is bitwise iterate 234, so every later
    # iteration repeats that step; the report lists each of them, the
    # callback sees none after the fixed point, and no evaluator is called
    # after it, whatever the cap
    problem = entries["dempe-parabola"].problem
    start = bn.resolve_start(problem).vec
    counted, calls = counting(problem, "F", "f", "g")
    reports, library_calls = [], []
    for max_iter in (240, 2000):
        reports.append(bn.run(counted, bn.SolverConfig(lam=0.5, max_iter=max_iter),
                              bn.Iterate.from_vector(start, problem.dims)))
        library_calls.append(_counts(calls))
        for c in calls.values():
            c.clear()
    expected = spec.run(counted, 0.5, start, 240)
    assert len({vec.tobytes() for vec in expected.iterates[234:]}) == 1
    assert expected.iterates[233].tobytes() != expected.iterates[234].tobytes()
    report = reports[0]
    assert (report.status, report.iterations, report.direction_types) == \
        (expected.status, 240, expected.direction_types)
    assert _bits_of([report.residual_norms, report.step_sizes, report.final.vec, report.final_residual_norm,
                     report.F, report.f, report.eoc]) == \
        _bits_of([expected.norms, expected.step_sizes, expected.iterates[-1], expected.norms[-1],
                  expected.F, expected.f, expected.eoc])
    assert sum(library_calls[0].values()) < sum(map(len, calls.values()))
    assert library_calls[0] == library_calls[1]
    full = reports[1]
    assert (full.status, full.iterations) == (bn.MAX_ITER, 2000)
    assert full.direction_types[240:] == report.direction_types[-1:] * 1760
    assert _bits_of([full.residual_norms[:241], full.step_sizes[:240], full.final.vec, full.F, full.f, full.eoc]) == \
        _bits_of([report.residual_norms, report.step_sizes, report.final.vec, report.F, report.f, report.eoc])
    assert full.residual_norms[240:] == report.residual_norms[-1:] * 1761
    assert full.step_sizes[240:] == report.step_sizes[-1:] * 1760


@pytest.mark.parametrize("flip,searches", [(False, 1), (True, 5)])
def test_a_step_that_flips_a_signed_zero_is_no_fixed_point(entries, monkeypatch, flip, searches):
    # a stand-in line search returns the same point, or the point with its
    # zero entry's sign flipped: only the first is a fixed point
    problem = entries["quadratic-projection"].problem
    vec = bn.resolve_start(problem).vec.copy()
    vec[0] = 0.0
    seen = []

    def backtrack(problem, lam, zeta, d, merit0, slope):
        nxt = zeta.vec.copy()
        if flip:
            nxt[0] = -nxt[0]
        seen.append(nxt)
        trial = bn.Iterate(nxt, zeta.dims)
        return solver.LineSearchResult(2.0**-32, 32, trial, bn.assemble_residual(problem, lam, trial))
    monkeypatch.setattr(solver, "_backtrack", backtrack)
    report = bn.run(problem, bn.SolverConfig(lam=1.0, max_iter=5), bn.Iterate.from_vector(vec, problem.dims))
    assert (report.status, report.iterations, len(seen)) == (bn.MAX_ITER, 5, searches)
    signs = [-1.0, 1.0, -1.0, 1.0, -1.0] if flip else [1.0]
    assert [math.copysign(1.0, v[0]) for v in seen] == signs
    assert report.step_sizes == [2.0**-32] * 5
    assert report.residual_norms == report.residual_norms[:1] * 6


def _merit_stationary_problem():
    """n = m = 1, p = q = 0: F = x^3/3 + x + y^2/2 and f = 0.  Phi = (x^2 + 1,
    y, 0) never vanishes; grad Psi vanishes at x = y = 0."""
    zero = np.zeros((2, 2))
    return bn.BilevelProblem(
        name="merit-stationary", dims=bn.ProblemDims(n=1, m=1, p=0, q=0),
        F=lambda x, y: (x[0] ** 3 / 3 + x[0] + y[0] ** 2 / 2, np.array([x[0] ** 2 + 1, y[0]]),
                        np.diag([2 * x[0], 1.0])),
        f=lambda x, y: (0.0, np.zeros(2), zero),
        g=lambda x, y: (np.zeros(0), np.zeros((0, 2)), np.zeros((0, 2, 2))))


@pytest.mark.parametrize("status,iterations", [(bn.MERIT_STATIONARY, 5), (bn.LINE_SEARCH_STALL, 2)])
def test_run_reaches_each_status_as_the_spec(entries, monkeypatch, status, iterations):
    if status == bn.MERIT_STATIONARY:
        problem, lam, start = _merit_stationary_problem(), 1.0, np.array([0.7, 0.3, 0.0])
    else:  # two backtracks are too few for dempe's third step
        monkeypatch.setattr(solver, "MAX_BACKTRACKS", 2)
        problem, lam = entries["dempe-parabola"].problem, 0.5
        start = bn.resolve_start(problem).vec
    expected = _assert_run_as_the_spec(problem, lam, 2000, start)
    assert (expected.status, len(expected.step_sizes)) == (status, iterations)


def _assembled_trials(problem, rec):
    """How many of rec's line-search trials reach assemble_residual: all but
    the leading ones that their multiplier signs reject."""
    for s in range(rec.backtracks + 1):
        alpha = solver.RHO**s
        if not signs_reject(problem, rec.zeta.vec + alpha * rec.direction,
                            rec.merit_before + solver.SIGMA * alpha * rec.slope):
            return rec.backtracks + 1 - s
    return 0


def _stalling_records(problem):
    # dempe at lam = 128 stalls: most line searches backtrack several times
    records: list[StepRecord] = []
    bn.run(problem, bn.SolverConfig(lam=128.0, max_iter=30), bn.resolve_start(problem), callback=records.append)
    return records


def test_a_line_search_builds_one_iterate(entries, monkeypatch):
    # its trials are plain vectors: only the one that completes becomes an Iterate
    problem = entries["dempe-parabola"].problem
    rec = max(_stalling_records(problem), key=lambda r: _assembled_trials(problem, r))
    assert _assembled_trials(problem, rec) >= 3
    built, post_init = [], bn.Iterate.__post_init__

    def counted(zeta):
        built.append(zeta)
        post_init(zeta)
    monkeypatch.setattr(bn.Iterate, "__post_init__", counted)
    ls = solver._backtrack(problem, 128.0, rec.zeta, rec.direction, rec.merit_before, rec.slope)
    assert ls.backtracks == rec.backtracks
    assert built == [ls.zeta_next] and ls.residual_next.zeta is ls.zeta_next


def test_every_assembled_trial_goes_through_the_solver_binding(entries, monkeypatch):
    # bench/probe.py traces the trials through solver.assemble_residual: the
    # start is an Iterate, every trial a plain vector
    problem = entries["dempe-parabola"].problem
    records = _stalling_records(problem)
    seen, assemble = [], solver.assemble_residual

    def spy(problem, lam, zeta, **kwargs):
        seen.append(type(zeta))
        return assemble(problem, lam, zeta, **kwargs)
    monkeypatch.setattr(solver, "assemble_residual", spy)
    _stalling_records(problem)
    trials = sum(_assembled_trials(problem, rec) for rec in records)
    assert trials > len(records)
    assert seen == [bn.Iterate] + [np.ndarray] * trials


def test_the_accepted_trial_keeps_its_evaluations(entries):
    # the next residual at the accepted point, the run's next iterate, calls no evaluator
    base = entries["dempe-parabola"].problem
    rec = _stalling_records(base)[0]
    p, calls = counting(base, "F", "f", "g")
    ls = solver._backtrack(p, 128.0, rec.zeta, rec.direction, rec.merit_before, rec.slope)
    assert any(calls.values())
    for c in calls.values():
        c.clear()
    again = bn.assemble_residual(p, 128.0, ls.zeta_next)
    assert not any(calls.values())
    assert again.vec.tobytes() == ls.residual_next.vec.tobytes()
    with pytest.raises(ValueError, match="read-only"):
        ls.zeta_next.vec[0] = 0.0
