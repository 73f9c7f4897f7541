"""Penalty-grid driver tests: starts, metrics, aggregation, determinism."""
import dataclasses

import numpy as np
import pytest

import bilevel_newton as bn

from conftest import counting


def test_default_lambda_grid():
    assert bn.DEFAULT_LAMBDA_GRID == (0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)


def test_sweep_config_validation():
    with pytest.raises(ValueError):
        bn.SweepConfig(lambda_grid=())
    with pytest.raises(ValueError):
        bn.SweepConfig(lambda_grid=(1.0, -2.0))
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite and positive"):
            bn.SweepConfig(lambda_grid=(1.0, bad))


def test_default_start_xy_linear(problems):
    p = problems["xy-linear"]
    zeta = bn.resolve_start(p, np.array([1.0]), np.array([1.0]))
    np.testing.assert_allclose(zeta.z, [1.0])
    np.testing.assert_allclose(zeta.u, [0.0])  # |1 + 1 - 2|
    np.testing.assert_allclose(zeta.v, [0.0])  # |1 - 1|
    np.testing.assert_allclose(zeta.w, [0.0])


def test_default_start_multiplier_magnitudes(problems):
    p = problems["quadratic-projection"]
    zeta = bn.resolve_start(p, np.array([0.5]), np.array([2.0, -1.0]))
    assert zeta.u.size == 0  # p = 0
    np.testing.assert_allclose(zeta.v, [3.0, 1.0])  # |y1 - y2|, |-y1 - y2|
    np.testing.assert_allclose(zeta.w, zeta.v)
    np.testing.assert_allclose(zeta.z, [2.0, -1.0])


def _same_iterate(a, b):
    return all(np.array_equal(getattr(a, k), getattr(b, k)) for k in ("x", "y", "z", "u", "v", "w"))


def test_resolve_start_overrides(problems):
    plain = problems["quadratic-projection"]
    x0, y0 = [0.5], [0.5, -0.5]
    cases = [
        ({}, np.ones(1), np.ones(2)),
        ({"x0": x0}, x0, np.ones(2)),
        ({"y0": y0}, np.ones(1), y0),
    ]
    for overrides, x, y in cases:
        assert _same_iterate(bn.resolve_start(plain, **overrides), bn.resolve_start(plain, x, y))


def test_delta_metrics_zero_gap():
    d = bn.delta_metrics(0.5, 2.0, 0.5, 2.0, "optimal")
    assert (d.delta_F, d.delta_f, d.delta) == (0.0, 0.0, 0.0)


def test_delta_metrics_optimal_normalization():
    d = bn.delta_metrics(0.6, 2.0, 0.5, 2.0, "optimal")
    assert d.delta_F == pytest.approx(0.1)  # max{1, |0.5|} = 1
    assert d.delta == pytest.approx(0.1)


def test_delta_metrics_known_keeps_sign():
    d = bn.delta_metrics(0.8, 1.7, 1.0, 2.0, "known")
    assert d.delta_F == pytest.approx(-0.2)
    assert d.delta_f == pytest.approx(-0.15)
    assert d.delta == pytest.approx(-0.15)  # signed max


def test_delta_metrics_unknown_absent():
    d = bn.delta_metrics(1.0, 1.0, None, None, "unknown")
    assert d.delta_F is None and d.delta_f is None and d.delta is None
    with pytest.raises(ValueError):
        bn.delta_metrics(0.0, 0.0, 0.0, 0.0, "bogus")


def test_sweep_quadratic_projection_full_grid(entries):
    entry = entries["quadratic-projection"]
    report = bn.sweep(entry.problem, status_known=entry.status)
    assert report.converged
    assert all(r.status == bn.SOLVED for r in report.runs)
    assert abs(report.best.F) <= 1e-6
    assert report.delta_star is not None and report.delta_star <= 1e-6


def test_sweep_xy_linear_delta_star(entries):
    entry = entries["xy-linear"]
    report = bn.sweep(entry.problem, status_known=entry.status)
    assert report.converged
    assert report.delta_star <= 1e-6


def test_sweep_single_lambda_reduces_to_run(entries):
    entry = entries["xy-linear"]
    config = bn.SweepConfig(lambda_grid=(2.0,))
    report = bn.sweep(entry.problem, config, status_known=entry.status)
    single = bn.run(entry.problem, bn.SolverConfig(lam=2.0), bn.resolve_start(entry.problem))
    assert len(report.runs) == 1
    assert report.best_lambda == 2.0
    assert report.runs[0].residual_norms == single.residual_norms
    assert np.array_equal(report.runs[0].final.to_vector(), single.final.to_vector())


def test_sweep_dempe_parabola_regression(entries):
    # empirically frozen: the certified point is reached for mid-range
    # penalties; small and large penalties converge elsewhere or not at all
    entry = entries["dempe-parabola"]
    config = bn.SweepConfig(lambda_grid=(0.5, 1.0, 2.0, 4.0, 8.0, 16.0),
                            base=bn.SolverConfig(lam=1.0, max_iter=500))
    report = bn.sweep(entry.problem, config, status_known=entry.status)
    statuses = {r.lam: r.status for r in report.runs}
    assert statuses[0.5] != bn.SOLVED
    for lam in (1.0, 2.0, 4.0, 8.0, 16.0):
        assert statuses[lam] == bn.SOLVED
    # penalties above the admissibility threshold land near the certified
    # point; the second-order form vanishes there, so the solved system is
    # degenerate and the primal accuracy is only ~sqrt(eps)
    for lam in (4.0, 8.0, 16.0):
        run = next(r for r in report.runs if r.lam == lam)
        zbar = entry.certified_points[0].build(lam)
        np.testing.assert_allclose(run.final.x, zbar.x, atol=1e-3)
        np.testing.assert_allclose(run.final.y, zbar.y, atol=1e-3)
        assert run.F == pytest.approx(31.25, abs=1e-3)
    assert report.delta_star is None  # no known values registered


def test_delta_star_monotone_in_grid(entries):
    entry = entries["quadratic-projection"]
    small = bn.sweep(entry.problem, bn.SweepConfig(lambda_grid=(1.0, 4.0)), status_known=entry.status)
    big = bn.sweep(entry.problem, bn.SweepConfig(lambda_grid=(1.0, 4.0, 16.0)), status_known=entry.status)
    assert big.delta_star <= small.delta_star


def test_sweep_best_requires_solved(entries):
    # with a 1-iteration budget nothing converges; best falls back to the
    # smallest residual and the report is flagged
    entry = entries["quadratic-projection"]
    config = bn.SweepConfig(lambda_grid=(1.0, 2.0), base=bn.SolverConfig(lam=1.0, max_iter=1))
    report = bn.sweep(entry.problem, config, status_known=entry.status)
    assert not report.converged
    assert all(r.status == bn.MAX_ITER for r in report.runs)
    best_norms = [r.final_residual_norm for r in report.runs]
    assert report.best.final_residual_norm == min(best_norms)


# the default grid, with a cap that keeps dempe's failing penalties short
_CAPPED = bn.SweepConfig(base=bn.SolverConfig(lam=1.0, max_iter=30))


def _calls_at(calls, x, y):
    """How many of the recorded calls were made at the point (x, y)."""
    return {name: sum(np.array_equal(cx, x) and np.array_equal(cy, y) for cx, cy in c) for name, c in calls.items()}


@pytest.mark.parametrize("name", ["quadratic-projection", "xy-linear", "dempe-parabola"])
def test_sweep_evaluates_its_resolved_start_once(entries, name):
    # resolve_start's one evaluation at (x0, y0) = (x0, z0) serves every run
    p, calls = counting(entries[name].problem, "F", "f", "G", "g")
    report = bn.sweep(p, _CAPPED)
    assert len(report.runs) == len(bn.DEFAULT_LAMBDA_GRID)
    d = p.dims
    start = bn.resolve_start(entries[name].problem)
    assert _calls_at(calls, start.x, start.y) == {"F": 1, "f": 1, "G": int(d.p > 0), "g": int(d.q > 0)}


def test_sweep_evaluates_a_start_it_is_given_once(entries):
    entry = entries["xy-linear"]
    p, calls = counting(entry.problem, "F", "f", "G", "g")
    zeta0 = bn.resolve_start(entry.problem)
    start = bn.Iterate.of(p.dims, zeta0.x, zeta0.y, zeta0.z + 0.25, zeta0.u, zeta0.v, zeta0.w)
    report = bn.sweep(p, _CAPPED, start=start)
    assert all(r.status == bn.SOLVED for r in report.runs)
    assert _calls_at(calls, start.x, start.y) == {"F": 1, "f": 1, "G": 1, "g": 1}
    assert _calls_at(calls, start.x, start.z) == {"F": 0, "f": 1, "G": 0, "g": 1}


def test_a_start_that_fails_fails_every_run(entries):
    # F fails at the start's leader point, after g and f at (x, z) and G and
    # g at (x, y) succeeded: nothing of a failed evaluation is kept, so every
    # run evaluates the start again, and no run's report tries F once more
    entry = entries["xy-linear"]
    zeta0 = bn.resolve_start(entry.problem)
    start = bn.Iterate.of(entry.problem.dims, zeta0.x, zeta0.y, zeta0.z + 0.25, zeta0.u, zeta0.v, zeta0.w)
    nm = entry.problem.dims.n + entry.problem.dims.m
    nan_F = dataclasses.replace(entry.problem, F=lambda x, y: (np.nan, np.zeros(nm), np.zeros((nm, nm))))
    p, calls = counting(nan_F, "F", "f", "G", "g")
    report = bn.sweep(p, _CAPPED, start=start)
    runs = len(report.runs)
    assert [r.status for r in report.runs] == [bn.EVALUATION_FAILED] * runs
    assert all("while evaluating F" in r.error for r in report.runs)
    assert _calls_at(calls, start.x, start.z) == {"F": 0, "f": runs, "G": 0, "g": runs}
    assert _calls_at(calls, start.x, start.y) == {"F": runs, "f": 0, "G": runs, "g": runs}
