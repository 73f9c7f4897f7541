"""The library surface the benchmark (``bench/``) relies on.

The probe (``bench/probe.py``) traces a run by swapping module globals for
wrappers; a name it patches that the library no longer binds fails only
when a traced run starts.  The workloads (``bench/workloads.py``) call a
few more names and read a few fields.  This checks all of them without
running the benchmark.
"""
import dataclasses
import importlib

import numpy as np
import pytest

import bilevel_newton as bn
from bilevel_newton.solver import StepRecord

from conftest import bench_module, growth_matrix


# wrapped apart from SPANS, with their own bookkeeping
EXTRA = (("system", "fb"), ("system", "pair_coeffs"), ("solver", "lu_solve"),
         ("linalg", "SingularMatrixError"), ("sweep", "run"), ("cli", "run"))


def _patched_names():
    return [(module, attr) for module, attr, _ in bench_module("probe").SPANS] + list(EXTRA)


@pytest.mark.parametrize("module,attr", _patched_names())
def test_probe_target_is_bound(module, attr):
    assert callable(getattr(importlib.import_module(f"bilevel_newton.{module}"), attr))


# called by the workloads, apart from the probe's targets
WORKLOAD_CALLS = (("problems", "get_entry"), ("problem", "check_derivatives"),
                  ("system", "assemble_residual"), ("solver", "run"), ("solver", "SolverConfig"),
                  ("sweep", "sweep"), ("sweep", "resolve_start"), ("sweep", "SweepConfig"),
                  ("regularity", "diagnose"), ("regularity", "check_licq"), ("regularity", "check_ssosc"),
                  ("cli", "main"), ("cli", "get_entry"), ("cli", "run"),
                  ("reporting", "sweep_report_to_csv"), ("reporting", "sweep_report_to_dict"),
                  ("reporting", "regularity_report_to_dict"), ("reporting", "to_json"))


@pytest.mark.parametrize("module,attr", WORKLOAD_CALLS)
def test_workload_call_is_bound(module, attr):
    assert callable(getattr(importlib.import_module(f"bilevel_newton.{module}"), attr))


def test_fields_and_calls_the_workloads_read():
    assert {"backtracks", "direction_type"} <= {f.name for f in dataclasses.fields(StepRecord)}
    config = bn.SolverConfig(lam=1.0, max_iter=3)
    assert config.max_iter == 3
    sweep_config = bn.SweepConfig(lambda_grid=(0.5, 1.0), base=config)
    assert sweep_config.lambda_grid == (0.5, 1.0) and sweep_config.base is config
    entry = bn.get_entry("xy-linear")
    problem = entry.problem
    norm = bn.assemble_residual(problem, 1.0, bn.resolve_start(problem)).norm()
    assert isinstance(norm, float) and np.isfinite(norm)
    # the certified gap and the sign check of y read a run's final point
    report = bn.run(problem, config, bn.resolve_start(problem))
    point = next(c for c in entry.certified_points if c.admissible(report.lam))
    gap = report.final.to_vector() - point.build(report.lam).to_vector()
    assert gap.shape == (problem.dims.N,) and np.isfinite(gap).all()
    assert report.final.y.shape == (problem.dims.m,) and np.isfinite(np.min(report.final.y))


def _counting_scalars(monkeypatch):
    """Count calls to the scalar complementarity functions as the system
    module looks them up, the way the probe counts them."""
    from bilevel_newton import system
    counts = {"fb": 0, "pair_coeffs": 0}
    for name in counts:
        fn = getattr(system, name)

        def wrapper(*args, _fn=fn, _name=name):
            counts[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(system, name, wrapper)
    return counts


@pytest.mark.parametrize("name", ["quadratic-projection", "xy-linear", "dempe-parabola"])
def test_one_scalar_call_per_pair_for_each_residual_and_jacobian(monkeypatch, name):
    problem = bn.get_entry(name).problem
    pairs = problem.dims.p + 2 * problem.dims.q
    zeta = bn.resolve_start(problem)
    counts = _counting_scalars(monkeypatch)
    residual = bn.assemble_residual(problem, 2.0, zeta)
    assert counts == {"fb": pairs, "pair_coeffs": 0}
    bn.assemble_residual(problem, 2.0, zeta.vec.copy())  # a line-search trial: a plain vector
    assert counts == {"fb": 2 * pairs, "pair_coeffs": 0}
    bn.assemble_jacobian(residual)
    bn.assemble_jacobian(residual, out=np.empty((problem.dims.N, problem.dims.N)))
    assert counts == {"fb": 2 * pairs, "pair_coeffs": 2 * pairs}
    # a run builds one W per iteration
    counts.update(fb=0, pair_coeffs=0)
    report = bn.run(problem, bn.SolverConfig(lam=2.0), zeta)
    assert report.iterations > 0 and counts["pair_coeffs"] == report.iterations * pairs


@pytest.mark.parametrize("A,b,cause", [
    (np.array([[1.0, 2.0], [2.0, 4.0]]), np.ones(2), "pivot"),
    (growth_matrix(64), np.random.default_rng(0).normal(size=64), "residual"),
    (np.diag([1e-300, 1e-300]), np.array([1e300, 1.0]), "nonfinite"),
    (np.zeros((0, 0)), np.zeros(0), "pivot"),
], ids=["singular", "growth", "overflow", "empty"])
def test_probe_classifies_every_lu_rejection(A, b, cause):
    # the probe sorts each rejection by its message and raises on one it
    # cannot classify, which would end a traced run
    with pytest.raises(bn.SingularMatrixError) as exc:
        bn.lu_solve(A, b)
    assert bench_module("probe").lu_reject_cause(str(exc.value)) == cause
