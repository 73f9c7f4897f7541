"""Checks of the suite's own oracles: the spec states the method without
the library's code, and the kink-free sampler evaluates only what it reads."""
import ast
import dataclasses
import pathlib

import numpy as np

import spec
from conftest import counting, pair_values, sample_kink_free

# what the spec takes from the library: the types, the protocol constants,
# the status and direction names, and pair_coeffs
LIBRARY_NAMES = {
    "BilevelProblem", "ProblemDims", "Iterate", "EvaluationError",
    "BETA", "T", "RHO", "SIGMA", "EPS", "MAX_BACKTRACKS", "GRAD_STALL_TOL", "PIVOT_TOL",
    "SOLVED", "MERIT_STATIONARY", "MAX_ITER", "LINE_SEARCH_STALL", "EVALUATION_FAILED", "NEWTON", "GRADIENT",
    "pair_coeffs",
}


def test_the_spec_imports_only_the_names_it_states():
    nodes = list(ast.walk(ast.parse(pathlib.Path(spec.__file__).read_text())))
    modules = {alias.name for node in nodes if isinstance(node, ast.Import) for alias in node.names}
    names = {(node.module.split(".")[0], alias.name) for node in nodes if isinstance(node, ast.ImportFrom)
             for alias in node.names}
    assert modules == {"itertools", "math", "warnings", "numpy", "scipy.linalg"}
    assert {module for module, _ in names} == {"bilevel_newton", "typing"}
    assert {name for module, name in names if module == "bilevel_newton"} <= LIBRARY_NAMES


def test_sample_kink_free_evaluates_only_the_constraints(problems):
    base = problems["xy-linear"]
    nm = base.dims.n + base.dims.m
    failing = dataclasses.replace(base, F=lambda x, y: (np.nan, np.zeros(nm), np.zeros((nm, nm))))
    problem, calls = counting(failing, "F", "f")
    zeta = sample_kink_free(problem, np.random.default_rng(0))
    assert calls == {"F": [], "f": []}
    assert all(np.hypot(c, mu) > 1e-3 for c, mu in pair_values(base, zeta))
