"""Shared finite-difference oracles and samplers for the test suite."""
from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import bilevel_newton as bn


def fd_jacobian(problem, lam, zeta, h=1e-6):
    """Central-difference Jacobian of the stationarity residual."""
    vec = zeta.to_vector()
    N = problem.dims.N
    J = np.zeros((N, N))
    for i in range(N):
        e = np.zeros(N)
        e[i] = h
        rp = bn.assemble_residual(problem, lam, bn.Iterate.from_vector(vec + e, problem.dims)).vec
        rm = bn.assemble_residual(problem, lam, bn.Iterate.from_vector(vec - e, problem.dims)).vec
        J[:, i] = (rp - rm) / (2 * h)
    return J


def fd_merit_grad(problem, lam, zeta, h=1e-7):
    """Central-difference gradient of the merit function."""
    vec = zeta.to_vector()
    N = problem.dims.N
    g = np.zeros(N)
    for i in range(N):
        e = np.zeros(N)
        e[i] = h
        mp = bn.assemble_residual(problem, lam, bn.Iterate.from_vector(vec + e, problem.dims)).merit()
        mm = bn.assemble_residual(problem, lam, bn.Iterate.from_vector(vec - e, problem.dims)).merit()
        g[i] = (mp - mm) / (2 * h)
    return g


def pair_values(problem, zeta):
    """All (constraint value, multiplier) pairs of the three blocks."""
    at_y = bn.evaluate_all(problem, zeta.x, zeta.y)
    at_z = bn.evaluate_all(problem, zeta.x, zeta.z)
    pairs = list(zip(at_y.G, zeta.u))
    pairs += list(zip(at_y.g, zeta.v))
    pairs += list(zip(at_z.g, zeta.w))
    return pairs


def sample_kink_free(problem, rng, margin=1e-3, box=2.0):
    """Random iterate whose complementarity pairs all stay off the kink."""
    while True:
        zeta = bn.Iterate.from_vector(rng.uniform(-box, box, problem.dims.N), problem.dims)
        if all(np.hypot(c, mu) > margin for c, mu in pair_values(problem, zeta)):
            return zeta


def counting(problem, *names):
    """The problem with the named evaluators wrapped to record their calls,
    and the records by name."""
    calls = {name: [] for name in names}

    def wrap(name):
        fn = getattr(problem, name)

        def call(x, y):
            calls[name].append((x, y))
            return fn(x, y)
        return call
    return dataclasses.replace(problem, **{name: wrap(name) for name in names}), calls


def growth_matrix(n):
    """1 on the diagonal, -1 below it, last column all ones.  Partial
    pivoting keeps every pivot at 1 but the last, and the last column of U
    doubles row by row, up to 2^(n-1): from n = 40 on, ``lu_solve`` of a
    normal right-hand side (seed 0) passes the pivot test and fails the
    solve-residual test.  (With b all ones, LU solves it exactly.)"""
    A = np.eye(n) - np.tril(np.ones((n, n)), -1)
    A[:, -1] = 1.0
    return A


def max_rel_err(approx, exact):
    approx = np.asarray(approx, dtype=float)
    exact = np.asarray(exact, dtype=float)
    return float(np.max(np.abs(approx - exact) / np.maximum(1.0, np.abs(exact))))


@pytest.fixture(scope="session")
def entries():
    return {entry.problem.name: entry for entry in bn.registry()}


@pytest.fixture(scope="session")
def problems(entries):
    return {name: entry.problem for name, entry in entries.items()}
