"""Shared finite-difference oracles and samplers for the test suite."""
from __future__ import annotations

import dataclasses
import math
import pathlib
import types

import numpy as np
import pytest

import bilevel_newton as bn
from bilevel_newton.problem import evaluate_function
from bilevel_newton.system import block_slices

import spec

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"


def bench_module(name):
    """The module bench/<name>.py, compiled from its text, so that no bytecode
    cache is written under bench/."""
    path = BENCH / f"{name}.py"
    module = types.ModuleType(f"bench_{name}")
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


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


def grad_psi(problem, lam, zeta):
    """The gradient of the merit function as the solver forms it, W^T Phi."""
    r = bn.assemble_residual(problem, lam, zeta)
    return bn.assemble_jacobian(r).T @ r.vec


def pair_values(problem, zeta):
    """All (constraint value, multiplier) pairs of the three blocks; only
    the constraints are evaluated: G and g at (x, y), then g at (x, z)."""
    G_y, g_y, g_z = (evaluate_function(problem, name, zeta.x, point)[0]
                     for name, point in (("G", zeta.y), ("g", zeta.y), ("g", zeta.z)))
    return [*zip(G_y, zeta.u), *zip(g_y, zeta.v), *zip(g_z, zeta.w)]


def sample_kink_free(problem, rng, margin=1e-3, box=2.0):
    """Random iterate whose complementarity pairs all stay off the kink."""
    while True:
        zeta = bn.Iterate.from_vector(rng.uniform(-box, box, problem.dims.N), problem.dims)
        if all(np.hypot(c, mu) > margin for c, mu in pair_values(problem, zeta)):
            return zeta


def counting(problem, *names):
    """The problem with the named evaluators wrapped to record their calls,
    and the records by name (an absent G stays absent)."""
    calls = {name: [] for name in names}

    def wrap(name):
        fn = getattr(problem, name)

        def call(x, y):
            calls[name].append((x, y))
            return fn(x, y)
        return call
    return dataclasses.replace(problem, **{name: wrap(name) for name in names
                                          if getattr(problem, name) is not None}), calls


# assemble_residual's stages, in order: the evaluators each calls and the
# row blocks it builds
STAGES = (("g", "w"), ("f", "z"), ("Gg", "uv"), ("Ff", "xy"))


def _rejects(s_p, N, bound):
    """The rule of system._rows_reject: a merit bound below 0, or a sum of
    squares s_p of rows of Phi that proves 0.5 ||Phi||^2 above the bound."""
    return bound < 0 or (math.isfinite(s_p) and
                         0.5 * s_p * (1.0 - 8 * (N + 4) * 2.0**-53) - (N + 4) * 2.0**-1074 > bound)


def signs_reject(problem, vec, bound):
    """Whether the negative multipliers (u, v, w) of the stacked point vec
    alone prove its merit above bound: each bounds its row fb(-c, mu) below
    by -mu, whatever the constraint value c, so their squares, summed in
    order, are a sum of squares of lower bounds on rows of Phi."""
    d = problem.dims
    s_p = 0.0
    for mu in vec[d.N - d.p - 2 * d.q:].tolist():
        if mu < 0.0:
            s_p += mu * mu
    return _rejects(s_p, d.N, bound)


def staged_calls(problem, phi, bound):
    """A replay of assemble_residual's staged rule at a point whose full
    residual vector is ``phi``, under merit bound ``bound`` (None: no bound,
    and then ``phi`` is not read).

    Returns the evaluator calls it makes, by name (a constraint evaluator
    with no components is not called), and whether it returns the residual.
    After each of the first three stages the squares of the rows built so
    far are summed, one dot product per stage, and the trial is rejected
    when that sum proves the merit above the bound; after the last one the
    merit itself is tested.  In a line search this replay holds from the
    first trial that ``signs_reject`` does not reject on; the trials before
    it are passed over and call no evaluator.
    """
    d, s = problem.dims, block_slices(problem.dims)
    components = {"F": 1, "f": 1, "G": d.p, "g": d.q}
    calls = dict.fromkeys("FfGg", 0)
    partial = 0.0
    for names, blocks in STAGES:
        for name in names:
            calls[name] += components[name] > 0
        if bound is None or blocks == "xy":
            continue
        rows = phi[s[blocks[0]].start:s[blocks[-1]].stop]
        partial += float(rows.dot(rows))
        if _rejects(partial, d.N, bound):
            return calls, False
    return calls, bound is None or spec.merit(phi) <= bound


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
