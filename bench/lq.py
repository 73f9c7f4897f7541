"""Generated linear-quadratic bilevel family for the benchmark.

Built only through the public problem API (``BilevelProblem`` and
``ProblemDims``), as a user defining their own problem would:

    leader:    min_{x,y}  1/2 [x;y]' P [x;y] + c'[x;y]
    follower:  min_y      1/2 [x;y]' H [x;y] + d'[x;y]   s.t.  y >= 0

P and H are random symmetric positive definite (n+m)x(n+m) matrices; the
(y, x) block of H is the coupling B between leader and follower.  The
lower bounds are the q = m constraints g(x, y) = -y <= 0, so their
Hessians are zero.  Everything is drawn from one seed.
"""
from __future__ import annotations

import numpy as np

from bilevel_newton import BilevelProblem, ProblemDims, check_derivatives


def _spd(rng: np.random.Generator, k: int) -> np.ndarray:
    a = rng.standard_normal((k, k))
    return a @ a.T / k + np.eye(k)


def make_lq(seed: int, n: int, m: int) -> BilevelProblem:
    """One LQ instance with n leader variables, m follower variables, q = m bounds."""
    rng = np.random.default_rng(seed)
    k = n + m
    P, c = _spd(rng, k), rng.standard_normal(k)
    H, d = _spd(rng, k), rng.standard_normal(k)
    jac = np.hstack([np.zeros((m, n)), -np.eye(m)])
    hess = np.zeros((m, k, k))

    def F(x, y):
        s = np.concatenate([x, y])
        g = P @ s + c
        return 0.5 * s @ (g + c), g, P

    def f(x, y):
        s = np.concatenate([x, y])
        g = H @ s + d
        return 0.5 * s @ (g + d), g, H

    def g(x, y):
        return -y, jac, hess

    return BilevelProblem(name=f"lq-n{n}-m{m}-s{seed}", dims=ProblemDims(n=n, m=m, p=0, q=m), F=F, f=f, g=g)


def validate(problem: BilevelProblem, seed: int) -> None:
    """Raise when the hand-coded derivatives disagree with central differences."""
    rng = np.random.default_rng(seed)
    d = problem.dims
    report = check_derivatives(problem, [(rng.uniform(-1, 1, d.n), rng.uniform(-1, 1, d.m))])
    if not report.passed:
        raise RuntimeError(f"{problem.name}: derivative check failed, worst error {report.worst:.3e}")
