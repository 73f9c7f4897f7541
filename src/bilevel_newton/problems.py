"""Bundled benchmark problems with closed-form derivatives.

Each entry carries hand-coded gradients and Hessians, the best known
objective values where available, and analytically certified stationary
points of the penalized system (with their penalty admissibility range),
used as regression anchors.  Constant derivatives are built once per entry
as read-only arrays and returned by every call, so evaluation copies and
allocates nothing for them.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .problem import BilevelProblem, ProblemDims
from .system import Iterate


@dataclass(frozen=True)
class CertifiedPoint:
    """A stationary point of the penalized system, valid when admissible(lam)."""

    condition: str
    admissible: Callable[[float], bool]
    build: Callable[[float], Iterate]


@dataclass(frozen=True)
class BenchmarkEntry:
    problem: BilevelProblem
    status: str  # optimal | known | unknown
    certified_points: tuple[CertifiedPoint, ...]


def _frozen(a) -> np.ndarray:
    """A read-only float array, shared by every call that returns it."""
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


def _quadratic_projection() -> BenchmarkEntry:
    """Leader minimizes x^2 + y1^2 + y2^2; follower projects (x, -1) onto
    the cone {y1 <= y2, -y1 <= y2}.

    Optimal at x = 0, y = (0, 0).  The stationary multipliers are
    v = (lam, lam), w = (1, 1) for every positive penalty.
    """
    dims = ProblemDims(n=1, m=2, p=0, q=2)
    d2F = _frozen(2.0 * np.eye(3))
    d2f = _frozen([[2.0, -2.0, 0.0], [-2.0, 2.0, 0.0], [0.0, 0.0, 2.0]])
    dg = _frozen([[0.0, 1.0, -1.0], [0.0, -1.0, -1.0]])
    d2g = _frozen(np.zeros((2, 3, 3)))

    def F(x, y):
        val = x[0] ** 2 + y[0] ** 2 + y[1] ** 2
        grad = np.array([2 * x[0], 2 * y[0], 2 * y[1]])
        return val, grad, d2F

    def f(x, y):
        r1, r2 = y[0] - x[0], y[1] + 1.0
        val = r1 ** 2 + r2 ** 2
        grad = np.array([-2 * r1, 2 * r1, 2 * r2])
        return val, grad, d2f

    def g(x, y):
        return np.array([y[0] - y[1], -y[0] - y[1]]), dg, d2g

    problem = BilevelProblem(
        name="quadratic-projection",
        dims=dims,
        F=F, f=f, g=g,
        known_F=0.0,
        known_f=1.0,
    )
    point = CertifiedPoint(
        condition="lambda > 0",
        admissible=lambda lam: lam > 0,
        build=lambda lam: Iterate.of(dims, x=[0.0], y=[0.0, 0.0], z=[0.0, 0.0], v=[lam, lam], w=[1.0, 1.0]),
    )
    return BenchmarkEntry(problem=problem, status="optimal", certified_points=(point,))


def _xy_linear() -> BenchmarkEntry:
    """Leader minimizes x*y subject to x + y <= 2; follower minimizes y
    subject to x <= y.

    Optimal at (0, 0) with u = 0, v = lam, w = 1 for every positive penalty.
    """
    dims = ProblemDims(n=1, m=1, p=1, q=1)
    d2F = _frozen([[0.0, 1.0], [1.0, 0.0]])
    dG = _frozen([[1.0, 1.0]])
    df = _frozen([0.0, 1.0])
    d2f = _frozen(np.zeros((2, 2)))
    dg = _frozen([[1.0, -1.0]])
    zero_stack = _frozen(np.zeros((1, 2, 2)))  # the Hessians of G and g

    def F(x, y):
        return x[0] * y[0], np.array([y[0], x[0]]), d2F

    def G(x, y):
        return np.array([x[0] + y[0] - 2.0]), dG, zero_stack

    def f(x, y):
        return y[0], df, d2f

    def g(x, y):
        return np.array([x[0] - y[0]]), dg, zero_stack

    problem = BilevelProblem(
        name="xy-linear",
        dims=dims,
        F=F, f=f, g=g, G=G,
        known_F=0.0,
        known_f=0.0,
    )
    point = CertifiedPoint(
        condition="lambda > 0",
        admissible=lambda lam: lam > 0,
        build=lambda lam: Iterate.of(dims, x=[0.0], y=[0.0], z=[0.0], u=[0.0], v=[lam], w=[1.0]),
    )
    return BenchmarkEntry(problem=problem, status="optimal", certified_points=(point,))


def _dempe_parabola() -> BenchmarkEntry:
    """Leader minimizes (x - 3.5)^2 + (y + 4)^2; follower minimizes
    (y - 3)^2 on the parabola region y^2 <= x.

    The point (1, 1, 1, v=2*lam-5, w=2) is stationary for lam > 5/2; the
    second-order form vanishes there, so only stationarity (not local
    optimality) is certified and no best known values are asserted.
    """
    dims = ProblemDims(n=1, m=1, p=0, q=1)
    d2F = _frozen(2.0 * np.eye(2))
    d2f = _frozen([[0.0, 0.0], [0.0, 2.0]])
    d2g = _frozen([[[0.0, 0.0], [0.0, 2.0]]])

    def F(x, y):
        val = (x[0] - 3.5) ** 2 + (y[0] + 4.0) ** 2
        return val, np.array([2 * (x[0] - 3.5), 2 * (y[0] + 4.0)]), d2F

    def f(x, y):
        return (y[0] - 3.0) ** 2, np.array([0.0, 2 * (y[0] - 3.0)]), d2f

    def g(x, y):
        return np.array([-x[0] + y[0] ** 2]), np.array([[-1.0, 2 * y[0]]]), d2g

    problem = BilevelProblem(
        name="dempe-parabola",
        dims=dims,
        F=F, f=f, g=g,
    )
    point = CertifiedPoint(
        condition="lambda > 5/2",
        admissible=lambda lam: lam > 2.5,
        build=lambda lam: Iterate.of(dims, x=[1.0], y=[1.0], z=[1.0], v=[2 * lam - 5.0], w=[2.0]),
    )
    return BenchmarkEntry(problem=problem, status="known", certified_points=(point,))


def registry() -> tuple[BenchmarkEntry, ...]:
    """All bundled benchmark entries, in fixed order."""
    return (_quadratic_projection(), _xy_linear(), _dempe_parabola())


def get_entry(name: str) -> BenchmarkEntry:
    for entry in registry():
        if entry.problem.name == name:
            return entry
    known = ", ".join(problem_names())
    raise KeyError(f"unknown problem {name!r}; available: {known}")


def get_problem(name: str) -> BilevelProblem:
    return get_entry(name).problem


def problem_names() -> tuple[str, ...]:
    return tuple(entry.problem.name for entry in registry())
