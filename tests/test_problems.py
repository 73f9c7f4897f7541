"""Problem-contract tests: evaluation bundles, derivative checks, registry."""
import dataclasses
import gc
import math
import tracemalloc
import warnings
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import bilevel_newton as bn
from bilevel_newton import problem as problem_module
from bilevel_newton import regularity, reporting
from bilevel_newton.system import block_slices

import spec
from conftest import counting


def test_dims_invariants():
    d = bn.ProblemDims(n=1, m=2, p=0, q=2)
    assert d.N == 1 + 4 + 0 + 4
    with pytest.raises(ValueError):
        bn.ProblemDims(n=0, m=1, p=0, q=0)
    with pytest.raises(ValueError):
        bn.ProblemDims(n=1, m=1, p=-1, q=0)


def test_registry_contents():
    names = bn.problem_names()
    assert len(bn.registry()) == 3
    assert names == ("quadratic-projection", "xy-linear", "dempe-parabola")
    with pytest.raises(KeyError):
        bn.get_problem("nosuch")


def test_evaluate_all_xy_linear_at_ones():
    p = bn.get_problem("xy-linear")
    b = bn.evaluate_all(p, np.array([1.0]), np.array([1.0]))
    assert b.F == 1.0
    np.testing.assert_allclose(b.dF, [1.0, 1.0])
    np.testing.assert_allclose(b.G, [0.0])
    np.testing.assert_allclose(b.g, [0.0])
    assert b.f == 1.0
    np.testing.assert_allclose(b.df, [0.0, 1.0])


def test_evaluate_all_quadratic_projection_at_origin():
    p = bn.get_problem("quadratic-projection")
    b = bn.evaluate_all(p, np.array([0.0]), np.array([0.0, 0.0]))
    assert b.F == 0.0


def test_hessians_symmetric(problems):
    rng = np.random.default_rng(1)
    for p in problems.values():
        for _ in range(5):
            x = rng.uniform(-2, 2, p.dims.n)
            y = rng.uniform(-2, 2, p.dims.m)
            b = bn.evaluate_all(p, x, y)
            np.testing.assert_allclose(b.d2F, b.d2F.T, atol=1e-12)
            np.testing.assert_allclose(b.d2f, b.d2f.T, atol=1e-12)
            for H in b.d2G:
                np.testing.assert_allclose(H, H.T, atol=1e-12)
            for H in b.d2g:
                np.testing.assert_allclose(H, H.T, atol=1e-12)


def test_evaluate_all_deterministic(problems):
    p = problems["dempe-parabola"]
    x, y = np.array([0.3]), np.array([-1.2])
    b1 = bn.evaluate_all(p, x, y)
    b2 = bn.evaluate_all(p, x, y)
    assert b1.F == b2.F and b1.f == b2.f
    assert np.array_equal(b1.dF, b2.dF)
    assert np.array_equal(b1.d2f, b2.d2f)
    assert np.array_equal(b1.dg, b2.dg)


def _logged_problem(calls, **replaced):
    """A problem with n = m = p = q = 1 whose evaluators append their name
    to ``calls``; ``replaced`` gives the output of an evaluator by name."""
    outputs = {
        "F": (1.0, np.ones(2), np.eye(2)),
        "f": (2.0, np.ones(2), np.eye(2)),
        "G": (np.array([-1.0]), np.ones((1, 2)), np.zeros((1, 2, 2))),
        "g": (np.array([-2.0]), np.ones((1, 2)), np.zeros((1, 2, 2))),
    }
    outputs.update(replaced)

    def evaluator(name):
        def call(x, y):
            calls.append(name)
            return outputs[name]
        return call
    return bn.BilevelProblem(name="logged", dims=bn.ProblemDims(n=1, m=1, p=1, q=1),
                             **{name: evaluator(name) for name in outputs})


def _nan_hessian_stack():
    stack = np.zeros((1, 2, 2))
    stack[0, 1, 0] = np.nan
    return stack


_FOLLOWER_POINT = (0.5, -1.5, 0.25, 1.0, 1.0, 1.0)  # (x, y, z, u, v, w)


def test_follower_bundle_calls_only_f_and_g():
    # the residual's and the diagnostics' bundles at (x, z): only g and f are called
    # there (the residual's first two calls, the diagnostics' last two); F and G hold None
    calls = []
    p = _logged_problem(calls)
    at_z = bn.assemble_residual(p, 1.0, bn.Iterate.of(p.dims, *_FOLLOWER_POINT)).at_z
    assert calls == ["g", "f", "G", "g", "F", "f"]
    calls.clear()
    at_z_diagnosed = regularity._bundles(p, bn.Iterate.of(p.dims, *_FOLLOWER_POINT))[1]
    assert calls == ["F", "f", "G", "g", "f", "g"]
    for b in (at_z, at_z_diagnosed):
        assert (b.F, b.dF, b.d2F, b.G, b.dG, b.d2G) == (None,) * 6
        assert b.f == 2.0 and np.array_equal(b.g, [-2.0])


def test_follower_bundle_names_the_nonfinite_follower_evaluator():
    # f is non-finite at the follower point (x, z) only, where the
    # diagnostics call it last (the residual's case is test_system's)
    calls = []
    p = _logged_problem(calls)
    p = dataclasses.replace(p, f=lambda x, y, f=p.f: (np.nan, *f(x, y)[1:]) if y[0] == 0.25 else f(x, y))
    with pytest.raises(bn.EvaluationError) as exc:
        bn.classify(p, bn.Iterate.of(p.dims, *_FOLLOWER_POINT))
    assert exc.value.function == "f" and calls == ["F", "f", "G", "g", "f"]
    assert np.array_equal(exc.value.point, [0.5, 0.25])


@pytest.mark.parametrize("name,output,called", [
    ("G", (np.array([np.inf]), np.ones((1, 2)), np.zeros((1, 2, 2))), ["F", "f", "G"]),
    ("g", (np.array([-2.0]), np.ones((1, 2)), _nan_hessian_stack()), ["F", "f", "G", "g"]),
    ("f", (2.0, np.array([1.0, -np.inf]), np.eye(2)), ["F", "f"]),
    ("F", (np.nan, np.zeros(2), np.zeros((2, 2))), ["F"]),  # f, G and g are never called after F fails
])
def test_evaluate_all_names_the_nonfinite_evaluator(name, output, called):
    calls = []
    p = _logged_problem(calls, **{name: output})
    with pytest.raises(bn.EvaluationError) as exc:
        bn.evaluate_all(p, np.array([0.5]), np.array([-1.5]))
    assert exc.value.function == name
    assert calls == called
    assert np.array_equal(exc.value.point, [0.5, -1.5])
    assert str(exc.value) == f"non-finite value while evaluating {name} at [0.5, -1.5]"


@pytest.mark.parametrize("name,output,message", [
    ("F", (1.0, np.ones(2)),
     "malformed value: not enough values to unpack (expected 3, got 2) while evaluating F at [0.5, -1.5]"),
    ("f", (2.0, np.ones(3), np.eye(2)),
     "malformed value: cannot reshape array of size 3 into shape (2,) while evaluating f at [0.5, -1.5]"),
    ("G", (np.array([-1.0]), np.ones((1, 2)), np.zeros((2, 2, 2))),
     "malformed value: cannot reshape array of size 8 into shape (1,2,2) while evaluating G at [0.5, -1.5]"),
    ("g", None,
     "malformed value: cannot unpack non-iterable NoneType object while evaluating g at [0.5, -1.5]"),
])
def test_evaluate_all_malformed_output_messages(name, output, message):
    p = _logged_problem([], **{name: output})
    with pytest.raises(bn.EvaluationError) as exc:
        bn.evaluate_all(p, np.array([0.5]), np.array([-1.5]))
    assert exc.value.function == name
    assert str(exc.value) == message


def test_check_derivatives_all_bundled_problems(problems):
    rng = np.random.default_rng(77)
    for p in problems.values():
        points = [(rng.uniform(-2, 2, p.dims.n), rng.uniform(-2, 2, p.dims.m)) for _ in range(10)]
        report = bn.check_derivatives(p, points)
        assert report.passed, (p.name, report.grad_errors, report.hess_errors)


def test_check_derivatives_near_exact_on_quadratic():
    dims = bn.ProblemDims(n=1, m=1, p=0, q=1)

    def F(x, y):
        val = x[0] ** 2 + 3 * x[0] * y[0]
        return val, np.array([2 * x[0] + 3 * y[0], 3 * x[0]]), np.array([[2.0, 3.0], [3.0, 0.0]])

    def f(x, y):
        return y[0] ** 2, np.array([0.0, 2 * y[0]]), np.array([[0.0, 0.0], [0.0, 2.0]])

    def g(x, y):
        return np.array([x[0] - y[0]]), np.array([[1.0, -1.0]]), np.zeros((1, 2, 2))

    p = bn.BilevelProblem(name="quad", dims=dims, F=F, f=f, g=g)
    report = bn.check_derivatives(p, [(np.array([0.4]), np.array([-1.1]))])
    assert report.grad_errors["F"] <= 1e-9


def test_check_derivatives_detects_corrupted_gradient():
    dims = bn.ProblemDims(n=1, m=1, p=0, q=1)

    def F(x, y):
        # gradient off by 10%
        return x[0] ** 2 + y[0] ** 2, 1.1 * np.array([2 * x[0], 2 * y[0]]), 2 * np.eye(2)

    def f(x, y):
        return y[0], np.array([0.0, 1.0]), np.zeros((2, 2))

    def g(x, y):
        return np.array([x[0]]), np.array([[1.0, 0.0]]), np.zeros((1, 2, 2))

    p = bn.BilevelProblem(name="corrupt", dims=dims, F=F, f=f, g=g)
    report = bn.check_derivatives(p, [(np.array([1.0]), np.array([1.0]))])
    assert not report.passed


def test_check_derivatives_fails_a_non_finite_error():
    # F's gradient jumps by 2e303 across each axis at (0, 0): the central
    # differences of the gradient overflow to +inf and -inf in a symmetric
    # pair, whose mean is NaN
    dims = bn.ProblemDims(n=1, m=1, p=0, q=1)

    def F(x, y):
        return 0.0, 1e303 * np.array([np.sign(y[0]), -np.sign(x[0])]), np.zeros((2, 2))

    def f(x, y):
        return y[0], np.array([0.0, 1.0]), np.zeros((2, 2))

    def g(x, y):
        return np.array([x[0]]), np.array([[1.0, 0.0]]), np.zeros((1, 2, 2))

    p = bn.BilevelProblem(name="jump", dims=dims, F=F, f=f, g=g)
    jump, smooth = (np.array([0.0]), np.array([0.0])), (np.array([1.0]), np.array([1.0]))
    # the NaN is kept whether a finite error comes before or after it
    for points in ([jump], [jump, smooth], [smooth, jump]):
        with pytest.warns(RuntimeWarning) as record:
            report = bn.check_derivatives(p, points)
        assert {str(w.message) for w in record} == {
            "overflow encountered in divide", "invalid value encountered in add"}
        assert math.isnan(report.hess_errors["F"]) and math.isnan(report.worst)
        assert not report.passed


def _quadratic_problem(rng, n):
    """n = m = q: quadratic F and f, q quadratic follower constraints."""
    k = 2 * n
    A = rng.standard_normal((k, k))
    P = A @ A.T / k + np.eye(k)
    J = rng.standard_normal((n, k))
    Hg = rng.standard_normal((n, k, k))
    Hg = Hg + Hg.transpose(0, 2, 1)

    def F(x, y):
        s = np.concatenate([x, y])
        return 0.5 * s @ P @ s, P @ s, P

    def f(x, y):
        s = np.concatenate([x, y])
        return s @ s, 2 * s, 2 * np.eye(k)

    def g(x, y):
        s = np.concatenate([x, y])
        return J @ s + 0.5 * (Hg @ s) @ s, J + Hg @ s, Hg

    return bn.BilevelProblem(name="quad", dims=bn.ProblemDims(n=n, m=n, p=0, q=n), F=F, f=f, g=g)


def test_check_derivatives_memory_is_per_coordinate():
    # 2(n+m) perturbed bundles of q(n+m)^2 Hessian entries would be about
    # 20 MB here; one coordinate's pair is well under 1 MB
    rng = np.random.default_rng(5)
    p = _quadratic_problem(rng, 20)
    points = [(rng.uniform(-1, 1, 20), rng.uniform(-1, 1, 20))]
    tracemalloc.start()
    try:
        report = bn.check_derivatives(p, points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak < 5 * 2**20


def test_check_derivatives_rejects_no_points(problems):
    problem, calls = counting(problems["xy-linear"], "F", "f", "G", "g")
    with pytest.raises(ValueError, match="^check_derivatives needs at least one point$"):
        bn.check_derivatives(problem, [])
    assert all(c == [] for c in calls.values())


def test_check_derivatives_reads_its_constants_at_call_time(problems, monkeypatch):
    p = problems["dempe-parabola"]
    points = [(np.array([0.3]), np.array([-0.7]))]
    report = bn.check_derivatives(p, points)
    assert report.passed and report.worst > 0.0
    monkeypatch.setattr(problem_module, "FD_TOL", report.worst / 2)
    assert not report.passed
    # ||(0.3, -0.7)|| < 1, so the step is FD_STEP itself
    monkeypatch.setattr(problem_module, "FD_STEP", 0.25)
    counted, calls = counting(p, "F")
    bn.check_derivatives(counted, points)
    assert [(x[0], y[0]) for x, y in calls["F"]] == [
        (0.3, -0.7), (0.3 + 0.25, -0.7), (0.3 - 0.25, -0.7), (0.3, -0.7 + 0.25), (0.3, -0.7 - 0.25)]


def test_check_derivatives_evaluates_the_perturbed_points_bitwise(problems):
    # pt + e turns a -0.0 coordinate other than e's into +0.0 and pt - e
    # keeps it: every evaluator sees those bits, the base point first
    names = ("F", "f", "g")
    problem, calls = counting(problems["quadratic-projection"], *names)
    pt = np.array([-0.0, 0.5, -0.0])
    bn.check_derivatives(problem, [(pt[:1], pt[1:])])
    step = problem_module.FD_STEP * max(1.0, float(np.linalg.norm(pt)))
    expected = [pt]
    for i in range(3):
        e = np.zeros(3)
        e[i] = step
        expected += [pt + e, pt - e]
    assert not np.signbit((pt + np.array([0.0, step, 0.0]))[0])
    for name in names:
        seen = [np.concatenate([x, y]) for x, y in calls[name]]
        assert [v.tobytes() for v in seen] == [v.tobytes() for v in expected], name


def _sine_quadratic(rng, k, nm):
    """k functions b.s + s'Ss/2 + sin(w.s) with a gradient off by a constant
    and an asymmetric Hessian A - sin(w.s) w w^T (A + A^T = 2S), stacked."""
    b, w, off = rng.standard_normal((3, k, nm))
    off *= rng.choice([0.0, 1e-6, 1e-2], size=(k, 1))
    A = rng.standard_normal((k, nm, nm))
    S = 0.5 * (A + A.transpose(0, 2, 1))

    def evaluate(x, y):
        s = np.concatenate([x, y])
        ws = w @ s
        vals = b @ s + 0.5 * (S @ s) @ s + np.sin(ws)
        jac = b + S @ s + np.cos(ws)[:, None] * w + off
        hess = A - np.sin(ws)[:, None, None] * w[:, :, None] * w[:, None, :]
        return vals, jac, hess
    return evaluate


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 3), m=st.integers(1, 3), p=st.integers(0, 3), q=st.integers(0, 3),
       num_points=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_stacked_check_derivatives_matches_the_reference_bitwise(n, m, p, q, num_points, seed):
    rng = np.random.default_rng(seed)
    nm = n + m
    upper, lower = _sine_quadratic(rng, 1 + p, nm), _sine_quadratic(rng, 1 + q, nm)

    def scalar(fn):
        def call(x, y):
            vals, jac, hess = fn(x, y)
            return vals[0], jac[0], hess[0]
        return call

    def vector(fn):
        def call(x, y):
            vals, jac, hess = fn(x, y)
            return vals[1:], jac[1:], hess[1:]
        return call
    problem = bn.BilevelProblem(name="sine-quadratic", dims=bn.ProblemDims(n=n, m=m, p=p, q=q),
                                F=scalar(upper), f=scalar(lower), G=vector(upper), g=vector(lower))
    points = [(rng.uniform(-2, 2, n), rng.uniform(-2, 2, m)) for _ in range(num_points)]
    report = bn.check_derivatives(problem, points)
    grad_ref, hess_ref = spec.check_derivatives(problem, points)

    def bits(errors):
        return [(name, np.float64(err).view(np.int64)) for name, err in errors.items()]
    assert bits(report.grad_errors) == bits(grad_ref)
    assert bits(report.hess_errors) == bits(hess_ref)


def test_certified_points_residual_zero(entries):
    for entry in entries.values():
        for lam in (1.0, 2.0, 4.0, 8.0):
            for cp in entry.certified_points:
                if not cp.admissible(lam):
                    continue
                r = bn.assemble_residual(entry.problem, lam, cp.build(lam))
                assert r.norm() <= 1e-10, (entry.problem.name, lam)


def test_dempe_parabola_point_outside_admissible_range(entries):
    # at lam = 2 the stationary multiplier would be negative: residual entry 2
    entry = entries["dempe-parabola"]
    zeta = entry.certified_points[0].build(2.0)
    r = bn.assemble_residual(entry.problem, 2.0, zeta)
    assert r.vec[block_slices(entry.problem.dims)["v"]][0] == pytest.approx(2.0, abs=1e-14)
    assert r.norm() >= 1.0


def _toy_with_constraints(p, q):
    """F = (x - 1)^2 + (y - 1)^2 and f = (y - x)^2, solved by x = y = 1,
    with a G evaluator given and p copies of G = x - 5 <= 0 and q of
    g = -y - 5 <= 0, all inactive there."""
    def F(x, y):
        return (x[0] - 1) ** 2 + (y[0] - 1) ** 2, 2 * np.array([x[0] - 1, y[0] - 1]), 2 * np.eye(2)

    def f(x, y):
        return (y[0] - x[0]) ** 2, 2 * (y[0] - x[0]) * np.array([-1.0, 1.0]), np.array([[2.0, -2.0], [-2.0, 2.0]])

    def G(x, y):
        return np.full(p, x[0] - 5.0), np.tile([1.0, 0.0], (p, 1)), np.zeros((p, 2, 2))

    def g(x, y):
        return np.full(q, -y[0] - 5.0), np.tile([0.0, -1.0], (q, 1)), np.zeros((q, 2, 2))
    return bn.BilevelProblem(name="toy", dims=bn.ProblemDims(n=1, m=1, p=p, q=q), F=F, f=f, G=G, g=g)


@pytest.mark.parametrize("p,q,empty", [(1, 0, "g"), (0, 1, "G")])
def test_an_empty_constraint_block_is_not_evaluated(p, q, empty):
    problem, calls = counting(_toy_with_constraints(p, q), "F", "G", "g")
    report = bn.run(problem, bn.SolverConfig(lam=1.0), bn.resolve_start(problem))
    assert report.status == bn.SOLVED
    assert calls[empty] == []
    assert len(calls["F"]) >= 1 and len(calls["G" if empty == "g" else "g"]) >= len(calls["F"])
    # its values, Jacobian and Hessians are empty arrays shared by every bundle, read-only
    first, second = (bn.evaluate_all(problem, np.ones(1), np.ones(1)) for _ in range(2))
    for name in (empty, "d" + empty, "d2" + empty):
        assert getattr(first, name) is getattr(second, name)
        assert getattr(first, name).size == 0 and not getattr(first, name).flags.writeable


def test_missing_G_with_positive_p_rejected():
    dims = bn.ProblemDims(n=1, m=1, p=1, q=1)

    def f(x, y):
        return y[0], np.array([0.0, 1.0]), np.zeros((2, 2))

    def g(x, y):
        return np.array([x[0]]), np.array([[1.0, 0.0]]), np.zeros((1, 2, 2))

    with pytest.raises(ValueError):
        bn.BilevelProblem(name="noG", dims=dims, F=f, f=f, g=g)


_X, _Y = np.array([0.5]), np.array([-1.5, 2.0])


def _output_problem(**outputs):
    """n = 1, m = 2, p = 1, q = 2: F, f, G and g return the given values,
    gradients (Jacobians) and Hessians, keyed F, dF, d2F and so on; finite
    values and gradients and identity Hessians for the others."""
    o = {**dict(F=1.0, dF=np.ones(3), d2F=np.eye(3), f=2.0, df=np.ones(3), d2f=np.eye(3),
                G=np.array([-1.0]), dG=np.ones((1, 3)), d2G=_stack(1),
                g=np.array([-2.0, -3.0]), dg=np.ones((2, 3)), d2g=_stack(2)), **outputs}
    return bn.BilevelProblem(name="outputs", dims=bn.ProblemDims(n=1, m=2, p=1, q=2),
                             **{k: lambda x, y, k=k: (o[k], o["d" + k], o["d2" + k]) for k in "FfGg"})


def _ingested(problem, evaluate=lambda problem: bn.evaluate_all(problem, _X, _Y)[1:]):
    """The values, gradients and Hessians of F, f, G and g at (_X, _Y), by
    evaluate_all or another ``evaluate``, as (shape, bytes) pairs, or its
    error, with its warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = [(np.shape(a), np.asarray(a, dtype=float).tobytes()) for a in evaluate(problem)]
        except bn.EvaluationError as exc:
            result = ("error", exc.function, str(exc))
    return result, [(w.category, str(w.message)) for w in caught]


def _assert_ingested_as_reference(problem):
    new = _ingested(problem)
    assert new == _ingested(problem, lambda p: [a for name in "FfGg" for a in spec.evaluate(p, name, _X, _Y)])
    return new[0]


def _stack(k, h=None):
    return np.stack([np.eye(3) if h is None else h] * k)


def _asym():
    return np.array([[1.0, 2.0, 0.0], [3.0, 1.0, 0.0], [0.0, 0.0, 1.0]])


def _signed_zero_pair():
    return np.array([[1.0, -0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])


def _with(h, entries):
    h = h.copy()
    for index, value in entries.items():
        h[index] = value
    return h


@pytest.mark.parametrize("case,hessians,raises", [
    ("asymmetric", dict(d2F=_asym()), None),
    ("asymmetric stack", dict(d2g=_stack(2, _asym())), None),
    ("signed zero pair", dict(d2f=_signed_zero_pair()), None),
    ("signed zero pair in a stack", dict(d2G=_stack(1, _signed_zero_pair())), None),
    ("1e308 on a diagonal", dict(d2g=_with(_stack(2), {(1, 1, 1): 1e308})), "g"),
    ("DBL_MAX/2 on a diagonal", dict(d2F=_with(np.eye(3), {(2, 2): np.finfo(float).max / 2})), None),
    ("1e200 pair", dict(d2f=_with(np.eye(3), {(0, 2): 1e200, (2, 0): 1e200})), None),
    ("NaN on the diagonal", dict(d2f=_with(np.eye(3), {(1, 1): np.nan})), "f"),
    ("NaN on a stack diagonal", dict(d2G=_with(_stack(1), {(0, 0, 0): np.nan})), "G"),
    ("+inf pair", dict(d2F=_with(np.eye(3), {(0, 1): np.inf, (1, 0): np.inf})), "F"),
    ("-inf pair", dict(d2g=_with(_stack(2), {(0, 1, 2): -np.inf, (0, 2, 1): -np.inf})), "g"),
    ("inf/-inf pair", dict(d2f=_with(np.eye(3), {(0, 1): np.inf, (1, 0): -np.inf})), "f"),
    ("subnormal pair", dict(d2F=_with(np.eye(3), {(0, 1): 5e-324, (1, 0): 5e-324})), None),
    ("large asymmetric pair", dict(d2f=_with(np.eye(3), {(0, 1): 1e153, (1, 0): -1e153})), None),
    ("asymmetric pair whose squares overflow",
     dict(d2g=_with(_stack(2), {(1, 0, 1): 1e155, (1, 1, 0): -1e155})), None),
])
def test_hessian_ingestion_matches_symmetrizing_reference(case, hessians, raises):
    args = dict(d2F=np.eye(3), d2f=np.eye(3), d2G=_stack(1), d2g=_stack(2))
    args.update(hessians)
    result = _assert_ingested_as_reference(_output_problem(**args))
    assert (result[1] if result[0] == "error" else None) == raises


@pytest.mark.parametrize("layout", ["F", "transposed view"])
@pytest.mark.parametrize("symmetric", [True, False])
def test_hessian_ingestion_of_non_c_ordered_input(layout, symmetric):
    rng = np.random.default_rng(3)
    stack = rng.standard_normal((2, 3, 3))
    if symmetric:
        stack = stack + stack.transpose(0, 2, 1)
    if layout == "F":
        stack = np.asfortranarray(stack)
    else:
        stack = np.ascontiguousarray(stack.transpose(0, 2, 1)).transpose(0, 2, 1)
    single = stack[1].T
    problem = _output_problem(d2F=single, d2f=np.eye(3), d2G=stack[:1], d2g=stack)
    _assert_ingested_as_reference(problem)
    b = bn.evaluate_all(problem, _X, _Y)
    assert np.shares_memory(b.d2g, stack) == symmetric
    assert np.shares_memory(b.d2F, single) == symmetric


_SPECIAL = (0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -2.2250738585072014e-308,
            1.0, -2.5, 1.3407807929942596e154, 1e200, 8.98846567431158e307, 1e308,
            -np.finfo(float).max)


# a drawn array's entries are small and finite (taken as returned) or anything
_CLASSES = (st.one_of(st.sampled_from((0.0, -0.0, 5e-324, 1.0)), st.floats(-1e6, 1e6)),
            st.one_of(st.sampled_from(_SPECIAL), st.floats(width=64)))


@st.composite
def _arrays(draw, mirror=False, **shapes):
    """float64 arrays by name, of the given shapes (a Python float for
    shape ()), each with its entries from one value class, in C, Fortran
    or transposed-view layout; with ``mirror``, often symmetric in value or
    bit for bit.  Each draw call costs, so one array holds the choices of
    all the arrays, and one the entries of all the arrays of a class."""
    choices = draw(hnp.arrays(np.int8, (len(shapes), 3), elements=st.integers(0, 5))) % (2, 3, 3)
    sizes = [math.prod(shape) for shape in shapes.values()]
    blocks = [iter(draw(hnp.arrays(np.float64, sum(n for n, c in zip(sizes, choices[:, 0]) if c == k),
                                   elements=elements))) for k, elements in enumerate(_CLASSES)]
    arrays = {}
    for (name, shape), size, (c, layout, symmetry) in zip(shapes.items(), sizes, choices):
        a = np.fromiter(blocks[c], float, size).reshape(shape)
        if mirror and symmetry:
            i, j = np.triu_indices(shape[-1], 1)
            # adding +0.0 keeps every value but turns -0.0 into +0.0
            a[..., j, i] = a[..., i, j] + 0.0 if symmetry == 2 else a[..., i, j]
        if a.ndim == 0:
            a = float(a)
        elif layout == 1:
            a = np.asfortranarray(a)
        elif layout == 2 and a.ndim >= 2:
            a = np.ascontiguousarray(a.swapaxes(-1, -2)).swapaxes(-1, -2)
        arrays[name] = a
    return arrays


@settings(max_examples=200, deadline=None)
@given(hessians=_arrays(mirror=True, d2F=(3, 3), d2f=(3, 3), d2G=(1, 3, 3), d2g=(2, 3, 3)))
def test_hessian_ingestion_property(hessians):
    _assert_ingested_as_reference(_output_problem(**hessians))


@pytest.mark.parametrize("case,values,raises", [
    ("squares overflow, entries finite", dict(dF=np.array([1e200, 1e200, 0.0])), None),
    ("DBL_MAX in a Jacobian", dict(dg=_with(np.ones((2, 3)), {(1, 2): np.finfo(float).max})), None),
    ("1e200 values", dict(g=np.array([1e200, -1e200])), None),
    ("inf/-inf pair in a gradient", dict(df=np.array([np.inf, -np.inf, 0.0])), "f"),
    ("inf/-inf pair in a Jacobian", dict(dG=np.array([[np.inf, -np.inf, 1.0]])), "G"),
    ("NaN value", dict(G=np.array([np.nan])), "G"),
    ("NaN among overflowing squares", dict(dg=_with(np.full((2, 3), 1e300), {(0, 1): np.nan})), "g"),
    ("inf scalar value", dict(F=np.inf), "F"),
    ("-inf in values", dict(g=np.array([-2.0, -np.inf])), "g"),
    ("subnormal gradient", dict(dF=np.array([5e-324, -5e-324, 2.2250738585072014e-308])), None),
    ("Jacobian as a transposed view", dict(dg=np.arange(6.0).reshape(3, 2).T), None),
])
def test_value_ingestion_matches_scanning_reference(case, values, raises):
    result = _assert_ingested_as_reference(_output_problem(**values))
    assert (result[1] if result[0] == "error" else None) == raises


@settings(max_examples=300, deadline=None)
@given(values=_arrays(F=(), dF=(3,), f=(), df=(3,), G=(1,), dG=(1, 3), g=(2,), dg=(2, 3)))
def test_value_ingestion_property(values):
    _assert_ingested_as_reference(_output_problem(**values))


def test_symmetric_hessians_are_not_copied():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((3, 3, 3))
    stack = a + a.transpose(0, 2, 1)
    d2F, d2f = stack[0].copy(), stack[1].copy()
    b = bn.evaluate_all(_output_problem(d2F=d2F, d2f=d2f, d2G=stack[2:], d2g=stack[1:]), _X, _Y)
    assert np.shares_memory(b.d2F, d2F) and np.shares_memory(b.d2f, d2f)
    assert np.shares_memory(b.d2G, stack) and np.shares_memory(b.d2g, stack)


_BIG_Q = 1000  # a (q, 3, 3) g-Hessian stack of 72,000 bytes, above _CHECKED_MIN_BYTES


def _big_stack(rng, symmetric=True):
    a = rng.standard_normal((_BIG_Q, 3, 3))
    return a + a.transpose(0, 2, 1) if symmetric else a


def _big_g_problem(stack):
    """n = 1, m = 2, p = 0, q = _BIG_Q; g returns the same Hessian stack object at every point."""
    return bn.BilevelProblem(
        name="big-g", dims=bn.ProblemDims(n=1, m=2, p=0, q=_BIG_Q),
        F=lambda x, y: (1.0, np.ones(3), np.eye(3)),
        f=lambda x, y: (2.0, np.ones(3), np.eye(3)),
        g=lambda x, y: (np.full(_BIG_Q, -1.0), np.ones((_BIG_Q, 3)), stack))


def _ddot_reads(problem, points):
    """The arrays ddot read while evaluate_all evaluated problem at each point, by size."""
    reads, blas_ddot = [], problem_module.ddot

    def ddot(a, b):
        reads.append(a.size)
        return blas_ddot(a, b)
    with mock.patch.object(problem_module, "ddot", ddot):
        bundles = [bn.evaluate_all(problem, x, y) for x, y in points]
    return reads, bundles


def test_repeated_large_hessian_is_checked_once():
    stack = _big_stack(np.random.default_rng(9))
    reads, bundles = _ddot_reads(_big_g_problem(stack), [(_X, _Y), (_X + 1.0, _Y), (_X, _Y - 1.0)])
    # F's and f's 3 x 3 Hessians are checked at every point, g's stack at the
    # first only; ddot also reads values, gradients and Jacobians (sizes 3,
    # _BIG_Q and 3 _BIG_Q), which are not counted here
    assert [size for size in reads if size in (9, stack.size)] == [9, 9, stack.size, 9, 9, 9, 9]
    for b in bundles:
        assert np.shares_memory(b.d2g, stack)
        assert np.array_equal(b.d2g.view(np.int64), stack.view(np.int64))


def test_large_hessians_that_fail_a_check_are_checked_every_time():
    rng = np.random.default_rng(10)
    asym = _big_stack(rng, symmetric=False)
    reads, bundles = _ddot_reads(_big_g_problem(asym), [(_X, _Y), (_X, _Y)])
    assert reads.count(asym.size) == 2
    for b in bundles:
        assert not np.shares_memory(b.d2g, asym)
        assert np.array_equal(b.d2g, 0.5 * (asym + asym.transpose(0, 2, 1)))
    nan = _big_stack(rng)
    nan[7, 1, 2] = nan[7, 2, 1] = np.nan
    for _ in range(2):
        with pytest.raises(bn.EvaluationError) as exc:
            bn.evaluate_all(_big_g_problem(nan), _X, _Y)
        assert exc.value.function == "g"


def test_a_fresh_view_of_checked_memory_is_read_again():
    stack = _big_stack(np.random.default_rng(13))
    owner = np.concatenate([stack, stack])
    # g returns a new view of the same first half of owner at every point:
    # the record knows arrays by identity, so each view is read
    problem = dataclasses.replace(_big_g_problem(stack), g=lambda x, y: (
        np.full(_BIG_Q, -1.0), np.ones((_BIG_Q, 3)), owner[:_BIG_Q]))
    reads, bundles = _ddot_reads(problem, [(_X, _Y), (_X, _Y + 1.0)])
    assert reads.count(stack.size) == 2
    for b in bundles:
        assert np.shares_memory(b.d2g, owner) and np.array_equal(b.d2g, stack)


def test_zero_hessians_are_recognised_once_and_skipped():
    zero, neg_zero = np.zeros((_BIG_Q, 3, 3)), np.full((_BIG_Q, 3, 3), -0.0)
    assert problem_module.is_zero_hessian(bn.evaluate_all(_big_g_problem(zero), _X, _Y).d2g)
    assert not problem_module.is_zero_hessian(bn.evaluate_all(_big_g_problem(neg_zero), _X, _Y).d2g)
    assert not problem_module.is_zero_hessian(np.zeros((_BIG_Q, 3, 3)))  # never ingested
    assert not problem_module.is_zero_hessian(np.zeros((1, 3, 3)))  # below the recorded size
    dense = bn.evaluate_all(_big_g_problem(_big_stack(np.random.default_rng(14))), _X, _Y).d2g
    assert not problem_module.is_zero_hessian(dense)
    # a read-only stack is found by identity from its second call on, and still recognised
    read_only = _read_only(np.zeros((_BIG_Q, 3, 3)))
    for _ in range(2):
        assert problem_module.is_zero_hessian(bn.evaluate_all(_big_g_problem(read_only), _X, _Y).d2g)


def test_hessian_check_record_keeps_no_array_alive():
    stack = _big_stack(np.random.default_rng(12))
    bn.evaluate_all(_big_g_problem(stack), _X, _Y)
    keys = [key for key in problem_module._CHECKED if key[0] == id(stack)]
    assert len(keys) == 1
    ref = weakref.ref(stack)
    del stack
    gc.collect()
    assert ref() is None and keys[0] not in problem_module._CHECKED


def _read_only(h, dtype=float):
    h = np.array(h, dtype=dtype, order="K")
    h.flags.writeable = False
    return h


def _recorded_problem(d2F):
    """_output_problem with the given F Hessian; f's, G's and g's are read-only and symmetric."""
    return _output_problem(d2F=d2F, d2f=_read_only(np.eye(3)), d2G=_read_only(_stack(1)), d2g=_read_only(_stack(2)))


def _hessian_reads(problem, calls):
    """The sizes of the arrays ddot read in each of `calls` evaluations at (_X, _Y), and each
    evaluation's bundle or error."""
    reads, results, blas_ddot = [], [], problem_module.ddot

    def ddot(a, b):
        reads[-1].append(a.size)
        return blas_ddot(a, b)
    with mock.patch.object(problem_module, "ddot", ddot):
        for _ in range(calls):
            reads.append([])
            try:
                results.append(bn.evaluate_all(problem, _X, _Y))
            except bn.EvaluationError as exc:
                results.append(exc)
    return reads, results


def test_a_read_only_hessian_returned_again_is_not_read_again():
    d2F = _read_only(2.0 * np.eye(3))
    reads, bundles = _hessian_reads(_recorded_problem(d2F), 3)
    # the Hessians (sizes 9, 9, 9 and 18) are read at the first call only; the
    # values, gradients and Jacobians (sizes 1, 2, 3 and 6) at every call
    assert [[size for size in call if size in (9, 18)] for call in reads] == [[9, 9, 9, 18], [], []]
    for b in bundles:
        assert np.shares_memory(b.d2F, d2F) and np.array_equal(b.d2F, 2.0 * np.eye(3))
    assert (id(d2F), (3, 3)) in problem_module._CHECKED


@pytest.mark.parametrize("case,d2F", [
    ("asymmetric", _read_only(_asym())),
    ("NaN", _read_only(_with(np.eye(3), {(1, 1): np.nan}))),
    ("squares overflow", _read_only(_with(np.eye(3), {(0, 2): 1e200, (2, 0): 1e200}))),
    ("signed zero pair", _read_only(_signed_zero_pair())),
    ("writable", np.eye(3)),
    ("float32", _read_only(np.eye(3), np.float32)),
    ("another shape", _read_only(np.eye(3).ravel())),
])
def test_a_hessian_that_is_not_recorded_is_read_at_every_call(case, d2F):
    reads, results = _hessian_reads(_recorded_problem(d2F), 3)
    # F's Hessian is read at every call, f's and G's at the first only (none
    # is read when F fails first)
    assert [call.count(9) for call in reads] == ([1, 1, 1] if case == "NaN" else [3, 1, 1])
    assert (id(d2F), (3, 3)) not in problem_module._CHECKED
    if case == "NaN":
        assert all(isinstance(r, bn.EvaluationError) and r.function == "F" for r in results)
    else:
        h = np.asarray(d2F, dtype=float).reshape(3, 3)
        assert all(b.d2F.dtype == np.float64 and np.array_equal(b.d2F, 0.5 * (h + h.T)) for b in results)


def test_checked_hessian_is_checked_again_at_another_shape():
    # four symmetric 64 x 64 blocks (128 KiB, above _CHECKED_MIN_BYTES, so
    # recorded although writable); read as one 128 x 128 matrix they are not symmetric
    a = np.random.default_rng(11).standard_normal((4, 64, 64))
    blocks = a + a.transpose(0, 2, 1)
    for _ in range(2):
        ingested, finite = problem_module._hessian(blocks, (4, 64, 64))
        assert finite and ingested is blocks
    assert (id(blocks), (4, 64, 64)) in problem_module._CHECKED
    as_one = blocks.reshape(1, 128, 128)
    ingested, finite = problem_module._hessian(blocks, (1, 128, 128))
    assert finite and np.array_equal(ingested, 0.5 * (as_one + as_one.transpose(0, 2, 1)))
    assert (id(blocks), (1, 128, 128)) not in problem_module._CHECKED
    # and another region of the same memory is checked on its own
    half = blocks[2:]
    ingested, finite = problem_module._hessian(half, (2, 64, 64))
    assert finite and ingested is half and (id(half), (2, 64, 64)) in problem_module._CHECKED


def test_a_recorded_hessian_is_checked_again_at_another_shape():
    # four symmetric 2 x 2 blocks; read as one 4 x 4 matrix they are not symmetric
    a = np.random.default_rng(15).standard_normal((4, 2, 2))
    blocks = _read_only(a + a.transpose(0, 2, 1))
    for _ in range(2):
        ingested, finite = problem_module._hessian(blocks, (4, 2, 2))
        assert finite and ingested is blocks
    assert (id(blocks), (4, 2, 2)) in problem_module._CHECKED
    as_one = blocks.reshape(1, 4, 4)
    for _ in range(2):
        ingested, finite = problem_module._hessian(blocks, (1, 4, 4))
        assert finite and np.array_equal(ingested, 0.5 * (as_one + as_one.transpose(0, 2, 1)))
    assert (id(blocks), (1, 4, 4)) not in problem_module._CHECKED


def test_the_identity_record_keeps_no_array_alive():
    d2F = _read_only(np.eye(3))
    bn.evaluate_all(_recorded_problem(d2F), _X, _Y)
    key = (id(d2F), (3, 3))
    assert key in problem_module._CHECKED
    ref = weakref.ref(d2F)
    del d2F
    gc.collect()
    assert ref() is None and key not in problem_module._CHECKED


_GIVE = {
    "same": lambda h: h,
    "copy": lambda h: h.copy(order="K"),  # new and writable
    "view": lambda h: h[...],  # new, of the same read-only memory
}


def _same_or_new(d2F, d2g, give):
    """n = 1, m = 2, p = 0, q = len(d2g).  F and f return d2F, and g returns
    d2g, at every call as the same read-only objects, as new writable copies
    or as new views of the same read-only memory (``_GIVE``)."""
    d2F, d2g = _read_only(d2F), _read_only(d2g)
    give = _GIVE[give]
    q = d2g.shape[0]
    return bn.BilevelProblem(
        name="same-or-new", dims=bn.ProblemDims(n=1, m=2, p=0, q=q),
        F=lambda x, y: (1.0, np.ones(3), give(d2F)), f=lambda x, y: (2.0, np.ones(3), give(d2F)),
        g=lambda x, y: (np.full(q, -1.0), np.ones((q, 3)), give(d2g)))


_SIGNED_ZERO_STACK = _stack(2, _signed_zero_pair())
_NAN_STACK = _with(_stack(2), {(1, 0, 0): np.nan})


@settings(max_examples=100, deadline=None)
@given(hessians=_arrays(mirror=True, d2F=(3, 3), d2g=(2, 3, 3)), large=st.booleans())
@example(hessians=dict(d2F=np.eye(3), d2g=_stack(2)), large=True)
@example(hessians=dict(d2F=_signed_zero_pair(), d2g=_SIGNED_ZERO_STACK), large=False)
@example(hessians=dict(d2F=np.eye(3), d2g=_SIGNED_ZERO_STACK), large=True)
@example(hessians=dict(d2F=_asym(), d2g=_stack(2, _asym())), large=True)
@example(hessians=dict(d2F=_with(np.eye(3), {(2, 2): np.nan}), d2g=_stack(2)), large=False)
@example(hessians=dict(d2F=np.eye(3), d2g=_NAN_STACK), large=True)
def test_a_hessian_returned_again_is_ingested_as_a_new_one(hessians, large):
    d2F, d2g = hessians["d2F"], hessians["d2g"]
    if large:  # _BIG_Q 3 x 3 matrices: 72,000 bytes, above _CHECKED_MIN_BYTES
        d2g = np.concatenate([d2g] * (_BIG_Q // 2))
    same, copy, view = (_same_or_new(d2F, d2g, give) for give in _GIVE)
    assert [_ingested(same) for _ in range(3)] == [_ingested(copy) for _ in range(3)]
    assert [_ingested(view) for _ in range(3)] == [_ingested(copy) for _ in range(3)]


def _returning_copies(problem, writable):
    """The problem with every returned array replaced by a fresh copy,
    writable or read-only."""
    def wrap(evaluator):
        def call(x, y):
            out = []
            for part in evaluator(x, y):
                part = np.array(part, dtype=float)
                part.setflags(write=writable)
                out.append(part)
            return tuple(out)
        return call
    return dataclasses.replace(problem, F=wrap(problem.F), f=wrap(problem.f), g=wrap(problem.g),
                               G=wrap(problem.G) if problem.G is not None else None)


def _library_results(problem):
    """sweep, diagnose at the best run and check_derivatives, as comparable values."""
    config = bn.SweepConfig(lambda_grid=(0.5, 2.0, 8.0), base=bn.SolverConfig(lam=1.0, max_iter=40))
    report = bn.sweep(problem, config)
    runs = [(r.status, r.iterations, r.residual_norms, r.final.to_vector().tolist(), r.F, r.f)
            for r in report.runs]
    regularity = bn.diagnose(problem, report.best.final, report.best_lambda)
    rng = np.random.default_rng(8)
    points = [(rng.uniform(-1, 1, problem.dims.n), rng.uniform(-1, 1, problem.dims.m)) for _ in range(2)]
    derivatives = bn.check_derivatives(problem, points)
    return (runs, report.best_index,
            reporting.to_json(reporting.regularity_report_to_dict(regularity)),
            derivatives.grad_errors, derivatives.hess_errors)


def test_read_only_evaluator_output_gives_the_same_results(problems):
    rng = np.random.default_rng(6)
    for problem in [*problems.values(), _quadratic_problem(rng, 2)]:
        writable = _library_results(_returning_copies(problem, writable=True))
        read_only = _library_results(_returning_copies(problem, writable=False))
        assert writable == read_only, problem.name
