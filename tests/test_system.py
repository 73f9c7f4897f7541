"""Residual, Jacobian, and merit-function assembly tests."""
import copy
import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bilevel_newton as bn
from bilevel_newton import complementarity, system
from bilevel_newton import problem as problem_module
from bilevel_newton.complementarity import KINK_A, KINK_B
from bilevel_newton.problem import EvalBundle
from bilevel_newton.system import VARIABLE_BLOCKS, block_slices, hessian_block

import spec
from conftest import counting, fd_jacobian, fd_merit_grad, grad_psi, max_rel_err, sample_kink_free, staged_calls


def test_iterate_round_trip(problems):
    rng = np.random.default_rng(0)
    for p in problems.values():
        vec = rng.normal(size=p.dims.N)
        zeta = bn.Iterate.from_vector(vec, p.dims)
        assert np.array_equal(zeta.to_vector(), vec)


def test_iterate_of_validates_lengths(problems):
    p = problems["xy-linear"]
    with pytest.raises(ValueError):
        bn.Iterate.of(p.dims, x=[1.0, 2.0], y=[0.0], z=[0.0], u=[0.0], v=[0.0], w=[0.0])


def test_iterate_blocks_are_read_only_views_of_vec(problems):
    p = problems["quadratic-projection"]  # p = 0: one block is empty
    zeta = bn.Iterate.from_vector(np.arange(p.dims.N, dtype=float), p.dims)
    s = block_slices(p.dims)
    for name in VARIABLE_BLOCKS:
        block = getattr(zeta, name)
        assert block.size == 0 or np.shares_memory(block, zeta.vec)
        assert np.array_equal(block, zeta.vec[s[name]])
        with pytest.raises(ValueError, match="read-only"):
            block[...] = 1.0
    assert zeta.to_vector() is zeta.vec
    with pytest.raises(ValueError, match="read-only"):
        zeta.vec[0] = 1.0


def test_iterate_from_vector_copies(problems):
    p = problems["xy-linear"]
    source = np.linspace(-1, 1, p.dims.N)
    zeta = bn.Iterate.from_vector(source, p.dims)
    source[:] = 7.0
    assert np.array_equal(zeta.vec, np.linspace(-1, 1, p.dims.N))
    assert zeta.x[0] == -1.0


def test_iterate_rejects_a_vector_of_the_wrong_length(problems):
    p = problems["dempe-parabola"]
    assert p.dims.N == 5
    for make in (bn.Iterate.from_vector, lambda vec, dims: bn.Iterate(vec, dims)):
        for vec in (np.zeros(4), np.zeros(6), np.zeros((5, 1)), np.float64(0.0)):
            with pytest.raises(ValueError, match=r"\(N,\) = \(5,\)"):
                make(vec, p.dims)


def test_iterate_rejects_a_vector_that_is_not_float64(problems):
    p = problems["dempe-parabola"]
    for vec in (np.arange(5), np.zeros(5, dtype=np.float32), np.zeros(5, dtype=">f8"), np.zeros(5, dtype=bool)):
        with pytest.raises(ValueError, match=f"float64, got {vec.dtype}"):
            bn.Iterate(vec, p.dims)
    assert bn.Iterate.from_vector(np.arange(5), p.dims).x.dtype == np.float64
    assert bn.Iterate.of(p.dims, [1], [2], [3], v=[4], w=[5]).vec.dtype == np.float64


def test_iterates_compare_and_hash_by_identity(problems):
    p = problems["dempe-parabola"]
    a, b = bn.resolve_start(p), bn.resolve_start(p)
    assert np.array_equal(a.vec, b.vec)
    assert a == a and a != b and not (a == b)
    assert hash(a) == hash(a)
    assert len({a, b, a}) == 2


def test_run_outputs_cannot_be_written_through(entries):
    entry = entries["dempe-parabola"]
    records = []
    report = bn.run(entry.problem, bn.SolverConfig(lam=1.0), bn.resolve_start(entry.problem),
                    callback=records.append)
    assert report.iterations > 0 and len(records) == report.iterations
    for zeta in [report.final] + [rec.zeta for rec in records]:
        for array in (zeta.vec, zeta.x, zeta.y, zeta.z, zeta.u, zeta.v, zeta.w):
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0.0


def test_per_point_objects_cannot_be_assigned(entries):
    problem = entries["xy-linear"].problem
    r = bn.assemble_residual(problem, 1.0, bn.resolve_start(problem))
    for obj, names in [(r.at_y, r.at_y._fields), (r.at_z, r.at_z._fields), (r, r._fields),
                       (r.zeta, ("vec", "dims", *VARIABLE_BLOCKS))]:
        for name in names:
            with pytest.raises(AttributeError):
                setattr(obj, name, getattr(obj, name))


def test_iterates_copy_and_pickle(entries):
    # the points keep evaluations of a problem whose evaluators are closures,
    # which cannot be pickled: a clone takes neither them nor a writable vec
    problem, calls = counting(entries["dempe-parabola"].problem, "F", "f", "g")
    start = bn.resolve_start(problem)
    final = bn.run(problem, bn.SolverConfig(lam=1.0, max_iter=3), start).final
    for zeta in (start, final):
        for c in calls.values():
            c.clear()
        bn.assemble_residual(problem, 1.0, zeta)
        assert not any(calls.values())  # zeta holds problem's evaluations
        for clone in (copy.copy(zeta), copy.deepcopy(zeta), pickle.loads(pickle.dumps(zeta))):
            assert clone.dims == zeta.dims and clone.dims.N == zeta.dims.N
            assert np.array_equal(clone.vec, zeta.vec)
            assert np.array_equal(clone.w, zeta.w) and block_slices(clone.dims) == block_slices(zeta.dims)
            with pytest.raises(ValueError, match="read-only"):
                clone.vec[0] = 1.0
            bn.assemble_residual(problem, 1.0, clone)
            assert {name: len(c) for name, c in calls.items()} == {"F": 1, "f": 2, "g": 2}
            for c in calls.values():
                c.clear()


def test_block_slices_shared_and_read_only(problems):
    dims = problems["quadratic-projection"].dims
    s = block_slices(dims)
    assert block_slices(dims) is s
    assert [s[name] for name in ("x", "y", "z", "u", "v", "w")] == [
        slice(0, 1), slice(1, 3), slice(3, 5), slice(5, 5), slice(5, 7), slice(7, 9)]
    with pytest.raises(TypeError):
        s["x"] = slice(0, 2)


def _random_bundle(rng, n, nm, k):
    return EvalBundle(
        n=n,
        F=1.0, dF=rng.normal(size=nm), d2F=rng.normal(size=(nm, nm)),
        f=2.0, df=rng.normal(size=nm), d2f=rng.normal(size=(nm, nm)),
        G=rng.normal(size=k), dG=rng.normal(size=(k, nm)), d2G=rng.normal(size=(k, nm, nm)),
        g=rng.normal(size=k), dg=rng.normal(size=(k, nm)), d2g=rng.normal(size=(k, nm, nm)),
    )


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


@pytest.mark.parametrize("k", [0, 1, 50])
def test_hessian_block_matches_tensordot_reference(k):
    # k = 0 is p = q = 0: every multiplier contraction is empty
    rng = np.random.default_rng(k)
    n, m, lam = 3, 2, 2.5
    at_y, at_z = _random_bundle(rng, n, n + m, k), _random_bundle(rng, n, n + m, k)
    zeta = bn.Iterate(rng.normal(size=n + 2 * m + 3 * k), bn.ProblemDims(n=n, m=m, p=k, q=k))
    at = [{name: b.triple(name) for name in "FfGg"} for b in (at_y, at_z)]
    expected = spec.hessian_block(zeta.dims, lam, zeta.vec, *at)
    assert np.array_equal(_bits(hessian_block(lam, zeta, at_y, at_z)), _bits(expected))


# (constraint value, multiplier) pairs: a random one, or one of these
_SPECIAL_PAIRS = ((0.0, 0.0), (0.0, -0.0), (-0.0, 0.0), (1e-13, -0.0), (0.7, -0.0), (-1.5, -0.0),
                  (-0.0, 2.0), (3.0, 0.0))


@st.composite
def _drawn_cases(draw):
    """A problem whose evaluators return drawn data at the point's (x, y) and
    (x, z), with n, m in 1..4 and p, q in 0..4: values and multipliers
    paired at random or as one of _SPECIAL_PAIRS; entries of magnitude
    1e-3..1e3 among +0.0 and -0.0; Hessians symmetric bit for bit or not;
    constraint Hessian stacks random, all +0.0 or all -0.0.  With it the
    point, a penalty, a merit bound kind and a buffer order."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    p, q = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    lam = draw(st.one_of(st.sampled_from([2.0**k for k in range(-1, 8)] + [1e6]), st.floats(1e-3, 1e6)))
    stacks, mirrored = draw(st.sampled_from(["random", "zero", "negative zero"])), draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    nm = n + m
    kinds = draw(st.lists(st.integers(-1, len(_SPECIAL_PAIRS) - 1), min_size=p + 2 * q, max_size=p + 2 * q))
    pairs = [tuple(rng.normal(size=2)) if kind < 0 else _SPECIAL_PAIRS[kind] for kind in kinds]
    cons, mults = (np.array([pair[i] for pair in pairs], dtype=float).reshape(-1) for i in (0, 1))

    def rand(*shape):
        a = rng.normal(size=shape) * 10.0 ** rng.integers(-3, 4)
        u = rng.random(shape)
        a[u < 0.2] = 0.0
        a[u > 0.8] = -0.0
        return a

    def hess(*k):
        if k and stacks != "random":
            return np.full((*k, nm, nm), 0.0 if stacks == "zero" else -0.0)
        h = rand(*k, nm, nm)
        if mirrored:
            i, j = np.triu_indices(nm, 1)
            h[..., j, i] = h[..., i, j]
        return h
    dims = bn.ProblemDims(n=n, m=m, p=p, q=q)
    zeta = bn.Iterate.of(dims, rand(n), rand(m), rand(m), mults[:p], mults[p:p + q], mults[p + q:])
    # f and g see the point's y or z (y and z may be equal, and then z's data is returned)
    f_at = {zeta.y.tobytes(): (1.0, rand(nm), hess()), zeta.z.tobytes(): (2.0, rand(nm), hess())}
    g_at = {zeta.y.tobytes(): (cons[p:p + q], rand(q, nm), hess(q)),
            zeta.z.tobytes(): (cons[p + q:], rand(q, nm), hess(q))}
    F_data, G_data = (3.0, rand(nm), hess()), (cons[:p], rand(p, nm), hess(p))
    problem = bn.BilevelProblem(name="drawn", dims=dims, F=lambda x, y: F_data, f=lambda x, y: f_at[y.tobytes()],
                                G=lambda x, y: G_data, g=lambda x, y: g_at[y.tobytes()])
    bound_kinds = [None, "negative", "zero", "stage 1", "stage 2", "stage 3", "full", "twice"]
    return problem, lam, zeta, draw(st.sampled_from(bound_kinds)), draw(st.sampled_from("CF"))


@settings(max_examples=300, deadline=None)
@given(case=_drawn_cases())
def test_jacobian_matches_the_per_row_reference_bitwise(case):
    problem, lam, zeta, _, order = case
    expected = spec.jacobian(problem, lam, zeta.vec)
    r = bn.assemble_residual(problem, lam, zeta)
    assert np.array_equal(_bits(bn.assemble_jacobian(r)), _bits(expected))
    buf = np.full((r.zeta.dims.N, r.zeta.dims.N), np.nan, order=order)
    assert bn.assemble_jacobian(r, out=buf) is buf
    assert np.array_equal(_bits(buf), _bits(expected))
    k = r.zeta.dims.n + 2 * r.zeta.dims.m
    assert np.array_equal(_bits(hessian_block(r.lam, r.zeta, r.at_y, r.at_z)), _bits(expected[:k, :k]))
    corner = np.full((k, k), np.nan, order=order)
    assert hessian_block(r.lam, r.zeta, r.at_y, r.at_z, out=corner) is corner
    assert np.array_equal(_bits(corner), _bits(expected[:k, :k]))


def _same_bits(a, b):
    if a is None or b is None:
        return a is None and b is None
    return np.array_equal(np.asarray(a, dtype=float).view(np.int64), np.asarray(b, dtype=float).view(np.int64))


@pytest.mark.parametrize("name", ["quadratic-projection", "xy-linear", "dempe-parabola"])
def test_staged_bundles_hold_the_checked_evaluations(problems, monkeypatch, name):
    # the stages call the per-function step once per evaluator, and the
    # bundles of the completed residual hold the very arrays it returned
    # (None in the follower bundle's F and G fields), field by field the
    # bits of new evaluations at both points
    problem = problems[name]
    zeta = bn.Iterate.from_vector(np.linspace(-1.5, 2.0, problem.dims.N), problem.dims)
    returned = []
    step = system.evaluate_function

    def spy(problem, function, x, y):
        out = step(problem, function, x, y)
        returned.append((function, out))
        return out
    monkeypatch.setattr(system, "evaluate_function", spy)
    r = bn.assemble_residual(problem, 2.0, zeta)
    assert [function for function, _ in returned] == ["g", "f", "G", "g", "F", "f"]
    (_, g_z), (_, f_z), (_, G_y), (_, g_y), (_, F_y), (_, f_y) = returned
    at_y = bn.evaluate_all(problem, zeta.x, zeta.y)
    at_z = EvalBundle.of(problem.dims.n, f=step(problem, "f", zeta.x, zeta.z), g=step(problem, "g", zeta.x, zeta.z))
    for staged, expected, triples in ((r.at_y, at_y, (F_y, f_y, G_y, g_y)), (r.at_z, at_z, (None, f_z, None, g_z))):
        assert type(staged) is EvalBundle and staged.n == expected.n == problem.dims.n
        for i, (field, value) in enumerate(zip(EvalBundle._fields[1:], staged[1:])):
            triple = triples[i // 3]
            assert value is (None if triple is None else triple[i % 3]), field
            assert _same_bits(value, getattr(expected, field)), field
    # the point keeps these bundles: a residual there reads them, calling nothing
    returned.clear()
    again = bn.assemble_residual(problem, 4.0, zeta)
    assert returned == [] and again.at_y is r.at_y and again.at_z is r.at_z


def _stage_sums(problem, vec):
    """The sums of squares of the rows built by the end of stages 1, 2 and 3."""
    s, sums, partial = block_slices(problem.dims), [], 0.0
    for blocks in ("w", "z", "uv"):
        rows = vec[s[blocks[0]].start:s[blocks[-1]].stop]
        partial += float(rows @ rows)
        sums.append(partial)
    return sums


@settings(max_examples=300, deadline=None)
@given(case=_drawn_cases())
def test_residual_matches_the_reference_bitwise(case):
    problem, lam, zeta, bound_kind, _ = case
    phi = spec.residual(problem, lam, zeta.vec)
    merit, sums = spec.merit(phi), _stage_sums(problem, phi)
    bound = {None: None, "negative": -1.0, "zero": 0.0, "full": merit, "twice": 2.0 * merit,
             **{f"stage {k}": 0.4 * sums[k - 1] for k in range(1, 4)}}[bound_kind]
    expected_calls, returned = staged_calls(problem, phi, bound)
    counted, calls = counting(problem, "F", "f", "G", "g")
    r = bn.assemble_residual(counted, lam, zeta, merit_bound=bound)
    assert {name: len(c) for name, c in calls.items()} == expected_calls
    assert (r is not None) == returned
    if bound_kind == "negative" or (bound_kind in ("stage 1", "stage 2", "stage 3") and sums[int(bound_kind[-1]) - 1] > 1e-300):
        assert r is None  # rejected by that stage at the latest
    if bound_kind in ("full", "twice"):
        assert r is not None
    if r is None:
        return
    assert np.array_equal(_bits(r.vec), _bits(phi))
    assert r.lam == lam and r.zeta is zeta
    at_y, at_z = spec.evaluations(problem, zeta.vec)
    assert (r.at_y.F, r.at_y.f, r.at_z.f) == (at_y["F"][0], at_y["f"][0], at_z["f"][0])
    # zeta now keeps its evaluations: a residual there calls no evaluator,
    # under any bound, and decides as the staged rule does
    for c in calls.values():
        c.clear()
    for again_bound in (None, -1.0, 0.0, *(0.4 * v for v in sums), merit):
        again = bn.assemble_residual(counted, lam, zeta, merit_bound=again_bound)
        assert (again is not None) == staged_calls(problem, phi, again_bound)[1]
        assert again is None or np.array_equal(_bits(again.vec), _bits(phi))
    assert not any(calls.values())


def test_residual_norm_is_the_bits_of_np_linalg_norm():
    rng = np.random.default_rng(21)
    for _ in range(200):
        vec = rng.normal(size=int(rng.integers(1, 40))) * 10.0 ** rng.integers(-150, 150)
        r = system.ResidualVector(vec=vec, lam=1.0, zeta=None, at_y=None, at_z=None)
        assert r.norm() == float(np.linalg.norm(vec)) and type(r.norm()) is float


def test_residual_rejects_nonpositive_lambda(problems):
    p = problems["xy-linear"]
    zeta = bn.Iterate.from_vector(np.zeros(p.dims.N), p.dims)
    for lam in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            bn.assemble_residual(p, lam, zeta)


def test_residual_zero_at_certified_points(entries):
    for entry in entries.values():
        for lam in (1.0, 2.0, 4.0, 8.0):
            cp = entry.certified_points[0]
            if cp.admissible(lam):
                assert bn.assemble_residual(entry.problem, lam, cp.build(lam)).norm() <= 1e-12


def test_residual_frozen_example_xy_linear(problems):
    p = problems["xy-linear"]
    zeta = bn.Iterate.of(p.dims, x=[1.0], y=[1.0], z=[1.0], u=[0.0], v=[0.0], w=[0.0])
    r = bn.assemble_residual(p, 1.0, zeta)
    np.testing.assert_allclose(r.vec, [1.0, 2.0, -1.0, 0.0, 0.0, 0.0], atol=1e-14)
    assert r.merit() == pytest.approx(3.0, abs=1e-14)


def test_residual_slices_cover_vector(problems):
    p = problems["quadratic-projection"]
    zeta = bn.Iterate.from_vector(np.arange(p.dims.N, dtype=float), p.dims)
    r = bn.assemble_residual(p, 1.0, zeta)
    s = block_slices(p.dims)
    stacked = np.concatenate([r.vec[s[name]] for name in VARIABLE_BLOCKS])
    assert np.array_equal(stacked, r.vec)
    assert r.vec[s["u"]].size == 0  # p = 0


def test_single_condition_violation_moves_residual(entries):
    # perturbing one coordinate of a certified point by delta must push
    # the residual norm to at least delta / 2
    entry = entries["xy-linear"]
    delta = 1e-3
    base = entry.certified_points[0].build(1.0).to_vector()
    for i in range(base.size):
        vec = base.copy()
        vec[i] += delta
        r = bn.assemble_residual(entry.problem, 1.0, bn.Iterate.from_vector(vec, entry.problem.dims))
        assert r.norm() >= delta / 2, f"coordinate {i}"


def test_jacobian_matches_finite_differences(problems):
    rng = np.random.default_rng(7)
    for p in problems.values():
        for _ in range(10):
            zeta = sample_kink_free(p, rng)
            lam = float(rng.uniform(0.5, 8))
            W = bn.assemble_jacobian(bn.assemble_residual(p, lam, zeta))
            assert max_rel_err(fd_jacobian(p, lam, zeta), W) <= 1e-5


def test_jacobian_top_left_symmetric(problems):
    rng = np.random.default_rng(21)
    for p in problems.values():
        n, m = p.dims.n, p.dims.m
        zeta = bn.Iterate.from_vector(rng.uniform(-2, 2, p.dims.N), p.dims)
        W = bn.assemble_jacobian(bn.assemble_residual(p, 3.0, zeta))
        k = n + 2 * m
        np.testing.assert_allclose(W[:k, :k], W[:k, :k].T, atol=1e-12)


def test_jacobian_zero_pattern(problems):
    # entries outside the declared block pattern are exactly zero
    rng = np.random.default_rng(33)
    for p in problems.values():
        s = block_slices(p.dims)
        zeta = bn.Iterate.from_vector(rng.uniform(-2, 2, p.dims.N), p.dims)
        W = bn.assemble_jacobian(bn.assemble_residual(p, 2.0, zeta))
        zero_blocks = [
            ("y", "z"), ("y", "w"), ("z", "y"), ("z", "u"), ("z", "v"),
            ("u", "z"), ("u", "v"), ("u", "w"),
            ("v", "z"), ("v", "u"), ("v", "w"),
            ("w", "y"), ("w", "u"), ("w", "v"),
        ]
        for row, col in zero_blocks:
            assert np.all(W[s[row], s[col]] == 0.0), (p.name, row, col)
        # off-diagonal entries of the multiplier diagonal blocks
        for blk in ("u", "v", "w"):
            D = W[s[blk], s[blk]]
            assert np.all(D[~np.eye(D.shape[0], dtype=bool)] == 0.0)


def test_jacobian_kink_rows_use_kink_element(problems):
    p = problems["xy-linear"]
    zeta = bn.Iterate.of(p.dims, x=[1.0], y=[1.0], z=[1.0], u=[0.0], v=[0.0], w=[0.0])
    W = bn.assemble_jacobian(bn.assemble_residual(p, 1.0, zeta))
    assert type(W) is np.ndarray
    s = block_slices(p.dims)
    # all three pairs are exact kinks at this point; G row: grad (1, 1)
    np.testing.assert_allclose(W[s["u"], s["x"]], [[KINK_A]], atol=1e-15)
    np.testing.assert_allclose(W[s["u"], s["y"]], [[KINK_A]], atol=1e-15)
    np.testing.assert_allclose(W[s["u"], s["u"]], [[KINK_B]], atol=1e-15)
    # g(x,y) row: grad (1, -1)
    np.testing.assert_allclose(W[s["v"], s["x"]], [[KINK_A]], atol=1e-15)
    np.testing.assert_allclose(W[s["v"], s["y"]], [[-KINK_A]], atol=1e-15)


def test_merit_nonnegative_and_zero_at_solution(entries):
    entry = entries["quadratic-projection"]
    zeta = entry.certified_points[0].build(2.0)
    assert bn.assemble_residual(entry.problem, 2.0, zeta).merit() == pytest.approx(0.0, abs=1e-24)
    rng = np.random.default_rng(2)
    for _ in range(5):
        z = bn.Iterate.from_vector(rng.uniform(-2, 2, entry.problem.dims.N), entry.problem.dims)
        assert bn.assemble_residual(entry.problem, 2.0, z).merit() >= 0.0


def test_merit_invariant_under_constraint_permutation():
    # swap the two follower constraints of quadratic-projection together
    # with the multiplier order
    base = bn.get_problem("quadratic-projection")

    def g_swapped(x, y):
        vals, jac, hess = base.g(x, y)
        return vals[::-1], jac[::-1], hess[::-1]

    swapped = bn.BilevelProblem(name="swapped", dims=base.dims, F=base.F, f=base.f, g=g_swapped)
    rng = np.random.default_rng(6)
    for _ in range(10):
        x = rng.uniform(-2, 2, 1)
        y = rng.uniform(-2, 2, 2)
        z = rng.uniform(-2, 2, 2)
        v = rng.uniform(-1, 2, 2)
        w = rng.uniform(-1, 2, 2)
        z1 = bn.Iterate.of(base.dims, x=x, y=y, z=z, v=v, w=w)
        z2 = bn.Iterate.of(base.dims, x=x, y=y, z=z, v=v[::-1], w=w[::-1])
        psi1 = bn.assemble_residual(base, 1.5, z1).merit()
        assert psi1 == pytest.approx(bn.assemble_residual(swapped, 1.5, z2).merit(), rel=1e-14)


def test_merit_grad_matches_finite_differences(problems):
    rng = np.random.default_rng(11)
    for p in problems.values():
        for _ in range(10):
            zeta = bn.Iterate.from_vector(rng.uniform(-2, 2, p.dims.N), p.dims)
            lam = float(rng.uniform(0.5, 4))
            g = grad_psi(p, lam, zeta)
            assert max_rel_err(fd_merit_grad(p, lam, zeta), g) <= 1e-4


def test_merit_grad_at_kink_points(problems):
    # x = y makes g vanish; zero multipliers put all pairs at the kink
    p = problems["xy-linear"]
    zeta = bn.Iterate.of(p.dims, x=[0.7], y=[0.7], z=[0.7], u=[0.3], v=[0.0], w=[0.0])
    g = grad_psi(p, 1.5, zeta)
    assert max_rel_err(fd_merit_grad(p, 1.5, zeta), g) <= 1e-4


def test_merit_grad_independent_of_kink_element(problems, monkeypatch):
    p = problems["xy-linear"]
    zeta = bn.Iterate.of(p.dims, x=[0.7], y=[0.7], z=[0.7], u=[0.3], v=[0.0], w=[0.0])
    g_default = grad_psi(p, 1.5, zeta)
    v = block_slices(p.dims)["v"]
    for alt in [(1.0, 0.0), (0.0, -1.0), (1.0, -1.0)]:
        monkeypatch.setattr(complementarity, "KINK_A", alt[0])
        monkeypatch.setattr(complementarity, "KINK_B", alt[1])
        # the kinked v pair's row of W takes the replaced element
        assert bn.assemble_jacobian(bn.assemble_residual(p, 1.5, zeta))[v, v][0, 0] == alt[1]
        g_alt = grad_psi(p, 1.5, zeta)
        assert np.max(np.abs(g_default - g_alt)) <= 1e-14


def test_merit_grad_evaluates_the_point_once(problems):
    # one evaluation at (x, y) and one at (x, z), where F is not called; W reuses them
    p, calls = counting(problems["quadratic-projection"], "F", "f")
    zeta = bn.Iterate.from_vector(np.linspace(-1, 1, p.dims.N), p.dims)
    grad_psi(p, 2.0, zeta)
    assert (len(calls["F"]), len(calls["f"])) == (1, 2)


def _follower_only_problem(m):
    """F = 0, f = |y|^2 / 2, no constraints: at y = 0 every row of Phi but
    the z rows (-lam z) is exactly zero."""
    k = 1 + m
    hess = np.diag(np.r_[0.0, np.ones(m)])
    return bn.BilevelProblem(
        name="follower-only", dims=bn.ProblemDims(n=1, m=m, p=0, q=0),
        F=lambda x, y: (0.0, np.zeros(k), np.zeros((k, k))),
        f=lambda x, y: (0.5 * y @ y, np.r_[0.0, y], hess),
        g=lambda x, y: (np.zeros(0), np.zeros((0, k)), np.zeros((0, k, k))))


def _assert_bound_at_full_merit_keeps(problem, lam, zeta):
    full = bn.assemble_residual(problem, lam, zeta)
    bounded = bn.assemble_residual(problem, lam, zeta, merit_bound=full.merit())
    assert bounded is not None
    assert np.array_equal(bounded.vec.view(np.int64), full.vec.view(np.int64))


def test_merit_bound_at_the_full_merit_returns_the_residual(problems):
    # the boundary of the Armijo test: psi == bound is accepted, so the
    # follower rows must never reject it, even when they are all of Phi
    rng = np.random.default_rng(17)
    for _ in range(300):
        m = int(rng.integers(1, 40))
        p = _follower_only_problem(m)
        zeta = bn.Iterate.of(p.dims, x=[0.0], y=np.zeros(m), z=rng.standard_normal(m) * 10.0 ** rng.integers(-165, 150))
        _assert_bound_at_full_merit_keeps(p, float(rng.uniform(0.5, 200.0)), zeta)
    for p in problems.values():
        for _ in range(100):
            zeta = bn.Iterate.from_vector(rng.uniform(-3, 3, p.dims.N), p.dims)
            _assert_bound_at_full_merit_keeps(p, float(rng.choice([0.5, 8.0, 128.0])), zeta)


def test_follower_rows_above_the_bound_skip_the_leader_point(problems):
    raw = problems["dempe-parabola"]
    p, calls = counting(raw, "F", "f", "g")
    zeta = bn.Iterate.of(p.dims, x=[1.0], y=[1.0], z=[3.0], v=[1.0], w=[1.0])
    full = bn.assemble_residual(raw, 8.0, zeta)  # kept for raw, not for p
    s = block_slices(p.dims)
    w_rows, rows = full.vec[s["w"]], np.r_[full.vec[s["z"]], full.vec[s["w"]]]
    # rows w alone prove the first bound exceeded, rows z and w the second
    for bound, follower in ((0.49 * float(w_rows @ w_rows), {"g": 1}), (0.49 * float(rows @ rows), {"g": 1, "f": 1})):
        for c in calls.values():
            c.clear()
        assert bn.assemble_residual(p, 8.0, zeta, merit_bound=bound) is None
        expected, returned = staged_calls(raw, full.vec, bound)
        assert {name: len(c) for name, c in calls.items()} == {k: expected[k] for k in calls}
        assert not returned and expected == {"F": 0, "f": 0, "G": 0, "g": 0, **follower}


def test_kept_evaluations_serve_only_their_problem(problems):
    # a point keeps the evaluations of its last completed residual, keyed by
    # the problem object: another problem, even an equal one, evaluates again
    raw = problems["xy-linear"]
    p, calls = counting(raw, "F", "f", "G", "g")
    zeta = bn.Iterate.from_vector(np.linspace(-1, 1, p.dims.N), p.dims)
    full = {"F": 1, "f": 2, "G": 1, "g": 2}
    for problem, lam, expected in ((p, 1.0, full), (p, 4.0, full), (raw, 1.0, full),
                                   (dataclasses.replace(raw), 1.0, full), (p, 2.0, {k: 2 * v for k, v in full.items()})):
        bn.assemble_residual(problem, lam, zeta)
        assert {name: len(c) for name, c in calls.items()} == expected


def test_negative_merit_bound_rejects_even_a_zero_residual(entries):
    entry = entries["xy-linear"]
    zeta = entry.certified_points[0].build(1.0)
    assert bn.assemble_residual(entry.problem, 1.0, zeta).norm() == 0.0
    assert bn.assemble_residual(entry.problem, 1.0, zeta, merit_bound=-5e-324) is None
    assert bn.assemble_residual(entry.problem, 1.0, zeta, merit_bound=0.0) is not None


def _nan_scalar(nm):
    return lambda x, y: (np.nan, np.zeros(nm), np.zeros((nm, nm)))


def test_leader_failure_of_a_rejected_trial_goes_unseen(problems):
    # the leader point of a trial rejected by its follower rows is never evaluated
    base = problems["quadratic-projection"]
    p = dataclasses.replace(base, F=_nan_scalar(base.dims.n + base.dims.m))
    zeta = bn.Iterate.from_vector(np.linspace(-1, 1, p.dims.N), p.dims)
    assert bn.assemble_residual(p, 1.0, zeta, merit_bound=-1.0) is None
    with pytest.raises(bn.EvaluationError, match="while evaluating F"):
        bn.assemble_residual(p, 1.0, zeta)


def test_both_points_failing_names_the_follower_function(problems):
    base = problems["quadratic-projection"]
    nan = _nan_scalar(base.dims.n + base.dims.m)
    p = dataclasses.replace(base, F=nan, f=nan)
    zeta = bn.Iterate.from_vector(np.linspace(-1, 1, p.dims.N), p.dims)
    with pytest.raises(bn.EvaluationError) as exc:
        bn.assemble_residual(p, 1.0, zeta)
    assert exc.value.function == "f"
    assert np.array_equal(exc.value.point, np.r_[zeta.x, zeta.z])


def test_merit_grad_zero_at_solution(entries):
    entry = entries["xy-linear"]
    zeta = entry.certified_points[0].build(4.0)
    assert np.max(np.abs(grad_psi(entry.problem, 4.0, zeta))) <= 1e-14


def test_residual_affine_in_lambda(problems):
    # grad_x and grad_z blocks are affine in the penalty; comparing the
    # lam = 2 residual with the interpolation of lam = 1 and lam = 4
    rng = np.random.default_rng(14)
    for p in problems.values():
        n, m = p.dims.n, p.dims.m
        zeta = bn.Iterate.from_vector(rng.uniform(-2, 2, p.dims.N), p.dims)
        r1 = bn.assemble_residual(p, 1.0, zeta).vec
        r2 = bn.assemble_residual(p, 2.0, zeta).vec
        r4 = bn.assemble_residual(p, 4.0, zeta).vec
        interp = r1 + (2.0 - 1.0) / (4.0 - 1.0) * (r4 - r1)
        head = slice(0, n + 2 * m)
        assert np.max(np.abs(r2[head] - interp[head])) <= 1e-10


def _linear_constraint_problem(n=2, m=30):
    """Quadratic F and f, and the q = m bounds y >= 0, whose (q, n+m, n+m)
    zero Hessian stack (240 KB) is returned as the same array at every point."""
    rng = np.random.default_rng(21)
    k = n + m
    P, H = (a @ a.T / k + np.eye(k) for a in rng.standard_normal((2, k, k)))
    jac, hess = np.hstack([np.zeros((m, n)), -np.eye(m)]), np.zeros((m, k, k))

    def quadratic(Q):
        return lambda x, y: (0.5 * np.concatenate([x, y]) @ Q @ np.concatenate([x, y]),
                             Q @ np.concatenate([x, y]), Q)
    return bn.BilevelProblem(name="linear-g", dims=bn.ProblemDims(n=n, m=m, p=0, q=m),
                             F=quadratic(P), f=quadratic(H), g=lambda x, y: (-y, jac, hess))


def test_zero_constraint_hessians_are_skipped_with_the_same_jacobian():
    p = _linear_constraint_problem()
    rng = np.random.default_rng(22)
    zeta = bn.Iterate.from_vector(rng.normal(size=p.dims.N), p.dims)
    resid = bn.assemble_residual(p, 2.0, zeta)
    W = bn.assemble_jacobian(resid)
    assert problem_module.is_zero_hessian(resid.at_y.d2g) and problem_module.is_zero_hessian(resid.at_z.d2g)
    assert system._contract(zeta.v, resid.at_y.d2g) == 0.0
    assert np.array_equal(_bits(W), _bits(spec.jacobian(p, 2.0, zeta.vec)))
    # a non-finite multiplier still reaches the dot, which gives NaN as before
    mult = zeta.v.copy()
    mult[3] = np.inf
    with np.errstate(invalid="ignore"):
        assert np.isnan(system._contract(mult, resid.at_y.d2g)).all()
