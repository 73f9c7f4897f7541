"""Acceptance gate: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS/FAIL lines.
"""
import time

import numpy as np

import bilevel_newton as bn
from bilevel_newton import complementarity, reporting
from bilevel_newton.solver import StepRecord

from conftest import fd_jacobian, fd_merit_grad, max_rel_err, sample_kink_free


def _verdict(num: int, ok: bool, detail: str):
    print(f"\ncriterion {num}: {'PASS' if ok else 'FAIL'} | {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_certified_stationary_points(entries):
    cases = [
        ("quadratic-projection", (0.5, 1.0, 2.0, 4.0, 8.0)),
        ("xy-linear", (0.5, 1.0, 2.0, 4.0, 8.0)),
        ("dempe-parabola", (4.0, 8.0)),
    ]
    t0 = time.perf_counter()
    worst = 0.0
    for name, lams in cases:
        entry = entries[name]
        for lam in lams:
            zeta = entry.certified_points[0].build(lam)
            worst = max(worst, bn.assemble_residual(entry.problem, lam, zeta).norm())
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 1.0
    _verdict(1, ok, f"worst certified residual {worst:.2e} (<= 1e-10), runtime {elapsed:.3f}s (< 1s)")


def test_criterion_2_end_to_end_sweeps(entries):
    details = []
    ok = True
    for name in ("quadratic-projection", "xy-linear"):
        entry = entries[name]
        t0 = time.perf_counter()
        report = bn.sweep(entry.problem, status_known=entry.status)
        elapsed = time.perf_counter() - t0
        all_solved = all(r.status == bn.SOLVED for r in report.runs)
        dist = max(
            max(np.max(np.abs(r.final.x)), np.max(np.abs(r.final.y)))
            for r in report.runs
        )
        ok = ok and all_solved and dist <= 1e-6 and report.delta_star <= 1e-6 and elapsed < 5.0
        details.append(f"{name}: all-solved={all_solved}, max|xy-opt|={dist:.2e}, "
                       f"delta*={report.delta_star:.2e}, {elapsed:.2f}s")
    _verdict(2, ok, "; ".join(details))


def test_criterion_3_convergence_order(entries):
    entry = entries["quadratic-projection"]
    report = bn.run(entry.problem, bn.SolverConfig(lam=1.0), bn.resolve_start(entry.problem))
    tail = report.residual_norms[-3:]
    quad = tail[1] <= 10 * tail[0] ** 2 and tail[2] <= 10 * tail[1] ** 2
    ok = report.eoc is not None and report.eoc >= 1.5 and quad
    _verdict(3, ok, f"EOC {report.eoc:.3f} (>= 1.5), quadratic tail "
                    f"{tail[0]:.2e} -> {tail[1]:.2e} -> {tail[2]:.2e}")


def test_criterion_4_jacobian_vs_finite_differences(problems):
    rng = np.random.default_rng(101)
    worst = 0.0
    for p in problems.values():
        for _ in range(20):
            zeta = sample_kink_free(p, rng)
            lam = float(rng.uniform(0.5, 8))
            W = bn.assemble_jacobian(bn.assemble_residual(p, lam, zeta))
            worst = max(worst, max_rel_err(fd_jacobian(p, lam, zeta), W))
    _verdict(4, worst <= 1e-5, f"max FD relative error {worst:.2e} (<= 1e-5), 20 points x 3 problems")


def _kink_points():
    return {
        "quadratic-projection": bn.Iterate.of(
            bn.get_problem("quadratic-projection").dims,
            x=[0.3], y=[0.2, 0.2], z=[0.5, 0.1], v=[0.0, 1.2], w=[0.4, 0.7]),
        "xy-linear": bn.Iterate.of(
            bn.get_problem("xy-linear").dims,
            x=[0.7], y=[0.7], z=[0.7], u=[0.3], v=[0.0], w=[0.0]),
        "dempe-parabola": bn.Iterate.of(
            bn.get_problem("dempe-parabola").dims,
            x=[0.64], y=[0.8], z=[0.5], v=[0.0], w=[0.3]),
    }


def test_criterion_5_merit_gradient(problems, monkeypatch):
    rng = np.random.default_rng(202)
    worst = 0.0
    for name, p in problems.items():
        points = [bn.Iterate.from_vector(rng.uniform(-2, 2, p.dims.N), p.dims) for _ in range(20)]
        points.append(_kink_points()[name])
        for zeta in points:
            lam = float(rng.uniform(0.5, 4))
            g = bn.merit_grad(p, lam, zeta)
            worst = max(worst, max_rel_err(fd_merit_grad(p, lam, zeta), g))
    # kink-element invariance at the constructed kink points: the disc
    # element (1, 0) in place of the default one
    invariance = 0.0
    for name, p in problems.items():
        zeta = _kink_points()[name]
        g1 = bn.merit_grad(p, 2.0, zeta)
        with monkeypatch.context() as patched:
            patched.setattr(complementarity, "KINK_A", 1.0)
            patched.setattr(complementarity, "KINK_B", 0.0)
            g2 = bn.merit_grad(p, 2.0, zeta)
        invariance = max(invariance, float(np.max(np.abs(g1 - g2))))
    ok = worst <= 1e-4 and invariance <= 1e-14
    _verdict(5, ok, f"max FD relative error {worst:.2e} (<= 1e-4), "
                    f"kink-element sensitivity {invariance:.2e} (<= 1e-14)")


def test_criterion_6_fb_characterization():
    rng = np.random.default_rng(303)
    pts = rng.uniform(-5, 5, size=(10_000, 2))
    mismatches = 0
    for a, b in pts:
        lhs = abs(bn.fb(a, b)) <= 1e-9
        rhs = a >= -1e-6 and b >= -1e-6 and abs(a * b) <= 1e-6
        mismatches += lhs != rhs
    _verdict(6, mismatches == 0, f"{mismatches} mismatches over 10^4 samples")


def test_criterion_7_regularity_diagnostics(entries):
    t0 = time.perf_counter()
    p1 = entries["quadratic-projection"]
    rep1 = bn.diagnose(p1.problem, p1.certified_points[0].build(1.0), 1.0)
    p3 = entries["dempe-parabola"]
    rep3 = bn.diagnose(p3.problem, p3.certified_points[0].build(4.0), 4.0)
    elapsed = time.perf_counter() - t0
    ok = (
        abs(rep1.ssosc_min_eig - 2.0) <= 1e-6
        and rep1.llicq_at_xy and rep1.llicq_at_xz and rep1.lscc_holds and rep1.ssosc_holds
        and abs(rep3.ssosc_min_eig) <= 1e-8 and not rep3.ssosc_holds
        and elapsed < 0.5
    )
    _verdict(7, ok, f"P1 min-eig {rep1.ssosc_min_eig:.8f} (2 +- 1e-6), "
                    f"P3 min-eig {rep3.ssosc_min_eig:.2e} (0 +- 1e-8, fails), "
                    f"runtime {elapsed:.3f}s (< 0.5s)")


def test_criterion_8_armijo_contract_replay(entries):
    traces: list[tuple[str, float, list[StepRecord]]] = []
    cases = [("quadratic-projection", 1.0), ("quadratic-projection", 128.0),
             ("xy-linear", 0.5), ("xy-linear", 128.0),
             ("dempe-parabola", 4.0), ("dempe-parabola", 16.0)]
    for name, lam in cases:
        entry = entries[name]
        records: list[StepRecord] = []
        bn.run(entry.problem, bn.SolverConfig(lam=lam), bn.resolve_start(entry.problem),
               callback=records.append)
        traces.append((name, lam, records))

    checked = backtracked = 0
    ok = True
    for name, lam, records in traces:
        problem = entries[name].problem
        sigma, rho = 1e-4, 0.5
        for rec in records:
            base = rec.zeta.to_vector()
            trial = bn.Iterate.from_vector(base + rec.alpha * rec.direction, problem.dims)
            psi = bn.assemble_residual(problem, lam, trial).merit()
            accepted = psi <= rec.merit_before + sigma * rec.alpha * rec.slope
            ok = ok and accepted
            if rec.backtracks > 0:
                backtracked += 1
                alpha_prev = rec.alpha / rho
                prev = bn.Iterate.from_vector(base + alpha_prev * rec.direction, problem.dims)
                psi_prev = bn.assemble_residual(problem, lam, prev).merit()
                violated = psi_prev > rec.merit_before + sigma * alpha_prev * rec.slope
                ok = ok and violated
            checked += 1
    _verdict(8, ok and checked > 0,
             f"{checked} accepted steps replayed ({backtracked} with backtracking) across "
             f"{len(traces)} traces")


def test_criterion_9_determinism(entries):
    entry = entries["xy-linear"]
    csvs = []
    for _ in range(2):
        report = bn.sweep(entry.problem, status_known=entry.status)
        csvs.append(reporting.sweep_report_to_csv(report).encode())
    _verdict(9, csvs[0] == csvs[1], f"two sweep CSV reports byte-identical ({len(csvs[0])} bytes)")
