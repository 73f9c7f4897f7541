"""Per-layer metrics computed from the spans and counters of a traced run.

A layer's self time is its span's duration minus the durations of its
direct child spans.  Counts are per traced pass; times are per call unless
the name says otherwise.  A layer a workload never calls reports 0.  The
metric names and units are BENCHMARK.json's ``per_layer`` list.
"""
from __future__ import annotations

import statistics
from collections import defaultdict


def _div(a: float, b: float) -> float:
    return a / b if b else 0.0


def durations_us(probe, name: str) -> list[float]:
    nid = probe.names.index(name) if name in probe.names else -1
    return [(e - s) / 1e3 for k, s, e in zip(probe.name, probe.start, probe.end) if k == nid]


def per_layer(probe, traced_passes, untraced_pass_s: float, lu_us_blas_default: float) -> dict[str, float]:
    n_pass = len(traced_passes)
    names = [probe.names[k] for k in probe.name]
    parent = probe.parent
    dur = [e - s for s, e in zip(probe.start, probe.end)]
    child = [0] * len(dur)
    for i, p in enumerate(parent):
        if p >= 0:
            child[p] += dur[i]

    calls = defaultdict(int)
    total = defaultdict(int)
    self_ns = defaultdict(int)
    for i, name in enumerate(names):
        calls[name] += 1
        total[name] += dur[i]
        self_ns[name] += dur[i] - child[i]

    def has_ancestor(i: int, target: str) -> bool:
        p = parent[i]
        while p >= 0:
            if names[p] == target:
                return True
            p = parent[p]
        return False

    evals_in_runs = evals_in_diagnose = 0
    trial_ns = trials = 0
    first_residual_seen: set[int] = set()
    lu_flop = 0.0
    rejects = defaultdict(int)
    for i, name in enumerate(names):
        if name == "problem.evaluate_all":
            evals_in_runs += has_ancestor(i, "solver.run")
            evals_in_diagnose += has_ancestor(i, "regularity.diagnose")
        elif name == "system.assemble_residual" and parent[i] >= 0 and names[parent[i]] == "solver.run":
            if parent[i] in first_residual_seen:  # later residuals of a run are line-search trials
                trials += 1
                trial_ns += dur[i]
            else:
                first_residual_seen.add(parent[i])
        elif name == "linalg.lu_solve":
            size, outcome = probe.extra[i]
            lu_flop += 2.0 / 3.0 * size ** 3
            rejects[outcome] += 1

    steps = probe.steps
    iters = len(steps)
    gradient = [lu for _, kind, lu in steps if kind != "Newton"]

    def per_call_us(name: str, ns: dict = total) -> float:
        return _div(ns[name], calls[name]) / 1e3

    traced_pass_s = statistics.median(p.wall for p in traced_passes)
    values = {
        "problem.evaluate_all.calls": calls["problem.evaluate_all"] / n_pass,
        "problem.evaluate_all.self_us": per_call_us("problem.evaluate_all", self_ns),
        "problem.user_eval.us": per_call_us("problem.user_eval"),
        "problem.check_derivatives.ms": per_call_us("problem.check_derivatives") / 1e3,
        "complementarity.fb.calls": probe.counts["complementarity.fb"] / n_pass,
        "complementarity.pair_coeffs.calls": probe.counts["complementarity.pair_coeffs"] / n_pass,
        "system.assemble_residual.calls": calls["system.assemble_residual"] / n_pass,
        "system.assemble_residual.self_us": per_call_us("system.assemble_residual", self_ns),
        "system.assemble_jacobian.calls": calls["system.assemble_jacobian"] / n_pass,
        "system.assemble_jacobian.self_us": per_call_us("system.assemble_jacobian", self_ns),
        "system.evals_per_iter": _div(evals_in_runs, iters),
        "linalg.lu_solve.calls": calls["linalg.lu_solve"] / n_pass,
        "linalg.lu_solve.us": per_call_us("linalg.lu_solve"),
        "linalg.lu_solve.reject_pivot": rejects["pivot"] / n_pass,
        "linalg.lu_solve.reject_residual": rejects["residual"] / n_pass,
        "linalg.lu_solve.reject_nonfinite": rejects["nonfinite"] / n_pass,
        "linalg.lu_solve.gflop_computed": lu_flop / 1e9 / n_pass,
        "linalg.lu_solve.gflops": _div(lu_flop, total["linalg.lu_solve"]),
        "linalg.lu_solve.us_blas_default": lu_us_blas_default,
        "linalg.null_space_basis.us": per_call_us("linalg.null_space_basis"),
        "linalg.sym_eig_min.us": per_call_us("linalg.sym_eig_min"),
        "solver.iterations": iters / n_pass,
        "solver.newton_frac": _div(iters - len(gradient), iters),
        "solver.fallback_singular": sum(lu != "ok" for lu in gradient) / n_pass,
        "solver.fallback_descent": sum(lu == "ok" for lu in gradient) / n_pass,
        "solver.ls_trials": trials / n_pass,
        "solver.backtracks_per_iter": _div(sum(b for b, _, _ in steps), iters),
        "solver.ls_accept_ratio": _div(iters, trials),
        "solver.ls_share": _div(trial_ns, total["solver.run"]),
        "solver.self_us": _div(self_ns["solver.run"], iters) / 1e3,
        "sweep.runs": _div(sum(1 for i, name in enumerate(names)
                               if name == "solver.run" and has_ancestor(i, "sweep.sweep")), n_pass),
        "sweep.self_ms": per_call_us("sweep.sweep", self_ns) / 1e3,
        "regularity.diagnose.ms": per_call_us("regularity.diagnose") / 1e3,
        "regularity.diagnose.evaluate_calls": _div(evals_in_diagnose, calls["regularity.diagnose"]),
        "regularity.classify.us": per_call_us("regularity.classify"),
        "regularity.check_licq.us": per_call_us("regularity.check_licq"),
        "regularity.check_ssosc.us": per_call_us("regularity.check_ssosc"),
        "reporting.sweep_to_csv.us": per_call_us("reporting.sweep_to_csv"),
        "reporting.sweep_to_json.us": per_call_us("reporting.sweep_to_json"),
        "reporting.json_bytes": statistics.mean(probe.json_bytes) if probe.json_bytes else 0.0,
        "cli.main.ms": per_call_us("cli.main") / 1e3,
        "trace.overhead_s": traced_pass_s - untraced_pass_s,
        "trace.overhead_frac": _div(traced_pass_s - untraced_pass_s, untraced_pass_s),
    }
    return values
