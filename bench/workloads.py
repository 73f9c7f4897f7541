"""The four benchmark workloads, each with its correctness gate.

A task is one top-level library call: one sweep of one problem (start
resolution and CSV/JSON serialization included), one ``run``, one
``diagnose``, one ``check_derivatives`` or one ``cli.main`` call.  A pass
issues a workload's tasks back to back, as one closed-loop client.

Each workload splits its set-up in two: ``build`` (problem construction or
generation, and start resolution where the benchmark itself needs the
start; timed as ``setup_s``) and ``prepare`` (the benchmark's own
validation of generated problems and the diagnose-fd solve; not timed).
Sweep tasks resolve their start inside ``sweep``, so it is timed there.
"""
from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import importlib
import json
import multiprocessing
import os
import time

import numpy as np

import lq

EPS = 1e-8              # the reference protocol's residual tolerance
CERT_TOL = 1e-6         # distance to a certified point, and delta* bound
# dempe-parabola's certified point is degenerate (its second-order form
# vanishes and W is singular there): Newton converges linearly with ratio
# 1/4 and stops at ||Phi|| <= eps about sqrt(eps) = 1e-4 away from it.
DEMPE_CERT_TOL = 10 * EPS ** 0.5
BUNDLED = ("quadratic-projection", "xy-linear")
DEMPE_MAX_ITER = 200
LQ_SIZE = 50            # n = m = q
LQ_GRID = (0.5, 1.0, 2.0)
LQ_INSTANCES = 4        # lq-dense instances per pass, drawn from the seed
# n = m = q of the LQ instances check_derivatives runs on.  At n = m = q = 50
# check_derivatives holds 2(n+m) evaluation bundles of q(n+m)^2 Hessian
# entries each (about 800 MB), so the family is validated at this size.
LQ_CHECK_SIZE = 20
# (problem, lambda, expected point source): certified points, plus one
# lambda with no admissible certified point, where the CLI solves first.
CLI_DIAGNOSE = (("quadratic-projection", 1.0, "certified"), ("xy-linear", 1.0, "certified"),
                ("dempe-parabola", 4.0, "certified"), ("dempe-parabola", 2.0, "computed point (status Solved)"))
CLI_CHECK = ("quadratic-projection", "xy-linear", "dempe-parabola")


def lib(name: str):
    return importlib.import_module(f"bilevel_newton.{name}")


@dataclasses.dataclass
class PassResult:
    latencies: list[float] = dataclasses.field(default_factory=list)
    units: int = 0              # penalty runs plus diagnostic calls
    units_failed: int = 0       # runs not Solved, diagnostic calls that raised or failed their check
    tasks_failed: int = 0       # tasks that raised or broke the correctness gate
    gate: list[str] = dataclasses.field(default_factory=list)
    evaluator_calls: int = 0
    iterations: int = 0
    wall: float = 0.0
    csv_sha: str = ""
    summary: list[str] = dataclasses.field(default_factory=list)

    @property
    def tasks(self) -> int:
        return len(self.latencies)


class Workload:
    name = ""
    # how strongly pass time follows the speed reference (reference.py): the
    # ratio of their log-ranges over the same minutes on the machine the
    # benchmark was written on
    speed_elasticity = 1.0

    def __init__(self, probe, seed: int, out_dir: str):
        self.probe = probe
        self.seed = seed
        self.out_dir = out_dir
        self.sweep_to_json = probe.spanned(
            "reporting.sweep_to_json",
            lambda rep: lib("reporting").to_json(lib("reporting").sweep_report_to_dict(rep)))

    def build(self):
        raise NotImplementedError

    def prepare(self, state) -> None:
        self.state = state

    def tasks(self):
        """Yield (label, thunk) pairs; each thunk is one task."""
        raise NotImplementedError

    def check(self, label, output, res: PassResult) -> str:
        """Gate one task's output into res; return the text that goes into the pass digest."""
        raise NotImplementedError

    def run_pass(self) -> PassResult:
        res = PassResult()
        calls0 = self.probe.evaluator_calls
        outputs = []
        t_pass = time.perf_counter()
        for k, (label, thunk) in enumerate(self.tasks()):
            self.probe.task_id = k
            t0 = time.perf_counter()
            try:
                out = thunk()
            except Exception as exc:  # a task that raises is a failed task, not a crashed benchmark
                out = exc
            res.latencies.append(time.perf_counter() - t0)
            outputs.append((label, out))
        res.wall = time.perf_counter() - t_pass
        self.probe.task_id = -1
        res.evaluator_calls = self.probe.evaluator_calls - calls0
        tracing, self.probe.active = self.probe.active, False  # the gate's own calls are not traced
        sha = hashlib.sha256()
        for label, out in outputs:
            if isinstance(out, Exception):
                res.gate.append(f"{str(label)[:80]}: raised {type(out).__name__}: {out}")
                res.tasks_failed += 1
                res.units += 1
                res.units_failed += 1
                continue
            n_gate = len(res.gate)
            sha.update(self.check(label, out, res).encode())
            if len(res.gate) > n_gate:
                res.tasks_failed += 1
        res.csv_sha = sha.hexdigest()
        self.probe.active = tracing
        return res

    # -- shared gate pieces ------------------------------------------------
    def check_sweep(self, label, raw_problem, rep, res: PassResult) -> None:
        res.units += len(rep.runs)
        res.iterations += sum(r.iterations for r in rep.runs)
        for r in rep.runs:
            res.units_failed += r.status != "Solved"
            self.check_run(f"{label} lam={r.lam}", raw_problem, r, res)
        statuses = " ".join(f"{r.lam:g}:{r.status}/{r.iterations}" for r in rep.runs)
        res.summary.append(f"{label}: best_lambda={rep.best_lambda:g} delta*={rep.delta_star!r} [{statuses}]")

    def check_run(self, label, raw_problem, r, res: PassResult) -> None:
        if r.status != "Solved":
            return
        resid = lib("system").assemble_residual(raw_problem, r.lam, r.final).norm()
        if not resid <= EPS:
            res.gate.append(f"{label}: Solved but recomputed residual {resid:.3e} > {EPS}")

    @staticmethod
    def certified_gap(entry, r) -> float:
        cp = next(c for c in entry.certified_points if c.admissible(r.lam))
        return float(np.max(np.abs(r.final.to_vector() - cp.build(r.lam).to_vector())))

    def sweep_task(self, problem, config, status_known="unknown"):
        rep = lib("sweep").sweep(problem, config, status_known=status_known)
        csv, js = lib("reporting").sweep_report_to_csv(rep), self.sweep_to_json(rep)
        if self.probe.active:
            self.probe.json_bytes.append(len(js.encode()))
        return rep, csv, js


class BundledConverging(Workload):
    name = "bundled-converging"

    def build(self):
        entries = [lib("problems").get_entry(name) for name in BUNDLED]
        return [(e, self.probe.wrap_problem(e.problem)) for e in entries]

    def tasks(self):
        config = lib("sweep").SweepConfig()
        for entry, problem in self.state:
            yield entry, lambda p=problem, e=entry: self.sweep_task(p, config, e.status)

    def check(self, entry, out, res):
        rep = out[0]
        self.check_sweep(entry.problem.name, entry.problem, rep, res)
        for r in rep.runs:
            gap = self.certified_gap(entry, r)
            if r.status != "Solved" or not gap <= CERT_TOL:
                res.gate.append(f"{entry.problem.name} lam={r.lam}: {r.status}, {gap:.3e} from the certified point")
        if rep.delta_star is None or not rep.delta_star <= CERT_TOL:
            res.gate.append(f"{entry.problem.name}: delta* = {rep.delta_star!r} > {CERT_TOL}")
        return out[1]


class DempeStall(Workload):
    name = "dempe-stall"
    # its best elasticity moved between 0.5 and 1.0 from one set of ten runs
    # to the next; over three sets 1.0 gave pass-time spreads of 0.06, 0.19
    # and 0.08, and 0.7 gave 0.12, 0.11 and 0.14
    speed_elasticity = 0.7

    def build(self):
        entry = lib("problems").get_entry("dempe-parabola")
        return entry, self.probe.wrap_problem(entry.problem)

    def tasks(self):
        sw, sv = lib("sweep"), lib("solver")
        config = sw.SweepConfig(base=sv.SolverConfig(lam=1.0, max_iter=DEMPE_MAX_ITER))
        entry, problem = self.state
        yield entry, lambda: self.sweep_task(problem, config, entry.status)

    def check(self, entry, out, res):
        rep = out[0]
        self.check_sweep(entry.problem.name, entry.problem, rep, res)
        for r in rep.runs:
            if r.status == "Solved" and r.lam >= 4:
                gap = self.certified_gap(entry, r)
                if not gap <= DEMPE_CERT_TOL:
                    res.gate.append(f"dempe-parabola lam={r.lam}: Solved {gap:.3e} from the certified point")
        return out[1]


class LqDense(Workload):
    name = "lq-dense"
    # its passes slowed about half as much as the reference (log-range 0.23
    # against 0.44); its ten-seed pass-time spread was 0.17 raw, 0.15 scaled
    # by 1.0 and 0.11 by 0.5
    speed_elasticity = 0.5

    def build(self):
        probs = [lq.make_lq((self.seed, i), LQ_SIZE, LQ_SIZE) for i in range(LQ_INSTANCES)]
        return [(p, self.probe.wrap_problem(p)) for p in probs]

    def prepare(self, state):
        """Validate the family's derivatives in a forked child, so that
        check_derivatives' memory does not set this process's peak RSS."""
        super().prepare(state)
        child = multiprocessing.get_context("fork").Process(target=self.validate)
        child.start()
        child.join()
        if child.exitcode != 0:
            raise RuntimeError(f"LQ derivative validation failed (child exit code {child.exitcode})")

    def validate(self):
        for i in range(LQ_INSTANCES):
            lq.validate(lq.make_lq((self.seed, i), LQ_CHECK_SIZE, LQ_CHECK_SIZE), self.seed)

    def tasks(self):
        config = lib("sweep").SweepConfig(lambda_grid=LQ_GRID)
        for raw, problem in self.state:
            yield raw, lambda p=problem: self.sweep_task(p, config)

    def check(self, raw, out, res):
        rep = out[0]
        self.check_sweep(raw.name, raw, rep, res)
        for r in rep.runs:
            # every run on this grid is Solved at the seed commit, so an
            # early stop is a failure here, not a faster pass
            if r.status != "Solved":
                res.gate.append(f"{raw.name} lam={r.lam}: ended {r.status}")
            elif not float(np.min(r.final.y)) >= -EPS:
                res.gate.append(f"{raw.name} lam={r.lam}: y has an entry below -eps")
        return out[1]


class DiagnoseFd(Workload):
    name = "diagnose-fd"

    def build(self):
        big = lq.make_lq((self.seed, 0), LQ_SIZE, LQ_SIZE)
        small = lq.make_lq((self.seed, 1), LQ_CHECK_SIZE, LQ_CHECK_SIZE)
        return big, lib("sweep").resolve_start(big), small

    def prepare(self, state):
        """Solve the LQ instance once (untimed): diagnose runs at its solution."""
        big, start, small = state
        sv = lib("solver")
        self.raw = big
        self.solution = sv.run(big, sv.SolverConfig(lam=1.0), start)
        self.big = self.probe.wrap_problem(big)
        self.small = self.probe.wrap_problem(small)
        rng = np.random.default_rng((self.seed, 2))
        self.check_points = [(rng.uniform(-1, 1, LQ_CHECK_SIZE), rng.uniform(-1, 1, LQ_CHECK_SIZE))]

    @contextlib.contextmanager
    def counted_cli(self, runs: list):
        """Count the evaluator calls of the problems cli.main builds for itself,
        and collect the reports of the runs it makes, where it calls them."""
        cli = lib("cli")
        get_entry, run = cli.get_entry, cli.run

        def counted_get_entry(name):
            entry = get_entry(name)
            return dataclasses.replace(entry, problem=self.probe.wrap_problem(entry.problem))

        def collected_run(*args, **kwargs):
            runs.append(run(*args, **kwargs))
            return runs[-1]
        cli.get_entry, cli.run = counted_get_entry, collected_run
        try:
            yield
        finally:
            cli.get_entry, cli.run = get_entry, run

    def _cli(self, argv):
        runs = []
        with self.counted_cli(runs):
            return lib("cli").main(argv), runs

    def _diagnose(self):
        rg, sol = lib("regularity"), self.solution
        diag = rg.diagnose(self.big, sol.final, sol.lam)
        licq = rg.check_licq(self.big, sol.final, diag.partition)
        ssosc = rg.check_ssosc(self.big, sol.final, sol.lam, diag.partition)
        return diag, licq, ssosc

    def tasks(self):
        for k, (name, lam, source) in enumerate(CLI_DIAGNOSE):
            path = os.path.join(self.out_dir, f"diagnose-{k}.json")
            argv = ["diagnose", "--problem", name, "--lambda", repr(lam), "--out", path]
            yield ("cli-diagnose", name, path, source), lambda a=argv: self._cli(a)
        for name in CLI_CHECK:
            path = os.path.join(self.out_dir, f"check-{name}.json")
            argv = ["check-derivatives", "--problem", name, "--out", path]
            yield ("cli-check", name, path, None), lambda a=argv: self._cli(a)
        yield ("diagnose",), self._diagnose
        yield ("check",), lambda: lib("problem").check_derivatives(self.small, self.check_points)

    def check(self, label, out, res):
        res.units += 1
        kind = label[0]
        if kind in ("cli-diagnose", "cli-check"):
            out, runs = out
            for r in runs:
                res.iterations += r.iterations
                self.check_run(f"{kind} {label[1]}", lib("problems").get_entry(label[1]).problem, r, res)
            text = ""
            if out == 0:
                with open(label[2]) as fh:
                    text = fh.read()
            tree = json.loads(text) if text else {}
            if kind == "cli-diagnose":
                ok = tree.get("point_source", "").startswith(label[3])
            else:
                ok = tree.get("passed") is True
            if not ok:
                res.units_failed += 1
                res.gate.append(f"{kind} {label[1]}: exit code {out}, report {text[:200]!r}")
            return text
        if kind == "diagnose":
            diag, licq, ssosc = out
            sol = self.solution
            if sol.status != "Solved":
                res.gate.append(f"{self.raw.name} lam=1 ended {sol.status}; diagnose needs a solution")
            self.check_run(self.raw.name, self.raw, sol, res)
            if licq != (diag.ulicq_holds, diag.llicq_at_xy, diag.llicq_at_xz) \
                    or ssosc != (diag.ssosc_min_eig, diag.ssosc_holds):
                res.units_failed += 1
                res.gate.append("diagnose disagrees with check_licq/check_ssosc on the same point")
            res.summary.append(f"{self.raw.name} lam=1 {sol.status}/{sol.iterations}: "
                               f"active={len(diag.partition.lower_y.active)} "
                               f"ssosc_min_eig={diag.ssosc_min_eig!r} licq={licq}")
            return lib("reporting").to_json(lib("reporting").regularity_report_to_dict(diag))
        if not out.passed:
            res.units_failed += 1
            res.gate.append(f"check_derivatives on {self.small.name}: worst error {out.worst:.3e}")
        return repr(out.worst)


WORKLOADS = {w.name: w for w in (BundledConverging, DempeStall, LqDense, DiagnoseFd)}
