"""Measurement from outside the library: counters and spans at call sites.

Nothing in ``src/`` knows about the benchmark.  Counting and tracing work by
wrapping the problem's callables and by replacing the names a library
module looks up at call time (``solver.lu_solve``, ``sweep.run``, ...)
with thin wrappers, restored afterwards.

A span records its name, start and end (``perf_counter_ns``), the span
that was open when it started, and the task id the benchmark set.  Spans
are kept in flat arrays in memory and written out once, at exit.
"""
from __future__ import annotations

import contextlib
import dataclasses
import gzip
import importlib
import time
from array import array
from collections import defaultdict

_now = time.perf_counter_ns

# (module whose global is replaced, name, span name): the call sites traced
# with a plain span.  fb/pair_coeffs (counted), lu_solve and run (extra
# bookkeeping) are wrapped separately.
SPANS = tuple((m, "evaluate_all", "problem.evaluate_all")
              for m in ("problem", "system", "solver", "sweep", "regularity")) + (
    ("problem", "check_derivatives", "problem.check_derivatives"),
    ("cli", "check_derivatives", "problem.check_derivatives"),
    ("solver", "assemble_residual", "system.assemble_residual"),
    ("solver", "assemble_jacobian", "system.assemble_jacobian"),
    ("regularity", "null_space_basis", "linalg.null_space_basis"),
    ("regularity", "sym_eig_min", "linalg.sym_eig_min"),
    ("regularity", "classify", "regularity.classify"),
    ("regularity", "check_licq", "regularity.check_licq"),
    ("regularity", "check_ssosc", "regularity.check_ssosc"),
    ("regularity", "diagnose", "regularity.diagnose"),
    ("cli", "diagnose", "regularity.diagnose"),
    ("sweep", "sweep", "sweep.sweep"),
    ("reporting", "sweep_report_to_csv", "reporting.sweep_to_csv"),
    ("cli", "main", "cli.main"),
)

# SingularMatrixError messages raised by linalg.lu_solve, by cause.
LU_REJECT_CAUSES = (("pivot", "below threshold"), ("residual", "solve residual"), ("nonfinite", "non-finite"))


def lu_reject_cause(message: str) -> str:
    for cause, marker in LU_REJECT_CAUSES:
        if marker in message:
            return cause
    raise ValueError(f"unclassified SingularMatrixError: {message!r}")


class Probe:
    """Evaluator counter (always on) plus an in-memory span tracer (off by default)."""

    def __init__(self):
        self.evaluator_calls = 0
        self.active = False
        self.task_id = -1
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.task = array("i")
        self._stack = [-1]
        self.extra: dict[int, object] = {}
        self.counts: dict[str, int] = defaultdict(int)
        self.steps: list[tuple[int, str, str | None]] = []  # (backtracks, direction type, lu outcome)
        self.json_bytes: list[int] = []
        self._last_lu: str | None = None

    # -- spans ---------------------------------------------------------
    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.task.append(self.task_id)
        self.end.append(0)
        self._stack.append(i)
        self.start.append(_now())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = _now()
        self._stack.pop()

    def spanned(self, name: str, fn):
        """fn wrapped in a span when tracing is active, a plain call otherwise."""
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            i = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(i)
        return wrapper

    def counted(self, name: str, fn):
        def wrapper(*args, **kwargs):
            if self.active:
                self.counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    @property
    def span_count(self) -> int:
        return len(self.start)

    # -- the problem's callables -----------------------------------------
    def wrap_problem(self, problem):
        """The same problem with every user callable counted (and traced when active)."""
        def wrap(fn):
            if fn is None:
                return None

            def call(x, y):
                self.evaluator_calls += 1
                if not self.active:
                    return fn(x, y)
                i = self._open("problem.user_eval")
                try:
                    return fn(x, y)
                finally:
                    self._close(i)
            return call
        return dataclasses.replace(problem, F=wrap(problem.F), f=wrap(problem.f),
                                   g=wrap(problem.g), G=wrap(problem.G))

    # -- call-site wrappers with extra bookkeeping --------------------------
    def _traced_lu_solve(self, fn, singular_error):
        def lu_solve(A, b, *args, **kwargs):
            if not self.active:
                return fn(A, b, *args, **kwargs)
            i = self._open("linalg.lu_solve")
            try:
                d = fn(A, b, *args, **kwargs)
            except singular_error as exc:
                self._last_lu = lu_reject_cause(str(exc))
                self.extra[i] = (len(A), self._last_lu)
                raise
            finally:
                self._close(i)
            self._last_lu = "ok"
            self.extra[i] = (len(A), "ok")
            return d
        return lu_solve

    def _on_step(self, record) -> None:
        lu = self._last_lu if record.direction_type != "Newton" else "ok"
        self.steps.append((record.backtracks, record.direction_type, lu))

    def _traced_run(self, fn):
        def run(problem, config, zeta0, callback=None):
            if not self.active:
                return fn(problem, config, zeta0, callback)

            def on_step(record):
                self._on_step(record)
                if callback is not None:
                    callback(record)
            i = self._open("solver.run")
            try:
                return fn(problem, config, zeta0, on_step)
            finally:
                self._close(i)
        return run

    @contextlib.contextmanager
    def tracing(self):
        """Install the call-site wrappers of every layer and record spans;
        restore the originals and stop recording on exit."""
        mod = {name: importlib.import_module(f"bilevel_newton.{name}") for name in
               ("problem", "system", "linalg", "solver", "sweep", "regularity", "reporting", "cli")}
        run = self._traced_run(mod["sweep"].run)
        plan = [(mod[m], attr, self.spanned(span, getattr(mod[m], attr))) for m, attr, span in SPANS]
        plan += [(mod["system"], attr, self.counted(f"complementarity.{attr}", getattr(mod["system"], attr)))
                 for attr in ("fb", "pair_coeffs")]
        plan += [
            (mod["solver"], "lu_solve",
             self._traced_lu_solve(mod["solver"].lu_solve, mod["linalg"].SingularMatrixError)),
            (mod["sweep"], "run", run),
            (mod["cli"], "run", run),
        ]
        saved = [(target, attr, getattr(target, attr)) for target, attr, _ in plan]
        try:
            for target, attr, wrapper in plan:
                setattr(target, attr, wrapper)
            self.active = True
            yield
        finally:
            self.active = False
            for target, attr, original in reversed(saved):
                setattr(target, attr, original)

    def write(self, path) -> None:
        """All spans as gzipped CSV: name, start_ns, end_ns, parent index, task id."""
        with gzip.open(path, "wt") as fh:
            fh.write("name,start_ns,end_ns,parent,task\n")
            for i in range(len(self.start)):
                fh.write(f"{self.names[self.name[i]]},{self.start[i]},{self.end[i]},{self.parent[i]},{self.task[i]}\n")
