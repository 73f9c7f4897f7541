"""The library names that the benchmark's probe (``bench/probe.py``) replaces.

The probe traces a run by swapping module globals for wrappers; a name it
patches that the library no longer binds fails only when a traced run
starts.  This checks every such name without running the benchmark.
"""
import importlib
import pathlib
import types

import pytest

PROBE = pathlib.Path(__file__).resolve().parents[1] / "bench" / "probe.py"


def _load_probe():
    # compiled from its text, so that no bytecode cache is written under bench/
    module = types.ModuleType("bench_probe")
    exec(compile(PROBE.read_text(), str(PROBE), "exec"), module.__dict__)
    return module


# wrapped apart from SPANS, with their own bookkeeping
EXTRA = (("system", "fb"), ("system", "pair_coeffs"), ("solver", "lu_solve"),
         ("linalg", "SingularMatrixError"), ("sweep", "run"), ("cli", "run"))


def _patched_names():
    return [(module, attr) for module, attr, _ in _load_probe().SPANS] + list(EXTRA)


@pytest.mark.parametrize("module,attr", _patched_names())
def test_probe_target_is_bound(module, attr):
    assert callable(getattr(importlib.import_module(f"bilevel_newton.{module}"), attr))
