"""The JSON writer: the bytes of ``json.dumps(tree, indent=2, allow_nan=True)``."""
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bilevel_newton import cli, reporting


def _dumps(tree):
    return json.dumps(tree, indent=2, allow_nan=True) + "\n"


SPECIAL_FLOATS = (math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 2.2250738585072014e-308 / 3,
                  1e16, 1e-05, 1e22, 0.1, -1.5)
floats = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True) | st.sampled_from(SPECIAL_FLOATS)
strings = st.text() | st.sampled_from(['"', "\\", '\\"', "\x00\x1f\x7f", "\b\f\n\r\t", "é€ 😀", "\ud800", ""])
leaves = (st.none() | st.booleans() | st.integers() | st.integers(-2**200, 2**200) | strings
          | floats | floats.map(np.float64)
          | st.lists(floats | floats.map(np.float64)) | st.lists(floats.filter(math.isfinite)))
keys = strings | st.integers() | floats | st.booleans() | st.none()


def _containers(children):
    return (st.lists(children, max_size=4) | st.lists(children, max_size=4).map(tuple)
            | st.dictionaries(keys, children, max_size=4))


# containers two deep at most (dicts in lists, lists in dicts, ...), drawn
# without st.recursive's bookkeeping
trees = leaves | _containers(leaves | _containers(leaves))


@settings(max_examples=300, deadline=None)
@given(tree=trees)
@example(tree={})
@example(tree=[])
@example(tree={"a": [], "b": {}, "c": ()})
@example(tree=[math.nan, 1.0, math.inf])
@example(tree=[1.0, "n", 2.0])
@example(tree=[True, 1.0, 1, None])
@example(tree={1: "int", 2.5: "float", True: "bool", None: "none", -0.0: "zero"})
def test_to_json_is_the_bytes_of_json_dumps_with_indent(tree):
    assert reporting.to_json(tree) == _dumps(tree)


@pytest.mark.parametrize("tree", [
    {"a": np.int64(3)},
    {"a": [1.0, np.int64(3)]},
    {"a": {1, 2}},
    {"a": [{"b": ()}, set()]},
    {"a": {(1, 2): 1.0}},
    {(1, 2): {1}},
    {"a": {1}, (1,): 2},
    {"a": [1.0, 2.0, {frozenset(): 1}]},
], ids=["int64", "int64-in-float-list", "set", "nested-set", "tuple-key", "tuple-key-first",
        "set-before-tuple-key", "frozenset-key"])
def test_to_json_raises_the_type_error_of_json_dumps(tree):
    with pytest.raises(TypeError) as expected:
        _dumps(tree)
    with pytest.raises(TypeError) as raised:
        reporting.to_json(tree)
    assert str(raised.value) == str(expected.value)


@pytest.mark.parametrize("argv", [
    ["sweep", "--problem", "xy-linear"],
    ["sweep", "--problem", "dempe-parabola", "--max-iter", "20"],
    ["solve", "--problem", "quadratic-projection", "--lambda", "2"],
    ["solve", "--problem", "dempe-parabola", "--lambda", "0.5", "--max-iter", "3"],
    ["diagnose", "--problem", "xy-linear", "--lambda", "1"],
    ["diagnose", "--problem", "dempe-parabola", "--lambda", "2"],
    ["check-derivatives", "--problem", "quadratic-projection"],
    ["check-derivatives", "--problem", "dempe-parabola"],
])
def test_report_trees_of_every_mode_have_the_bytes_of_json_dumps(monkeypatch, tmp_path, argv):
    trees = []
    to_json = reporting.to_json

    def recording(tree):
        trees.append(tree)
        return to_json(tree)
    monkeypatch.setattr(reporting, "to_json", recording)
    out = tmp_path / "report.json"
    cli.main(argv + ["--out", str(out)])
    assert len(trees) == 1
    assert out.read_text() == _dumps(trees[0])
