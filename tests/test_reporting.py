"""The JSON reports: every CLI mode writes one tree, as
``json.dumps(tree, indent=2, allow_nan=True)`` plus a newline."""
import dataclasses
import json

import numpy as np
import pytest

import bilevel_newton as bn
from bilevel_newton import cli, reporting


def _dumps(tree):
    return json.dumps(tree, indent=2, allow_nan=True) + "\n"


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


_NONE = {"eta": [], "theta": [], "nu": []}
_NU0 = {"eta": [], "theta": [], "nu": [0]}


@pytest.mark.parametrize("name,build,lam,index_sets,eig", [
    # every constraint active with a positive multiplier: Z has no columns
    pytest.param("xy-linear",
                 lambda dims, lam: bn.Iterate.of(dims, x=[1.0], y=[1.0], z=[1.0], u=[1.0], v=[1.0], w=[1.0]),
                 1.0, {"upper": _NU0, "lower_y": _NU0, "lower_z": _NU0}, "inf", id="vacuous"),
    # the certified point at a penalty whose form overflows
    pytest.param("dempe-parabola", lambda dims, lam: bn.get_entry("dempe-parabola").certified_points[0].build(lam),
                 8e307, {"upper": _NONE, "lower_y": _NU0, "lower_z": _NU0}, "nan", id="overflow"),
])
def test_regularity_tree_holds_the_index_sets_then_every_report_field(name, build, lam, index_sets, eig):
    problem = bn.get_problem(name)
    with np.errstate(over="ignore", invalid="ignore"):
        report = bn.diagnose(problem, build(problem.dims, lam), lam)
    tree = reporting.regularity_report_to_dict(report)
    fields = [f.name for f in dataclasses.fields(bn.RegularityReport) if f.name != "partition"]
    assert list(tree) == ["index_sets", *fields]
    assert tree["index_sets"] == index_sets and list(tree["index_sets"]) == list(index_sets)
    for field in fields:
        assert tree[field] == (eig if field.endswith("_eig") else getattr(report, field))
