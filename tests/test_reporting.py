"""The JSON reports: every CLI mode writes one tree, as
``json.dumps(tree, indent=2, allow_nan=True)`` plus a newline."""
import json

import pytest

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
