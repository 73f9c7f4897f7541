"""CLI behavior: modes, exit codes, report files, determinism."""
import csv
import dataclasses
import importlib
import json
import math
import os
import pathlib
import re

import numpy as np
import pytest

import bilevel_newton as bn
from bilevel_newton import cli, reporting
from bilevel_newton import problem as problem_module
from bilevel_newton.cli import main
from bilevel_newton.system import VARIABLE_BLOCKS


def test_solve_mode_exit_zero(tmp_path, capsys):
    out = tmp_path / "solve.json"
    code = main(["solve", "--problem", "quadratic-projection", "--lambda", "1", "--out", str(out)])
    assert code == 0
    tree = json.loads(out.read_text())
    assert tree["status"] == "Solved"
    assert tree["final_residual_norm"] <= 1e-8
    assert tree["lambda"] == 1.0
    assert len(tree["trace"]["residual_norms"]) == tree["iterations"] + 1


def test_unknown_problem_exit_one(capsys):
    assert main(["solve", "--problem", "nosuch"]) == 1
    assert "unknown problem" in capsys.readouterr().err


def test_missing_mode_exit_one(capsys):
    assert main(["--problem", "xy-linear"]) == 1


def test_conflicting_modes_exit_one(capsys):
    assert main(["solve", "--mode", "sweep", "--problem", "xy-linear"]) == 1


def test_usage_error_exit_one():
    assert main(["solve"]) == 1  # --problem is required


def test_solve_nonconvergence_exit_two(tmp_path, capsys):
    out = tmp_path / "stall.json"
    code = main(["solve", "--problem", "quadratic-projection", "--lambda", "1",
                 "--max-iter", "1", "--out", str(out)])
    assert code == 2
    assert json.loads(out.read_text())["status"] == "MaxIter"


def test_sweep_rejects_a_nan_penalty_before_any_run(monkeypatch, capsys):
    runs = []
    # the package's name sweep is the function; the module holds run
    monkeypatch.setattr(importlib.import_module("bilevel_newton.sweep"), "run", lambda *args: runs.append(args))
    assert main(["sweep", "--problem", "dempe-parabola", "--lambda-grid", "0.5,1,nan"]) == 1
    assert runs == []
    assert "finite and positive" in capsys.readouterr().err


def test_sweep_rejects_an_empty_lambda_grid(monkeypatch, capsys):
    runs = []
    monkeypatch.setattr(importlib.import_module("bilevel_newton.sweep"), "run", lambda *args: runs.append(args))
    assert main(["sweep", "--problem", "xy-linear", "--lambda-grid", ","]) == 1
    assert runs == []
    assert "non-empty" in capsys.readouterr().err


def test_solve_rejects_a_non_finite_solver_parameter(monkeypatch, capsys):
    runs = []
    monkeypatch.setattr(cli, "run", lambda *args: runs.append(args))
    assert main(["solve", "--problem", "dempe-parabola", "--lambda", "inf"]) == 1
    assert runs == []
    assert "lam must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--beta", "--eps", "--t", "--rho", "--sigma"])
def test_protocol_constants_have_no_flag(monkeypatch, capsys, flag):
    runs = []
    monkeypatch.setattr(cli, "run", lambda *args: runs.append(args))
    monkeypatch.setattr(importlib.import_module("bilevel_newton.sweep"), "run", lambda *args: runs.append(args))
    for mode in ("solve", "sweep", "diagnose"):
        assert main([mode, "--problem", "dempe-parabola", "--lambda", "2", flag, "0.4"]) == 1
        assert "unrecognized arguments" in capsys.readouterr().err
    assert runs == []


def test_a_flag_prefix_is_not_taken_for_the_flag(monkeypatch, capsys):
    runs = []
    monkeypatch.setattr(cli, "run", lambda *args: runs.append(args))
    assert main(["solve", "--problem", "xy-linear", "--max", "1"]) == 1
    assert "unrecognized arguments: --max 1" in capsys.readouterr().err
    assert runs == []
    args = cli.build_parser().parse_args(["sweep", "--problem", "xy-linear", "--lambda", "2", "--lambda-grid", "1,4"])
    assert (args.lam, args.lambda_grid) == (2.0, [1.0, 4.0])


@pytest.mark.parametrize("lam", ["inf", "nan", "0", "-1"])
def test_diagnose_rejects_an_invalid_penalty(monkeypatch, capsys, lam):
    runs = []
    monkeypatch.setattr(cli, "run", lambda *args: runs.append(args))
    assert main(["diagnose", "--problem", "dempe-parabola", "--lambda", lam]) == 1
    assert runs == []
    captured = capsys.readouterr()
    assert captured.out == "" and "error:" in captured.err


def test_solver_flags_are_the_config_fields():
    actions = {a.dest: a for a in cli.build_parser()._actions}
    fields = [f for f in dataclasses.fields(bn.SolverConfig) if f.name != "lam"]
    assert fields
    for field in fields:
        action = actions[field.name]
        assert action.option_strings == ["--" + field.name.replace("_", "-")]
        assert action.type is type(field.default)
        assert action.default == field.default
    assert "--lam" not in cli.build_parser()._option_string_actions


# a non-default value for every solver flag
FLAG_VALUES = {"max_iter": 5}


@pytest.mark.parametrize("mode,module,lams", [
    ("solve", "bilevel_newton.cli", [2.0]),
    ("diagnose", "bilevel_newton.cli", [2.0]),  # no certified point at lambda 2: solves first
    ("sweep", "bilevel_newton.sweep", [1.0, 2.0]),
])
def test_solver_flags_reach_the_config(monkeypatch, tmp_path, mode, module, lams):
    assert set(FLAG_VALUES) == {f.name for f in dataclasses.fields(bn.SolverConfig)} - {"lam"}
    configs = []
    target = importlib.import_module(module)

    def recording_run(problem, config, start):
        configs.append(config)
        return bn.run(problem, config, start)
    monkeypatch.setattr(target, "run", recording_run)
    argv = [mode, "--problem", "dempe-parabola", "--lambda", "2", "--lambda-grid", "1,2",
            "--out", str(tmp_path / "out.json")]
    for name, value in FLAG_VALUES.items():
        argv += ["--" + name.replace("_", "-"), repr(value)]
    main(argv)
    assert configs == [bn.SolverConfig(lam=lam, **FLAG_VALUES) for lam in lams]


def test_point_layout_is_the_variable_blocks(entries):
    zeta = entries["dempe-parabola"].certified_points[0].build(4.0)
    tree = reporting.point_to_dict(zeta)
    assert tuple(tree) == VARIABLE_BLOCKS
    for name in VARIABLE_BLOCKS:
        assert tree[name] == getattr(zeta, name).tolist()


def test_sweep_mode_delta_star(tmp_path):
    out = tmp_path / "sweep.json"
    code = main(["sweep", "--problem", "xy-linear", "--out", str(out)])
    assert code == 0
    tree = json.loads(out.read_text())
    assert tree["converged"] is True
    assert tree["delta_star"] <= 1e-6
    assert len(tree["runs"]) == 9


def test_sweep_csv_columns_and_rows(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--problem", "xy-linear", "--format", "csv",
                 "--lambda-grid", "1,4", "--out", str(out)])
    assert code == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[0] == list(reporting.CSV_COLUMNS)
    assert len(rows) == 3
    assert rows[1][0] == "xy-linear" and rows[1][1] == "1.0"


def test_sweep_csv_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        assert main(["sweep", "--problem", "quadratic-projection", "--format", "csv",
                     "--out", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_csv_and_json_numbers_agree(tmp_path):
    jpath, cpath = tmp_path / "r.json", tmp_path / "r.csv"
    args = ["solve", "--problem", "dempe-parabola", "--lambda", "4"]
    assert main(args + ["--out", str(jpath)]) == 0
    assert main(args + ["--format", "csv", "--out", str(cpath)]) == 0
    tree = json.loads(jpath.read_text())
    rows = list(csv.reader(cpath.read_text().splitlines()))
    row = dict(zip(rows[0], rows[1]))
    # shortest-round-trip rendering makes shared fields literally identical
    assert row["F"] == repr(tree["F"])
    assert row["f"] == repr(tree["f"])
    assert row["final_resid"] == repr(tree["final_residual_norm"])
    assert float(row["lambda"]) == tree["lambda"]
    assert int(row["iters"]) == tree["iterations"]


@pytest.mark.parametrize("eoc,eoc_cell", [(math.inf, "exact"), (None, ""), (1.5, "1.5")])
def test_csv_infinities_are_exact_only_for_eoc(entries, eoc, eoc_cell):
    p = entries["xy-linear"].problem
    report = bn.SolveReport(
        problem="xy-linear", lam=1.0, status=bn.MAX_ITER, iterations=3,
        residual_norms=[], step_sizes=[], direction_types=[],
        final=bn.resolve_start(p), final_residual_norm=math.inf, F=-math.inf, f=1.0,
        eoc=eoc, wall_time=0.0)
    assert reporting.solve_report_to_csv(report).splitlines()[1] == \
        f"xy-linear,1.0,MaxIter,3,inf,-inf,1.0,{eoc_cell},,,"


def test_csv_numpy_floats_print_as_python_floats(entries):
    p = entries["xy-linear"].problem
    report = bn.SolveReport(
        problem="xy-linear", lam=np.float64(1.5), status=bn.SOLVED, iterations=3,
        residual_norms=[], step_sizes=[], direction_types=[],
        final=bn.resolve_start(p), final_residual_norm=np.float64(1e-9),
        F=np.float32(0.25), f=np.float64(-np.inf), eoc=np.float64(2.0), wall_time=0.0)
    deltas = bn.DeltaMetrics(np.float64(0.1), None, np.float64(0.0))
    assert reporting.solve_report_to_csv(report, deltas).splitlines()[1] == \
        "xy-linear,1.5,Solved,3,1e-09,0.25,-inf,2.0,0.1,,0.0"


def test_json_round_trip_equals_in_memory(entries):
    entry = entries["xy-linear"]
    report = bn.run(entry.problem, bn.SolverConfig(lam=2.0), bn.resolve_start(entry.problem))
    deltas = bn.delta_metrics(report.F, report.f, entry.problem.known_F,
                              entry.problem.known_f, entry.status)
    tree = reporting.solve_report_to_dict(report, deltas)
    assert json.loads(reporting.to_json(tree)) == tree


def test_start_override(tmp_path):
    out = tmp_path / "s.json"
    code = main(["solve", "--problem", "quadratic-projection", "--lambda", "1",
                 "--x0", "0.5", "--y0", "0.5,-0.5", "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["status"] == "Solved"


@pytest.mark.parametrize("flag,value,expected", [("--x0", "1,2", "x0 has length 2, expected n = 1"),
                                                  ("--y0", "1", "y0 has length 1, expected m = 2")])
def test_start_of_the_wrong_length_exits_one_before_any_evaluation(monkeypatch, capsys, flag, value, expected):
    runs, evaluations = [], []
    monkeypatch.setattr(cli, "run", lambda *args: runs.append(args))
    monkeypatch.setattr(importlib.import_module("bilevel_newton.sweep"), "evaluate_all",
                        lambda *args, **kwargs: evaluations.append(args))
    assert main(["solve", "--problem", "quadratic-projection", flag, value]) == 1
    assert runs == [] and evaluations == []
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {expected}\n"


def test_check_derivatives_mode(tmp_path):
    out = tmp_path / "d.json"
    code = main(["check-derivatives", "--problem", "dempe-parabola", "--out", str(out)])
    assert code == 0
    tree = json.loads(out.read_text())
    assert tree["passed"] is True
    assert tree["worst_error"] <= 1e-4


def test_check_derivatives_mode_reports_fd_tol(monkeypatch, tmp_path):
    monkeypatch.setattr(problem_module, "FD_TOL", 1e-300)
    out = tmp_path / "d.json"
    assert main(["check-derivatives", "--problem", "xy-linear", "--out", str(out)]) == 1
    tree = json.loads(out.read_text())
    assert (tree["passed"], tree["tolerance"], tree["num_points"]) == (False, 1e-300, 10)


@pytest.mark.parametrize("mode", ["check-derivatives", "diagnose"])
def test_csv_format_of_a_json_only_mode_exits_one_before_any_evaluation(monkeypatch, capsys, tmp_path, mode):
    calls = []
    for name in ("run", "check_derivatives", "diagnose", "resolve_start"):
        monkeypatch.setattr(cli, name, lambda *args, name=name: calls.append(name))
    out = tmp_path / "out.csv"
    argv = [mode, "--problem", "dempe-parabola", "--lambda", "4", "--format", "csv", "--out", str(out)]
    assert main(argv) == 1
    assert calls == [] and not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(f"error: --format csv is for solve and sweep only, not {mode}\n")


def test_readme_names_exactly_the_cli_options():
    with open(pathlib.Path(__file__).parents[1] / "README.md") as fh:
        readme = fh.read()
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", section))
    options = {opt for action in cli.build_parser()._actions for opt in action.option_strings
               if opt.startswith("--") and opt != "--help"}
    assert len(options) == 8
    assert named == options


def test_diagnose_mode_dempe(tmp_path):
    out = tmp_path / "diag.json"
    code = main(["diagnose", "--problem", "dempe-parabola", "--lambda", "4", "--out", str(out)])
    assert code == 0
    tree = json.loads(out.read_text())
    reg = tree["regularity"]
    assert reg["ssosc_holds"] is False
    assert abs(reg["ssosc_min_eig"]) <= 1e-8
    assert reg["lscc_holds"] is True
    assert tree["point_source"].startswith("certified")


def test_diagnose_mode_computed_point(tmp_path):
    # no certified point is admissible at lambda = 1 for this problem, so
    # the CLI solves first and diagnoses the computed point
    out = tmp_path / "diag2.json"
    code = main(["diagnose", "--problem", "dempe-parabola", "--lambda", "1", "--out", str(out)])
    assert code == 0
    tree = json.loads(out.read_text())
    assert tree["point_source"].startswith("computed")


def test_stdout_emission(capsys):
    code = main(["solve", "--problem", "xy-linear", "--lambda", "1"])
    assert code == 0
    tree = json.loads(capsys.readouterr().out)
    assert tree["problem"] == "xy-linear"


# every mode, with the reports that carry no wall time: CSV for solve and
# sweep, JSON for diagnose (certified and computed point) and check-derivatives
REPEATED_CALLS = [
    ["solve", "--problem", "xy-linear", "--lambda", "2", "--format", "csv"],
    ["solve", "--problem", "dempe-parabola", "--lambda", "0.5", "--max-iter", "3", "--format", "csv"],
    ["sweep", "--problem", "quadratic-projection", "--format", "csv"],
    ["diagnose", "--problem", "xy-linear"],
    ["diagnose", "--problem", "dempe-parabola", "--lambda", "2"],
    ["check-derivatives", "--problem", "dempe-parabola"],
]


def _call(argv, path):
    code = main(argv + ["--out", str(path)])
    return code, path.read_bytes()


@pytest.mark.parametrize("argv", REPEATED_CALLS)
def test_a_call_repeated_in_process_writes_the_same_bytes(tmp_path, argv):
    first = _call(argv, tmp_path / "first")
    assert _call(argv, tmp_path / "second") == first
    assert first[0] == (2 if "--max-iter" in argv else 0)


@pytest.mark.parametrize("mode", ["solve", "sweep"])
def test_a_json_report_repeated_in_process_differs_only_in_wall_time(tmp_path, mode):
    argv = [mode, "--problem", "xy-linear", "--lambda-grid", "1,4"]
    reports = [_call(argv, tmp_path / name)[1].decode().splitlines(keepends=True) for name in ("a", "b")]
    kept = [[line for line in lines if '"wall_time_s": ' not in line] for lines in reports]
    assert kept[0] == kept[1]
    assert len(kept[0]) < len(reports[0])


def test_a_usage_error_does_not_spoil_the_next_call(tmp_path, capsys):
    argv = ["diagnose", "--problem", "xy-linear"]
    expected = _call(argv, tmp_path / "before")
    assert main(argv + ["--format", "csv", "--out", str(tmp_path / "bad")]) == 1
    assert "--format csv is for solve and sweep only" in capsys.readouterr().err
    assert _call(argv, tmp_path / "after") == expected


def test_the_parser_is_built_once_per_process(tmp_path):
    cli.build_parser.cache_clear()
    for k in range(3):
        assert main(["check-derivatives", "--problem", "xy-linear", "--out", str(tmp_path / f"{k}.json")]) == 0
    assert main(["solve"]) == 1
    assert cli.build_parser() is cli.build_parser()
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 5)


def test_the_registry_is_built_once_per_process(monkeypatch):
    from bilevel_newton import problems
    built = []
    for name in ("_quadratic_projection", "_xy_linear", "_dempe_parabola"):
        make = getattr(problems, name)
        monkeypatch.setattr(problems, name, lambda make=make: built.append(make) or make())
    problems.registry.cache_clear()
    try:
        first = problems.registry()
        assert len(built) == 3
        assert problems.registry() is first
        assert all(problems.get_entry(entry.problem.name) is entry for entry in first)
        assert problems.get_problem("xy-linear") is first[1].problem
        assert problems.problem_names() == tuple(entry.problem.name for entry in first)
        with pytest.raises(KeyError):
            problems.get_entry("nosuch")
        assert main(["solve", "--problem", "xy-linear", "--lambda", "1", "--format", "csv", "--out", os.devnull]) == 0
        assert len(built) == 3
    finally:
        problems.registry.cache_clear()
