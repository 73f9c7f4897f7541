"""CLI behavior: modes, exit codes, report files, determinism."""
import csv
import json


import bilevel_newton as bn
from bilevel_newton import reporting
from bilevel_newton.cli import main


def test_solve_mode_exit_zero(tmp_path, capsys):
    out = tmp_path / "solve.json"
    code = main(["solve", "--problem", "quadratic-projection", "--lambda", "1", "--out", str(out)])
    assert code == 0
    tree = json.loads(out.read_text())
    assert tree["status"] == "Solved"
    assert tree["final_residual_norm"] <= 1e-8
    assert tree["lambda"] == 1.0
    assert len(tree["trace"]["residual_norms"]) == tree["iterations"] + 1


def test_solve_mode_flag_spelling(tmp_path):
    out = tmp_path / "solve.json"
    code = main(["--mode", "solve", "--problem", "xy-linear", "--lambda", "2", "--out", str(out)])
    assert code == 0


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


def test_check_derivatives_mode(tmp_path):
    out = tmp_path / "d.json"
    code = main(["check-derivatives", "--problem", "dempe-parabola", "--out", str(out)])
    assert code == 0
    tree = json.loads(out.read_text())
    assert tree["passed"] is True
    assert tree["worst_error"] <= 1e-4


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

