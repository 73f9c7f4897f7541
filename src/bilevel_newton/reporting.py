"""Report serialization: JSON trees and flat CSV summaries.

Floats are rendered with shortest round-trip precision (Python repr), so
the same value prints identically in both formats and across runs.  An
EOC of +inf is presented as "exact" (a trailing residual was exactly
zero); absent values serialize as null / empty cells.  ``to_json`` is
``json.dumps(tree, indent=2, allow_nan=True)`` plus a newline.
"""
from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
from typing import Any

import numpy as np

from .regularity import RegularityReport
from .solver import SolveReport
from .sweep import DeltaMetrics, SweepReport
from .system import VARIABLE_BLOCKS, Iterate

# each CSV column and the key of solve_report_to_dict's tree it is read from
CSV_FIELDS = (("problem", "problem"), ("lambda", "lambda"), ("status", "status"),
              ("iters", "iterations"), ("final_resid", "final_residual_norm"),
              ("F", "F"), ("f", "f"), ("EOC", "eoc"),
              ("delta_F", "delta_F"), ("delta_f", "delta_f"), ("delta", "delta"))
CSV_COLUMNS = tuple(column for column, _ in CSV_FIELDS)


def _eoc_value(eoc: float | None) -> float | str | None:
    if eoc is None:
        return None
    if math.isinf(eoc):
        return "exact"
    return eoc


def _finite_or_str(value: float | None) -> float | str | None:
    if value is None:
        return None
    return value if math.isfinite(value) else repr(value)


def point_to_dict(zeta: Iterate) -> dict[str, list[float]]:
    """The six blocks of a stacked point, in ``VARIABLE_BLOCKS`` order."""
    return {name: getattr(zeta, name).tolist() for name in VARIABLE_BLOCKS}


def solve_report_to_dict(report: SolveReport, deltas: DeltaMetrics | None = None) -> dict[str, Any]:
    d: dict[str, Any] = {
        "problem": report.problem,
        "lambda": report.lam,
        "status": report.status,
        "iterations": report.iterations,
        "final_residual_norm": report.final_residual_norm,
        "F": report.F,
        "f": report.f,
        "eoc": _eoc_value(report.eoc),
        "final_point": point_to_dict(report.final),
        "trace": {
            "residual_norms": list(report.residual_norms),
            "step_sizes": list(report.step_sizes),
            "direction_types": list(report.direction_types),
        },
        "wall_time_s": report.wall_time,
    }
    if report.error is not None:
        d["error"] = report.error
    if deltas is not None:
        d["delta_F"] = deltas.delta_F
        d["delta_f"] = deltas.delta_f
        d["delta"] = deltas.delta
    return d


def sweep_report_to_dict(report: SweepReport) -> dict[str, Any]:
    return {
        "problem": report.problem,
        "lambda_grid": list(report.lambda_grid),
        "converged": report.converged,
        "best_lambda": report.best_lambda,
        "best_F": report.best.F,
        "best_point": {
            "x": report.best.final.x.tolist(),
            "y": report.best.final.y.tolist(),
        },
        "delta_star": report.delta_star,
        "runs": [solve_report_to_dict(r, d) for r, d in zip(report.runs, report.deltas)],
    }


def regularity_report_to_dict(report: RegularityReport) -> dict[str, Any]:
    """The partition as "index_sets" (each block's eta / theta / nu as lists),
    then every other field of the report in declaration order, each
    ``*_eig`` one through ``_finite_or_str``."""
    tree: dict[str, Any] = {"index_sets": {
        name: {k: list(v) for k, v in vars(block).items()} for name, block in vars(report.partition).items()}}
    for field in dataclasses.fields(report):
        if field.name != "partition":
            value = getattr(report, field.name)
            tree[field.name] = _finite_or_str(value) if field.name.endswith("_eig") else value
    return tree


def _cell(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        # np.float64 subclasses float, but its repr is "np.float64(1.5)"
        return repr(float(value))
    return str(value)


def _csv_row(tree: dict[str, Any]) -> list[str]:
    """One CSV row from a solve report's JSON tree; an absent key is an empty cell."""
    return [_cell(tree.get(key)) for _, key in CSV_FIELDS]


def _write_csv(rows: list[list[str]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerows(rows)
    return buf.getvalue()


def solve_report_to_csv(report: SolveReport, deltas: DeltaMetrics | None = None) -> str:
    return _write_csv([_csv_row(solve_report_to_dict(report, deltas))])


def sweep_report_to_csv(report: SweepReport) -> str:
    return _write_csv([_csv_row(solve_report_to_dict(r, d)) for r, d in zip(report.runs, report.deltas)])


def to_json(tree: dict[str, Any]) -> str:
    """A report tree as the CLI writes it: indented by 2, NaN and infinities
    allowed, and a trailing newline."""
    return json.dumps(tree, indent=2, allow_nan=True) + "\n"
