"""Report serialization: JSON trees and flat CSV summaries.

Floats are rendered with shortest round-trip precision (Python repr), so
the same value prints identically in both formats and across runs.  An
EOC of +inf is presented as "exact" (a trailing residual was exactly
zero); absent values serialize as null / empty cells.
"""
from __future__ import annotations

import csv
import io
import json
import math
from typing import Any

import numpy as np

from .regularity import RegularityReport
from .solver import SolveReport
from .sweep import DeltaMetrics, SweepReport

CSV_COLUMNS = ("problem", "lambda", "status", "iters", "final_resid",
               "F", "f", "EOC", "delta_F", "delta_f", "delta")


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
        "final_point": {
            "x": report.final.x.tolist(),
            "y": report.final.y.tolist(),
            "z": report.final.z.tolist(),
            "u": report.final.u.tolist(),
            "v": report.final.v.tolist(),
            "w": report.final.w.tolist(),
        },
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
    part = report.partition
    return {
        "index_sets": {
            "upper": {"eta": list(part.upper.eta), "theta": list(part.upper.theta), "nu": list(part.upper.nu)},
            "lower_y": {"eta": list(part.lower_y.eta), "theta": list(part.lower_y.theta), "nu": list(part.lower_y.nu)},
            "lower_z": {"eta": list(part.lower_z.eta), "theta": list(part.lower_z.theta), "nu": list(part.lower_z.nu)},
        },
        "ulicq_holds": report.ulicq_holds,
        "llicq_at_xy": report.llicq_at_xy,
        "llicq_at_xz": report.llicq_at_xz,
        "licq_margins": {k: v for k, v in report.licq_margins.items()},
        "lscc_holds": report.lscc_holds,
        "ssosc_min_eig": _finite_or_str(report.ssosc_min_eig),
        "ssosc_holds": report.ssosc_holds,
        "ssosc_subspace_dim": report.ssosc_subspace_dim,
        "ssosc_unperturbed_min_eig": _finite_or_str(report.ssosc_unperturbed_min_eig),
        "ssosc_augmented_min_eig": _finite_or_str(report.ssosc_augmented_min_eig),
    }


def _cell(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        # np.float64 subclasses float, but its repr is "np.float64(1.5)"
        return repr(float(value))
    return str(value)


def _csv_row(report: SolveReport, deltas: DeltaMetrics | None) -> list[str]:
    deltas = deltas if deltas is not None else DeltaMetrics(None, None, None)
    return [
        report.problem,
        _cell(report.lam),
        report.status,
        str(report.iterations),
        _cell(report.final_residual_norm),
        _cell(report.F),
        _cell(report.f),
        _cell(_eoc_value(report.eoc)),
        _cell(deltas.delta_F),
        _cell(deltas.delta_f),
        _cell(deltas.delta),
    ]


def _write_csv(rows: list[list[str]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerows(rows)
    return buf.getvalue()


def solve_report_to_csv(report: SolveReport, deltas: DeltaMetrics | None = None) -> str:
    return _write_csv([_csv_row(report, deltas)])


def sweep_report_to_csv(report: SweepReport) -> str:
    rows = [_csv_row(r, d) for r, d in zip(report.runs, report.deltas)]
    return _write_csv(rows)


def to_json(tree: dict[str, Any]) -> str:
    return json.dumps(tree, indent=2, allow_nan=True) + "\n"
