"""Report serialization: JSON trees and flat CSV summaries.

Floats are rendered with shortest round-trip precision (Python repr), so
the same value prints identically in both formats and across runs.  An
EOC of +inf is presented as "exact" (a trailing residual was exactly
zero); absent values serialize as null / empty cells.  ``to_json`` writes
the bytes of ``json.dumps(tree, indent=2, allow_nan=True)`` plus a newline,
without the standard library's pure-Python encoder (which ``indent`` turns
on): a list of finite floats is written in one join.
"""
from __future__ import annotations

import csv
import io
import math
from json.encoder import encode_basestring_ascii as _json_str
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


def _json_float(value: float) -> str:
    if value != value:
        return "NaN"
    if value == math.inf:
        return "Infinity"
    if value == -math.inf:
        return "-Infinity"
    return float.__repr__(value)


def _json_key(key: Any) -> str:
    if isinstance(key, str):
        return key
    if isinstance(key, float):
        return _json_float(key)
    if key is True:
        return "true"
    if key is False:
        return "false"
    if key is None:
        return "null"
    if isinstance(key, int):
        return int.__repr__(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


def _json(value: Any, pad: str) -> str:
    """value as json.dumps(..., indent=2) writes it at the indentation pad."""
    if isinstance(value, str):
        return _json_str(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _json_float(value)
    inner = pad + "  "
    sep = ",\n" + inner
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        try:
            body = sep.join(map(float.__repr__, value))
        except TypeError:  # an item that is not a float
            body = "n"
        if "n" in body:  # or an infinity or a NaN, which float.__repr__ writes as inf and nan
            body = sep.join([_json(item, inner) for item in value])
        return f"[\n{inner}{body}\n{pad}]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        body = sep.join([f"{_json_str(_json_key(key))}: {_json(item, inner)}" for key, item in value.items()])
        return f"{{\n{inner}{body}\n{pad}}}"
    raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


def to_json(tree: dict[str, Any]) -> str:
    """The bytes of ``json.dumps(tree, indent=2, allow_nan=True) + "\\n"``."""
    return _json(tree, "") + "\n"
