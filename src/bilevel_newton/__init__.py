"""Solver for optimistic bilevel programs via value-function penalization.

The penalized stationarity conditions are posed, for each fixed penalty
parameter, as a square nonsmooth system of equations; a globalized
semismooth Newton method solves it, and a driver sweeps a penalty grid and
scores the results against best known objective values.
"""
from .complementarity import fb, pair_coeffs
from .linalg import SingularMatrixError, lu_solve, null_space_basis, sym_eig_min
from .problem import (BilevelProblem, DerivativeCheckReport, EvaluationError,
                      ProblemDims, check_derivatives, evaluate_all)
from .problems import BenchmarkEntry, CertifiedPoint, get_entry, get_problem, problem_names, registry
from .regularity import (IndexSetPartition, InconsistentPoint,
                         RegularityReport, check_licq, check_lscc,
                         check_ssosc, classify, diagnose)
from .solver import (EVALUATION_FAILED, LINE_SEARCH_STALL, MAX_ITER,
                     MERIT_STATIONARY, SOLVED, SolveReport, SolverConfig, eoc,
                     run)
from .sweep import (DEFAULT_LAMBDA_GRID, DeltaMetrics, SweepConfig,
                    SweepReport, default_start, delta_metrics, resolve_start,
                    sweep)
from .system import (Iterate, ResidualVector, assemble_jacobian,
                     assemble_residual, merit_grad)

__version__ = "0.1.0"

__all__ = [
    "BenchmarkEntry", "BilevelProblem", "CertifiedPoint",
    "DEFAULT_LAMBDA_GRID", "DeltaMetrics", "DerivativeCheckReport",
    "EVALUATION_FAILED", "EvaluationError", "IndexSetPartition",
    "InconsistentPoint", "Iterate", "LINE_SEARCH_STALL", "MAX_ITER",
    "MERIT_STATIONARY", "ProblemDims",
    "RegularityReport", "ResidualVector", "SOLVED", "SingularMatrixError",
    "SolveReport", "SolverConfig", "SweepConfig", "SweepReport",
    "assemble_jacobian", "assemble_residual", "check_derivatives",
    "check_licq", "check_lscc", "check_ssosc", "classify", "default_start",
    "delta_metrics", "diagnose", "eoc", "evaluate_all", "fb", "get_entry",
    "get_problem", "lu_solve", "merit_grad", "null_space_basis",
    "pair_coeffs", "problem_names", "registry", "resolve_start", "run",
    "sweep", "sym_eig_min",
]
