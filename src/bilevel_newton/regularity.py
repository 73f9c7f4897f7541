"""Numerical regularity diagnostics at a candidate stationary point.

Checks the hypotheses under which the selected generalized Jacobian stays
nonsingular near a solution (and the Newton iteration converges fast):
index-set classification of the three complementarity blocks, linear
independence of active constraint gradients, strict complementarity of the
follower block, and a second-order condition on a reduced subspace of
feasible directions.  Each of them raises ValueError at a point with a
non-finite entry, or with other dims than the problem's, before any
evaluator is called.  They read the evaluations a point keeps for the problem
(``system.keep_evaluations``), and a point that keeps none keeps the ones
they make: every diagnostic at one point, and a residual there, call each
evaluator once per point (x, y) and (x, z).

The second-order check reduces the form M to a basis Z of the null space of
the nu-active gradients C (``linalg.null_space_basis``: a complete QR when
the rows of C are independent, a full SVD when they are not) and reads the
smallest eigenvalue of Z' M Z (``linalg.sym_eig_min``, LAPACK ``dsyevr``,
one eigenvalue).  ``diagnose`` forms Z' M Z once, for its verdict and for
the kink-augmented variant.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .complementarity import KINK_A, KINK_B
from .linalg import null_space_basis, sym_eig_min
from .problem import BilevelProblem, EvalBundle, evaluate_all, evaluate_function
from .system import Iterate, hessian_block, keep_evaluations, kept_evaluations, require_dims, require_penalty

# A constraint is active when |c| <= ACTIVE_TOL, a multiplier zero when
# |mu| <= MULT_TOL.  A family of gradients is independent when its smallest
# singular value exceeds RANK_TOL times its largest; the reduced
# second-order form is positive definite when its smallest eigenvalue
# exceeds EIG_TOL.
ACTIVE_TOL = MULT_TOL = 1e-6
RANK_TOL = EIG_TOL = 1e-8


class InconsistentPoint(ValueError):
    """The point is not approximately stationary: some pair fits no index class."""

    def __init__(self, flagged: list[tuple[str, int, float, float]]):
        self.flagged = flagged
        detail = "; ".join(
            f"{block}[{idx}]: constraint={c:.3e}, multiplier={mu:.3e}" for block, idx, c, mu in flagged
        )
        super().__init__(f"inconsistent complementarity pairs: {detail}")


@dataclass(frozen=True)
class BlockPartition:
    """eta: inactive & zero multiplier; nu: active & positive; theta: both zero."""

    eta: tuple[int, ...]
    theta: tuple[int, ...]
    nu: tuple[int, ...]

    @property
    def active(self) -> tuple[int, ...]:
        return tuple(sorted(self.theta + self.nu))


@dataclass(frozen=True)
class IndexSetPartition:
    upper: BlockPartition    # (G(x,y), u)
    lower_y: BlockPartition  # (g(x,y), v)
    lower_z: BlockPartition  # (g(x,z), w)


@dataclass
class RegularityReport:
    partition: IndexSetPartition
    ulicq_holds: bool
    llicq_at_xy: bool
    llicq_at_xz: bool
    licq_margins: dict[str, float | None]
    lscc_holds: bool
    ssosc_min_eig: float
    ssosc_holds: bool
    ssosc_subspace_dim: int
    # informational variants of the second-order check
    ssosc_unperturbed_min_eig: float
    ssosc_augmented_min_eig: float


def _classify_block(name: str, cons: np.ndarray, mults: np.ndarray, flagged: list) -> BlockPartition:
    eta, theta, nu = [], [], []
    for j, (c, mu) in enumerate(zip(cons, mults)):
        active = abs(c) <= ACTIVE_TOL
        if active and mu > MULT_TOL:
            nu.append(j)
        elif active and abs(mu) <= MULT_TOL:
            theta.append(j)
        elif c < -ACTIVE_TOL and abs(mu) <= MULT_TOL:
            eta.append(j)
        else:
            flagged.append((name, j, float(c), float(mu)))
    return BlockPartition(eta=tuple(eta), theta=tuple(theta), nu=tuple(nu))


def _bundles(problem: BilevelProblem, zeta: Iterate) -> tuple[EvalBundle, EvalBundle]:
    """The leader bundle at (x, y), then the follower bundle (f and g only) at
    (x, z): the ones zeta keeps for problem (a run's final point, say), or
    new evaluations, which zeta then keeps (``keep_evaluations``), so the
    other diagnostics and ``assemble_residual`` at zeta read them.  Raises
    ValueError when zeta has other dims than problem's (``require_dims``) or
    a non-finite entry."""
    require_dims(problem, zeta)
    bad = np.flatnonzero(~np.isfinite(zeta.vec))
    if bad.size:
        raise ValueError(f"the regularity diagnostics need a finite point; entries {bad.tolist()} are not finite")
    kept = kept_evaluations(zeta, problem)
    if kept is not None:
        return kept
    at_y = evaluate_all(problem, zeta.x, zeta.y)
    at_z = EvalBundle.of(zeta.dims.n, f=evaluate_function(problem, "f", zeta.x, zeta.z),
                         g=evaluate_function(problem, "g", zeta.x, zeta.z))
    keep_evaluations(zeta, problem, at_y, at_z)
    return at_y, at_z


def _partition(zeta: Iterate, at_y: EvalBundle, at_z: EvalBundle) -> IndexSetPartition:
    flagged: list[tuple[str, int, float, float]] = []
    upper = _classify_block("G", at_y.G, zeta.u, flagged)
    lower_y = _classify_block("g(x,y)", at_y.g, zeta.v, flagged)
    lower_z = _classify_block("g(x,z)", at_z.g, zeta.w, flagged)
    if flagged:
        raise InconsistentPoint(flagged)
    return IndexSetPartition(upper=upper, lower_y=lower_y, lower_z=lower_z)


def classify(problem: BilevelProblem, zeta: Iterate) -> IndexSetPartition:
    """Partition every complementarity pair into eta / theta / nu.

    Raises InconsistentPoint when a pair fits none of the classes (violated
    constraint, negative multiplier, or positive multiplier on an inactive
    constraint), which signals that zeta is not approximately stationary.
    """
    return _partition(zeta, *_bundles(problem, zeta))


def _licq_families(
    m: int, at_y: EvalBundle, at_z: EvalBundle, partition: IndexSetPartition
) -> dict[str, np.ndarray]:
    """Active-gradient families as column matrices, one per condition."""
    n = at_y.n
    aU = list(partition.upper.active)
    aY = list(partition.lower_y.active)
    aZ = list(partition.lower_z.active)
    return {
        "ulicq": np.concatenate([at_y.dG[aU], at_y.dg[aY]], axis=0).T,
        "llicq_at_xy": at_y.dg[aY][:, n:].T if aY else np.zeros((m, 0)),
        "llicq_at_xz": at_z.dg[aZ][:, n:].T if aZ else np.zeros((m, 0)),
    }


def _independent(columns: np.ndarray) -> tuple[bool, float | None]:
    """(family linearly independent?, smallest singular value or None if empty).

    The rule is the one ``null_space_basis(columns)`` applies for a trivial
    null space with ``linalg.NULL_SPACE_TOL`` at RANK_TOL, decided from the
    singular values alone.
    """
    rows, k = columns.shape
    if k == 0:
        return True, None
    s = np.linalg.svd(columns, compute_uv=False)
    return bool(k <= rows and s[0] > 0 and s[-1] > RANK_TOL * s[0]), float(s[-1])


def check_licq(problem: BilevelProblem, zeta: Iterate, partition: IndexSetPartition) -> tuple[bool, bool, bool]:
    """Upper-level and lower-level linear independence of active gradients.

    The upper-level condition stacks full (x, y)-gradients of active G and
    active g at (x, y); each lower-level condition uses only the follower
    derivatives of active g, at (x, y) and at (x, z) respectively.  Empty
    families pass vacuously.
    """
    fams = _licq_families(problem.dims.m, *_bundles(problem, zeta), partition)
    return tuple(_independent(fams[k])[0] for k in ("ulicq", "llicq_at_xy", "llicq_at_xz"))


def check_lscc(partition: IndexSetPartition) -> bool:
    """Strict complementarity of the follower block: no theta index in (g(x,z), w)."""
    return len(partition.lower_z.theta) == 0


def ssosc_matrices(
    problem: BilevelProblem,
    zeta: Iterate,
    lam: float,
    partition: IndexSetPartition,
) -> tuple[np.ndarray, np.ndarray]:
    """Constraint matrix of the feasible-direction subspace and the quadratic form.

    Directions d = (d1, d2, d3) in R^{n+2m} satisfy C d = 0, where C stacks
    the (x, y)-gradients of nu-active constraints (upper block and g at
    (x, y)) and the (x, z)-gradients of nu-active g at (x, z).  The
    symmetric M is the Hessian block of W (``system.hessian_block``), so
    q(d) = d' M d is the curvature of the penalized Lagrangian along d.
    """
    lam = require_penalty(lam)  # before _bundles evaluates anything
    return _ssosc_matrices(lam, zeta, *_bundles(problem, zeta), partition)


def _ssosc_matrices(
    lam: float, zeta: Iterate, at_y: EvalBundle, at_z: EvalBundle, partition: IndexSetPartition
) -> tuple[np.ndarray, np.ndarray]:
    n, m = zeta.dims.n, zeta.dims.m

    def row(grad: np.ndarray, follower: slice) -> np.ndarray:
        r = np.zeros(n + 2 * m)
        r[:n], r[follower] = grad[:n], grad[n:]
        return r
    y, z = slice(n, n + m), slice(n + m, n + 2 * m)
    rows = [row(at_y.dG[i], y) for i in partition.upper.nu] \
        + [row(at_y.dg[j], y) for j in partition.lower_y.nu] \
        + [row(at_z.dg[j], z) for j in partition.lower_z.nu]
    C = np.array(rows) if rows else np.zeros((0, n + 2 * m))
    return C, hessian_block(lam, zeta, at_y, at_z)


def _reduced_min_eig(form: np.ndarray) -> tuple[float, bool]:
    """Minimum eigenvalue of a reduced form Z' M Z and its verdict; +inf,
    holding vacuously, when Z has no columns."""
    if form.shape[0] == 0:
        return math.inf, True
    min_eig = sym_eig_min(form)
    return min_eig, min_eig > EIG_TOL


def check_ssosc(
    problem: BilevelProblem, zeta: Iterate, lam: float, partition: IndexSetPartition
) -> tuple[float, bool]:
    """Minimum eigenvalue of the reduced second-order form and its verdict.

    min_eig is +inf when the feasible-direction subspace is trivial; the
    condition then holds vacuously.
    """
    C, M = ssosc_matrices(problem, zeta, lam, partition)
    Z = null_space_basis(C)
    return _reduced_min_eig(Z.T @ M @ Z)


def _unperturbed_variant(M: np.ndarray, n: int, m: int) -> np.ndarray:
    """Variant form for a follower feasible set with no leader coupling.

    The modified follower contribution decouples the (d1, d3) cross terms
    and flips the sign of the d3 curvature block.
    """
    M_star = M.copy()
    M_star[:n, n + m:] = 0.0
    M_star[n + m:, :n] = 0.0
    M_star[n + m:, n + m:] = -M[n + m:, n + m:]
    return M_star


def diagnose(problem: BilevelProblem, zeta: Iterate, lam: float) -> RegularityReport:
    """Full regularity report at a candidate point for a fixed, finite, positive penalty."""
    lam = require_penalty(lam)  # before _bundles evaluates anything
    at_y, at_z = _bundles(problem, zeta)
    partition = _partition(zeta, at_y, at_z)

    fams = _licq_families(problem.dims.m, at_y, at_z, partition)
    ulicq, m_u = _independent(fams["ulicq"])
    llicq_xy, m_y = _independent(fams["llicq_at_xy"])
    llicq_xz, m_z = _independent(fams["llicq_at_xz"])

    C, M = _ssosc_matrices(lam, zeta, at_y, at_z, partition)
    Z = null_space_basis(C)
    dim = Z.shape[1]
    form = Z.T @ M @ Z
    min_eig, holds = _reduced_min_eig(form)

    star_eig, _ = _reduced_min_eig(Z.T @ _unperturbed_variant(M, problem.dims.n, problem.dims.m) @ Z)

    # Follower kink indices augment the form with -lam per index (the
    # symmetric kink element has -b/a = 1), so any kink forces failure.
    assert abs(-KINK_B / KINK_A - 1.0) < 1e-14
    n_kink = len(partition.lower_z.theta)
    if n_kink == 0:
        aug_eig = min_eig
    else:
        aug = np.zeros((dim + n_kink, dim + n_kink))
        aug[:dim, :dim] = form
        aug[dim:, dim:] = -lam * np.eye(n_kink)
        aug_eig = sym_eig_min(aug)

    return RegularityReport(
        partition=partition,
        ulicq_holds=ulicq,
        llicq_at_xy=llicq_xy,
        llicq_at_xz=llicq_xz,
        licq_margins={"ulicq": m_u, "llicq_at_xy": m_y, "llicq_at_xz": m_z},
        lscc_holds=check_lscc(partition),
        ssosc_min_eig=min_eig,
        ssosc_holds=holds,
        ssosc_subspace_dim=dim,
        ssosc_unperturbed_min_eig=star_eig,
        ssosc_augmented_min_eig=aug_eig,
    )
