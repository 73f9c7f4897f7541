"""Unit and property tests for the scalar complementarity machinery."""
import math
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bilevel_newton import fb, pair_coeffs
from bilevel_newton.complementarity import KINK_A, KINK_B, KINK_TOL


def test_fb_simple_values():
    assert fb(0.0, 0.0) == 0.0
    assert fb(3.0, 4.0) == pytest.approx(-2.0, abs=1e-15)
    assert fb(-2.0, 0.0) == pytest.approx(4.0, abs=1e-15)


def test_fb_zero_on_exact_complementary_pairs():
    for a, b in [(0.0, 0.0), (3.0, 0.0), (0.0, 2.0), (1e-3, 0.0), (0.0, 7.5)]:
        assert abs(fb(a, b)) <= 1e-12


def test_fb_characterization_property():
    # 1e4 random pairs: |fb| <= 1e-9 iff approximate complementarity
    rng = np.random.default_rng(42)
    pts = rng.uniform(-5, 5, size=(10_000, 2))
    for a, b in pts:
        lhs = abs(fb(a, b)) <= 1e-9
        rhs = a >= -1e-6 and b >= -1e-6 and abs(a * b) <= 1e-6
        assert lhs == rhs, (a, b)


def test_fb_lipschitz_on_samples():
    rng = np.random.default_rng(3)
    for _ in range(2000):
        a, b, a2, b2 = rng.uniform(-10, 10, 4)
        assert abs(fb(a, b) - fb(a2, b2)) <= 3 * math.hypot(a - a2, b - b2) + 1e-12


def test_pair_coeffs_inactive_constraint():
    a, b = pair_coeffs(-2.0, 0.0)
    assert a == pytest.approx(0.0, abs=1e-15)
    assert b == pytest.approx(-1.0, abs=1e-15)


def test_pair_coeffs_active_positive_multiplier():
    a, b = pair_coeffs(0.0, 3.0)
    assert a == pytest.approx(1.0, abs=1e-15)
    assert b == pytest.approx(0.0, abs=1e-15)


def test_pair_coeffs_smooth_branch_value():
    a, b = pair_coeffs(3.0, 4.0)
    assert a == pytest.approx(1.6, abs=1e-15)
    assert b == pytest.approx(-0.2, abs=1e-15)


def test_pair_coeffs_kink_element():
    a, b = pair_coeffs(0.0, 0.0)
    assert a == pytest.approx(1 - math.sqrt(2) / 2, abs=1e-15)
    assert b == pytest.approx(math.sqrt(2) / 2 - 1, abs=1e-15)
    # boundary point of the admissible disc
    assert (a - 1) ** 2 + (b + 1) ** 2 == pytest.approx(1.0, abs=1e-14)
    assert (KINK_A, KINK_B) == (a, b)
    # regularity.diagnose adds -lam * (-b / a) = -lam per follower kink to the second-order form
    assert -KINK_B / KINK_A == 1.0


def test_pair_coeffs_matches_finite_differences_off_kink():
    # coefficients are the partials of (c, mult) -> fb(-c, mult)
    rng = np.random.default_rng(5)
    h = 1e-7
    for _ in range(500):
        c, mult = rng.uniform(-4, 4, 2)
        if math.hypot(c, mult) < 1e-3:
            continue
        a, b = pair_coeffs(c, mult)
        da = (fb(-(c + h), mult) - fb(-(c - h), mult)) / (2 * h)
        db = (fb(-c, mult + h) - fb(-c, mult - h)) / (2 * h)
        assert da == pytest.approx(a, rel=1e-6, abs=1e-6)
        assert db == pytest.approx(b, rel=1e-6, abs=1e-6)


def test_pair_coeffs_always_in_disc():
    rng = np.random.default_rng(9)
    for _ in range(2000):
        c, mult = rng.uniform(-50, 50, 2)
        a, b = pair_coeffs(c, mult)
        assert (a - 1) ** 2 + (b + 1) ** 2 <= 1 + 1e-12


# signed zeros, the smallest and largest subnormals, huge values, the tolerance itself
_EDGE_VALUES = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, -2.2250738585072009e-308,
                1e300, -1e300, KINK_TOL, -KINK_TOL)
_finite = st.one_of(st.sampled_from(_EDGE_VALUES), st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def _near_kink_tol(draw):
    """A pair whose hypot lies a few ulps to a part in 1e6 above or below KINK_TOL."""
    radius = KINK_TOL * draw(st.sampled_from((1 - 1e-6, 1 - 4e-16, 1 - 2e-16, 1.0, 1 + 2e-16, 1 + 4e-16, 1 + 1e-6)))
    angle = draw(st.floats(min_value=-math.pi, max_value=math.pi))
    return radius * math.cos(angle), radius * math.sin(angle)


@settings(max_examples=500, deadline=None)
@given(pair=st.one_of(st.tuples(_finite, _finite), _near_kink_tol()))
def test_pair_coeffs_disc_and_magnitude_property(pair):
    # every row lies in the coefficient disc, so one of |a|, |b| is at
    # least 1 - 1/sqrt(2), the smallest max(|a|, |b|) over the disc
    a, b = pair_coeffs(*pair)
    assert (a - 1) ** 2 + (b + 1) ** 2 <= 1 + 1e-12
    assert max(abs(a), abs(b)) >= 1 - 1 / math.sqrt(2) - 1e-12


_DBL_MAX = sys.float_info.max


@st.composite
def _near_power_of_two(draw):
    """A power of two from 2^-1074 to 2^1023 or one of its two neighbours, either sign."""
    x = math.ldexp(1.0, draw(st.integers(-1074, 1023)))
    x = draw(st.sampled_from((math.nextafter(x, 0.0), x, math.nextafter(x, math.inf))))
    return draw(st.sampled_from((x, -x)))


@st.composite
def _c_and_negative_mu(draw):
    """A finite constraint value c, signed zeros and +-DBL_MAX included, and
    a multiplier mu < 0: drawn freely, or |c| 2^-k (k = 0..80) and its two
    neighbours."""
    c = draw(st.one_of(st.sampled_from((0.0, -0.0, _DBL_MAX, -_DBL_MAX, 5e-324, -5e-324, 2.2250738585072009e-308)),
                       _near_power_of_two(), st.floats(allow_nan=False, allow_infinity=False)))
    if draw(st.booleans()):
        mu = -abs(c) * math.ldexp(1.0, -draw(st.integers(0, 80)))
        mu = draw(st.sampled_from((mu, math.nextafter(mu, 0.0), math.nextafter(mu, -math.inf))))
    else:
        mu = -abs(draw(st.one_of(st.sampled_from((5e-324, _DBL_MAX)), _near_power_of_two(),
                                 st.floats(allow_nan=False, allow_infinity=False))))
    assume(math.isfinite(mu) and mu < 0)
    return c, mu


@settings(max_examples=500, deadline=None)
@given(pair=_c_and_negative_mu())
@example(pair=(-_DBL_MAX, -5e-324))
@example(pair=(_DBL_MAX, -_DBL_MAX))
@example(pair=(-0.0, -1.0))
@example(pair=(-1.0, -2.0**-80))
def test_a_negative_multiplier_bounds_its_row_below(pair):
    # the lemma behind the line search's sign test: hypot as computed is at
    # least max(|c|, |mu|), so fl(h + c) >= 0 and fb(-c, mu) >= -mu
    c, mu = pair
    assert math.hypot(c, mu) >= max(abs(c), abs(mu))
    assert fb(-c, mu) >= -mu


def test_fb_overflow_safe():
    assert np.isfinite(fb(1e200, -1e200))
