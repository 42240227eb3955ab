"""Error-function kernel: accuracy against mpmath, inverses, edge behavior."""

import math

import mpmath
import pytest
from hypothesis import given, strategies as st

from stefan3 import specfun, transcendental

mpmath.mp.dps = 30


def test_erf_known_value():
    assert specfun.erf(1.0) == pytest.approx(0.8427007929497149, abs=1e-15)


def test_erf_inv_known_value():
    assert specfun.erf_inv(0.5) == pytest.approx(0.4769362762044699, abs=1e-14)


def test_erf_matches_reference_on_grid():
    n = 2000
    for i in range(n + 1):
        x = -6.0 + 12.0 * i / n
        assert abs(specfun.erf(x) - float(mpmath.erf(x))) <= 1e-13


def test_erfc_matches_reference_including_tail():
    for x in [-6.0, -2.0, -0.5, 0.0, 0.5, 1.0, 3.0, 6.0, 10.0, 20.0, 26.0]:
        ref = float(mpmath.erfc(x))
        got = specfun.erfc(x)
        scale = max(abs(ref), 1e-300)
        assert abs(got - ref) / scale <= 1e-13


def test_short_circuit_beyond_huge_arguments():
    assert specfun.erf(39.0) == 1.0
    assert specfun.erf(-39.0) == -1.0
    assert specfun.erf(1e308) == 1.0
    assert specfun.erfc(39.0) == 0.0
    assert specfun.erfc(-1e15) == 2.0
    assert specfun.erf(math.inf) == 1.0
    assert specfun.erf(-math.inf) == -1.0
    assert specfun.erfc(math.inf) == 0.0
    assert specfun.erfc(-math.inf) == 2.0
    assert math.isnan(specfun.erf(math.nan))
    assert math.isnan(specfun.erfc(math.nan))


@given(st.floats(min_value=-6.0, max_value=6.0))
def test_erf_symmetry(x):
    assert specfun.erf(-x) == -specfun.erf(x)


@given(st.floats(min_value=-26.0, max_value=26.0))
def test_erf_erfc_complementarity(x):
    # the identity erf + erfc = 1 is exact to rounding wherever both are O(1)
    s = specfun.erf(x) + specfun.erfc(x)
    assert s == pytest.approx(1.0, abs=5e-16)


def test_erf_bounds_and_monotonicity():
    n = 4001
    prev = None
    for i in range(n):
        x = -6.0 + 12.0 * i / (n - 1)
        y = specfun.erf(x)
        assert -1.0 <= y <= 1.0
        if abs(y) < 1.0 - 1e-13:
            # strictly inside the bounds away from saturation
            assert -1.0 < y < 1.0
        if prev is not None:
            assert y >= prev
            if max(abs(y), abs(prev)) < 1.0 - 1e-13:
                assert y > prev
        prev = y


def test_erf_inv_round_trip_inner_range():
    n = 3000
    for i in range(n + 1):
        x = -3.0 + 6.0 * i / n
        assert abs(specfun.erf_inv(specfun.erf(x)) - x) <= 1e-10


def test_erf_inv_forward_round_trip():
    for i in range(1, 200):
        p = -0.995 + 1.99 * i / 200
        assert abs(specfun.erf(specfun.erf_inv(p)) - p) <= 1e-12


def test_erf_inv_rejects_boundary_and_outside():
    for bad in (-1.0, 1.0, -1.5, 2.0, math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError):
            specfun.erf_inv(bad)


def test_erf_inv_near_saturation():
    # inputs within a few ulp of 1 still invert to finite values
    p = 1.0 - 1e-15
    x = specfun.erf_inv(p)
    assert 5.0 < x < 6.0
    assert specfun.erf(x) == pytest.approx(p, abs=1e-15)


def test_erfc_inv_round_trip_wide_range():
    # spans the step on erf, the step on erfc, and the log-space tail
    for y in [1.9, 1.5, 1.0, 0.5, 1e-2, 1e-4, 1e-8, 1e-16, 1e-50, 1e-200, 1e-300]:
        x = specfun.erfc_inv(y)
        ref = float(mpmath.erfinv(mpmath.mpf(1) - mpmath.mpf(y))) if y >= 1e-2 else None
        if ref is not None:
            assert x == pytest.approx(ref, abs=1e-13, rel=1e-13)
        back = float(mpmath.erfc(x))
        assert back == pytest.approx(y, rel=1e-12)


def test_erfc_inv_rejects_outside():
    for bad in (0.0, -0.0, 2.0, -0.1, 2.5, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            specfun.erfc_inv(bad)


# Where erfc_inv changes method: the step on erf and the step on erfc meet
# at 1/2 (and 3/2 by reflection), the reflection at 1, the seed's two
# polynomials at y(2 - y) = exp(-5), and the log-space tail at the floor.
_SEAMS = (
    specfun._SEED_FLOOR,
    1.0 - math.sqrt(1.0 - math.exp(-5.0)),
    0.5,
    1.0,
    1.5,
    2.0 - specfun._SEED_FLOOR,
)


def _erfc_inv_reference(y, x):
    # Newton on erfc(x) = y at 50 digits from the float answer x
    with mpmath.workdps(50):
        y, x = mpmath.mpf(y), mpmath.mpf(x)
        scale = 2 / mpmath.sqrt(mpmath.pi)
        for _ in range(8):
            x += (mpmath.erfc(x) - y) / (scale * mpmath.exp(-x * x))
        return float(x)


def _ulps(got, ref):
    return abs(got - ref) / math.ulp(ref)


def test_erfc_inv_within_4_ulps_of_mpmath_over_its_domain():
    ys = [10.0 ** (-320.0 * i / 1200) for i in range(1, 1200)]  # (1e-320, 1)
    ys += [2.0 - y for y in ys if y >= 2.0 ** -52]  # (1, 2 - ulp]
    ys += [0.5 + i / 400 for i in range(400)]
    for seam in _SEAMS:
        ys += [math.nextafter(seam, 0.0), seam, math.nextafter(seam, 2.0)]
    ys += [5e-324, math.nextafter(2.0, 0.0)]  # smallest subnormal, 2 - ulp
    worst = (0.0, 0.0)
    for y in ys:
        x = specfun.erfc_inv(y)
        if y != 1.0:
            worst = max(worst, (_ulps(x, _erfc_inv_reference(y, x)), y))
    assert worst[0] <= 4.0, worst
    assert specfun.erfc_inv(1.0) == 0.0


def test_erfc_inv_of_the_extreme_inputs():
    # the smallest subnormal and the smallest normal double, both below
    # the substitute inverse transcendental._INNER_SATURATION
    assert specfun.erfc_inv(5e-324) == pytest.approx(27.2133, abs=1e-4)
    assert specfun.erfc_inv(2.2250738585072014e-308) == pytest.approx(26.5433, abs=1e-4)
    assert specfun.erfc_inv(5e-324) < transcendental._INNER_SATURATION
    top = math.nextafter(2.0, 0.0)
    assert specfun.erfc_inv(top) == -specfun.erfc_inv(2.0 - top)
    assert -6.0 < specfun.erfc_inv(top) < -5.0


def test_erf_inv_within_4_ulps_of_mpmath_over_its_domain():
    ps = [10.0 ** (-300.0 * i / 600) for i in range(1, 601)]  # [1e-300, 0.32]
    ps += [1.0 - 10.0 ** (-15.6 * i / 400) for i in range(1, 401)]  # to 1 - 2.5e-16
    ps += [0.5 + i / 400 for i in range(200)]
    ps += [math.nextafter(0.5, 0.0), math.nextafter(0.5, 1.0), math.nextafter(1.0, 0.0)]
    worst = (0.0, 0.0)
    with mpmath.workdps(50):
        for p in ps:  # the negative half is checked by oddness
            err = _ulps(specfun.erf_inv(p), float(mpmath.erfinv(mpmath.mpf(p))))
            worst = max(worst, (err, p))
    assert worst[0] <= 4.0, worst


def test_erfc_inv_strictly_decreasing_across_every_seam():
    for seam in _SEAMS:
        ys = [seam * (1.0 + k * 1e-13) for k in range(-300, 301)]
        xs = [specfun.erfc_inv(y) for y in ys]
        assert all(a > b for a, b in zip(xs, xs[1:])), seam


def test_erf_inv_is_odd_to_the_last_bit():
    for i in range(1, 2000):
        p = i / 2000
        assert specfun.erf_inv(-p) == -specfun.erf_inv(p)
    for p in (1e-300, 5e-324, math.nextafter(1.0, 0.0)):
        assert specfun.erf_inv(-p) == -specfun.erf_inv(p)


def test_inv_erfcx_continuity_at_switchover():
    # direct quotient below 6, asymptotic series above: they must agree
    for x in [5.999999, 6.0, 6.000001, 7.0, 10.0, 26.0]:
        ref = float(mpmath.exp(-mpmath.mpf(x) ** 2) / mpmath.erfc(mpmath.mpf(x)))
        assert specfun._inv_erfcx(x) == pytest.approx(ref, rel=1e-13)


@pytest.mark.parametrize("f, hi", [(specfun.erf, 2.0), (specfun.erfc, 26.0)])
def test_erf_and_erfc_solve_the_similarity_heat_equation(f, hi):
    # f'' + 2*eta*f' = 0 is what makes a + b*f(x/(2*sqrt(alpha*t))) a
    # solution of the heat equation, so verify's heat check takes it from
    # here.  Central differences over the eta the phases of a wide family
    # span, with a step that shrinks as 1/eta with the profile's own scale;
    # erf stops at 2, past which erf'' = -erfc'' is taken on erfc, which
    # holds its relative digits to the last normal erfc
    worst = 0.0
    for j in range(400):
        eta = 1e-3 * (hi / 1e-3) ** (j / 399)
        h = 3e-4 / max(1.0, eta)
        wm, w0, wp = f(eta - h), f(eta), f(eta + h)
        d_xx = (wp - 2.0 * w0 + wm) / (h * h)
        d_t = -eta * (wp - wm) / h
        worst = max(worst, abs(d_t - d_xx) / max(abs(d_t), abs(d_xx)))
    assert worst < 1e-6
