"""Error-function kernel used by every similarity-solution formula.

The C library's ``erf``/``erfc`` under the names callers use, plus their
inverses.  An inverse takes a closed-form seed and one Halley step on
whichever of erf and erfc is well conditioned at the answer, with no loop;
only the tail below erfc_inv's seed floor is solved by Newton in log space.
"""

from __future__ import annotations

import math

_SQRT_PI = math.sqrt(math.pi)
_HALF_SQRT_PI = 0.5 * _SQRT_PI

# erfc_inv's seed is good to ~1.3e-7 down to this tail and loses digits
# fast below it, where one step would no longer reach full precision.
_SEED_FLOOR = 1e-7

# The C library's erf and erfc return their limits (+-1, 0 and 2) for
# arguments of any size, infinities included, and pass NaN through, so
# callers may pass the unbounded arguments produced by bracket doubling.
# Callers look both names up here at call time: a wrapper installed on
# this module sees every call.
erf = math.erf
erfc = math.erfc


def _inv_erfcx(x: float) -> float:
    """exp(-x^2)/erfc(x) for x >= 0 without forming either factor alone.

    For x <= 6 the direct quotient is exact enough.  Above that both factors
    underflow long before the quotient does, so use the asymptotic series
    erfc(x) ~ exp(-x^2)/(x sqrt(pi)) * S(x) and return x*sqrt(pi)/S, summing
    S adaptively until terms stop shrinking.
    """
    if x <= 6.0:
        return math.exp(-x * x) / math.erfc(x)
    inv2 = 1.0 / (2.0 * x * x)
    s = 1.0
    term = 1.0
    n = 1
    while True:
        term *= -(2 * n - 1) * inv2
        if abs(term) < 1e-17 * abs(s):
            break
        s += term
        n += 1
        if n > 40:  # series turned divergent; truncation error is already tiny
            break
    return x * _SQRT_PI / s


def _seed(w: float) -> float:
    """erfinv(a)/a as a function of w = -log((1 - a)(1 + a)), |a| <= 1 - 1e-7.

    The two single-precision polynomials of Giles, "Approximating the erfinv
    function", GPU Computing Gems (2011): relative error ~1.3e-7.
    """
    if w < 5.0:
        w -= 2.5
        return ((((((((2.81022636e-08 * w + 3.43273939e-07) * w - 3.5233877e-06)
                     * w - 4.39150654e-06) * w + 0.00021858087) * w
                   - 0.00125372503) * w - 0.00417768164) * w + 0.246640727)
                * w + 1.50140941)
    w = math.sqrt(w) - 3.0
    return ((((((((-0.000200214257 * w + 0.000100950558) * w + 0.00134934322)
                 * w - 0.00367342844) * w + 0.00573950773) * w - 0.0076224613)
               * w + 0.00943887047) * w + 1.00167406) * w + 2.83297682)


def erf_inv(p: float) -> float:
    """Inverse error function on the open interval (-1, 1).

    For |p| <= 1/2, the seed and one Halley step on erf(x) - p; beyond that,
    erfc_inv(1 - |p|), where 1 - |p| is exact.  Odd to the last bit.

    Raises:
        ValueError: If p is outside (-1, 1) or not finite.
    """
    if not -1.0 < p < 1.0:
        raise ValueError(f"erf_inv domain is (-1, 1), got {p!r}")
    if abs(p) > 0.5:
        return math.copysign(erfc_inv(1.0 - abs(p)), p)
    x = p * _seed(-math.log1p(-p * p))
    # Halley's step x - r/(1 - r*f''/(2f')) with r = f/f' and f''/f' = -2x
    r = (math.erf(x) - p) * _HALF_SQRT_PI * math.exp(x * x)
    return x - r / (1.0 + x * r)


def erfc_inv(y: float) -> float:
    """Inverse complementary error function on (0, 2).

    erfc_inv(y) = -erfc_inv(2 - y) for y > 1.  From 1/2 to 1 it takes one
    Halley step on erf(x) - (1 - y), where 1 - y is exact; below 1/2 one
    step on erfc(x) - y itself, so no rounding of 1 - y costs the tail its
    digits.  Both start from the seed at w = -log(y(2 - y)).  Below the
    seed's floor, Newton solves log(erfc(x)) = log(y), which stays well
    scaled down to the smallest positive doubles, so callers may invert
    values near saturation.

    Raises:
        ValueError: If y is outside (0, 2) or not finite.
    """
    if not 0.0 < y < 2.0:
        raise ValueError(f"erfc_inv domain is (0, 2), got {y!r}")
    if y > 1.0:
        return -erfc_inv(2.0 - y)
    if y >= _SEED_FLOOR:
        a = 1.0 - y
        x = a * _seed(-math.log(y * (2.0 - y)))
        f = math.erf(x) - a if y >= 0.5 else y - math.erfc(x)
        r = f * _HALF_SQRT_PI * math.exp(x * x)
        return x - r / (1.0 + x * r)

    # Newton on g(x) = log(erfc(x)) - log(y); g'(x) = -(2/sqrt(pi)) * r(x)
    # with r = exp(-x^2)/erfc(x), all finite even when erfc(x) underflows.
    log_y = math.log(y)
    x = math.sqrt(-log_y)
    for _ in range(50):
        r = _inv_erfcx(x)
        g = -x * x - math.log(r) - log_y
        step = g * _SQRT_PI / (2.0 * r)
        x += step
        if abs(step) <= 1e-16 * x:
            break
    return x
