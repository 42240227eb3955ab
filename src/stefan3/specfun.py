"""Error-function kernel used by every similarity-solution formula.

The C library's ``erf``/``erfc`` under the names callers use, plus inverse
functions.  The inverses are bracketed Newton iterations, so they stay
inside the open domain no matter how poor the starting guess is.
"""

from __future__ import annotations

import math

_SQRT_PI = math.sqrt(math.pi)

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


def erf_inv(p: float) -> float:
    """Inverse error function on the open interval (-1, 1).

    A closed-form initial approximation is polished by a Newton iteration
    that is safeguarded with a hard bracket: any step leaving the bracket is
    replaced by its midpoint, so convergence is unconditional.

    Args:
        p: Target value, must satisfy |p| < 1.

    Returns:
        x with erf(x) = p.

    Raises:
        ValueError: If p is outside (-1, 1) or not finite.
    """
    if not math.isfinite(p) or abs(p) >= 1.0:
        raise ValueError(f"erf_inv domain is (-1, 1), got {p!r}")
    if p == 0.0:
        return 0.0
    a = abs(p)

    # Winitzki-style seed, good to a few 1e-3 everywhere on (0, 1).
    w = math.log1p(-a * a)
    t = 2.0 / (math.pi * 0.147) + 0.5 * w
    x = math.sqrt(math.sqrt(t * t - w / 0.147) - t)

    lo, hi = 0.0, 6.0  # erf(6) rounds to 1.0, so f(hi) > 0 for every valid p
    for _ in range(50):
        f = math.erf(x) - a
        if f > 0.0:
            hi = x
        elif f < 0.0:
            lo = x
        else:
            break
        step = f * 0.5 * _SQRT_PI * math.exp(x * x)
        xn = x - step
        if not lo < xn < hi:
            xn = 0.5 * (lo + hi)
        if abs(xn - x) <= 1e-15 * max(1.0, abs(x)):
            x = xn
            break
        x = xn
    return math.copysign(x, p)


def erfc_inv(y: float) -> float:
    """Inverse complementary error function on (0, 2).

    The small-y tail is solved in log space, where the equation
    log(erfc(x)) = log(y) stays well scaled down to the smallest positive
    doubles.  This is what lets callers invert values near saturation
    without losing the answer to rounding in 1 - y.

    Args:
        y: Target value, must satisfy 0 < y < 2.

    Returns:
        x with erfc(x) = y.

    Raises:
        ValueError: If y is outside (0, 2) or not finite.
    """
    if not math.isfinite(y) or not 0.0 < y < 2.0:
        raise ValueError(f"erfc_inv domain is (0, 2), got {y!r}")
    if y == 1.0:
        return 0.0
    if y > 1.0:
        return -erfc_inv(2.0 - y)
    if y >= 1e-4:
        return erf_inv(1.0 - y)

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
