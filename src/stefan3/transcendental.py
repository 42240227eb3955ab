"""Scalar reduction of the three-phase similarity system.

Everything the solvers need is expressed through a few scalar functions of
the front coefficients:

* phi(z) = z + (Ste1/sqrt(pi))*exp(-z^2)/erfc(z): the solid-side kernel.
* h(z) = erf(z*sigma2) - c*exp(-z^2 alpha1/alpha2)/phi(z): strictly
  increasing, and its unique positive zero ``z0`` bounds the admissible
  outer front coefficient from below.  Above z0, ``coef2_from_coef1``
  solves erf(coef2*sigma2) = h(z) for the inner coefficient matched to an
  outer one.  ``_h_kernel`` evaluates h and its slope for the z0 search.
* ``bc.law(ctx)``: the kinds differ only in the surface law theta*s +
  (1 - theta)*(T(0) - B) = n on the phase-3 amplitude s, and each datum
  class reads its own (theta, n): theta = 0 for an imposed temperature,
  1 for an imposed flux and k/(1 + k) for convective exchange, whose law
  lies between the other two: the paper's equivalence.  ``bc.bounds``
  names the datum with the Thresholds fields that bound its regimes.
* ``outer_residual``: the single remaining equation for the outer
  coefficient, one form for every kind, built once per solve: q(z) =
  (l1/l2) phi(z) exp(z^2 alpha1/alpha2) against the law at the matched
  inner coefficient.  It hoists every per-problem constant, evaluates
  phi once per point and returns the slope with the value.
* ``find_root_monotone``: Newton steps on those slopes inside a sign
  bracket, for z0 and for the outer coefficient.

The point-by-point forms live in the tests' reference module,
``tests/_reference.py``: ``phi``, ``h_func``, ``q_func`` and the law's
``law_residual``, which the fused kernels equal bit for bit, and the
paper's per-kind right-hand sides (``t_func``/``u_func``, ``v_func``,
``p_func``), whose equation has the same signs and root.
"""

from __future__ import annotations

import math
import weakref
from typing import Callable, ClassVar, Optional

from . import specfun
from .errors import MissingBoundaryDatum, RootFailure, ValidationError
from .model import (
    BoundarySpec,
    MaterialProperties,
    PhaseTemps,
    _SQRT_PI,
    _Frozen,
    datum_violations,
    validate,
)

__all__ = ["ProblemContext", "find_root_monotone"]

# exp() saturation guard: bracket doubling can probe arguments far past the
# root, where the true value overflows float64.  Saturating keeps the sign
# information the root search needs without raising OverflowError.
_EXP_CAP = 690.0

# Substitute inverse when the complementary tail underflows to zero; far
# beyond any value reachable from a finite tail (erfc_inv of the smallest
# subnormal is about 27.2, of the smallest normal double about 26.5).
_INNER_SATURATION = 30.0

# Steps the root search may take beyond bisection's count to narrow a sign
# bracket; past them it bisects, but for Newton steps that shrink fast.
_SPARE_STEPS = 4


class _cached:
    # functools.cached_property without the lock CPython 3.11 takes on each
    # first read: the value goes to the instance dict, which later reads hit
    def __init__(self, func):
        self.func, self.name, self.__doc__ = func, func.__name__, func.__doc__

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.func(instance)
        return value


class ProblemContext(_Frozen):
    """Validated, immutable bundle of one problem's data.

    Construction runs the full model validation, so any context that exists
    describes a well-posed problem, and keeps the material constants of
    ``model.material_constants`` that the validation derived, each finite
    and positive.  The zero ``z0``, the one constant that needs a search,
    and the material's flux thresholds are computed on first use and
    cached; ``solution`` is the solver's result, held weakly.
    """

    _fields = ("props", "temps", "bc")

    def __init__(self, props: MaterialProperties, temps: PhaseTemps,
                 bc: Optional[BoundarySpec] = None):
        violations = validate(props, temps, bc, vars(self))
        if violations:
            raise ValidationError(violations)
        vars(self).update(props=props, temps=temps, bc=bc)

    @_cached
    def z0(self) -> float:
        """Unique positive zero of h, found by find_root_monotone."""
        return find_root_monotone(_h_kernel(self), 0.0)

    @_cached
    def _thresholds(self) -> tuple[float, float, float]:
        # (z0, q1, q2), the material's part of solver.thresholds; q2 divides
        # by sqrt(pi*alpha2)*erf(z0*sigma2), 0 where z0 rounds to 0
        p, t, z0 = self.props, self.temps, self.z0
        g = math.sqrt(self.alpha2 * math.pi) * specfun.erf(z0 * self.sigma2)
        if not g > 0.0:
            raise RootFailure("unresolved", f"q2's divisor is {g!r} at z0 = {z0!r}")
        return (z0, p.k1 * (t.C - t.D) / math.sqrt(math.pi * self.alpha1),
                p.k2 * (t.B - t.C) / g)

    # the solver's ThreePhaseSolution, which refers back to this context,
    # held weakly so that the pair is freed without the cycle collector
    _solution: ClassVar[Optional[weakref.ref]] = None

    @property
    def solution(self) -> Optional["ThreePhaseSolution"]:
        """The recorded solution while a caller holds it, else None."""
        return self._solution and self._solution()

    def with_bc(self, bc: Optional[BoundarySpec]) -> "ProblemContext":
        """Same material and temperatures under another boundary datum.

        Only the new datum is checked, against this already valid material:
        an invalid one raises the ValidationError a fresh context would.
        The new context inherits the material constants, and z0 and the
        flux thresholds once this one has computed them, and no solution.
        """
        violations = datum_violations(self.temps, bc)
        if violations:
            raise ValidationError(violations)
        ctx = object.__new__(ProblemContext)
        vars(ctx).update(vars(self), bc=bc, _solution=None)
        return ctx


def coef2_from_coef1(z: float, ctx: ProblemContext) -> float:
    """Inner-front coefficient matched to an outer coefficient z > z0.

    Solves erf(coef2 * sqrt(alpha1/alpha2)) = h(z) for coef2.  The
    inversion goes through the complementary tail erfc = 1 - h, which
    keeps full precision where h is within rounding distance of 1;
    forming 1 - h after the fact would lose the answer entirely there.
    The tail is formed as outer_residual forms it, to the bit.  Raises
    ValueError for z < 0, and where z is so far below z0 that h(z) < -1.
    """
    if z < 0.0:
        raise ValueError("coef2_from_coef1 is defined for z >= 0")
    ph = z + ctx.ste1 / _SQRT_PI * specfun._inv_erfcx(z)
    u = ctx._h_offset_coef * math.exp(-z * z * ctx.alpha1 / ctx.alpha2) / ph
    tail = specfun.erfc(z * ctx.sigma2) + u
    if tail <= 0.0:
        scaled = _INNER_SATURATION
    elif tail >= 2.0:
        raise ValueError("h(z) < -1: z is far below z0")
    else:
        scaled = specfun.erfc_inv(tail)
    return math.sqrt(ctx.alpha2 / ctx.alpha1) * scaled


def _h_kernel(ctx: ProblemContext) -> Callable[[float], tuple[float, float]]:
    # (h, h') for z >= 0 with the per-material constants hoisted.  The
    # kernels are bound here, once per search, so wrappers installed on
    # specfun see every call.  With g = exp(-z^2)/erfc(z), phi = z + ste*g,
    # x = exp(-z^2 alpha1/alpha2) and u = offset*x/phi (the term h
    # subtracts): g' = g*((2/sqrt(pi))*g - 2z), phi' = 1 + ste*g' and h' =
    # (2 sigma2/sqrt(pi))*x + u*(2z sigma2^2 + phi'/phi).
    erf, inv_erfcx, exp = specfun.erf, specfun._inv_erfcx, math.exp
    a1, a2, _ = ctx.alphas
    sigma2, offset = ctx.sigma2, ctx._h_offset_coef
    ste = ctx.ste1 / _SQRT_PI
    rate, peak = 2.0 * a1 / a2, 2.0 / _SQRT_PI * sigma2
    ste_g, ste_z = 2.0 / _SQRT_PI * ste, 2.0 * ste

    def h(z: float) -> tuple[float, float]:
        g = inv_erfcx(z)
        ph = z + ste * g
        x = exp(-z * z * a1 / a2)
        u = offset * x / ph
        dph = 1.0 + g * (ste_g * g - ste_z * z)
        return erf(z * sigma2) - u, peak * x + u * (rate * z + dph / ph)

    return h


def outer_residual(ctx: ProblemContext) -> Callable[[float], tuple[float, float]]:
    """The outer-coefficient equation, the same for every boundary kind.

    Returns a function of the outer coefficient z > z0 that gives (value,
    slope) of a strictly increasing residual whose zero is the solved coef1:

        w*(q(z) + m*exp(m^2 alpha1/alpha2)) - d*n*exp(-m^2 (alpha1/alpha3
        - alpha1/alpha2))

    at m = max(coef2_from_coef1(z), 0), with (theta, n) = ctx.bc.law(ctx),
    w = theta + (1 - theta)*erf(m*sigma3) in (0, 1] and d =
    sqrt(k3 c1 c3/k1)/(l2 sqrt(pi)).  It is the phase-2/3 energy balance
    with s = n/w, times w, so it stays finite at m = 0.  The law is read
    and every per-problem constant computed when the function is built,
    phi runs once per evaluation and erf does not run for theta = 1.  The
    slope is the chain rule through m, from values the evaluation already
    has; past the exp() cap it keeps only its sign.  The specfun kernels
    are bound when it is built, so build one per solve.

    Raises:
        MissingBoundaryDatum: The context has no boundary datum.
    """
    if ctx.bc is None:
        raise MissingBoundaryDatum("the operation needs a boundary datum")
    theta, n = ctx.bc.law(ctx)
    erf, erfc, erfc_inv = specfun.erf, specfun.erfc, specfun.erfc_inv
    inv_erfcx, exp = specfun._inv_erfcx, math.exp
    p = ctx.props
    a1, a2, a3 = ctx.alphas
    sigma2, sigma3, offset = ctx.sigma2, ctx.sigma3, ctx._h_offset_coef
    ste = ctx.ste1 / _SQRT_PI
    latent = p.l1 / p.l2
    inner_scale = math.sqrt(a2 / a1)
    rest, spread = 1.0 - theta, a1 / a3 - a1 / a2
    drive = n / (p.l2 * _SQRT_PI) * math.sqrt(p.k3 * p.c1 * p.c3 / p.k1)
    # the slope's constants: _h_kernel's, m' = pull*h'*exp(m^2 alpha1/alpha2)
    # from erf(m*sigma2) = h(z), and those of w' and of the drive's exp
    rate, peak = 2.0 * a1 / a2, 2.0 / _SQRT_PI * sigma2
    ste_g, ste_z = 2.0 / _SQRT_PI * ste, 2.0 * ste
    pull, rest_peak = inner_scale * _SQRT_PI / 2.0, rest * 2.0 / _SQRT_PI * sigma3
    drive_spread = 2.0 * drive * spread

    def residual(z: float) -> tuple[float, float]:
        e = z * z * a1 / a2
        g = inv_erfcx(z)
        ph = z + ste * g
        x = exp(-e)
        u = offset * x / ph
        # coef2_from_coef1's complementary tail, then its inversion, which
        # raises ValueError for a tail of 2 or more (z far below z0)
        tail = erfc(z * sigma2) + u
        scaled = erfc_inv(tail) if tail > 0.0 else _INNER_SATURATION
        m = max(inner_scale * scaled, 0.0)
        w = theta + rest * erf(m * sigma3) if rest else 1.0
        big_m = exp(min(m * m * a1 / a2, _EXP_CAP))
        q = latent * ph * exp(min(e, _EXP_CAP))
        left, far = q + m * big_m, exp(-m * m * spread)
        # the slope by the chain rule, with k = q'/q and h' = peak*x + u*k
        # as in _h_kernel, and exp(-m^2 alpha1/alpha3) = far/big_m in w'
        k = rate * z + (1.0 + g * (ste_g * g - ste_z * z)) / ph
        dm = pull * (peak * x + u * k) * big_m
        return w * left - drive * far, w * q * k + dm * (
            rest_peak * far / big_m * left + w * big_m * (1.0 + rate * m * m)
            + drive_spread * m * far)

    return residual


def find_root_monotone(
    f: Callable[[float], tuple[float, float]], lo: float
) -> float:
    """Root of a monotone function by Newton steps inside a sign bracket.

    f returns (value, slope): a scalar f fails, and there is no tolerance
    argument.  Each step is Newton's from the bracket end with the smaller
    |f| (rtsafe; Press et al., Numerical Recipes, 9.4).  A step falls back
    to the midpoint if it leaves the bracket or is not below half the step
    before last (Brent, 1973).  It also falls back while the bracket is
    wider than bisection's after as many steps and _SPARE_STEPS more, so
    the worst case stays near bisection's count; a step of at most a
    quarter of the Newton step before it passes that test anyway, since
    Newton converging from one side leaves the far end in place.

    Until the sign changes, Newton runs from lo capped at the next doubling
    end (1, or lo + 1 for lo >= 1), which is evaluated, then doubled at
    most 200 times, only where a step falls back; a step that crosses the
    root first saves f(1).  The search stops only inside a sign bracket,
    once the Newton step from an evaluated end is at most 4 units in the
    last place.  The result is bit-reproducible.

    Returns:
        The end of that last step, a point where f is 0, or, where float
        spacing cannot split the bracket, its end with the smaller |f|.

    Raises:
        RootFailure: reason "no_sign_change" when doubling exhausts its
            budget, "non_finite" when f returns NaN or infinity.
    """

    inf, nan = math.inf, math.nan
    zl = None  # the end on lo's side of the root, once evaluated
    zh, fh = 1.0 if lo < 1.0 else lo + 1.0, inf
    bracketed, doublings, cap = False, 0, inf
    step = older = zh - lo
    last = 0.0  # the Newton step before, 0 after any other
    t = lo
    while True:
        ft, dt = f(t)
        if not -inf < ft < inf:
            raise RootFailure("non_finite", f"f({t!r}) = {ft!r} during root search")
        if ft == 0.0:
            return t
        if zl is None:
            zl, fl, dl = t, ft, dt
        elif (ft > 0.0) == (fl > 0.0):
            if t == zh:
                doublings += 1
                if doublings > 200:
                    raise RootFailure(
                        "no_sign_change",
                        f"no sign change on [{lo!r}, {zh!r}] after 200 doublings",
                    )
                zh *= 2.0
            zl, fl, dl = t, ft, dt
        else:
            if not bracketed:
                bracketed, cap = True, (t - zl) * 2.0**_SPARE_STEPS
            zh, fh, dh = t, ft, dt
        if abs(fl) <= abs(fh):
            x, fx, dx = zl, fl, dl
        else:
            x, fx, dx = zh, fh, dh
        if 0.0 < abs(dx) < inf:
            s = fx / dx
            size = abs(s)
            t = x - s
        else:
            t = size = nan
        fast = size <= 0.25 * last
        if bracketed and zl <= t <= zh and size <= 4.0 * math.ulp(t):
            return t
        elif zl < t < zh and size < 0.5 * older and (fast or zh - zl <= cap):
            older, step, last = step, size, size
        elif not bracketed:
            t, last = zh, 0.0
            step = older = zh - zl
        else:
            t, last = 0.5 * (zl + zh), 0.0
            if t == zl or t == zh:
                return x  # float spacing exhausted
            step = older = t - zl
        cap *= 0.5
