"""Scalar reduction of the three-phase similarity system.

Everything the solvers need is expressed through a few scalar functions of
the front coefficients:

* ``phi``: strictly increasing kernel entering the solid-side balance.
* h(z) = erf(z*sigma2) - c*exp(-z^2 alpha1/alpha2)/phi(z): strictly
  increasing, and its unique positive zero ``z0`` bounds the admissible
  outer front coefficient from below.  Above z0, ``coef2_from_coef1``
  solves erf(coef2*sigma2) = h(z) for the inner coefficient matched to an
  outer one.  ``_h_kernel`` evaluates h for the z0 search.
* ``SurfaceLaw``: one record per boundary kind, looked up by the datum's
  class through ``surface_law``.  The kinds differ only in the surface
  law theta*s + (1 - theta)*(T(0) - B) = n on the phase-3 amplitude s, and
  the record reads (theta, n) off the datum: theta = 0 for an imposed
  temperature, 1 for an imposed flux and k/(1 + k) for convective
  exchange, whose law lies between the other two: the paper's equivalence.
* ``outer_residual``: the single remaining equation for the outer
  coefficient, one form for every kind, built once per solve: q(z) =
  (l1/l2) phi(z) exp(z^2 alpha1/alpha2) against the law at the matched
  inner coefficient.  It hoists every per-problem constant and evaluates
  phi once per point.

The point-by-point forms live in the tests' reference module,
``tests/_reference.py``: ``h_func``, ``q_func`` and the law's
``law_residual``, which the fused kernels equal bit for bit, and the
paper's per-kind right-hand sides (``t_func``/``u_func``, ``v_func``,
``p_func``), whose equation has the same signs and root.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from typing import Callable, ClassVar, NamedTuple, Optional

from . import specfun
from .errors import MissingBoundaryDatum, RootFailure, ValidationError
from .model import (
    BoundarySpec,
    Dirichlet,
    MaterialProperties,
    Neumann,
    PhaseTemps,
    Robin,
    StefanNumbers,
    datum_violations,
    diffusivities,
    require_valid,
    stefan_numbers,
)

_SQRT_PI = math.sqrt(math.pi)

# exp() saturation guard: bracket doubling can probe arguments far past the
# root, where the true value overflows float64.  Saturating keeps the sign
# information the root search needs without raising OverflowError.
_EXP_CAP = 690.0

# Substitute inverse when the complementary tail underflows to zero; far
# beyond any value reachable from a finite tail (erfc_inv of the smallest
# subnormal is about 27.2, of the smallest normal double about 26.5).
_INNER_SATURATION = 30.0

# The root search may stop once its bracket is this narrow.
_XTOL = 1e-14

# Steps the root search may take beyond bisection's count on its way to an
# _XTOL-wide bracket; they are the room its interpolation steps get.
_SLACK_STEPS = 4


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


def _exp_capped(x: float) -> float:
    return math.exp(min(x, _EXP_CAP))


@dataclass(frozen=True)
class ProblemContext:
    """Validated, immutable bundle of one problem's data.

    Construction runs the full model validation, so any context that exists
    describes a well-posed problem.  Derived constants and the zero ``z0``
    are computed once, cached on the instance, from the material and
    temperatures alone; ``solution`` is the solver's result, held weakly.
    """

    props: MaterialProperties
    temps: PhaseTemps
    bc: Optional[BoundarySpec] = None

    def __post_init__(self):
        require_valid(self.props, self.temps, self.bc)

    @_cached
    def alphas(self) -> tuple[float, float, float]:
        return diffusivities(self.props)

    @property
    def alpha1(self) -> float:
        return self.alphas[0]

    @property
    def alpha2(self) -> float:
        return self.alphas[1]

    @property
    def alpha3(self) -> float:
        return self.alphas[2]

    @_cached
    def _stefan(self) -> StefanNumbers:
        return stefan_numbers(self.props, self.temps)

    @property
    def ste1(self) -> float:
        return self._stefan.ste1

    @property
    def ste2(self) -> float:
        return self._stefan.ste2

    @_cached
    def sigma2(self) -> float:
        # sqrt(alpha1/alpha2): rescales an outer-front coefficient into the
        # similarity variable of phase 2
        return math.sqrt(self.alpha1 / self.alpha2)

    @_cached
    def sigma3(self) -> float:
        return math.sqrt(self.alpha1 / self.alpha3)

    @_cached
    def _h_offset_coef(self) -> float:
        p = self.props
        return (
            self.ste2
            / _SQRT_PI
            * (p.l2 / p.l1)
            * math.sqrt(p.k2 * p.c1 / (p.k1 * p.c2))
        )

    @_cached
    def z0(self) -> float:
        """Unique positive zero of h, found by find_root_monotone."""
        return find_root_monotone(_h_kernel(self), 0.0, tol=1e-13)

    @_cached
    def _erf_z0(self) -> float:
        # the phase-2 profile at z0, a factor of the critical flux q2 only;
        # everything else that depends on it reads q2
        return specfun.erf(self.z0 * self.sigma2)

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
        The new context inherits every material value this one has already
        computed, z0 included, and no solution.
        """
        violations = datum_violations(self.temps, bc)
        if violations:
            raise ValidationError(violations)
        ctx = object.__new__(ProblemContext)
        vars(ctx).update(vars(self), bc=bc, _solution=None)
        return ctx


def phi(z: float, ctx: ProblemContext) -> float:
    """phi(z) = z + (Ste1/sqrt(pi)) * exp(-z^2)/erfc(z), for z >= 0.

    Strictly increasing from phi(0) = Ste1/sqrt(pi); the quotient is
    evaluated in ratio form so large z does not underflow.
    """
    if z < 0.0:
        raise ValueError("phi is defined for z >= 0")
    return z + ctx.ste1 / _SQRT_PI * specfun._inv_erfcx(z)


def _h_subtracted(z: float, ctx: ProblemContext) -> float:
    # the strictly positive term subtracted from erf(z*sigma2) in h
    return (
        ctx._h_offset_coef
        * math.exp(-z * z * ctx.alpha1 / ctx.alpha2)
        / phi(z, ctx)
    )


def coef2_from_coef1(z: float, ctx: ProblemContext) -> float:
    """Inner-front coefficient matched to an outer coefficient z > z0.

    Solves erf(coef2 * sqrt(alpha1/alpha2)) = h(z) for coef2.  The
    inversion goes through the complementary tail erfc = 1 - h, which
    keeps full precision where h is within rounding distance of 1;
    forming 1 - h after the fact would lose the answer entirely there.
    """
    tail = specfun.erfc(z * ctx.sigma2) + _h_subtracted(z, ctx)
    if tail <= 0.0:
        scaled = _INNER_SATURATION
    elif tail >= 2.0:
        raise ValueError("h(z) < -1: z is far below z0")
    else:
        scaled = specfun.erfc_inv(tail)
    return math.sqrt(ctx.alpha2 / ctx.alpha1) * scaled


def _h_kernel(ctx: ProblemContext) -> Callable[[float], float]:
    # h for z >= 0 with the per-material constants hoisted.  The kernels
    # are bound here, once per search, so wrappers installed on specfun see
    # every call.
    erf, inv_erfcx = specfun.erf, specfun._inv_erfcx
    a1, a2, _ = ctx.alphas
    sigma2, offset = ctx.sigma2, ctx._h_offset_coef
    ste = ctx.ste1 / _SQRT_PI

    def h(z: float) -> float:
        return erf(z * sigma2) - offset * math.exp(-z * z * a1 / a2) / (
            z + ste * inv_erfcx(z)
        )

    return h


class SurfaceLaw(NamedTuple):
    """The surface condition of one boundary kind, as one linear law.

    Every kind imposes theta*s + (1 - theta)*(T(0) - B) = n on the surface
    temperature T(0) and the phase-3 amplitude s (the temperature falls by
    s*erf(eta3) from T(0), so T(0) - B = s*erf(coef2*sigma3)).  ``read(ctx)``
    gives (theta, n) for the context's datum: theta = 0 and n = A - B for an
    imposed temperature, theta = 1 and n = q0*sqrt(pi*alpha3)/k3 for an
    imposed flux, and in between, theta = k/(1 + k) and n = (A_inf - B)/(1 +
    k) with k = k3/(h0*sqrt(pi*alpha3)), for convective exchange.  The
    outer equation, the surface values and the verifier's check are derived
    from it for every kind alike.  ``bounds`` names the datum and the
    Thresholds fields bounding its regimes, or is None where every
    admissible datum melts both ways.
    """

    read: Callable[[ProblemContext], tuple[float, float]]
    bounds: Optional[tuple[str, str, str]]


def _robin_law(ctx: ProblemContext) -> tuple[float, float]:
    # h0*(A_inf - T(0)) = k3*s/sqrt(pi alpha3), that is A_inf - T(0) = k*s
    k = ctx.props.k3 / (ctx.bc.h0 * math.sqrt(math.pi * ctx.alpha3))
    return k / (1.0 + k), (ctx.bc.A_inf - ctx.temps.B) / (1.0 + k)


# boundary class -> its surface law, built once at import
_LAWS = {
    Robin: SurfaceLaw(_robin_law, ("h0", "h1", "h2")),
    Dirichlet: SurfaceLaw(lambda ctx: (0.0, ctx.bc.A - ctx.temps.B), None),
    Neumann: SurfaceLaw(
        lambda ctx: (
            1.0, ctx.bc.q0 * math.sqrt(math.pi * ctx.alpha3) / ctx.props.k3
        ),
        ("q0", "q1", "q2"),
    ),
}


def surface_law(bc: Optional[BoundarySpec]) -> SurfaceLaw:
    """The surface law of the datum's kind; MissingBoundaryDatum for None."""
    law = _LAWS.get(type(bc))
    if law is None:
        raise MissingBoundaryDatum("the operation needs a boundary datum")
    return law


def outer_residual(ctx: ProblemContext) -> Callable[[float], float]:
    """The outer-coefficient equation, the same for every boundary kind.

    Returns a strictly increasing function of the outer coefficient z > z0
    whose zero is the solved coef1:

        w*(q(z) + m*exp(m^2 alpha1/alpha2)) - d*n*exp(-m^2 (alpha1/alpha3
        - alpha1/alpha2))

    at m = max(coef2_from_coef1(z), 0), with (theta, n) the datum's
    surface law, w = theta + (1 - theta)*erf(m*sigma3) in (0, 1] and d =
    sqrt(k3 c1 c3/k1)/(l2 sqrt(pi)).  It is the phase-2/3 energy balance
    with s = n/w, times w, so it stays finite at m = 0.  The law is read
    and every per-problem constant computed when the function is built,
    phi runs once per evaluation and erf does not run for theta = 1.  The
    specfun kernels are bound when it is built, so build one per solve.

    Raises:
        MissingBoundaryDatum: The context has no boundary datum.
    """
    theta, n = surface_law(ctx.bc).read(ctx)
    erf, erfc, erfc_inv = specfun.erf, specfun.erfc, specfun.erfc_inv
    inv_erfcx = specfun._inv_erfcx
    p = ctx.props
    a1, a2, a3 = ctx.alphas
    sigma2, sigma3, offset = ctx.sigma2, ctx.sigma3, ctx._h_offset_coef
    ste = ctx.ste1 / _SQRT_PI
    latent = p.l1 / p.l2
    inner_scale = math.sqrt(a2 / a1)
    rest, spread = 1.0 - theta, a1 / a3 - a1 / a2
    drive = n / (p.l2 * _SQRT_PI) * math.sqrt(p.k3 * p.c1 * p.c3 / p.k1)

    def residual(z: float) -> float:
        e = z * z * a1 / a2
        ph = z + ste * inv_erfcx(z)
        # coef2_from_coef1's complementary tail, then its inversion, which
        # raises ValueError for a tail of 2 or more (z far below z0)
        tail = erfc(z * sigma2) + offset * math.exp(-e) / ph
        scaled = erfc_inv(tail) if tail > 0.0 else _INNER_SATURATION
        m = max(inner_scale * scaled, 0.0)
        w = theta + rest * erf(m * sigma3) if rest else 1.0
        return w * (
            latent * ph * _exp_capped(e) + m * _exp_capped(m * m * a1 / a2)
        ) - drive * math.exp(-m * m * spread)

    return residual


def find_root_monotone(
    f: Callable[[float], float], lo: float, tol: float = 1e-12
) -> float:
    """Root of a monotone function by a sign-bracketed interpolation search.

    The upper bracket starts at 1, or at lo + 1 when lo is 1 or more, and
    is doubled until the sign changes, at most 200 times; the last end
    that did not change sign becomes the lower end.  The search then keeps a
    bracket on which f changes sign.  Each step interpolates the
    inverse of f through the last three points (a secant through the
    bracket ends when that falls outside it) and takes the midpoint instead
    when the step is not below half the one before last, as Brent (1973)
    does.  An estimate closer than 5e-15 to the better end moves to 5e-15
    from it, toward the other end, so converging estimates move the far
    end too and the bracket closes.  Each point is then projected onto a
    shrinking interval around the midpoint, as in the ITP method (Oliveira
    and Takahashi, ACM TOMS 47(1), 2020).  That projection is the
    worst-case bound: where bisection needs n steps to narrow the bracket
    to 1e-14, this search needs at most n + 4, however f behaves.

    The search stops when the bracket is at most 1e-14 wide and the better
    end's residual is at most ``tol``.  Past 1e-14 it bisects until the
    residual bound holds or float spacing cannot split the bracket, as
    bisection does.  Every step is a fixed sequence of float operations,
    so the result is bit-reproducible.

    Returns:
        The bracket end with the smaller |f|, or a point where f is 0.

    Raises:
        RootFailure: reason "no_sign_change" when doubling exhausts its
            budget, "non_finite" when f returns NaN or infinity.
    """

    def check(value: float, where: float) -> float:
        if not math.isfinite(value):
            raise RootFailure(
                "non_finite", f"f({where!r}) = {value!r} during root search"
            )
        return value

    flo = check(f(lo), lo)
    if flo == 0.0:
        return lo
    hi = 1.0 if lo < 1.0 else lo + 1.0
    a, fa = lo, flo
    fhi = check(f(hi), hi)
    doublings = 0
    while (fhi > 0.0) == (flo > 0.0):
        if fhi == 0.0:
            return hi
        doublings += 1
        if doublings > 200:
            raise RootFailure(
                "no_sign_change",
                f"no sign change on [{lo!r}, {hi!r}] after 200 doublings",
            )
        a, fa = hi, fhi  # the root lies above every end already tried
        hi *= 2.0
        fhi = check(f(hi), hi)
    if fhi == 0.0:
        return hi

    b, fb = hi, fhi
    c = fc = None  # the bracket end replaced last
    # ITP's bound on the bracket width after the current step: it starts
    # 2**_SLACK_STEPS times above bisection's and halves with every step
    cap = (b - a) * 2.0 ** (_SLACK_STEPS - 1)
    step = older = b - a  # Brent's last two step lengths
    while True:
        best, fbest = (a, fa) if abs(fa) <= abs(fb) else (b, fb)
        mid = 0.5 * (a + b)
        if mid == a or mid == b:
            return best  # float spacing exhausted
        width = b - a
        if width > _XTOL:
            x = _interpolate(a, fa, b, fb, c, fc)
            if abs(x - best) < 0.5 * older:
                older, step = step, abs(x - best)
            else:
                x = mid
                older = step = 0.5 * width
            if abs(x - best) < 0.5 * _XTOL:
                x = best + math.copysign(0.5 * _XTOL, mid - best)
            radius = max(cap - 0.5 * width, 0.0)
            if abs(x - mid) > radius:
                x = mid + math.copysign(radius, x - mid)
            if not a < x < b:
                x = mid
        elif abs(fbest) <= tol:
            return best
        else:
            x = mid
        cap *= 0.5
        fx = check(f(x), x)
        if fx == 0.0:
            return x
        if (fx > 0.0) == (fa > 0.0):
            c, fc, a, fa = a, fa, x, fx
        else:
            c, fc, b, fb = b, fb, x, fx


def _interpolate(
    a: float,
    fa: float,
    b: float,
    fb: float,
    c: Optional[float],
    fc: Optional[float],
) -> float:
    # Inverse interpolation in Newton form, so no denominator is a product
    # that could underflow to zero: each is a difference of distinct floats.
    slope = (b - a) / (fb - fa)
    secant = a - fa * slope
    if c is not None and fc != fa and fc != fb:
        curve = ((c - b) / (fc - fb) - slope) / (fc - fa)
        x = secant + fa * fb * curve
        if a < x < b:
            return x
    return secant
