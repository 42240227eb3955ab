"""Front coefficients, regime thresholds, and temperature reconstruction.

A solved problem is its context and the pair of front coefficients
(coef1, coef2): the fronts move as x_i(t) = 2*coef_i*sqrt(alpha1*t) and the
temperature in each phase is an affine image of one error-function profile
in the similarity variable x/(2*sqrt(alpha_i*t)).  Everything else is
derived from those on first use.  The boundary kind enters only through
the datum's members bc.law(ctx) and bc.bounds, and through solve, which
calls solve_<kind> by its name in this module; one guard, _of_kind,
checks the datum's kind for those and for the named mappings.  Every
field evaluation runs through one grid generator, _grid: it checks and
orders a row of x values once, takes the fronts once per time, cuts the
row there into at most three phase slices and runs each through its
phase's kernel, a function bound once per solution to its constants, with
no per-point phase test.
"""

from __future__ import annotations

import enum
import math
import operator
import weakref
from bisect import bisect_right
from typing import NamedTuple, Optional, Sequence

from . import specfun
from .errors import MissingBoundaryDatum, RegimeError, RootFailure, ValidationError
from .model import Violation, _Frozen, config_to_dict, require_bulk
from .specfun import _inv_erfcx
from .transcendental import (
    ProblemContext,
    _cached,
    coef2_from_coef1,
    find_root_monotone,
    outer_residual,
)

__all__ = ["Regime", "ThreePhaseSolution", "Thresholds", "classify_regime",
           "evaluate_temperature", "free_boundaries", "perturbed", "solve",
           "solve_dirichlet", "solve_neumann", "solve_robin", "surface_values",
           "temperature_excess", "temperature_row", "thresholds"]

# Points within this relative distance of a front belong to the phase on
# the lower-x side, so front positions themselves evaluate cleanly.
_FRONT_BAND = 1e-14


class Regime(enum.Enum):
    """How many phases the given boundary datum can sustain."""

    SINGLE_PHASE = "single_phase"
    TWO_PHASE = "two_phase"
    THREE_PHASE = "three_phase"


class Thresholds(NamedTuple):
    """Critical boundary data separating the regimes.

    q1/q2 bound the flux coefficient, h1/h2 the convective coefficient.
    The convective pair needs a bulk temperature, so it is None when no
    A_inf is available.  Always q2 > q1 and, when present, h2 > h1.
    """

    z0: float
    q1: float
    q2: float
    h1: Optional[float] = None
    h2: Optional[float] = None

    def to_dict(self) -> dict:
        return {k: v for k, v in self._asdict().items() if v is not None}


def thresholds(ctx: ProblemContext, a_inf: Optional[float] = None) -> Thresholds:
    """Regime thresholds for this material.

    Args:
        ctx: Problem context; its boundary datum supplies the bulk
            temperature when it is convective.
        a_inf: Explicit bulk temperature; overrides the context's own.

    Returns:
        Thresholds with the convective fields filled in when a bulk
        temperature is known, left None otherwise.

    Raises:
        ValidationError: If an explicit a_inf is not finite or does not
            exceed B.
        RootFailure: "unresolved" when q2's divisor sqrt(pi*alpha2)*
            erf(z0*sigma2) is 0 in floating point (z0 rounds to 0).
    """
    p, t = ctx.props, ctx.temps
    a1, a2, _ = ctx.alphas
    z0 = ctx.z0

    q1 = p.k1 * (t.C - t.D) / math.sqrt(math.pi * a1)
    g = math.sqrt(a2 * math.pi) * ctx._erf_z0  # 0 where z0 rounds to 0
    if not g > 0.0:
        raise RootFailure("unresolved", f"q2's divisor is {g!r} at z0 = {z0!r}")
    q2 = p.k2 * (t.B - t.C) / g

    if a_inf is None:
        a_inf = getattr(ctx.bc, "A_inf", None)
    if a_inf is None:
        return Thresholds(z0=z0, q1=q1, q2=q2)
    require_bulk(a_inf, t.B, "BULK_NOT_ABOVE_B", "bulk temperature must exceed B")
    # the flux thresholds read through the convective law q = h*(A_inf - T(0))
    # at the surface temperatures C and B where each regime starts
    h1, h2 = q1 / (a_inf - t.C), q2 / (a_inf - t.B)
    return Thresholds(z0=z0, q1=q1, q2=q2, h1=h1, h2=h2)


def classify_regime(ctx: ProblemContext) -> Regime:
    """Regime reached under the context's boundary datum.

    The comparison is sharp: a datum exactly at a threshold falls in the
    milder regime.  An imposed temperature needs no thresholds.

    Raises:
        MissingBoundaryDatum: The context has no boundary datum.
    """
    if ctx.bc is None:
        raise MissingBoundaryDatum("the operation needs a boundary datum")
    bounds = ctx.bc.bounds
    if bounds is None:
        # an imposed surface temperature above B always melts both ways
        return Regime.THREE_PHASE
    th = thresholds(ctx)
    name, first, second = bounds
    datum = getattr(ctx.bc, name)
    if datum <= getattr(th, first):
        return Regime.SINGLE_PHASE
    if datum <= getattr(th, second):
        return Regime.TWO_PHASE
    return Regime.THREE_PHASE


class ThreePhaseSolution(_Frozen):
    """Immutable result of one solve: its context and front coefficients.

    The rest is derived on first use.  surface_temp is the (constant in
    time) temperature at x = 0 and flux_coef the coefficient of the surface
    heat flux, which decays as -flux_coef/sqrt(t) in the outward normal
    convention, so the full boundary behavior is recoverable for every
    condition kind; thresh is thresholds(ctx).
    """

    _fields = ("ctx", "coef1", "coef2")

    def __init__(self, ctx: ProblemContext, coef1: float, coef2: float):
        vars(self).update(ctx=ctx, coef1=coef1, coef2=coef2)

    # a solution exists only in the three-phase regime
    regime = Regime.THREE_PHASE

    @property
    def kind(self) -> str:
        return self.ctx.bc.kind

    @_cached
    def thresh(self) -> Thresholds:
        return thresholds(self.ctx)

    @_cached
    def _surface(self) -> tuple[float, float, float]:
        # (phase-3 amplitude s, surface temperature, flux coefficient): the
        # law theta*s + (1 - theta)*(T(0) - B) = n with T(0) - B = s*e
        # gives s = n/w, w = theta + (1 - theta)*e, e = erf(coef2*sigma3)
        c = self.ctx
        theta, n = c.bc.law(c)
        e = specfun.erf(self.coef2 * c.sigma3)
        w = theta + (1.0 - theta) * e
        s = n / w
        return s, c.temps.B + n * (e / w), c.props.k3 * s / math.sqrt(
            math.pi * c.alpha3)

    @property
    def surface_temp(self) -> float:
        return self._surface[1]

    @property
    def flux_coef(self) -> float:
        return self._surface[2]

    @_cached
    def _excess_constants(self) -> tuple[float, ...]:
        # every per-solution constant of the three excess formulas, in the
        # order _kernels unpacks them; the span reuses erf(coef1*sigma2),
        # and phase 2's profile divides by it
        c = self.ctx
        t_ = c.temps
        at_front1 = specfun.erf(self.coef1 * c.sigma2)
        span2 = at_front1 - specfun.erf(self.coef2 * c.sigma2)
        if not span2 > 0.0:
            raise RootFailure(
                "unresolved", f"phase 2's span erf(coef1*sigma2) - "
                f"erf(coef2*sigma2) is {span2!r} at coef1 {self.coef1!r} and "
                f"coef2 {self.coef2!r}")
        return (
            self.surface_temp - t_.D,
            self._surface[0],
            t_.C - t_.D,
            t_.B - t_.C,
            at_front1,
            span2,
            specfun.erfc(self.coef1),
        )

    @_cached
    def _kernels(self) -> tuple:
        # the field kernel of phases 1, 2 and 3: kernel(t, xs, base) is base
        # plus the phase's excess above D at every x of xs.  Built on the
        # first evaluation; each looks specfun up once per call, so that a
        # wrapper installed on it later still sees every point
        surface, slope3, solid, rise, at_front1, span2, erfc1 = (
            self._excess_constants)
        a1, a2, a3 = self.ctx.alphas
        sqrt = math.sqrt

        def phase3(t, xs, base):
            d, f = 2.0 * sqrt(a3 * t), specfun.erf
            return [base + (surface - slope3 * f(x / d)) for x in xs]

        def phase2(t, xs, base):
            d, f = 2.0 * sqrt(a2 * t), specfun.erf
            return [base + (solid + rise * (at_front1 - f(x / d)) / span2)
                    for x in xs]

        if erfc1 == 0.0:  # erfc(coef1) underflowed: erfc(eta)/erfc(c) as
            # exp((c - eta)(c + eta)) * _inv_erfcx(c) / _inv_erfcx(eta), the
            # exponent clamped at 0 for an eta that rounds just below c
            c, inv_c = self.coef1, _inv_erfcx(self.coef1)

            def phase1(t, xs, base):
                d = 2.0 * sqrt(a1 * t)
                return [base + solid * (math.exp(min((c - e) * (c + e), 0.0))
                                        * inv_c / _inv_erfcx(e))
                        for e in (x / d for x in xs)]
        else:
            def phase1(t, xs, base):
                d, f = 2.0 * sqrt(a1 * t), specfun.erfc
                return [base + solid * f(x / d) / erfc1 for x in xs]

        return phase1, phase2, phase3

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "regime": self.regime.value,
            "coef1": self.coef1,
            "coef2": self.coef2,
            "z0": self.ctx.z0,
            "thresholds": self.thresh.to_dict(),
            "surface_temperature": self.surface_temp,
            "surface_flux_coefficient": self.flux_coef,
            "input": config_to_dict(self.ctx.props, self.ctx.temps, self.ctx.bc),
        }


def _outer_bracket(ctx: ProblemContext) -> float:
    # the lower end of the outer search: just above z0 the matched inner
    # coefficient exists but is tiny, which pins the sign of the equation
    # there for every admissible datum
    return ctx.z0 + 1e-12


def _solved(ctx: ProblemContext, coef1: float, coef2: float) -> ThreePhaseSolution:
    # the solution of a front pair, recorded weakly on the context for solve()
    sol = ThreePhaseSolution(ctx, coef1, coef2)
    object.__setattr__(ctx, "_solution", weakref.ref(sol))
    return sol


def _solve_outer(ctx: ProblemContext) -> ThreePhaseSolution:
    # classify, find coef1, and record the solution on the context
    regime = classify_regime(ctx)
    if regime is not Regime.THREE_PHASE:
        raise RegimeError(
            regime,
            f"boundary datum only sustains the {regime.value} regime; "
            "no second front forms",
        )
    coef1 = find_root_monotone(outer_residual(ctx), _outer_bracket(ctx))
    coef2 = coef2_from_coef1(coef1, ctx)
    # keeps erf(coef2*sigma3), the divisor of an imposed temperature's law, > 0
    if not coef2 * ctx.sigma3 > 0.0:
        raise RootFailure(
            "unresolved", f"the outer root {coef1!r} leaves the inner "
            f"coefficient {coef2!r}, and phase 3 no width in floating point")
    return _solved(ctx, coef1, coef2)


def _of_kind(ctx: ProblemContext, kind: str) -> ProblemContext:
    # the context, once its boundary datum is of the given kind
    if getattr(ctx.bc, "kind", None) != kind:
        raise MissingBoundaryDatum(f"the operation needs a {kind} boundary datum")
    return ctx


def solve_robin(ctx: ProblemContext) -> ThreePhaseSolution:
    """Solve under convective surface exchange.

    Raises:
        MissingBoundaryDatum: Context has no convective datum.
        RegimeError: h0 is at or below the two-phase threshold.
        RootFailure: The residual overflowed before a sign change (h0
            within about 1e-12 of h2: the search's lower end z0 + 1e-12, see
            _outer_bracket, already lies past the root).
    """
    return _solve_outer(_of_kind(ctx, "robin"))


def solve_dirichlet(ctx: ProblemContext) -> ThreePhaseSolution:
    """Solve under an imposed surface temperature A > B."""
    return _solve_outer(_of_kind(ctx, "dirichlet"))


def solve_neumann(ctx: ProblemContext) -> ThreePhaseSolution:
    """Solve under an imposed surface flux q0/sqrt(t)."""
    return _solve_outer(_of_kind(ctx, "neumann"))


def solve(ctx: ProblemContext) -> ThreePhaseSolution:
    """Solve under the context's boundary datum.

    Calls solve_<kind> for the datum's kind, read from this module's
    namespace at call time, so a wrapper bound to that name is the one
    called.  A context is solved once: while a caller holds its solution,
    later calls return that same object, recorded on the context, with its
    derived values and no search.

    Raises:
        RootFailure: "unresolved" when the outer root leaves coef2*sigma3
            not above 0 in floating point, besides the search's reasons.
    """
    sol = ctx.solution
    if sol is not None:
        return sol
    if ctx.bc is None:
        raise MissingBoundaryDatum("solve needs a boundary datum")
    return globals()[f"solve_{ctx.bc.kind}"](ctx)


def _resolvable(sol: ThreePhaseSolution, t: float) -> bool:
    # finite t with no alpha*t underflowing: each 2*sqrt(alpha*t) divides x
    return math.isfinite(t) and min(sol.ctx.alphas) * t > 0.0


def _check_t(sol: ThreePhaseSolution, t: float) -> None:
    if not _resolvable(sol, t):
        raise ValueError("t must be finite and > 0, with no alpha*t underflowing")


def free_boundaries(sol: ThreePhaseSolution, t: float) -> tuple[float, float]:
    """Front positions (x2, x1) at time t > 0, with x2 < x1.

    Raises:
        ValueError: t is not a finite positive number or so small that
            some alpha*t underflows to 0.
    """
    _check_t(sol, t)
    scale = 2.0 * math.sqrt(sol.ctx.alpha1 * t)
    return sol.coef2 * scale, sol.coef1 * scale


def _ordered(xs: Sequence[float]) -> tuple:
    # xs ascending, and the positions that put an ascending row back in xs's
    # order (None when xs ascends already)
    # a finite sum rules out NaN and infinities; an overflowing one does not
    if not ((math.isfinite(sum(xs)) or all(map(math.isfinite, xs)))
            and (not xs or min(xs) >= 0.0)):
        raise ValueError("x must be finite and >= 0")
    if all(map(operator.le, xs, xs[1:])):
        return xs, None
    order = sorted(range(len(xs)), key=xs.__getitem__)
    return [xs[i] for i in order], sorted(range(len(xs)), key=order.__getitem__)


def _split(asc: Sequence[float], x2: float, x1: float) -> tuple[int, int]:
    # where phases 3 and 2 of the ascending row end: a point within
    # _FRONT_BAND (relative) above a front belongs to the phase below it
    i3 = bisect_right(asc, x2 * (1.0 + _FRONT_BAND))
    return i3, bisect_right(asc, x1 * (1.0 + _FRONT_BAND), i3)


def _grid(sol: ThreePhaseSolution, ts: Sequence[float], xs: Sequence[float],
          base: float):
    # for each t of ts, (x2, x1, row): the fronts at t and base plus the
    # excess above D at every x of xs, in xs's order.  xs is checked and
    # ordered once; each row is cut at its fronts, and each non-empty slice
    # runs through its phase's kernel
    asc, pos = _ordered(xs)
    for t in ts:
        x2, x1 = free_boundaries(sol, t)
        i3, i2 = _split(asc, x2, x1)
        kernel1, kernel2, kernel3 = sol._kernels
        row = kernel3(t, asc[:i3], base) if i3 else []
        if i3 < i2:
            row += kernel2(t, asc[i3:i2], base)
        if i2 < len(asc):
            row += kernel1(t, asc[i2:], base)
        yield x2, x1, row if pos is None else [row[i] for i in pos]


def _phase_excess(sol: ThreePhaseSolution, phase: int, t: float, xs: Sequence) -> list:
    # the given phase's excess above D at every x of xs, by its field kernel
    return sol._kernels[phase - 1](t, xs, 0.0)


def temperature_row(
    sol: ThreePhaseSolution, t: float, xs: Sequence[float]
) -> list[float]:
    """Temperature in kelvin at every x of xs, at one time t.

    Equal to evaluate_temperature point for point; xs may come in any
    order.  A point within _FRONT_BAND (relative) above a front belongs to
    the phase on its lower-x side.

    Raises:
        ValueError: An x is negative or not finite, or t is not a finite
            positive number or so small that some alpha*t underflows to 0.
    """
    return next(_grid(sol, (t,), xs, sol.ctx.temps.D))[2]


def temperature_excess(sol: ThreePhaseSolution, x: float, t: float) -> float:
    """Temperature above the initial value D at (x, t).

    Identical information to evaluate_temperature, but in quantities whose
    floating-point granularity matches the temperature differences that
    drive the physics, which downstream difference-based checks rely on.
    """
    return next(_grid(sol, (t,), (x,), 0.0))[2][0]


def evaluate_temperature(sol: ThreePhaseSolution, x: float, t: float) -> float:
    """Temperature in kelvin at position x >= 0 and time t > 0."""
    return temperature_row(sol, t, (x,))[0]


def phase_profile(sol: ThreePhaseSolution, x: float, t: float) -> tuple[int, float]:
    """Phase index and the bare similarity profile the phase is affine in.

    Returns (i, w) with w = erf(x/(2 sqrt(alpha_i t))) for the liquid
    phases and w = erfc(...) for the solid.  The temperature in phase i is
    a_i + b_i*w with constants a_i, b_i, so any linear functional of the
    temperature, such as a heat-equation residual, can be evaluated on w
    alone with perfect relative conditioning.  It checks, cuts and raises
    as temperature_row, and runs no kernel.
    """
    asc, _ = _ordered((x,))
    i3, i2 = _split(asc, *free_boundaries(sol, t))
    phase = 3 if i3 else 2 if i2 else 1
    # looked up per call, so a wrapper installed on specfun sees it
    f = specfun.erfc if phase == 1 else specfun.erf
    return phase, f(x / (2.0 * math.sqrt(sol.ctx.alphas[phase - 1] * t)))


def surface_values(sol: ThreePhaseSolution, t: float) -> tuple[float, float]:
    """Surface temperature and surface heat flux at time t > 0.

    The temperature is constant in time; the flux is -flux_coef/sqrt(t)
    with the coefficient available separately as ``sol.flux_coef``.

    Raises:
        ValueError: As free_boundaries, for a t it cannot resolve.
    """
    _check_t(sol, t)
    return sol.surface_temp, -sol.flux_coef / math.sqrt(t)


def perturbed(
    sol: ThreePhaseSolution, eps1: float, eps2: float
) -> ThreePhaseSolution:
    """Copy of a solution with each front coefficient scaled by (1 + eps).

    Every derived value follows the perturbed coefficients, so the copy
    is exactly what the solver would have built had it converged to the
    wrong roots.  Intended for verification negative controls.

    Raises:
        ValidationError: BAD_PERTURB when a perturbed coefficient is not
            finite and positive or phase 2's span erf(coef1*sigma2) -
            erf(coef2*sigma2), which its profile divides by, is not positive.
    """
    out = ThreePhaseSolution(
        sol.ctx, sol.coef1 * (1.0 + eps1), sol.coef2 * (1.0 + eps2)
    )
    # a negative coef1 or an infinite coef2 leaves no positive span, which
    # _excess_constants tests
    try:
        if 0.0 < out.coef2 and out.coef1 < math.inf and out._excess_constants:
            return out
    except RootFailure:
        pass
    raise ValidationError([Violation(
        "BAD_PERTURB",
        f"perturbing by {eps1!r} and {eps2!r} gives the front coefficients "
        f"{out.coef1!r} and {out.coef2!r}, which are not finite and "
        "positive or leave phase 2 no span",
    )])
