"""Front coefficients, regime thresholds, and temperature reconstruction.

A solved problem is its context and the pair of front coefficients
(coef1, coef2): the fronts move as x_i(t) = 2*coef_i*sqrt(alpha1*t) and the
temperature in each phase is an affine image of one error-function profile
in the similarity variable x/(2*sqrt(alpha_i*t)).  Everything else is
derived from those on first use.  The boundary kind enters only through
its record, transcendental.surface_law(bc), and through solve, which
calls solve_<kind> by its name in this module; one guard, _of_kind,
checks the datum's kind for those and for the named mappings.  A row of
x values at one time, in any order, is cut once at the fronts into its
phase slices, and each slice is evaluated by its phase's formula with no
per-point branch.
"""

from __future__ import annotations

import enum
import math
from bisect import bisect_right
from dataclasses import asdict, dataclass
from typing import Optional, Sequence

from . import specfun
from .errors import MissingBoundaryDatum, RegimeError, ValidationError
from .model import Violation, config_to_dict, require_bulk
from .specfun import _inv_erfcx
from .transcendental import (
    ProblemContext,
    _cached,
    coef2_from_coef1,
    find_root_monotone,
    outer_residual,
    surface_law,
)

# Points within this relative distance of a front belong to the phase on
# the lower-x side, so front positions themselves evaluate cleanly.
_FRONT_BAND = 1e-14


class Regime(enum.Enum):
    """How many phases the given boundary datum can sustain."""

    SINGLE_PHASE = "single_phase"
    TWO_PHASE = "two_phase"
    THREE_PHASE = "three_phase"


@dataclass(frozen=True)
class Thresholds:
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
        return {k: v for k, v in asdict(self).items() if v is not None}


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
    """
    p, t = ctx.props, ctx.temps
    a1, a2, _ = ctx.alphas
    z0 = ctx.z0

    q1 = p.k1 * (t.C - t.D) / math.sqrt(math.pi * a1)
    q2 = p.k2 * (t.B - t.C) / (math.sqrt(a2 * math.pi) * ctx._erf_z0)

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
    bounds = surface_law(ctx.bc).bounds
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


@dataclass(frozen=True)
class ThreePhaseSolution:
    """Immutable result of one solve: its context and front coefficients.

    The rest is derived on first use.  surface_temp is the (constant in
    time) temperature at x = 0 and flux_coef the coefficient of the surface
    heat flux, which decays as -flux_coef/sqrt(t) in the outward normal
    convention, so the full boundary behavior is recoverable for every
    condition kind; thresh is thresholds(ctx).
    """

    ctx: ProblemContext
    coef1: float
    coef2: float

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
        theta, n = surface_law(c.bc).read(c)
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
        # order _phase_excess unpacks them; the span reuses erf(coef1*sigma2)
        c = self.ctx
        t_ = c.temps
        at_front1 = specfun.erf(self.coef1 * c.sigma2)
        return (
            self.surface_temp - t_.D,
            self._surface[0],
            t_.C - t_.D,
            t_.B - t_.C,
            at_front1,
            at_front1 - specfun.erf(self.coef2 * c.sigma2),
            specfun.erfc(self.coef1),
        )

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


def _outer_bracket(ctx: ProblemContext) -> tuple[float, float]:
    # just above z0 the matched inner coefficient exists but is tiny, which
    # pins the sign of the equation there for every admissible datum
    return ctx.z0 + 1e-12, max(ctx.z0, 1.0)


def _solved(ctx: ProblemContext, coef1: float, coef2: float) -> ThreePhaseSolution:
    # the solution of a front pair, recorded on the context for solve()
    object.__setattr__(ctx, "coefs", (coef1, coef2))
    return ThreePhaseSolution(ctx, coef1, coef2)


def _solve_outer(ctx: ProblemContext) -> ThreePhaseSolution:
    # classify, find coef1, and record the pair on the context
    regime = classify_regime(ctx)
    if regime is not Regime.THREE_PHASE:
        raise RegimeError(
            regime,
            f"boundary datum only sustains the {regime.value} regime; "
            "no second front forms",
        )
    coef1 = find_root_monotone(outer_residual(ctx), *_outer_bracket(ctx))
    return _solved(ctx, coef1, coef2_from_coef1(coef1, ctx))


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
        RootFailure: The bracketed search failed (seen for data within
            about 1e-12 of the threshold, see _outer_bracket).
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
    called.  A context is solved once: later calls rebuild the solution
    from the front coefficients recorded on the context, bit for bit, with
    no search.
    """
    if ctx.coefs is not None:
        return ThreePhaseSolution(ctx, *ctx.coefs)
    if ctx.bc is None:
        raise MissingBoundaryDatum("solve needs a boundary datum")
    return globals()[f"solve_{ctx.bc.kind}"](ctx)


def free_boundaries(sol: ThreePhaseSolution, t: float) -> tuple[float, float]:
    """Front positions (x2, x1) at time t > 0, with x2 < x1."""
    if not t > 0.0:
        raise ValueError("t must be > 0")
    scale = 2.0 * math.sqrt(sol.ctx.alpha1 * t)
    return sol.coef2 * scale, sol.coef1 * scale


def _cut(sol: ThreePhaseSolution, t: float, xs: Sequence[float]) -> tuple:
    # the row in ascending order, the permutation that sorted it (None if xs
    # ascends) and each phase's slice bounds {phase: (start, stop)}, x order
    asc = sorted(xs)
    # a finite sum rules out NaN and infinities, and then asc is in order
    finite = math.isfinite(sum(asc)) or all(map(math.isfinite, asc))
    if not (finite and (not asc or asc[0] >= 0.0)):
        raise ValueError("x must be finite and >= 0")
    if not (math.isfinite(t) and t > 0.0):
        raise ValueError("t must be finite and > 0")
    order = None if asc == list(xs) else sorted(range(len(xs)), key=xs.__getitem__)
    x2, x1 = free_boundaries(sol, t)
    i3 = bisect_right(asc, x2 * (1.0 + _FRONT_BAND))
    i2 = bisect_right(asc, x1 * (1.0 + _FRONT_BAND), i3)
    return asc, order, {3: (0, i3), 2: (i3, i2), 1: (i2, len(asc))}


def _profile(sol: ThreePhaseSolution, phase: int, t: float, xs: Sequence) -> list:
    # the given phase's profile at every x of xs, whether or not x lies in
    # that phase; verification probes fronts from both sides.  erf and erfc
    # are looked up per call, so wrappers installed on specfun see them all.
    d = 2.0 * math.sqrt(sol.ctx.alphas[phase - 1] * t)
    f = specfun.erfc if phase == 1 else specfun.erf
    return [f(x / d) for x in xs]


def _phase_excess(sol: ThreePhaseSolution, phase: int, t: float, xs: Sequence) -> list:
    # the given phase's closed-form excess above D at every x of xs
    d = 2.0 * math.sqrt(sol.ctx.alphas[phase - 1] * t)
    f = specfun.erfc if phase == 1 else specfun.erf
    surface, slope3, solid, rise, at_front1, span2, erfc1 = sol._excess_constants
    if phase == 3:
        return [surface - slope3 * f(x / d) for x in xs]
    if phase == 2:
        return [solid + rise * (at_front1 - f(x / d)) / span2 for x in xs]
    if erfc1 == 0.0:  # erfc(coef1) underflowed: erfc(eta)/erfc(c) as
        # exp((c - eta)(c + eta)) * _inv_erfcx(c) / _inv_erfcx(eta)
        c, inv_c = sol.coef1, _inv_erfcx(sol.coef1)
        return [solid * (math.exp((c - e) * (c + e)) * inv_c / _inv_erfcx(e))
                for e in (x / d for x in xs)]
    return [solid * f(x / d) / erfc1 for x in xs]


def _row(sol: ThreePhaseSolution, t: float, xs: Sequence[float], kernel) -> tuple:
    # (phases, values) at every x of xs: kernel(sol, phase, t, slice) on
    # each non-empty phase slice of the ascending row, put back in xs's order
    asc, order, cuts = _cut(sol, t, xs)
    phases, values = [], []
    for phase, (lo, hi) in cuts.items():
        if lo < hi:
            phases += [phase] * (hi - lo)
            values += kernel(sol, phase, t, asc[lo:hi])
    if order is not None:  # back to xs's order
        phases, values = (
            [v for _, v in sorted(zip(order, vs))] for vs in (phases, values))
    return phases, values


def profile_row(
    sol: ThreePhaseSolution, t: float, xs: Sequence[float]
) -> tuple[list[int], list[float]]:
    """Phase index and similarity profile at every x of xs, at one time t.

    The row form of phase_profile, equal to it point for point; xs may
    come in any order.  A point within _FRONT_BAND (relative) above a
    front belongs to the phase on its lower-x side.

    Raises:
        ValueError: An x is negative or not finite, or t is not a finite
            positive number.
    """
    return _row(sol, t, xs, _profile)


def temperature_row(
    sol: ThreePhaseSolution, t: float, xs: Sequence[float]
) -> list[float]:
    """Temperature in kelvin at every x of xs, at one time t.

    Equal to evaluate_temperature point for point; raises as profile_row.
    """
    d = sol.ctx.temps.D
    return [d + e for e in _row(sol, t, xs, _phase_excess)[1]]


def temperature_excess(sol: ThreePhaseSolution, x: float, t: float) -> float:
    """Temperature above the initial value D at (x, t).

    Identical information to evaluate_temperature, but in quantities whose
    floating-point granularity matches the temperature differences that
    drive the physics, which downstream difference-based checks rely on.
    """
    return _row(sol, t, (x,), _phase_excess)[1][0]


def evaluate_temperature(sol: ThreePhaseSolution, x: float, t: float) -> float:
    """Temperature in kelvin at position x >= 0 and time t > 0."""
    return temperature_row(sol, t, (x,))[0]


def phase_profile(sol: ThreePhaseSolution, x: float, t: float) -> tuple[int, float]:
    """Phase index and the bare similarity profile the phase is affine in.

    Returns (i, w) with w = erf(x/(2 sqrt(alpha_i t))) for the liquid
    phases and w = erfc(...) for the solid.  The temperature in phase i is
    a_i + b_i*w with constants a_i, b_i, so any linear functional of the
    temperature, such as a heat-equation residual, can be evaluated on w
    alone with perfect relative conditioning.  profile_row is its row form.
    """
    phases, ws = profile_row(sol, t, (x,))
    return phases[0], ws[0]


def surface_values(sol: ThreePhaseSolution, t: float) -> tuple[float, float]:
    """Surface temperature and surface heat flux at time t > 0.

    The temperature is constant in time; the flux is -flux_coef/sqrt(t)
    with the coefficient available separately as ``sol.flux_coef``.
    """
    if not t > 0.0:
        raise ValueError("t must be > 0")
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
    # a negative coef1 or an infinite coef2 leaves no positive span
    if not (0.0 < out.coef2 and out.coef1 < math.inf
            and out._excess_constants[5] > 0.0):
        raise ValidationError([Violation(
            "BAD_PERTURB",
            f"perturbing by {eps1!r} and {eps2!r} gives the front coefficients "
            f"{out.coef1!r} and {out.coef2!r}, which are not finite and "
            "positive or leave phase 2 no span",
        )])
    return out
