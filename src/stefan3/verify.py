"""Residual-based verification of a solved problem.

Five independent checks, each reported as a dimensionless residual:

* heat: central-difference residual of the heat equation in its
  similarity form, f'' + 2*eta*f' = 0, on each phase's profile f (erf or
  erfc of the phase's own variable eta).  Each phase's temperature is an
  affine image of f, and the equation is linear, so the relative residual
  of the profile equals that of the temperature while staying immune to
  the catastrophic cancellation a 300-kelvin offset would cause.
* interface: temperature continuity at both fronts, probed with the closed
  form of each adjacent phase.
* stefan: energy balance at both fronts from the analytic one-sided
  gradients.
* boundary: the surface condition the solution claims to satisfy.
* far_field: decay to the initial temperature far beyond the outer front.

Every check runs once, at t = 1.  Each phase's temperature is an affine
image of erf or erfc of its similarity variable x/(2*sqrt(alpha_i*t)), and
both fronts sit at fixed values of it, so every residual here is a
function of that variable alone: another time samples the same values.
The heat and stefan checks work in that variable, at front values read
from the front coefficients; interface and far_field evaluate the field
kernel in x, so they are what checks its scaling.

Each check's pinned tolerance is in ``TOLERANCES``.  Residual magnitudes
at the default settings are limited by rounding, not truncation; the
refinement ladder behavior (order 2 in rel_step) appears for rel_step
around 1e-3 and above, where truncation dominates.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from itertools import chain

from . import specfun
from .errors import StencilCrossesFront, ValidationError
from .model import Violation
from .solver import _FRONT_BAND, ThreePhaseSolution, _phase_excess, free_boundaries
from .transcendental import surface_law

HEAT_TOL = 1e-6
INTERFACE_TOL = 1e-10
STEFAN_TOL = 1e-10
BOUNDARY_TOL = 1e-10
FAR_FIELD_TOL = 1e-8

DEFAULT_X_FACTOR = 30.0

_EPS = sys.float_info.epsilon


def _phase_windows(
    sol: ThreePhaseSolution, rel_step: float
) -> dict[int, tuple[float, float]]:
    """Sampling window (lo, hi) of each phase in its similarity variable.

    The verifier's one check that each stencil lies inside its phase, with
    the step h = rel_step in every phase.  By the solver's cut a point
    above front * (1 + _FRONT_BAND) lies past it, so the lowest stencil
    point lo - h is checked against the front below; the margin 6h +
    above*h keeps the highest below the front above.  A step whose square
    is not a normal float (rel_step <= 0, NaN, or so small that h*h
    underflows; the second difference divides by it), or that is too fine
    to clear the front below, raises BAD_REL_STEP; one that leaves a phase
    no room, StencilCrossesFront.
    """
    c, h = sol.ctx, rel_step
    # x = 0 and the fronts in each phase's own variable; three diffusion
    # lengths past the outer front cover all the decay that is numerically
    # distinguishable from the initial state
    bounds = {
        3: (0.0, sol.coef2 * c.sigma3),
        2: (sol.coef2 * c.sigma2, sol.coef1 * c.sigma2),
        1: (sol.coef1, sol.coef1 + 3.0),
    }
    normal = h > 0.0 and h * h >= sys.float_info.min
    out = {}
    for phase, (below, above) in bounds.items():
        lo = below + 6.0 * h + below * h
        if not normal or lo - h <= below * (1.0 + _FRONT_BAND):
            why = (f"too fine to keep phase {phase}'s stencil off the front "
                   f"at eta={below!r}" if normal
                   else "a step whose square is not a normal float")
            raise ValidationError([Violation(
                "BAD_REL_STEP", f"rel_step {rel_step!r} is {why}")])
        hi = above if phase == 1 else above - 6.0 * h - above * h
        if not lo < hi:
            raise StencilCrossesFront(
                f"rel_step {rel_step!r} leaves no room inside phase {phase}"
            )
        out[phase] = (lo, hi)
    return out


def heat_residual(
    sol: ThreePhaseSolution, rel_step: float = 1e-4, n_points: int = 100
) -> dict[str, float]:
    """Max relative diffusion-equation residual per phase.

    The check is f'' + 2*eta*f' = 0 on each phase's profile f(eta), erf in
    phases 2 and 3 and erfc in phase 1, by central differences with step h
    = rel_step: d_xx = (wp - 2*w0 + wm)/h^2, d_t = -eta*(wp - wm)/h.  The
    samples are geometrically spaced inside the windows of _phase_windows,
    which has checked that every stencil point lies in its phase.

    Raises:
        ValueError: n_points < 1, which would leave nothing to check.
        StencilCrossesFront: rel_step is too coarse for a phase to hold a
            stencil.
        ValidationError: BAD_REL_STEP, when the step's square is not a normal
            float or the step is too fine to keep a stencil off a front.
    """
    if n_points < 1:
        raise ValueError("n_points must be >= 1")
    h, hh = rel_step, rel_step * rel_step
    worst = {1: 0.0, 2: 0.0, 3: 0.0}
    for phase, (lo, hi) in _phase_windows(sol, rel_step).items():
        # looked up per call, so wrappers installed on specfun see them all
        f = specfun.erfc if phase == 1 else specfun.erf
        ratio, last = hi / lo, max(n_points - 1, 1)
        # |d_t - d_xx| / max(|d_t|, |d_xx|, eps) at every sample, folded
        # into a running max() that starts at 0
        worst[phase] = max(chain((0.0,), (
            abs(d_t - d_xx) / (_EPS if _EPS > big else big)
            for eta in (lo * ratio ** (j / last) for j in range(n_points))
            for w0, wm, wp in ((f(eta), f(eta - h), f(eta + h)),)
            for d_xx in ((wp - 2.0 * w0 + wm) / hh,)
            for d_t in (-eta * (wp - wm) / h,)
            for big in (abs(d_xx) if abs(d_xx) > abs(d_t) else abs(d_t),)
        )))
    return {f"phase{k}": v for k, v in worst.items()}


def interface_residual(sol: ThreePhaseSolution) -> dict[str, float]:
    """Temperature mismatch at the fronts, relative to the full span B - D.

    Each front is probed at t = 1 with the closed forms of both adjacent
    phases.
    """
    t_ = sol.ctx.temps
    span = t_.B - t_.D
    x2, x1 = free_boundaries(sol, 1.0)
    checks = (
        ("front2_liquid", 3, x2, t_.B),
        ("front2_middle", 2, x2, t_.B),
        ("front1_middle", 2, x1, t_.C),
        ("front1_solid", 1, x1, t_.C),
    )
    return {
        key: abs(t_.D + _phase_excess(sol, phase, 1.0, (x,))[0] - target) / span
        for key, phase, x, target in checks
    }


def _gradients_at(sol: ThreePhaseSolution) -> tuple:
    """Analytic one-sided gradients at t = 1: phases 1, 2 at x1; 2, 3 at x2.

    The fronts' eta come from the front coefficients; at eta = coef1,
    phase 1's erfc(eta)/erfc(coef1) is exactly 1.
    """
    a1, a2, a3 = sol.ctx.alphas
    s2, s3 = sol.ctx.sigma2, sol.ctx.sigma3
    e2_at_1, e2_at_2, e3 = sol.coef1 * s2, sol.coef2 * s2, sol.coef2 * s3
    _, slope3, solid, rise, _, span2, _ = sol._excess_constants
    g1 = -solid * specfun._inv_erfcx(sol.coef1) / math.sqrt(math.pi * a1)
    slope2 = -rise / (math.sqrt(math.pi * a2) * span2)
    g2_at_1 = slope2 * math.exp(-e2_at_1 * e2_at_1)
    g2_at_2 = slope2 * math.exp(-e2_at_2 * e2_at_2)
    g3 = -slope3 * math.exp(-e3 * e3) / math.sqrt(math.pi * a3)
    return g1, g2_at_1, g2_at_2, g3


def stefan_residual(sol: ThreePhaseSolution) -> dict[str, float]:
    """Relative energy-balance residual at each front, at t = 1.

    The balance equates the jump in conductive flux across a front to the
    latent heat absorbed by its motion; all terms scale as 1/sqrt(t), so
    the relative residual is time-independent.
    """
    p = sol.ctx.props
    g1, g2_at_1, g2_at_2, g3 = _gradients_at(sol)
    rate = math.sqrt(sol.ctx.alpha1)  # front speed divided by coefficient
    balances = (
        ("front1", p.k1 * g1 - p.k2 * g2_at_1, p.rho * p.l1 * sol.coef1 * rate),
        ("front2", p.k2 * g2_at_2 - p.k3 * g3, p.rho * p.l2 * sol.coef2 * rate),
    )
    return {
        key: abs(lhs - rhs) / max(abs(lhs), abs(rhs))
        for key, lhs, rhs in balances
    }


def boundary_residual(sol: ThreePhaseSolution) -> float:
    """Relative residual of the surface condition the solution claims.

    Every kind's condition is the law theta*s + (1 - theta)*(T(0) - B) = n
    of transcendental.SurfaceLaw, here on the solution's surface temperature
    and the phase-3 amplitude s its flux coefficient implies.  The residual
    is the law's exact sum divided by its largest term.  Both sides of the
    condition decay alike in time, so the residual holds at every time.
    """
    c = sol.ctx
    theta, n = surface_law(c.bc).read(c)
    s = sol.flux_coef * math.sqrt(math.pi * c.alpha3) / c.props.k3
    terms = (theta * s, (1.0 - theta) * (sol.surface_temp - c.temps.B), -n)
    return abs(math.fsum(terms)) / max(map(abs, terms))


def far_field_residual(
    sol: ThreePhaseSolution, x_factor: float = DEFAULT_X_FACTOR
) -> float:
    """Deviation from the initial temperature at x_factor times the outer front.

    Probed at t = 1, relative to the solid-phase amplitude C - D.  x_factor
    must be finite and at least 10 to land meaningfully beyond the front.
    """
    if not 10.0 <= x_factor < math.inf:
        raise ValueError("x_factor must be finite and >= 10")
    t_ = sol.ctx.temps
    _, x1 = free_boundaries(sol, 1.0)
    return abs(_phase_excess(sol, 1, 1.0, (x_factor * x1,))[0]) / (t_.C - t_.D)


# the pinned tolerance of each check, in report order
TOLERANCES = {
    "heat": HEAT_TOL,
    "interface": INTERFACE_TOL,
    "stefan": STEFAN_TOL,
    "boundary": BOUNDARY_TOL,
    "far_field": FAR_FIELD_TOL,
}


@dataclass(frozen=True)
class ResidualReport:
    """All residuals of one solution; TOLERANCES holds their bounds."""

    heat: dict
    interface: dict
    stefan: dict
    boundary: float
    far_field: float

    def failures(self) -> list[str]:
        out = []
        for check, tol in TOLERANCES.items():
            value = getattr(self, check)
            if isinstance(value, dict):
                out += [f"{check}:{k}" for k, v in value.items() if v > tol]
            elif value > tol:
                out.append(check)
        return out

    @property
    def passes(self) -> bool:
        return not self.failures()

    def to_dict(self) -> dict:
        return {
            "heat": dict(self.heat),
            "interface": dict(self.interface),
            "stefan": dict(self.stefan),
            "boundary": self.boundary,
            "far_field": self.far_field,
            "tolerances": dict(TOLERANCES),
            "failures": self.failures(),
            "pass": self.passes,
        }


def full_report(
    sol: ThreePhaseSolution,
    rel_step: float = 1e-4,
    n_points: int = 100,
    x_factor: float = DEFAULT_X_FACTOR,
) -> ResidualReport:
    """Run every check and collect the residuals."""
    return ResidualReport(
        heat=heat_residual(sol, rel_step=rel_step, n_points=n_points),
        interface=interface_residual(sol),
        stefan=stefan_residual(sol),
        boundary=boundary_residual(sol),
        far_field=far_field_residual(sol, x_factor=x_factor),
    )
