"""Residual-based verification of a solved problem.

Five independent checks, each reported as a dimensionless residual:

* heat: departure of each phase's field, as the phase kernel that map and
  temperature_row run writes it, from the form a + b*f(eta) with
  constant a and b, f = erf (erfc in the solid) of the phase's own
  similarity variable eta = x/(2*sqrt(alpha_i*t)).  A field of that form
  satisfies the heat equation because f does, which the tests check of
  specfun itself.  Where erf is nearly linear over a thin phase 2, a
  fault local to phase 2's kernel can stay under HEAT_TOL: over 1,050
  solves of a wide family, alpha2*1.001 did on 21 and t*1.3 on 2, and
  the interface probes caught every one.
* interface: temperature continuity at both fronts, probed with the closed
  form of each adjacent phase.
* stefan: energy balance at both fronts from the analytic one-sided
  gradients.
* boundary: the surface condition the solution claims to satisfy.
* far_field: decay to the initial temperature at FAR_FIELD_PROBE times
  the outer front.

Every check but heat runs once, at t = 1.  Both fronts sit at fixed values
of each phase's eta, so those residuals are functions of eta alone: another
time samples the same values.  The stefan check works in eta, at front
values read from the front coefficients; heat, interface and far_field
evaluate the field kernel in x, so they are what checks its scaling, and
heat does so at two times.

Each check's pinned tolerance is in ``TOLERANCES``.  Every residual of a
true solution is limited by rounding alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import specfun
from .errors import RootFailure
from .solver import ThreePhaseSolution, _phase_excess, free_boundaries

# over 1,050 solves of a wide family, true solutions read at most 1.6e4 eps
# (3.5e-12), in a thin phase 2; a straight-line phase 2 read at least 1.1e7
# eps (2.4e-9), and a kernel with every alpha*1.001 at least 7e11 eps
HEAT_TOL = 1e-10
INTERFACE_TOL = 1e-10
STEFAN_TOL = 1e-10
BOUNDARY_TOL = 1e-10
FAR_FIELD_TOL = 1e-8

FAR_FIELD_PROBE = 30.0  # far_field's x, in multiples of the outer front

# the heat check's samples of each phase's eta, taken at each time
HEAT_SAMPLES = 50
HEAT_TIMES = (1.0, 7.3)


def heat_residual(sol: ThreePhaseSolution) -> dict[str, float]:
    """Largest departure of each phase's field from its affine form in erf.

    The field in each phase is a + b*f(eta), f = erf in phases 2 and 3 and
    erfc in phase 1, with constant a and b, so it satisfies the heat
    equation because f does.  The check samples _phase_excess (the phase
    kernel that map and temperature_row run, with a base of 0) at
    HEAT_SAMPLES evenly spaced eta between the phase's ends and at each of
    HEAT_TIMES; fits a and b through the first and last sample at the
    first time; and returns the largest
    deviation from that fit over the largest |value|.  Phase 1 runs from
    the outer front to three diffusion lengths past it, where its excess
    has decayed by at least e^-9, and takes f as erfc(eta)/erfc(coef1) in
    the ratio form that stays finite where erfc underflows.  Raises
    RootFailure("unresolved") where coef1 + 3 rounds to coef1.
    """
    c, k1 = sol.ctx, sol.coef1
    inv1 = specfun._inv_erfcx(k1)
    last = HEAT_SAMPLES - 1
    out = {}
    for phase, lo, hi in (
        (1, k1, k1 + 3.0),
        (2, sol.coef2 * c.sigma2, k1 * c.sigma2),
        (3, 0.0, sol.coef2 * c.sigma3),
    ):
        etas = [lo + (hi - lo) * j / last for j in range(last)] + [hi]
        if phase == 1:
            fs = [math.exp((k1 - e) * (k1 + e)) * inv1 / specfun._inv_erfcx(e)
                  for e in etas]
        else:  # looked up per call, so wrappers installed on specfun see it
            fs = list(map(specfun.erf, etas))
        rows = []
        for t in HEAT_TIMES:
            d = 2.0 * math.sqrt(c.alphas[phase - 1] * t)
            rows.append(_phase_excess(sol, phase, t, [d * e for e in etas]))
        v0, f0 = rows[0][0], fs[0]
        if fs[-1] == f0:  # phase 1's window [coef1, coef1 + 3] collapsed
            raise RootFailure("unresolved", f"eta window [{lo!r}, {hi!r}] has no width")
        b = (rows[0][-1] - v0) / (fs[-1] - f0)
        out[f"phase{phase}"] = max(
            abs(v - v0 - b * (f - f0)) for row in rows for v, f in zip(row, fs)
        ) / max(abs(v) for row in rows for v in row)
    return out


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
    of its datum, bc.law(ctx), here on the solution's surface temperature
    and the phase-3 amplitude s its flux coefficient implies.  The residual
    is the law's exact sum divided by its largest term.  Both sides of the
    condition decay alike in time, so the residual holds at every time.
    """
    c = sol.ctx
    theta, n = c.bc.law(c)
    s = sol.flux_coef * math.sqrt(math.pi * c.alpha3) / c.props.k3
    terms = (theta * s, (1.0 - theta) * (sol.surface_temp - c.temps.B), -n)
    return abs(math.fsum(terms)) / max(map(abs, terms))


def far_field_residual(sol: ThreePhaseSolution) -> float:
    """Deviation from the initial temperature at FAR_FIELD_PROBE times x1.

    Probed at t = 1, relative to the solid-phase amplitude C - D.
    """
    t_ = sol.ctx.temps
    _, x1 = free_boundaries(sol, 1.0)
    return abs(_phase_excess(sol, 1, 1.0, (FAR_FIELD_PROBE * x1,))[0]) / (t_.C - t_.D)


# the pinned tolerance of each check, in report order
TOLERANCES = {
    "heat": HEAT_TOL,
    "interface": INTERFACE_TOL,
    "stefan": STEFAN_TOL,
    "boundary": BOUNDARY_TOL,
    "far_field": FAR_FIELD_TOL,
}


# a dataclass, so that callers can copy a report with dataclasses.replace
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


def full_report(sol: ThreePhaseSolution) -> ResidualReport:
    """Run every check and collect the residuals."""
    return ResidualReport(
        heat=heat_residual(sol),
        interface=interface_residual(sol),
        stefan=stefan_residual(sol),
        boundary=boundary_residual(sol),
        far_field=far_field_residual(sol),
    )
