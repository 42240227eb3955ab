"""Parameter equivalences among the three boundary conditions.

Any solved problem fixes a surface temperature and a surface-flux
coefficient, and each mapping reads off the datum that would make another
boundary condition reproduce the identical temperature field.  Every
mapping therefore takes its source problem's solution, checks the
inequality guaranteeing the target datum is admissible, then solves the
target problem so the caller can see the front coefficients agree.  The
source is solved once per context: ``solve`` records its front
coefficients on the context, so a source the caller has already solved
is not solved again.  The target's search tries a bracket of relative
width 2e-9 around the source's coef1 first, inside the target's own
residual, and falls back to the cold bracket when that bracket holds no
sign change; either way the agreement is found, not assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from . import specfun
from .errors import HypothesisError, MissingBoundaryDatum, ValidationError
from .model import BoundarySpec, Dirichlet, Neumann, Robin, Violation
from .transcendental import ProblemContext, find_root_monotone
from .solver import ThreePhaseSolution, _solve_outer, solve, thresholds


@dataclass(frozen=True)
class HypothesisCheck:
    """One named inequality with the two evaluated sides; holds means lhs > rhs."""

    name: str
    lhs: float
    rhs: float

    @property
    def holds(self) -> bool:
        return self.lhs > self.rhs

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "holds": self.holds,
        }


@dataclass(frozen=True)
class EquivalenceReport:
    """Outcome of one mapping, including the round-trip solve of the target."""

    source_kind: str
    target_kind: str
    datum_name: str
    mapped_value: float
    hypotheses: tuple
    source: ThreePhaseSolution
    target: ThreePhaseSolution

    @property
    def coef1_delta(self) -> float:
        return abs(self.source.coef1 - self.target.coef1)

    @property
    def coef2_delta(self) -> float:
        return abs(self.source.coef2 - self.target.coef2)

    def to_dict(self) -> dict:
        return {
            "source_kind": self.source_kind,
            "target_kind": self.target_kind,
            "datum_name": self.datum_name,
            "mapped_value": self.mapped_value,
            "hypotheses": [h.to_dict() for h in self.hypotheses],
            "coef1_delta": self.coef1_delta,
            "coef2_delta": self.coef2_delta,
            "source": self.source.to_dict(),
            "target": self.target.to_dict(),
        }


def _checked(check: HypothesisCheck) -> HypothesisCheck:
    if not check.holds:
        raise HypothesisError(check.name, check.lhs, check.rhs)
    return check


def _report(src, tgt, datum_name, value, checks) -> EquivalenceReport:
    return EquivalenceReport(
        source_kind=src.kind,
        target_kind=tgt.kind,
        datum_name=datum_name,
        mapped_value=value,
        hypotheses=tuple(checks),
        source=src,
        target=tgt,
    )


_SOURCE_NEEDS = {
    Robin: "exchange heat by convection",
    Dirichlet: "impose a temperature",
    Neumann: "impose a flux",
}


def _require_source(ctx: ProblemContext, kind: type) -> None:
    if not isinstance(ctx.bc, kind):
        raise MissingBoundaryDatum(f"source problem must {_SOURCE_NEEDS[kind]}")


def _source(ctx: ProblemContext, kind: type) -> ThreePhaseSolution:
    # the source's own solution, solved at most once per context
    _require_source(ctx, kind)
    return solve(ctx)


def _target(src: ThreePhaseSolution, bc: BoundarySpec) -> ThreePhaseSolution:
    # the source's problem under the mapped datum, solved by a search that
    # starts next to the source's coef1 and falls back to the cold bracket
    return _solve_outer(src.ctx.with_bc(bc), 1e-12, seed=src.coef1)


def robin_to_dirichlet(ctx: ProblemContext) -> EquivalenceReport:
    """Imposed temperature equivalent to a convective datum (h0, A_inf)."""
    src = _source(ctx, Robin)
    a = src.surface_temp
    check = _checked(HypothesisCheck("mapped_A_above_B", a, ctx.temps.B))
    tgt = _target(src, Dirichlet(A=a))
    return _report(src, tgt, "A", a, [check])


def dirichlet_to_robin(
    ctx: ProblemContext, a_inf: Optional[float] = None
) -> EquivalenceReport:
    """Convective datum equivalent to an imposed temperature A.

    The bulk temperature is free, so it must be supplied; any a_inf above A
    works and each choice gives a different but equivalent h0.
    """
    _require_source(ctx, Dirichlet)
    if a_inf is None:
        raise MissingBoundaryDatum(
            "mapping to a convective condition needs a bulk temperature A_inf"
        )
    a = ctx.bc.A
    if a_inf <= a:
        raise ValidationError(
            [
                Violation(
                    "BULK_NOT_ABOVE_A",
                    "A_inf must exceed the imposed surface temperature",
                )
            ]
        )
    src = solve(ctx)
    p, t = ctx.props, ctx.temps
    h0 = (
        p.k3
        * (a - t.B)
        / (
            math.sqrt(ctx.alpha3 * math.pi)
            * (a_inf - a)
            * specfun.erf(src.coef2 * ctx.sigma3)
        )
    )
    h2 = thresholds(ctx, a_inf).h2
    check = _checked(HypothesisCheck("mapped_h0_above_h2", h0, h2))
    tgt = _target(src, Robin(h0=h0, A_inf=a_inf))
    return _report(src, tgt, "h0", h0, [check])


def dirichlet_to_neumann(ctx: ProblemContext) -> EquivalenceReport:
    """Flux coefficient equivalent to an imposed temperature A."""
    src = _source(ctx, Dirichlet)
    q0 = src.flux_coef
    check = _checked(HypothesisCheck("mapped_q0_above_q2", q0, src.thresh.q2))
    tgt = _target(src, Neumann(q0=q0))
    return _report(src, tgt, "q0", q0, [check])


def neumann_to_dirichlet(ctx: ProblemContext) -> EquivalenceReport:
    """Imposed temperature equivalent to a flux coefficient q0."""
    src = _source(ctx, Neumann)
    a = src.surface_temp
    check = _checked(HypothesisCheck("mapped_A_above_B", a, ctx.temps.B))
    tgt = _target(src, Dirichlet(A=a))
    return _report(src, tgt, "A", a, [check])


def robin_to_neumann(ctx: ProblemContext) -> EquivalenceReport:
    """Flux coefficient equivalent to a convective datum (h0, A_inf)."""
    src = _source(ctx, Robin)
    q0 = src.flux_coef
    check = _checked(HypothesisCheck("mapped_q0_above_q2", q0, src.thresh.q2))
    tgt = _target(src, Neumann(q0=q0))
    return _report(src, tgt, "q0", q0, [check])


def neumann_to_robin(
    ctx: ProblemContext, a_inf: Optional[float] = None
) -> EquivalenceReport:
    """Convective datum equivalent to a flux coefficient q0.

    Needs a bulk temperature strictly above the surface temperature the
    flux induces; below that no positive h0 can reproduce the field.
    """
    _require_source(ctx, Neumann)
    if a_inf is None:
        raise MissingBoundaryDatum(
            "mapping to a convective condition needs a bulk temperature A_inf"
        )
    if a_inf <= ctx.temps.B:
        raise ValidationError(
            [Violation("BULK_NOT_ABOVE_B", "A_inf must exceed B")]
        )
    src = solve(ctx)
    denom = a_inf - src.surface_temp
    if denom <= 0.0:
        raise ValidationError(
            [
                Violation(
                    "BULK_NOT_ABOVE_MAPPED_SURFACE",
                    "A_inf must exceed the surface temperature the flux "
                    "induces, otherwise no positive h0 is equivalent",
                )
            ]
        )
    h0 = ctx.bc.q0 / denom
    h2 = thresholds(ctx, a_inf).h2
    check = _checked(HypothesisCheck("mapped_h0_above_h2", h0, h2))
    tgt = _target(src, Robin(h0=h0, A_inf=a_inf))
    return _report(src, tgt, "h0", h0, [check])


_MAPPINGS = {
    ("robin", "dirichlet"): lambda ctx, a_inf: robin_to_dirichlet(ctx),
    ("robin", "neumann"): lambda ctx, a_inf: robin_to_neumann(ctx),
    ("dirichlet", "robin"): dirichlet_to_robin,
    ("dirichlet", "neumann"): lambda ctx, a_inf: dirichlet_to_neumann(ctx),
    ("neumann", "dirichlet"): lambda ctx, a_inf: neumann_to_dirichlet(ctx),
    ("neumann", "robin"): neumann_to_robin,
}


def mapping(
    ctx: ProblemContext, target_kind: str, a_inf: Optional[float] = None
) -> EquivalenceReport:
    """Run the mapping from the context's condition kind to target_kind."""
    if ctx.bc is None:
        raise MissingBoundaryDatum("mapping needs a source boundary datum")
    key = (ctx.bc.kind, target_kind)
    if ctx.bc.kind == target_kind:
        raise ValidationError(
            [
                Violation(
                    "SAME_KIND",
                    "source and target boundary kinds are both "
                    f"{target_kind!r}; nothing to map",
                )
            ]
        )
    if key not in _MAPPINGS:
        raise ValidationError(
            [Violation("BAD_TARGET_KIND", f"unknown target kind {target_kind!r}")]
        )
    return _MAPPINGS[key](ctx, a_inf)


@dataclass(frozen=True)
class CorollaryCheck:
    """One consequence inequality evaluated on a solved problem."""

    name: str
    lhs: float
    relation: str  # "<" or ">"
    rhs: float

    @property
    def holds(self) -> bool:
        return self.lhs < self.rhs if self.relation == "<" else self.lhs > self.rhs

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "lhs": self.lhs,
            "relation": self.relation,
            "rhs": self.rhs,
            "holds": self.holds,
        }


def corollary_checks(
    sol: ThreePhaseSolution, a_inf: Optional[float] = None
) -> list[CorollaryCheck]:
    """Evaluate the proved consequence inequalities on a solution.

    The surface temperature plays the role of the imposed temperature for
    every condition kind.  Checks needing a bulk temperature are emitted
    only when one is available (the solution's own for a convective
    problem, or the explicit argument, which takes precedence and must
    exceed the surface temperature).
    """
    ctx = sol.ctx
    t = ctx.temps
    p = ctx.props
    a = sol.surface_temp
    if a_inf is None and isinstance(ctx.bc, Robin):
        a_inf = ctx.bc.A_inf
    lhs = specfun.erf(sol.coef2 * ctx.sigma3)
    base = (
        math.sqrt(p.k3 * p.c3 / (p.k2 * p.c2))
        * (a - t.B)
        / (t.B - t.C)
        * specfun.erf(ctx.z0 * ctx.sigma2)
    )
    flux_rhs = (
        p.k3
        / p.k2
        * math.sqrt(ctx.alpha2 / ctx.alpha3)
        * (a - t.B)
        / (t.B - t.C)
        * specfun.erf(ctx.z0 * ctx.sigma2)
    )
    out = [
        CorollaryCheck("inner_front_erf_bound_limit", lhs, "<", base),
        CorollaryCheck("inner_front_erf_bound_flux", lhs, "<", flux_rhs),
        CorollaryCheck("surface_above_melt", a, ">", t.B),
    ]
    if a_inf is not None:
        if a_inf <= a:
            raise ValidationError(
                [
                    Violation(
                        "BULK_NOT_ABOVE_SURFACE",
                        "bulk temperature must exceed the surface temperature",
                    )
                ]
            )
        out.insert(
            0,
            CorollaryCheck(
                "inner_front_erf_bound",
                lhs,
                "<",
                base * (a_inf - t.B) / (a_inf - a),
            ),
        )
        out.append(CorollaryCheck("surface_below_bulk", a, "<", a_inf))
    return out


@dataclass(frozen=True)
class AutoSatisfaction:
    """Sufficient-condition summary for mapping a convective datum to a flux.

    When ``holds`` is true, any h0 above both thresholds is guaranteed to
    map to an admissible flux coefficient without solving anything.
    """

    bulk_floor: float
    h2: float
    h2_star: Optional[float]
    holds: bool

    def to_dict(self) -> dict:
        return {
            "bulk_floor": self.bulk_floor,
            "h2": self.h2,
            "h2_star": self.h2_star,
            "holds": self.holds,
        }


def _h2_star_gap(ctx: ProblemContext, a_inf: float):
    p, t = ctx.props, ctx.temps
    num_coef = (
        p.k3
        * (a_inf - t.B)
        * math.sqrt(math.pi * ctx.alpha2)
        * specfun.erf(ctx.z0 * ctx.sigma2)
    )
    den_coef = p.k2 * (t.B - t.C)
    root_pi_a3 = math.sqrt(math.pi * ctx.alpha3)

    def gap(h: float) -> float:
        return num_coef * h / (den_coef * (p.k3 + h * root_pi_a3)) - 1.0

    return gap


def bulk_floor(ctx: ProblemContext) -> float:
    """Smallest bulk temperature for which h2_star exists."""
    p, t = ctx.props, ctx.temps
    return t.B + math.sqrt(ctx.alpha3 / ctx.alpha2) * (p.k2 / p.k3) * (
        t.B - t.C
    ) / specfun.erf(ctx.z0 * ctx.sigma2)


def h2_star(ctx: ProblemContext, a_inf: float) -> float:
    """Auxiliary convective threshold above which the flux bound is automatic.

    Defined as the point where the saturating ratio of the mapped flux to
    its critical value reaches one; exists only when a_inf exceeds
    bulk_floor(ctx), otherwise the underlying search reports no sign
    change.
    """
    return find_root_monotone(_h2_star_gap(ctx, a_inf), 0.0, hi_start=1.0)


def auto_satisfaction(
    ctx: ProblemContext, h0: float, a_inf: float
) -> AutoSatisfaction:
    """Decide the sufficient condition for convective-to-flux admissibility."""
    floor = bulk_floor(ctx)
    h2 = thresholds(ctx, a_inf).h2
    if a_inf <= floor:
        return AutoSatisfaction(bulk_floor=floor, h2=h2, h2_star=None, holds=False)
    star = h2_star(ctx, a_inf)
    return AutoSatisfaction(
        bulk_floor=floor,
        h2=h2,
        h2_star=star,
        holds=h0 > max(h2, star),
    )
