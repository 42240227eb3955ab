"""Parameter equivalences among the three boundary conditions.

A solved problem fixes a surface temperature T(0) and a surface-flux
coefficient, and every equivalent datum is read off those two numbers:
A = T(0), q0 = the flux coefficient, and h0 = flux coefficient /
(A_inf - T(0)) for a chosen bulk temperature A_inf.  ``mapping`` keeps
one table keyed by the target kind, each entry naming the datum, reading
it off the solved source and bounding it by its admissibility hypothesis;
the six named mappings check the source's kind with the solver's guard
and call it.  Every explicit bulk temperature is checked by
model.require_bulk.  The source is solved once per context (``solve``
records its coefficients on the context).  By the paper's equivalence the
target shares the source's front coefficients, so it is built from that
pair and recorded on its context with no search of its own; its admissibility
hypothesis is the target's three-phase condition.  The report's coefficient
deltas therefore read 0.0; the tests and the benchmark's checks compare the
target against an independent solve of the mapped datum.

The critical flux q2 carries the phase-3 amplitude s2 =
q2*sqrt(pi*alpha3)/k3 (the flux law's n at q0 = q2).  The sufficient
condition for a convective-to-flux mapping reads q2 through the same law:
the bulk floor is B + s2, the threshold h2* is q2/((A_inf - B) - s2), and
the corollary bound on erf(coef2*sigma3) is (T(0) - B)/s2.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Optional

from . import specfun
from .errors import HypothesisError, MissingBoundaryDatum, RootFailure, ValidationError
from .model import Dirichlet, Neumann, Robin, Violation, require_bulk
from .transcendental import ProblemContext
from .solver import ThreePhaseSolution, _of_kind, _solved, solve, thresholds


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
        return {**asdict(self), "holds": self.holds}


@dataclass(frozen=True)
class EquivalenceReport:
    """Outcome of one mapping: the solved source and the target it maps to."""

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


def _invalid(code: str, message: str) -> ValidationError:
    return ValidationError([Violation(code, message)])


def _require_bulk(ctx: ProblemContext, a_inf: Optional[float]) -> None:
    # the checks of a convective target's bulk temperature that need no solution
    if a_inf is None:
        raise MissingBoundaryDatum(
            "mapping to a convective condition needs a bulk temperature A_inf"
        )
    if isinstance(ctx.bc, Dirichlet):  # A > B, so this bound is the tighter
        require_bulk(a_inf, ctx.bc.A, "BULK_NOT_ABOVE_A",
                     "A_inf must exceed the imposed surface temperature")
    else:
        require_bulk(a_inf, ctx.temps.B, "BULK_NOT_ABOVE_B", "A_inf must exceed B")


def _mapped_h0(src: ThreePhaseSolution, a_inf: float) -> float:
    if a_inf <= src.surface_temp:
        raise _invalid(
            "BULK_NOT_ABOVE_MAPPED_SURFACE",
            "A_inf must exceed the surface temperature the flux induces, "
            "otherwise no positive h0 is equivalent",
        )
    return src.flux_coef / (a_inf - src.surface_temp)


# target kind -> (datum name, target class, hypothesis, the datum read off the
# solved source, the bound the hypothesis requires it to exceed); a_inf is
# the bulk temperature of a convective target
_TARGETS = {
    "dirichlet": ("A", Dirichlet, "mapped_A_above_B",
                  lambda src, a_inf: src.surface_temp,
                  lambda src, a_inf: src.ctx.temps.B),
    "neumann": ("q0", Neumann, "mapped_q0_above_q2",
                lambda src, a_inf: src.flux_coef,
                lambda src, a_inf: src.thresh.q2),
    "robin": ("h0", Robin, "mapped_h0_above_h2", _mapped_h0,
              lambda src, a_inf: thresholds(src.ctx, a_inf).h2),
}


def mapping(
    ctx: ProblemContext, target_kind: str, a_inf: Optional[float] = None
) -> EquivalenceReport:
    """Map the context's boundary datum onto target_kind.

    a_inf, the bulk temperature, is needed and used only by a convective
    target; any value above the source's surface temperature gives a
    different but equivalent h0.
    """
    if ctx.bc is None:
        raise MissingBoundaryDatum("mapping needs a source boundary datum")
    if ctx.bc.kind == target_kind:
        raise _invalid(
            "SAME_KIND",
            f"source and target boundary kinds are both {target_kind!r}; "
            "nothing to map",
        )
    if target_kind not in _TARGETS:
        raise _invalid("BAD_TARGET_KIND", f"unknown target kind {target_kind!r}")
    name, cls, hypothesis, read, bound = _TARGETS[target_kind]
    bulk = ()
    if cls is Robin:
        _require_bulk(ctx, a_inf)
        bulk = (a_inf,)
    src = solve(ctx)
    value = read(src, a_inf)
    check = _checked(HypothesisCheck(hypothesis, value, bound(src, a_inf)))
    tgt = _solved(ctx.with_bc(cls(value, *bulk)), src.coef1, src.coef2)
    return EquivalenceReport(src.kind, target_kind, name, value, (check,), src, tgt)


def robin_to_dirichlet(ctx: ProblemContext) -> EquivalenceReport:
    """Imposed temperature equivalent to a convective datum (h0, A_inf)."""
    return mapping(_of_kind(ctx, "robin"), "dirichlet")


def robin_to_neumann(ctx: ProblemContext) -> EquivalenceReport:
    """Flux coefficient equivalent to a convective datum (h0, A_inf)."""
    return mapping(_of_kind(ctx, "robin"), "neumann")


def dirichlet_to_robin(
    ctx: ProblemContext, a_inf: Optional[float] = None
) -> EquivalenceReport:
    """Convective datum equivalent to an imposed temperature A.

    The bulk temperature is free, so it must be supplied; any a_inf above A
    works and each choice gives a different but equivalent h0.
    """
    return mapping(_of_kind(ctx, "dirichlet"), "robin", a_inf)


def dirichlet_to_neumann(ctx: ProblemContext) -> EquivalenceReport:
    """Flux coefficient equivalent to an imposed temperature A."""
    return mapping(_of_kind(ctx, "dirichlet"), "neumann")


def neumann_to_dirichlet(ctx: ProblemContext) -> EquivalenceReport:
    """Imposed temperature equivalent to a flux coefficient q0."""
    return mapping(_of_kind(ctx, "neumann"), "dirichlet")


def neumann_to_robin(
    ctx: ProblemContext, a_inf: Optional[float] = None
) -> EquivalenceReport:
    """Convective datum equivalent to a flux coefficient q0.

    Needs a bulk temperature strictly above the surface temperature the
    flux induces; below that no positive h0 can reproduce the field.
    """
    return mapping(_of_kind(ctx, "neumann"), "robin", a_inf)


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
        return {**asdict(self), "holds": self.holds}


def corollary_checks(
    sol: ThreePhaseSolution, a_inf: Optional[float] = None
) -> list[CorollaryCheck]:
    """Evaluate the proved consequence inequalities on a solution.

    The surface temperature plays the role of the imposed temperature for
    every condition kind.  Checks needing a bulk temperature are emitted
    only when one is available (the solution's own for a convective
    problem, or the explicit argument, which takes precedence and must
    be finite and exceed the surface temperature).
    """
    ctx = sol.ctx
    t = ctx.temps
    a = sol.surface_temp
    if a_inf is None:
        a_inf = getattr(ctx.bc, "A_inf", None)
    lhs = specfun.erf(sol.coef2 * ctx.sigma3)
    base = (a - t.B) / _critical(ctx)[1]  # one number for both named bounds
    out = [
        CorollaryCheck("inner_front_erf_bound_limit", lhs, "<", base),
        CorollaryCheck("inner_front_erf_bound_flux", lhs, "<", base),
        CorollaryCheck("surface_above_melt", a, ">", t.B),
    ]
    if a_inf is not None:
        require_bulk(a_inf, a, "BULK_NOT_ABOVE_SURFACE",
                     "bulk temperature must exceed the surface temperature")
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
        return asdict(self)


def _critical(ctx: ProblemContext) -> tuple[float, float]:
    # (q2, s2): the critical flux and the phase-3 amplitude it carries
    q2 = thresholds(ctx).q2
    return q2, q2 * math.sqrt(math.pi * ctx.alpha3) / ctx.props.k3


def _h2_star(a_inf: float, b: float, q2: float, s2: float) -> Optional[float]:
    # None unless a_inf > b + s2 and the gap, b subtracted first for one
    # rounding in the cancellation, does not round to 0 (only if a_inf > 2b)
    gap = (a_inf - b) - s2
    return q2 / gap if a_inf > b + s2 and gap > 0.0 else None


def bulk_floor(ctx: ProblemContext) -> float:
    """Smallest bulk temperature for which h2_star exists: B + s2."""
    return ctx.temps.B + _critical(ctx)[1]


def h2_star(ctx: ProblemContext, a_inf: float) -> float:
    """Auxiliary convective threshold above which the flux bound is automatic.

    q2/((a_inf - B) - s2), where the saturating ratio of the mapped flux to
    q2 reaches one.  RootFailure("no_sign_change") unless a_inf exceeds
    bulk_floor(ctx) by a gap (a_inf - B) - s2 that does not round to zero.
    """
    q2, s2 = _critical(ctx)
    star = _h2_star(a_inf, ctx.temps.B, q2, s2)
    if star is None:
        raise RootFailure("no_sign_change", f"no h2* at A_inf {a_inf!r}: "
                          f"the bulk floor is {ctx.temps.B + s2!r}")
    return star


def auto_satisfaction(
    ctx: ProblemContext, h0: float, a_inf: float
) -> AutoSatisfaction:
    """Decide the sufficient condition for convective-to-flux admissibility."""
    q2, s2 = _critical(ctx)
    h2 = thresholds(ctx, a_inf).h2
    star = _h2_star(a_inf, ctx.temps.B, q2, s2)
    holds = star is not None and h0 > max(h2, star)
    return AutoSatisfaction(ctx.temps.B + s2, h2, star, holds)
