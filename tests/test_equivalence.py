"""Mappings between boundary-condition kinds and their consequence checks."""

import math

import mpmath
import pytest

from stefan3 import (
    Dirichlet,
    HypothesisError,
    MissingBoundaryDatum,
    Neumann,
    ProblemContext,
    Robin,
    RootFailure,
    ValidationError,
    auto_satisfaction,
    bulk_floor,
    corollary_checks,
    dirichlet_to_neumann,
    dirichlet_to_robin,
    h2_star,
    mapping,
    neumann_to_dirichlet,
    neumann_to_robin,
    robin_to_dirichlet,
    robin_to_neumann,
    solve_robin,
    thresholds,
)
from stefan3.equivalence import HypothesisCheck, _checked, _critical
from conftest import PROPS, TEMPS, cold_gaps
from _random_sets import make_sets, wide_sets
from _reference import h2_star_gap
import _expected as E

DELTA_TOL = 1e-11  # mapped pair against a cold solve; far below the 1e-9 contract


def test_robin_to_dirichlet(ctx_robin):
    rep = robin_to_dirichlet(ctx_robin)
    assert (rep.source_kind, rep.target_kind, rep.datum_name) == (
        "robin",
        "dirichlet",
        "A",
    )
    assert rep.mapped_value == pytest.approx(E.A_FROM_ROBIN, rel=1e-12)
    assert max(cold_gaps(rep)) < DELTA_TOL
    (check,) = rep.hypotheses
    assert check.name == "mapped_A_above_B" and check.holds
    assert check.rhs == 328.0


def test_robin_to_neumann(ctx_robin):
    rep = robin_to_neumann(ctx_robin)
    assert rep.mapped_value == pytest.approx(E.Q0_FROM_ROBIN, rel=1e-12)
    assert max(cold_gaps(rep)) < DELTA_TOL
    (check,) = rep.hypotheses
    assert check.name == "mapped_q0_above_q2"
    assert check.lhs - check.rhs == pytest.approx(
        E.MAPPED_Q0_FROM_ROBIN_MINUS_Q2, rel=1e-9
    )


def test_dirichlet_to_robin(ctx_dirichlet):
    rep = dirichlet_to_robin(ctx_dirichlet, a_inf=334.0)
    assert rep.mapped_value == pytest.approx(E.H0_FROM_DIRICHLET_334, rel=1e-12)
    assert max(cold_gaps(rep)) < DELTA_TOL
    (check,) = rep.hypotheses
    assert check.name == "mapped_h0_above_h2"
    assert check.lhs - check.rhs == pytest.approx(
        E.MAPPED_H0_FROM_DIRI_MINUS_H2, rel=1e-9
    )


def test_dirichlet_to_neumann(ctx_dirichlet):
    rep = dirichlet_to_neumann(ctx_dirichlet)
    assert rep.mapped_value == pytest.approx(E.Q0_FROM_DIRICHLET, rel=1e-12)
    assert max(cold_gaps(rep)) < DELTA_TOL
    (check,) = rep.hypotheses
    assert check.lhs - check.rhs == pytest.approx(
        E.MAPPED_Q0_FROM_DIRI_MINUS_Q2, rel=1e-9
    )


def test_neumann_to_dirichlet(ctx_neumann):
    rep = neumann_to_dirichlet(ctx_neumann)
    assert rep.mapped_value == pytest.approx(E.A_FROM_NEUMANN, rel=1e-12)
    assert max(cold_gaps(rep)) < DELTA_TOL


def test_neumann_to_robin(ctx_neumann):
    rep = neumann_to_robin(ctx_neumann, a_inf=334.0)
    assert rep.mapped_value == pytest.approx(E.H0_FROM_NEUMANN_334, rel=1e-12)
    assert max(cold_gaps(rep)) < DELTA_TOL
    # the mapped coefficient times the temperature gap reproduces the flux
    assert rep.mapped_value * E.NEUMANN_DENOM_334 == pytest.approx(300.0, rel=1e-12)


def test_mapped_field_agrees_not_just_coefficients(ctx_robin):
    from stefan3 import evaluate_temperature

    rep = robin_to_dirichlet(ctx_robin)
    for x, t in [(0.0, 1.0), (0.002, 0.3), (0.01, 5.0)]:
        assert evaluate_temperature(rep.source, x, t) == pytest.approx(
            evaluate_temperature(rep.target, x, t), rel=1e-12
        )


def test_dispatcher_routes_and_forwards_bulk(ctx_robin, ctx_dirichlet, ctx_neumann):
    # routing only; the values themselves are pinned in the per-mapping tests
    routes = [
        (robin_to_dirichlet, ctx_robin, "dirichlet", "A", ()),
        (robin_to_neumann, ctx_robin, "neumann", "q0", ()),
        (dirichlet_to_robin, ctx_dirichlet, "robin", "h0", (334.0,)),
        (dirichlet_to_neumann, ctx_dirichlet, "neumann", "q0", ()),
        (neumann_to_dirichlet, ctx_neumann, "dirichlet", "A", ()),
        (neumann_to_robin, ctx_neumann, "robin", "h0", (334.0,)),
    ]
    for fn, ctx, target, datum, bulk in routes:
        rep = fn(ctx, *bulk)
        assert (rep.source_kind, rep.target_kind, rep.datum_name) == (
            ctx.bc.kind,
            target,
            datum,
        )
        assert getattr(rep.target.ctx.bc, datum) == rep.mapped_value
        if bulk:
            assert rep.target.ctx.bc.A_inf == 334.0
        assert rep == mapping(ctx, target, *bulk)


def test_dispatcher_rejections(ctx_robin, ctx_dirichlet, ctx_plain):
    with pytest.raises(ValidationError) as exc:
        mapping(ctx_robin, "robin")
    assert exc.value.violations[0].code == "SAME_KIND"
    with pytest.raises(ValidationError) as exc:
        mapping(ctx_robin, "periodic")
    assert exc.value.violations[0].code == "BAD_TARGET_KIND"
    with pytest.raises(MissingBoundaryDatum):
        mapping(ctx_plain, "dirichlet")
    with pytest.raises(MissingBoundaryDatum):
        mapping(ctx_dirichlet, "robin")  # no bulk temperature supplied


def test_source_kind_guards(ctx_robin, ctx_neumann):
    with pytest.raises(MissingBoundaryDatum):
        dirichlet_to_robin(ctx_robin, a_inf=334.0)
    with pytest.raises(MissingBoundaryDatum):
        neumann_to_robin(ctx_robin, a_inf=334.0)


def test_bulk_temperature_guards(ctx_dirichlet, ctx_neumann):
    with pytest.raises(ValidationError) as exc:
        dirichlet_to_robin(ctx_dirichlet, a_inf=331.0)  # equal to A
    assert exc.value.violations[0].code == "BULK_NOT_ABOVE_A"
    with pytest.raises(ValidationError) as exc:
        neumann_to_robin(ctx_neumann, a_inf=328.0)  # equal to B
    assert exc.value.violations[0].code == "BULK_NOT_ABOVE_B"
    # above B but below the surface temperature the flux induces
    with pytest.raises(ValidationError) as exc:
        neumann_to_robin(ctx_neumann, a_inf=328.5)
    assert exc.value.violations[0].code == "BULK_NOT_ABOVE_MAPPED_SURFACE"


def test_bulk_checks_that_need_no_solution_run_before_the_solve(searches):
    cases = [
        (Dirichlet(A=331.0), None, None),
        (Neumann(q0=300.0), None, None),
        (Dirichlet(A=331.0), 331.0, "BULK_NOT_ABOVE_A"),
        (Neumann(q0=300.0), 328.0, "BULK_NOT_ABOVE_B"),
    ]
    for bc, a_inf, code in cases:
        ctx = ProblemContext(PROPS, TEMPS, bc)  # not solved yet
        with pytest.raises(ValidationError if code else MissingBoundaryDatum) as exc:
            mapping(ctx, "robin", a_inf)
        if code:
            assert exc.value.violations[0].code == code
    assert searches == []


def test_hypothesis_failure_reporting():
    # on data that passes validation and regime classification the mapped
    # inequalities are provably strict, so the failure branch is exercised
    # on a synthetic check rather than by hunting for impossible inputs
    ok = HypothesisCheck("mapped_A_above_B", 2.0, 1.0)
    assert _checked(ok) is ok
    with pytest.raises(HypothesisError) as exc:
        _checked(HypothesisCheck("mapped_q0_above_q2", 1.0, 3.0))
    err = exc.value
    assert (err.name, err.lhs, err.rhs) == ("mapped_q0_above_q2", 1.0, 3.0)
    assert "mapped_q0_above_q2" in str(err)
    # equality does not count as holding
    assert not HypothesisCheck("x", 1.0, 1.0).holds


def test_report_serialization(ctx_neumann):
    d = neumann_to_robin(ctx_neumann, a_inf=334.0).to_dict()
    assert d["datum_name"] == "h0"
    assert d["hypotheses"][0]["holds"] is True
    assert list(d["hypotheses"][0]) == ["name", "lhs", "rhs", "holds"]
    # the target is built from the source's pair
    assert d["coef1_delta"] == d["coef2_delta"] == 0.0
    assert d["source"]["kind"] == "neumann" and d["target"]["kind"] == "robin"


def test_corollaries_dirichlet_against_reference(sol_dirichlet):
    checks = {c.name: c for c in corollary_checks(sol_dirichlet, a_inf=334.0)}
    assert set(checks) == {
        "inner_front_erf_bound",
        "inner_front_erf_bound_limit",
        "inner_front_erf_bound_flux",
        "surface_above_melt",
        "surface_below_bulk",
    }
    bound = checks["inner_front_erf_bound"]
    assert bound.lhs == pytest.approx(E.INNER_BOUND_LHS_DIRI, rel=1e-12)
    assert bound.rhs == pytest.approx(E.INNER_BOUND_RHS_DIRI_334, rel=1e-12)
    assert checks["inner_front_erf_bound_limit"].rhs == pytest.approx(
        E.INNER_BOUND_RHS_DIRI_LIMIT, rel=1e-12
    )
    assert checks["inner_front_erf_bound_flux"].rhs == pytest.approx(
        E.INNER_BOUND_RHS_DIRI_FLUX, rel=1e-12
    )
    assert all(c.holds for c in checks.values())


def test_corollary_limit_and_flux_bounds_are_one_number():
    # sqrt(k3 c3/(k2 c2)) = (k3/k2) sqrt(alpha2/alpha3): the two bounds are
    # one value, not two roundings of it
    from stefan3 import solve

    rhs = [
        {c.name: c.rhs for c in corollary_checks(solve(s["ctx"].with_bc(s[kind])))}
        for s in make_sets()
        for kind in ("robin", "dirichlet", "neumann")
    ]
    assert len(rhs) == 150
    assert all(
        r["inner_front_erf_bound_limit"] == r["inner_front_erf_bound_flux"]
        for r in rhs
    )


def test_corollaries_default_bulk_and_without_bulk(sol_robin, sol_neumann):
    names = [c.name for c in corollary_checks(sol_robin)]
    assert names[0] == "inner_front_erf_bound"  # bulk read from the condition
    assert names[-1] == "surface_below_bulk"
    assert all(c.holds for c in corollary_checks(sol_robin))
    names = {c.name for c in corollary_checks(sol_neumann)}
    assert names == {
        "inner_front_erf_bound_limit",
        "inner_front_erf_bound_flux",
        "surface_above_melt",
    }


def test_corollaries_reject_low_bulk(sol_dirichlet):
    with pytest.raises(ValidationError) as exc:
        corollary_checks(sol_dirichlet, a_inf=331.0)  # not above the surface
    assert exc.value.violations[0].code == "BULK_NOT_ABOVE_SURFACE"


@pytest.mark.parametrize("a_inf", [math.nan, math.inf, -math.inf])
def test_corollaries_reject_a_non_finite_bulk(sol_neumann, a_inf):
    with pytest.raises(ValidationError) as exc:
        corollary_checks(sol_neumann, a_inf=a_inf)
    assert [v.code for v in exc.value.violations] == ["NOT_FINITE"]


def test_corollary_serialization(sol_neumann):
    d = corollary_checks(sol_neumann)[0].to_dict()
    assert d["relation"] == "<" and d["holds"] is True
    assert list(d) == ["name", "lhs", "relation", "rhs", "holds"]


def test_bulk_floor_and_auxiliary_threshold(ctx_plain):
    assert bulk_floor(ctx_plain) == pytest.approx(E.A_INF_FLOOR_AUTO, rel=1e-12)
    assert h2_star(ctx_plain, 360.0) == pytest.approx(E.H2_STAR_360, rel=1e-14)
    assert thresholds(ctx_plain, 360.0).h2 == pytest.approx(E.H2_AT_360, rel=1e-12)


def test_auxiliary_threshold_needs_high_bulk(ctx_plain):
    # below the floor the saturating ratio never reaches one
    with pytest.raises(RootFailure) as exc:
        h2_star(ctx_plain, 340.0)
    assert exc.value.reason == "no_sign_change"


@pytest.mark.parametrize("a_inf, code", [
    (math.inf, "NOT_FINITE"), (-math.inf, "NOT_FINITE"), (math.nan, "NOT_FINITE"),
    (TEMPS.B, "BULK_NOT_ABOVE_B"), (0.0, "BULK_NOT_ABOVE_B"),
])
def test_auxiliary_threshold_checks_its_bulk_temperature(ctx_plain, a_inf, code):
    with pytest.raises(ValidationError) as exc:
        h2_star(ctx_plain, a_inf)
    assert [v.code for v in exc.value.violations] == [code]


@pytest.mark.parametrize("h0, code", [
    (math.inf, "NOT_FINITE"), (-math.inf, "NOT_FINITE"), (math.nan, "NOT_FINITE"),
    (0.0, "ROBIN_H0_NOT_POSITIVE"), (-50.0, "ROBIN_H0_NOT_POSITIVE"),
])
def test_auto_satisfaction_checks_its_h0(ctx_plain, h0, code):
    with pytest.raises(ValidationError) as exc:
        auto_satisfaction(ctx_plain, h0, 360.0)
    assert [v.code for v in exc.value.violations] == [code]
    # the bulk temperature is checked first, with its own codes
    with pytest.raises(ValidationError) as exc:
        auto_satisfaction(ctx_plain, h0, TEMPS.B)
    assert [v.code for v in exc.value.violations] == ["BULK_NOT_ABOVE_B"]


def test_auxiliary_threshold_exists_only_above_the_floor(ctx_plain):
    # at the floor itself the closed form's denominator is one rounding of
    # zero; h2_star and auto_satisfaction agree that h2* does not exist
    floor = bulk_floor(ctx_plain)
    assert floor == 353.22194281741866
    for a_inf in (math.nextafter(floor, -math.inf), floor):
        with pytest.raises(RootFailure) as exc:
            h2_star(ctx_plain, a_inf)
        assert exc.value.reason == "no_sign_change"
        assert auto_satisfaction(ctx_plain, 1e20, a_inf).h2_star is None
    above = math.nextafter(floor, math.inf)
    star = h2_star(ctx_plain, above)
    assert math.isfinite(star) and star > 0.0
    assert auto_satisfaction(ctx_plain, 1e20, above).h2_star == star


def test_auxiliary_threshold_where_its_gap_rounds_to_zero():
    # s2 > B here, so one ulp above the floor A_inf - B is inexact and
    # (A_inf - B) - s2 rounds to 0: h2* is treated as at the floor, not
    # divided by zero
    props = PROPS._replace(k3=0.00028824)
    ctx = ProblemContext(props, TEMPS._replace(B=327.5655288592398))
    q2, s2 = _critical(ctx)
    above = math.nextafter(bulk_floor(ctx), math.inf)
    assert s2 > ctx.temps.B and (above - ctx.temps.B) - s2 == 0.0
    with pytest.raises(RootFailure) as exc:
        h2_star(ctx, above)
    assert exc.value.reason == "no_sign_change"
    assert auto_satisfaction(ctx, 1e20, above).h2_star is None
    star = h2_star(ctx, math.nextafter(above, math.inf))
    assert math.isfinite(star) and star > 0.0


def _critical_mp(ctx):
    # (q2, s2) at 60 digits from the float inputs and the float z0
    p, t = ctx.props, ctx.temps
    a1, a2, a3 = (mpmath.mpf(k) / (mpmath.mpf(p.rho) * c)
                  for k, c in ((p.k1, p.c1), (p.k2, p.c2), (p.k3, p.c3)))
    erf_z0 = mpmath.erf(ctx.z0 * mpmath.sqrt(a1 / a2))
    q2 = p.k2 * (mpmath.mpf(t.B) - t.C) / (mpmath.sqrt(mpmath.pi * a2) * erf_z0)
    return q2, q2 * mpmath.sqrt(mpmath.pi * a3) / p.k3


def test_auxiliary_threshold_matches_60_digits():
    # the closed form's error is the cancellation (A_inf - B) - s2 amplifies:
    # bound it at 2 eps per unit of A_inf/(A_inf - floor)
    eps = 2.0**-52
    ctxs = [s["ctx"] for s in make_sets(50) + wide_sets(40)]
    with mpmath.workdps(60):
        for ctx in ctxs:
            floor = bulk_floor(ctx)
            q2, s2 = _critical_mp(ctx)
            for a_inf in (floor + 0.5, floor + 5.0, floor + 100.0):
                star = h2_star(ctx, a_inf)
                exact = q2 / ((mpmath.mpf(a_inf) - ctx.temps.B) - s2)
                rel = float(abs(star - exact) / exact)
                assert rel <= 2.0 * eps * a_inf / (a_inf - floor)
                # and the paper's saturating ratio reaches one there
                assert abs(h2_star_gap(ctx, a_inf)(star)) <= 1e-13


def test_the_critical_amplitude_is_the_flux_law_at_q2():
    for ctx in [ProblemContext(PROPS, TEMPS)] + [s["ctx"] for s in make_sets()]:
        q2, s2 = _critical(ctx)
        assert q2 == thresholds(ctx).q2
        flux = ctx.with_bc(Neumann(q2))
        assert s2 == flux.bc.law(flux)[1]
        assert bulk_floor(ctx) == ctx.temps.B + s2


def test_corollary_bounds_match_60_digits():
    from stefan3 import solve

    worst, n = 0.0, 0
    with mpmath.workdps(60):
        for s in make_sets():
            _, s2 = _critical_mp(s["ctx"])
            for kind in ("robin", "dirichlet", "neumann"):
                sol = solve(s["ctx"].with_bc(s[kind]))
                a, b = mpmath.mpf(sol.surface_temp), s["ctx"].temps.B
                base = (a - b) / s2
                for c in corollary_checks(sol):
                    if c.name == "inner_front_erf_bound":
                        a_inf = sol.ctx.bc.A_inf
                        exact = base * (a_inf - b) / (a_inf - a)
                    elif c.name.startswith("inner_front_erf_bound_"):
                        exact = base
                    else:
                        continue
                    worst = max(worst, float(abs(c.rhs - exact) / exact))
                n += 1
    assert n == 150
    assert worst <= 1e-15


def test_auto_satisfaction_guarantee(ctx_plain):
    summary = auto_satisfaction(ctx_plain, h0=50.0, a_inf=360.0)
    assert summary.holds
    assert summary.bulk_floor == pytest.approx(E.A_INF_FLOOR_AUTO, rel=1e-12)
    assert summary.h2_star == pytest.approx(E.H2_STAR_360, rel=1e-14)
    assert 50.0 > max(summary.h2, summary.h2_star)
    assert list(summary.to_dict()) == ["bulk_floor", "h2", "h2_star", "holds"]
    # and the promise is kept: the mapped flux clears its own threshold
    ctx = ProblemContext(PROPS, TEMPS, Robin(h0=50.0, A_inf=360.0))
    margin = solve_robin(ctx).flux_coef - thresholds(ctx).q2
    assert margin == pytest.approx(E.AUTO_Q0_MAPPED_MINUS_Q2, rel=1e-9)
    assert margin > 0.0
    assert max(cold_gaps(robin_to_neumann(ctx))) < DELTA_TOL


def test_auto_satisfaction_is_only_sufficient(ctx_plain, ctx_robin):
    # the benchmark bulk temperature sits below the floor, so the summary
    # cannot vouch for it, yet the mapping itself still goes through
    summary = auto_satisfaction(ctx_plain, h0=100.0, a_inf=334.0)
    assert not summary.holds
    assert summary.h2_star is None
    rep = robin_to_neumann(ctx_robin)
    assert rep.hypotheses[0].holds


def test_random_sets_round_trip():
    from stefan3 import solve_neumann

    for s in make_sets(n=5):
        robin = s["ctx"].with_bc(s["robin"])
        diri = s["ctx"].with_bc(s["dirichlet"])
        neum = s["ctx"].with_bc(s["neumann"])
        a_inf_n = solve_neumann(neum).surface_temp + s["margin_n"]
        reports = [
            robin_to_dirichlet(robin),
            robin_to_neumann(robin),
            dirichlet_to_robin(diri, a_inf=s["a_inf_d"]),
            dirichlet_to_neumann(diri),
            neumann_to_dirichlet(neum),
            neumann_to_robin(neum, a_inf=a_inf_n),
        ]
        for rep in reports:
            assert all(c.holds for c in rep.hypotheses)
            assert max(cold_gaps(rep)) < 1e-9


@pytest.mark.parametrize(
    "source, target",
    [
        ("robin", "dirichlet"),
        ("robin", "neumann"),
        ("dirichlet", "robin"),
        ("dirichlet", "neumann"),
        ("neumann", "dirichlet"),
        ("neumann", "robin"),
    ],
)
def test_mapping_a_solved_source_searches_only_for_the_target(
    source, target, searches
):
    # the target is its source's pair: mapping a solved source starts no
    # root search, and a later solve of the target is a memo hit
    from stefan3 import solve

    bc = {"robin": Robin(h0=100.0, A_inf=334.0), "dirichlet": Dirichlet(A=331.0),
          "neumann": Neumann(q0=300.0)}[source]
    ctx = ProblemContext(PROPS, TEMPS, bc)
    sol = solve(ctx)
    del searches[:]
    rep = mapping(ctx, target, sol.surface_temp + 5.0 if target == "robin" else None)
    assert rep.source == sol
    assert (rep.target.coef1, rep.target.coef2) == (sol.coef1, sol.coef2)
    assert solve(rep.target.ctx) == rep.target
    assert searches == []
    assert max(cold_gaps(rep)) < DELTA_TOL


def test_mapping_a_solved_context_reuses_its_solution(monkeypatch):
    # solve(ctx) returns the solution recorded on the context, so a mapping
    # reads the caller's surface values instead of deriving them again
    from stefan3 import solve, specfun
    from conftest import NEUMANN

    ctx = ProblemContext(PROPS, TEMPS, NEUMANN)
    sol = solve(ctx)
    sol.surface_temp  # the caller reads its surface values once
    calls = []
    erf = specfun.erf

    def counted(x):
        calls.append(x)
        return erf(x)

    monkeypatch.setattr(specfun, "erf", counted)
    reports = [mapping(ctx, "dirichlet"), mapping(ctx, "robin", sol.surface_temp + 5.0)]
    assert calls == []
    assert all(rep.source is sol for rep in reports)


def test_a_chain_of_mappings_returns_the_convective_datum():
    # Robin -> Dirichlet -> Neumann -> Robin at the same A_inf reads h0 back
    # through the three surface laws, an identity in the front pair, so the
    # bound counts rounding only.  The Dirichlet datum A = T(0) is a kelvin
    # value rounded to float, which carries eps*A/(A - B) into A - B, and
    # the last law divides by A_inf - T(0), which carries eps*A_inf/(A_inf -
    # T(0)).  Fed the oracle's correctly rounded pair, the chain reads at
    # most 0.6 eps per unit of the two over these sets (0.5 with the
    # solver's pair), so the bound is 4 eps per unit
    eps = 2.0**-52
    n = 0
    for s in wide_sets(300) + make_sets(50):
        bc, B = s["robin"], s["ctx"].temps.B
        diri = mapping(s["ctx"].with_bc(bc), "dirichlet")
        neum = mapping(diri.target.ctx, "neumann")
        back = mapping(neum.target.ctx, "robin", bc.A_inf)
        a = diri.mapped_value
        units = bc.A_inf / (bc.A_inf - a) + a / (a - B)
        assert abs(back.mapped_value - bc.h0) <= 4.0 * eps * units * bc.h0, n
        n += 1
    assert n == 350


def test_every_mapping_guards_its_source_kind(
    ctx_plain, ctx_robin, ctx_dirichlet, ctx_neumann
):
    # each context is solved first, so a missing guard would map the
    # recorded solution of the wrong kind instead of raising
    from stefan3 import solve

    for ctx in (ctx_robin, ctx_dirichlet, ctx_neumann):
        solve(ctx)
    calls = [
        (robin_to_dirichlet, (), (ctx_plain, ctx_dirichlet, ctx_neumann)),
        (robin_to_neumann, (), (ctx_plain, ctx_dirichlet, ctx_neumann)),
        (dirichlet_to_robin, (334.0,), (ctx_plain, ctx_robin, ctx_neumann)),
        (dirichlet_to_neumann, (), (ctx_plain, ctx_robin, ctx_neumann)),
        (neumann_to_dirichlet, (), (ctx_plain, ctx_robin, ctx_dirichlet)),
        (neumann_to_robin, (334.0,), (ctx_plain, ctx_robin, ctx_dirichlet)),
    ]
    for fn, extra, wrong in calls:
        for ctx in wrong:
            with pytest.raises(MissingBoundaryDatum):
                fn(ctx, *extra)
