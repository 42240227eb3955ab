"""Solvers, regime logic, and temperature reconstruction."""

import dataclasses
import json
import math
import random
import warnings

import pytest
from hypothesis import given, strategies as st

from stefan3 import (
    Dirichlet,
    MissingBoundaryDatum,
    Neumann,
    ProblemContext,
    Regime,
    RegimeError,
    Robin,
    RootFailure,
    ValidationError,
    classify_regime,
    evaluate_temperature,
    free_boundaries,
    full_report,
    perturbed,
    solve,
    solve_dirichlet,
    solve_neumann,
    solve_robin,
    solver,
    specfun,
    surface_values,
    temperature_excess,
    thresholds,
)
from stefan3.solver import _FRONT_BAND, phase_profile
from _reference import h_func
from conftest import FLOAT_RANGE_CASES, PROPS, TEMPS
import _expected as E


def test_robin_coefficients_match_reference(sol_robin):
    assert sol_robin.coef1 == pytest.approx(E.ROBIN_COEF1, abs=1e-12)
    assert sol_robin.coef2 == pytest.approx(E.ROBIN_COEF2, abs=1e-12)
    assert sol_robin.surface_temp == pytest.approx(E.ROBIN_SURFACE_T, rel=1e-12)
    assert sol_robin.flux_coef == pytest.approx(E.ROBIN_FLUX_COEF, rel=1e-12)


def test_dirichlet_coefficients_match_reference(sol_dirichlet):
    assert sol_dirichlet.coef1 == pytest.approx(E.DIRICHLET_COEF1, abs=1e-12)
    assert sol_dirichlet.coef2 == pytest.approx(E.DIRICHLET_COEF2, abs=1e-12)
    assert sol_dirichlet.surface_temp == 331.0
    assert sol_dirichlet.flux_coef == pytest.approx(E.DIRICHLET_FLUX_COEF, rel=1e-12)


def test_neumann_coefficients_match_reference(sol_neumann):
    assert sol_neumann.coef1 == pytest.approx(E.NEUMANN_COEF1, abs=1e-12)
    assert sol_neumann.coef2 == pytest.approx(E.NEUMANN_COEF2, abs=1e-12)
    assert sol_neumann.surface_temp == pytest.approx(E.NEUMANN_SURFACE_T, rel=1e-12)
    assert sol_neumann.flux_coef == pytest.approx(300.0, rel=1e-14)


def test_coefficient_ordering(sol_robin, sol_dirichlet, sol_neumann):
    for sol in (sol_robin, sol_dirichlet, sol_neumann):
        assert 0.0 < sol.coef2 < sol.coef1
        assert sol.coef1 > sol.ctx.z0


def test_inner_outer_matching_relation(sol_robin, sol_dirichlet, sol_neumann):
    # the two coefficients are not independent: the inner one must satisfy
    # the same matching relation the scalar reduction is built on
    for sol in (sol_robin, sol_dirichlet, sol_neumann):
        c = sol.ctx
        assert specfun.erf(sol.coef2 * c.sigma2) == pytest.approx(
            h_func(sol.coef1, c), rel=1e-12
        )


def test_thresholds_match_reference(ctx_robin, ctx_plain):
    th = thresholds(ctx_robin)
    assert th.z0 == pytest.approx(E.Z0, abs=1e-13)
    assert th.q1 == pytest.approx(E.Q1, rel=1e-12)
    assert th.q2 == pytest.approx(E.Q2, rel=1e-12)
    assert th.h1 == pytest.approx(E.H1, rel=1e-12)
    assert th.h2 == pytest.approx(E.H2, rel=1e-12)
    assert th.h2 > th.h1 > 0.0
    assert th.q2 > th.q1 > 0.0
    # without a bulk temperature the convective pair does not exist
    th = thresholds(ctx_plain)
    assert th.h1 is None and th.h2 is None
    assert list(th.to_dict()) == ["z0", "q1", "q2"]
    assert list(thresholds(ctx_robin).to_dict()) == ["z0", "q1", "q2", "h1", "h2"]


def test_convective_thresholds_are_the_flux_thresholds_through_the_law():
    # h = q/(A_inf - T(0)) at T(0) = C and B equals the paper's closed form
    from _random_sets import make_sets

    for s in make_sets():
        ctx, a_inf = s["ctx"], s["robin"].A_inf
        p, t = ctx.props, ctx.temps
        th = thresholds(ctx, a_inf)
        h1 = p.k1 / math.sqrt(math.pi * ctx.alpha1) * (t.C - t.D) / (a_inf - t.C)
        h2 = (
            (t.B - t.C)
            / (a_inf - t.B)
            * math.sqrt(p.k2 * p.k3 * p.c2 / (math.pi * p.c3 * ctx.alpha3))
            / specfun.erf(ctx.z0 * ctx.sigma2)
        )
        assert th.h1 == pytest.approx(h1, rel=1e-15)
        assert th.h2 == pytest.approx(h2, rel=1e-15)


def test_thresholds_equal_their_formula_on_fresh_contexts_and_heirs():
    # the cached (z0, q1, q2) and the h1, h2 derived from them equal the
    # formula worked afresh, to the bit, whoever computed the cache
    from _random_sets import wide_sets
    from _reference import threshold_values

    def bits(values):
        return [None if v is None else v.hex() for v in values]

    for s in wide_sets(30):
        ctx, a_inf = s["ctx"], s["robin"].A_inf
        fresh = ProblemContext(ctx.props, ctx.temps, s["robin"])
        contexts = [fresh, ctx, *(ctx.with_bc(s[kind]) for kind in
                                  ("robin", "dirichlet", "neumann"))]
        for c in contexts:
            for bulk in (None, a_inf):
                assert bits(thresholds(c, bulk)) == bits(threshold_values(c, bulk))


def test_heirs_inherit_the_material_thresholds(searches, monkeypatch):
    ctx = ProblemContext(PROPS, TEMPS)
    early = ctx.with_bc(Neumann(q0=300.0))  # made before ctx computes them
    th = thresholds(ctx)
    heir = ctx.with_bc(Robin(h0=100.0, A_inf=334.0))
    calls = []
    erf = specfun.erf
    monkeypatch.setattr(specfun, "erf", lambda x: calls.append(x) or erf(x))
    assert vars(heir)["_thresholds"] is vars(ctx)["_thresholds"]
    assert thresholds(heir)[:3] == th[:3] and calls == []
    assert [kind for kind, _ in searches] == ["z0"]
    # an heir made earlier computes its own, after a z0 search of its own
    assert "_thresholds" not in vars(early)
    assert thresholds(early) == th and calls[-1] == early.z0 * early.sigma2
    assert [kind for kind, _ in searches] == ["z0", "z0"]


def test_thresholds_reject_bad_bulk(ctx_plain):
    with pytest.raises(ValidationError):
        thresholds(ctx_plain, a_inf=TEMPS.B)


@pytest.mark.parametrize("a_inf", [math.nan, math.inf, -math.inf])
def test_thresholds_reject_a_non_finite_bulk(ctx_plain, a_inf):
    with pytest.raises(ValidationError) as exc:
        thresholds(ctx_plain, a_inf=a_inf)
    assert [v.code for v in exc.value.violations] == ["NOT_FINITE"]


def test_classification_against_thresholds(ctx_robin, ctx_neumann):
    th = thresholds(ctx_robin)
    cases = [
        (Robin(h0=2.0, A_inf=334.0), Regime.SINGLE_PHASE),
        (Robin(h0=th.h1, A_inf=334.0), Regime.SINGLE_PHASE),  # sharp boundary
        (Robin(h0=20.0, A_inf=334.0), Regime.TWO_PHASE),
        (Robin(h0=th.h2, A_inf=334.0), Regime.TWO_PHASE),
        (Robin(h0=100.0, A_inf=334.0), Regime.THREE_PHASE),
        (Neumann(q0=30.0), Regime.SINGLE_PHASE),
        (Neumann(q0=th.q1), Regime.SINGLE_PHASE),
        (Neumann(q0=100.0), Regime.TWO_PHASE),
        (Neumann(q0=th.q2), Regime.TWO_PHASE),
        (Neumann(q0=300.0), Regime.THREE_PHASE),
        (Dirichlet(A=328.0 + 1e-9), Regime.THREE_PHASE),
    ]
    for bc, want in cases:
        assert classify_regime(ProblemContext(PROPS, TEMPS, bc)) is want


def test_classification_monotone_in_datum():
    order = [Regime.SINGLE_PHASE, Regime.TWO_PHASE, Regime.THREE_PHASE]
    seen = []
    for h0 in [0.5, 2.0, 3.9, 4.0, 10.0, 41.0, 42.0, 100.0, 1e4]:
        ctx = ProblemContext(PROPS, TEMPS, Robin(h0=h0, A_inf=334.0))
        seen.append(order.index(classify_regime(ctx)))
    assert seen == sorted(seen)


def test_subcritical_data_refused(ctx_plain):
    with pytest.raises(RegimeError) as exc:
        solve(ProblemContext(PROPS, TEMPS, Robin(h0=20.0, A_inf=334.0)))
    assert exc.value.regime is Regime.TWO_PHASE
    with pytest.raises(RegimeError) as exc:
        solve(ProblemContext(PROPS, TEMPS, Neumann(q0=30.0)))
    assert exc.value.regime is Regime.SINGLE_PHASE


def test_solver_kind_guards(ctx_robin, ctx_dirichlet, ctx_neumann, ctx_plain):
    contexts = {"robin": ctx_robin, "dirichlet": ctx_dirichlet, "neumann": ctx_neumann}
    for fn in (solve_robin, solve_dirichlet, solve_neumann):
        kind = fn.__name__[len("solve_"):]
        for ctx in [c for k, c in contexts.items() if k != kind] + [ctx_plain]:
            with pytest.raises(MissingBoundaryDatum):
                fn(ctx)
    with pytest.raises(MissingBoundaryDatum):
        solve(ctx_plain)
    with pytest.raises(MissingBoundaryDatum):
        classify_regime(ctx_plain)


@pytest.mark.parametrize(
    "bc", [Robin(h0=100.0, A_inf=334.0), Dirichlet(A=331.0), Neumann(q0=300.0)]
)
def test_solve_calls_its_kinds_solver_through_the_module(bc, monkeypatch):
    # solve reads solve_<kind> from the solver module when it is called, so
    # a wrapper bound to that module name sees the solve, once; the three
    # solvers are distinct functions, so each name wraps one of them
    assert len({solve_robin, solve_dirichlet, solve_neumann}) == 3
    calls = []

    def recorder(name, fn):
        def record(ctx):
            calls.append(name)
            return fn(ctx)

        return record

    for kind in ("robin", "dirichlet", "neumann"):
        name = f"solve_{kind}"
        monkeypatch.setattr(solver, name, recorder(name, getattr(solver, name)))
    ctx = ProblemContext(PROPS, TEMPS, bc)
    sol = solve(ctx)
    assert calls == [f"solve_{bc.kind}"]
    assert solve(ctx) == sol and len(calls) == 1  # a solved context: no call


def test_front_positions_and_scaling(sol_robin):
    x2, x1 = free_boundaries(sol_robin, 2.5)
    scale = 2.0 * math.sqrt(sol_robin.ctx.alpha1 * 2.5)
    assert x2 == pytest.approx(sol_robin.coef2 * scale, rel=1e-15)
    assert x1 == pytest.approx(sol_robin.coef1 * scale, rel=1e-15)
    assert 0.0 < x2 < x1
    with pytest.raises(ValueError):
        free_boundaries(sol_robin, 0.0)


@given(st.floats(min_value=1e-3, max_value=1e3))
def test_fronts_scale_as_sqrt_t(sol_neumann, lam):
    x2a, x1a = free_boundaries(sol_neumann, 1.0)
    x2b, x1b = free_boundaries(sol_neumann, lam)
    assert x2b == pytest.approx(x2a * math.sqrt(lam), rel=1e-12)
    assert x1b == pytest.approx(x1a * math.sqrt(lam), rel=1e-12)


def test_temperature_anchors(sol_robin, sol_dirichlet, sol_neumann):
    for sol in (sol_robin, sol_dirichlet, sol_neumann):
        for t in (0.1, 1.0, 10.0):
            x2, x1 = free_boundaries(sol, t)
            assert evaluate_temperature(sol, 0.0, t) == pytest.approx(
                sol.surface_temp, abs=1e-10
            )
            assert evaluate_temperature(sol, x2, t) == pytest.approx(328.0, abs=1e-9)
            assert evaluate_temperature(sol, x1, t) == pytest.approx(324.0, abs=1e-9)
            # both edges of the front band agree to the band's width
            for x in (x2 * (1.0 - 1e-15), x2 * (1.0 + 1e-15)):
                assert evaluate_temperature(sol, x, t) == pytest.approx(328.0, abs=1e-9)


def test_temperature_monotone_and_bounded(sol_robin, sol_dirichlet, sol_neumann):
    for sol in (sol_robin, sol_dirichlet, sol_neumann):
        for t in (0.1, 1.0, 10.0):
            _, x1 = free_boundaries(sol, t)
            xs = [x1 * 3.0 * j / 400 for j in range(401)]
            vals = [evaluate_temperature(sol, x, t) for x in xs]
            assert all(a >= b for a, b in zip(vals, vals[1:]))
            assert all(320.0 <= v <= sol.surface_temp for v in vals)


def test_temperature_far_field_is_initial(sol_robin):
    # far enough out the similarity variable saturates and the exact
    # initial value comes back
    assert evaluate_temperature(sol_robin, 1e3, 0.01) == 320.0


def test_temperature_time_similarity(sol_dirichlet):
    # the field is a function of x/sqrt(t) only
    for x, t, lam in [(0.003, 1.0, 4.0), (0.01, 2.0, 9.0), (0.0005, 0.1, 100.0)]:
        a = evaluate_temperature(sol_dirichlet, x, t)
        b = evaluate_temperature(sol_dirichlet, x * math.sqrt(lam), t * lam)
        assert a == pytest.approx(b, rel=1e-12)


def test_temperature_domain_guards(sol_robin):
    with pytest.raises(ValueError):
        evaluate_temperature(sol_robin, -1e-9, 1.0)
    with pytest.raises(ValueError):
        evaluate_temperature(sol_robin, 0.1, 0.0)
    with pytest.raises(ValueError):
        evaluate_temperature(sol_robin, math.nan, 1.0)
    with pytest.raises(ValueError):  # alpha*t underflows to 0
        evaluate_temperature(sol_robin, 1.0, 1e-320)


def test_excess_consistency(sol_neumann):
    for x, t in [(0.0, 1.0), (0.001, 0.5), (0.02, 10.0)]:
        assert evaluate_temperature(sol_neumann, x, t) == pytest.approx(
            320.0 + temperature_excess(sol_neumann, x, t), rel=1e-15
        )


def test_phase_profile_matches_classification(sol_robin):
    t = 1.0
    x2, x1 = free_boundaries(sol_robin, t)
    for x, want in [(x2 * 0.5, 3), (0.5 * (x2 + x1), 2), (x1 * 2.0, 1)]:
        phase, w = phase_profile(sol_robin, x, t)
        assert phase == want
        assert 0.0 <= w <= 1.0


def test_surface_values(sol_robin, sol_neumann):
    temp, flux = surface_values(sol_robin, 4.0)
    assert temp == sol_robin.surface_temp
    assert flux == pytest.approx(-sol_robin.flux_coef / 2.0, rel=1e-15)
    # the imposed-flux problem reproduces its own datum exactly
    _, flux = surface_values(sol_neumann, 9.0)
    assert flux * 3.0 == pytest.approx(-300.0, rel=1e-14)
    with pytest.raises(ValueError):
        surface_values(sol_robin, -1.0)


@pytest.mark.parametrize("t", [math.inf, math.nan, 1e-320],
                         ids=["t-inf", "t-nan", "t-subnormal"])
def test_fronts_and_surface_take_the_field_time_guard(sol_robin, t):
    # the t that temperature_row refuses: not finite, or so small that some
    # alpha*t underflows to 0 (free_boundaries returned (inf, inf) and
    # surface_values a flux of -0.0 at t = inf)
    for fn in (free_boundaries, surface_values):
        with pytest.raises(ValueError, match="alpha"):
            fn(sol_robin, t)


def test_solution_serialization_round_trips(sol_robin):
    d = sol_robin.to_dict()
    blob = json.dumps(d)
    back = json.loads(blob)
    assert back["kind"] == "robin"
    assert back["regime"] == "three_phase"
    assert back["coef1"] == sol_robin.coef1
    assert back["thresholds"]["h2"] == sol_robin.thresh.h2
    assert back["input"]["boundary"] == {"type": "robin", "h0": 100.0, "A_inf": 334.0}


def test_perturbed_rebuilds_consistently(sol_robin):
    p = perturbed(sol_robin, 1e-3, -1e-3)
    assert p.coef1 == pytest.approx(sol_robin.coef1 * 1.001, rel=1e-15)
    assert p.coef2 == pytest.approx(sol_robin.coef2 * 0.999, rel=1e-15)
    # caches follow the new coefficients: the surface condition is rebuilt
    assert p.surface_temp != sol_robin.surface_temp
    assert evaluate_temperature(p, 0.0, 1.0) == pytest.approx(
        p.surface_temp, abs=1e-10
    )


@pytest.mark.parametrize(
    "eps1, eps2",
    # NaN and zero coefficients, a negative coef1, and ones so large that
    # phase 2's span erf(coef1*sigma2) - erf(coef2*sigma2) rounds to 0
    [(math.nan, 0.0), (0.0, -1.0), (-2.0, 0.0), (1e3, 1e3), (1e308, 1e308)],
)
def test_a_perturbation_that_breaks_the_fronts_is_rejected(sol_robin, eps1, eps2):
    with pytest.raises(ValidationError) as exc:
        perturbed(sol_robin, eps1, eps2)
    assert [v.code for v in exc.value.violations] == ["BAD_PERTURB"]


_BAD_NUMBERS = (math.nan, math.inf, -math.inf)


@pytest.mark.parametrize(
    "bc",
    [
        None,
        Robin(h0=100.0, A_inf=334.0),
        Dirichlet(A=331.0),
        Neumann(q0=300.0),
        Robin(h0=-1.0, A_inf=334.0),  # ROBIN_H0_NOT_POSITIVE
        Robin(h0=100.0, A_inf=328.0),  # ROBIN_BULK_NOT_ABOVE_B, A_inf == B
        Robin(h0=0.0, A_inf=300.0),  # both Robin codes
        Dirichlet(A=328.0),  # DIRICHLET_A_NOT_ABOVE_B
        Neumann(q0=0.0),  # NEUMANN_Q0_NOT_POSITIVE
        *(Robin(h0=v, A_inf=334.0) for v in _BAD_NUMBERS),
        *(Robin(h0=-1.0, A_inf=v) for v in _BAD_NUMBERS),
        *(Dirichlet(A=v) for v in _BAD_NUMBERS),
        *(Neumann(q0=v) for v in _BAD_NUMBERS),
    ],
    ids=lambda bc: repr(bc).replace(" ", ""),
)
def test_with_bc_inherits_z0_and_still_validates(bc, searches, monkeypatch):
    from stefan3 import model

    calls = []

    def spy(module, name):
        fn = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a: calls.append(name) or fn(*a))

    spy(model, "diffusivities")
    spy(model, "stefan_numbers")
    ctx = ProblemContext(PROPS, TEMPS)
    material = ("alphas", "ste1", "ste2", "sigma2", "sigma3", "_h_offset_coef",
                "z0", "_thresholds")
    values = [getattr(ctx, name) for name in material]
    q2 = thresholds(ctx).q2
    # validate's range and order checks derive the constants the context
    # keeps, with one stefan_numbers call for both numbers
    assert calls == ["diffusivities", "stefan_numbers"]
    assert [kind for kind, _ in searches] == ["z0"]  # the fixture sees z0's search
    spy(specfun, "erf")
    try:
        fresh = ProblemContext(PROPS, TEMPS, bc)
    except ValidationError as exc:
        # only the datum is checked, and it is reported as a fresh context would
        with pytest.raises(ValidationError) as caught:
            ctx.with_bc(bc)
        assert caught.value.violations == exc.violations
        return
    calls.clear()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # nor is alpha2 == alpha3 warned of again
        heir = ctx.with_bc(bc)
    assert heir == fresh and heir.solution is None
    # the heir recomputes nothing: no diffusivities, Stefan numbers,
    # thresholds q1 and q2, erf(z0*sigma2) or z0 search of its own
    assert [getattr(heir, name) for name in material] == values
    assert thresholds(heir).q2 == q2
    assert calls == [] and len(searches) == 1


@pytest.mark.parametrize(
    "bc", [Robin(h0=100.0, A_inf=334.0), Dirichlet(A=331.0), Neumann(q0=300.0)]
)
def test_memoized_solve_is_bit_identical_to_a_fresh_one(bc, searches):
    ctx = ProblemContext(PROPS, TEMPS, bc)
    first = solve(ctx)
    n = len(searches)
    again = solve(ctx)
    assert len(searches) == n  # no new search
    assert again == first
    fresh = solve(ProblemContext(PROPS, TEMPS, bc))
    assert (fresh.coef1, fresh.coef2) == (first.coef1, first.coef2)
    # the record is the solution itself, and it is per context
    assert again is first and ctx.solution is first
    assert ctx.with_bc(bc).solution is None


def test_solved_contexts_are_freed_by_reference_counting():
    # the context holds its solution weakly, so neither a solve nor the
    # mappings of a solved context leave a cycle for the collector
    import gc

    from stefan3 import neumann_to_dirichlet, neumann_to_robin

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # alpha2 == alpha3 on this material
        gc.collect()
        gc.disable()
        try:
            for _ in range(100):
                ctx = ProblemContext(PROPS, TEMPS, Neumann(q0=300.0))
                sol = solve(ctx)
                neumann_to_dirichlet(ctx)
                neumann_to_robin(ctx, a_inf=334.0)
            del ctx, sol
            assert gc.collect() == 0
        finally:
            gc.enable()
    # a dropped solution is not kept alive by its context
    ctx = ProblemContext(PROPS, TEMPS, Neumann(q0=300.0))
    solve(ctx)
    assert ctx.solution is None


@pytest.mark.parametrize(
    "bc", [Robin(h0=100.0, A_inf=334.0), Dirichlet(A=331.0), Neumann(q0=300.0)]
)
def test_solve_calls_thresholds_only_to_classify(bc, searches, monkeypatch):
    from stefan3 import solver

    calls = []
    original = solver.thresholds

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(solver, "thresholds", counting)
    ctx = ProblemContext(PROPS, TEMPS, bc)
    first = solve(ctx)
    # an imposed temperature has no regime bounds to compare against
    assert len(calls) == (0 if isinstance(bc, Dirichlet) else 1)
    n_calls, n_searches = len(calls), len(searches)
    again = solve(ctx)
    assert (len(calls), len(searches)) == (n_calls, n_searches)
    assert again == first
    # thresh is derived on first use, from the context
    assert again.thresh == original(ctx)
    assert len(calls) == n_calls + 1


@pytest.mark.parametrize("fixture", ["sol_robin", "sol_dirichlet", "sol_neumann"])
def test_a_solution_is_its_context_and_two_coefficients(fixture, request):
    sol = request.getfixturevalue(fixture)
    assert list(sol._fields) == ["ctx", "coef1", "coef2"]
    assert sol.kind == sol.ctx.bc.kind and sol.regime is Regime.THREE_PHASE
    same = perturbed(sol, 0.0, 0.0)
    assert same == sol and hash(same) == hash(sol)
    assert same.to_dict() == sol.to_dict()


def test_records_read_and_hash_as_their_fields(ctx_robin, sol_robin):
    ctx = (
        "ProblemContext(props=MaterialProperties(k1=0.2, k2=0.2, k3=0.2, "
        "c1=2.0, c2=2.0, c3=2.0, rho=770.0, l1=160.0, l2=150.0), "
        "temps=PhaseTemps(B=328.0, C=324.0, D=320.0), "
        "bc=Robin(h0=100.0, A_inf=334.0))"
    )
    assert repr(ctx_robin) == ctx
    assert repr(sol_robin) == (
        f"ThreePhaseSolution(ctx={ctx}, coef1={sol_robin.coef1!r}, "
        f"coef2={sol_robin.coef2!r})"
    )
    assert hash(ctx_robin) == hash((ctx_robin.props, ctx_robin.temps, ctx_robin.bc))
    # a fresh solve of an equal context is an equal, equally hashed solution,
    # but neither record equals the tuple of its fields
    again = solve(ProblemContext(ctx_robin.props, ctx_robin.temps, ctx_robin.bc))
    assert again is not sol_robin
    assert again == sol_robin and hash(again) == hash(sol_robin)
    assert ctx_robin != (ctx_robin.props, ctx_robin.temps, ctx_robin.bc)
    # the value records are named tuples, equal to their fields' tuple
    assert ctx_robin.temps == (328.0, 324.0, 320.0)
    for attr in ("coef1", "cache"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(sol_robin, attr, 0.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        del sol_robin.coef1


def _row_solutions(sol_robin, sol_dirichlet, sol_neumann):
    from _random_sets import make_sets

    s = make_sets(1)[0]
    # distinct diffusivities in every phase, one datum of each kind
    distinct = [solve(s["ctx"].with_bc(s[kind]))
                for kind in ("robin", "dirichlet", "neumann")]
    return [sol_robin, sol_dirichlet, sol_neumann,
            perturbed(sol_robin, 1e-3, -1e-3), *distinct]


def _straddling_grid(sol, t):
    x2, x1 = free_boundaries(sol, t)
    xs = [x1 * 2.5 * j / 40 for j in range(41)]
    for front in (x2, x1):
        # the front, and the points that round into or out of its band
        xs += [front, front * (1.0 - 1e-14), front * (1.0 + 1e-14),
               front * (1.0 + 2e-14), math.nextafter(front, math.inf)]
    return xs + [0.0, 40.0 * x1]


def _rows_in_any_order(sol, t):
    # the straddling grid (its fronts come last, so it does not ascend),
    # then the same points ascending, descending, shuffled and repeated
    grid = _straddling_grid(sol, t)
    shuffled = list(grid)
    random.Random(7).shuffle(shuffled)
    rows = [grid, sorted(grid), sorted(grid, reverse=True), shuffled,
            [x for x in grid for _ in range(3)], grid[::-1] + grid]
    # one-point rows on, just above and just below each band edge
    for front in free_boundaries(sol, t):
        top = front * (1.0 + _FRONT_BAND)
        rows += [[top], [math.nextafter(top, math.inf)],
                 [math.nextafter(top, -math.inf)]]
    return rows


@pytest.mark.parametrize("t", [0.1, 1.0, 7.3])
def test_rows_equal_the_point_reference_bit_for_bit(
    t, sol_robin, sol_dirichlet, sol_neumann
):
    import _reference as ref
    from stefan3.solver import temperature_row

    for sol in _row_solutions(sol_robin, sol_dirichlet, sol_neumann):
        rows = _rows_in_any_order(sol, t)
        assert {phase_profile(sol, x, t)[0] for x in rows[0]} == {1, 2, 3}
        # each band edge splits its one-point rows between two phases
        edges = [phase_profile(sol, xs[0], t)[0] for xs in rows[-6:]]
        assert edges == [3, 2, 3, 2, 1, 2]
        for xs in rows:
            want = [ref.phase_profile(sol, x, t) for x in xs]
            temps = [ref.evaluate_temperature(sol, x, t) for x in xs]
            assert temperature_row(sol, t, xs) == temps
            # the point functions are one-element rows
            assert [phase_profile(sol, x, t) for x in xs] == want
            assert [evaluate_temperature(sol, x, t) for x in xs] == temps
            assert [temperature_excess(sol, x, t) for x in xs] == [
                ref.temperature_excess(sol, x, t) for x in xs
            ]


@pytest.mark.parametrize(
    "xs, t",
    [
        ([0.0, math.nan], 1.0),
        ([math.nan, 0.01], 1.0),
        ([0.01, -1e-300], 1.0),
        ([0.0, math.inf], 1.0),
        ([-math.inf], 1.0),
        ([0.01], 0.0),
        ([0.01], -1.0),
        ([0.01], math.inf),
        ([0.01], math.nan),
        ([], 0.0),
        # positive, but alpha*t underflows to 0, and with it the scale
        # 2*sqrt(alpha*t) that x is divided by
        ([1.0], 1e-320),
        ([0.0, 1.0], 1e-320),
    ],
    ids=["nan-x", "nan-first", "negative-x", "inf-x", "minus-inf-x", "t-zero",
         "t-negative", "t-inf", "t-nan", "empty-t-zero", "t-subnormal",
         "row-t-subnormal"],
)
def test_profile_row_rejects_points_outside_the_domain(sol_robin, xs, t):
    # the row's checks, and phase_profile's at the row's first bad point (or
    # at a good one, when t is bad)
    from stefan3.solver import temperature_row

    with pytest.raises(ValueError):
        temperature_row(sol_robin, t, xs)
    x = next((x for x in xs if not (math.isfinite(x) and x >= 0.0)), 0.01)
    with pytest.raises(ValueError):
        phase_profile(sol_robin, x, t)


def test_a_single_point_runs_one_phase_kernel(sol_robin, monkeypatch):
    calls = []

    def spy(module, name, label):
        fn = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a: calls.append(label) or fn(*a))

    spy(specfun, "erf", "erf")
    spy(specfun, "erfc", "erfc")
    # the solution's phase kernels, bound on their first read
    kernels = sol_robin._kernels
    monkeypatch.setitem(vars(sol_robin), "_kernels", tuple(
        lambda *a, k=k: calls.append("kernel") or k(*a) for k in kernels))
    x2, x1 = free_boundaries(sol_robin, 1.0)
    for x, profile in ((0.5 * x2, "erf"), (0.5 * (x1 + x2), "erf"), (2.0 * x1, "erfc")):
        for point in (evaluate_temperature, temperature_excess, phase_profile):
            point(sol_robin, x, 1.0)  # the solution's constants are cached now
            calls.clear()
            point(sol_robin, x, 1.0)
            # the point's own phase alone: no kernel runs on an empty slice,
            # and phase_profile evaluates its phase's profile itself
            kernel = [] if point is phase_profile else ["kernel"]
            assert calls == kernel + [profile], (x, point.__name__)


def test_empty_row(sol_robin):
    from stefan3.solver import temperature_row

    assert temperature_row(sol_robin, 1.0, []) == []


@pytest.mark.parametrize(
    "override, bc",
    [
        # the outer search ended at z0, where h < 0: coef2 was -2.48e23
        (dict(k1=1e-30, k2=1e30), Dirichlet(A=329.0)),
        # coef2 was 0.0, and the surface law divided by erf(0)
        (dict(c2=1e-30, c3=3.0), Dirichlet(A=328.5)),
    ],
)
def test_solve_never_returns_an_inner_coefficient_at_or_below_zero(override, bc):
    ctx = ProblemContext(PROPS._replace(**override), TEMPS, bc)
    with pytest.raises(RootFailure) as exc:
        solve(ctx)
    assert exc.value.reason == "unresolved"


def test_a_phase_2_span_that_rounds_to_zero_is_unresolved():
    from stefan3.solver import temperature_row
    from stefan3.verify import heat_residual

    sol = solve(ProblemContext(PROPS, TEMPS, Robin(h0=1.0, A_inf=1e20)))
    # a solution, with fronts erf cannot tell apart in phase 2's variable
    assert 0.0 < sol.coef2 < sol.coef1
    assert specfun.erf(sol.coef1 * sol.ctx.sigma2) == specfun.erf(
        sol.coef2 * sol.ctx.sigma2)
    x2, x1 = free_boundaries(sol, 1.0)
    for field in (
        lambda: temperature_row(sol, 1.0, [0.0, x2, x1, 2.0 * x1]),
        lambda: evaluate_temperature(sol, 2.0 * x1, 1.0),
        lambda: heat_residual(sol),
        lambda: full_report(sol),
    ):
        with pytest.raises(RootFailure) as exc:
            field()
        assert exc.value.reason == "unresolved"


def _float_range_context(case):
    override, bc = FLOAT_RANGE_CASES[case]
    return ProblemContext(PROPS._replace(**override), TEMPS, bc)


@pytest.mark.parametrize("case, stage", [("robin_law", solve),
                                         ("thresholds", thresholds)])
def test_a_divisor_that_rounds_to_zero_is_unresolved(case, stage):
    with pytest.raises(RootFailure) as exc:
        stage(_float_range_context(case))
    assert exc.value.reason == "unresolved"


def test_phase_1_reads_its_front_value_where_eta_rounds_below_coef1():
    from stefan3.solver import _phase_excess

    sol = solve(_float_range_context("phase1_kernel"))
    assert specfun.erfc(sol.coef1) == 0.0
    solid = TEMPS.C - TEMPS.D
    for t in (1.0, 7.3):
        d = 2.0 * math.sqrt(sol.ctx.alpha1 * t)
        xs = [d * sol.coef1 * (1.0 + k * 1e-16) for k in range(-3, 4)]
        below = [x for x in xs if x / d < sol.coef1]
        assert below
        assert _phase_excess(sol, 1, t, below) == pytest.approx(
            [solid] * len(below), rel=1e-14)
    assert isinstance(full_report(sol).passes, bool)  # and the report runs
