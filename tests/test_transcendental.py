"""Scalar functions, the matched inner coefficient, and the root finder."""

import math

import pytest
from hypothesis import given, strategies as st

from stefan3 import (
    Dirichlet,
    MissingBoundaryDatum,
    ProblemContext,
    RootFailure,
    find_root_monotone,
    solve,
    solver,
    specfun,
)
from stefan3.transcendental import coef2_from_coef1, outer_residual
from conftest import PROPS, TEMPS
from _random_sets import make_sets
from _reference import h_func, p_func, phi, q_func, t_func, u_func, v_func
import _expected as E


def test_z0_matches_reference(ctx_robin):
    assert ctx_robin.z0 == pytest.approx(E.Z0, abs=1e-13)
    assert abs(h_func(ctx_robin.z0, ctx_robin)) <= 1e-13


def test_z0_independent_of_boundary_kind(ctx_plain, ctx_robin, ctx_dirichlet):
    assert ctx_plain.z0 == ctx_robin.z0 == ctx_dirichlet.z0


def test_a_new_context_holds_every_material_constant():
    # set at construction, each by its formula to the bit; z0 waits for use
    other = make_sets(1)[0]["ctx"]
    for p, temps in ((PROPS, TEMPS), (other.props, other.temps)):
        ctx = ProblemContext(p, temps)
        a1, a2, a3 = (p.k1 / (p.rho * p.c1), p.k2 / (p.rho * p.c2),
                      p.k3 / (p.rho * p.c3))
        ste2 = p.c2 * (temps.B - temps.C) / p.l2
        assert vars(ctx) == {
            "props": p, "temps": temps, "bc": None,
            "alphas": (a1, a2, a3), "alpha1": a1, "alpha2": a2, "alpha3": a3,
            "ste1": p.c1 * (temps.C - temps.D) / p.l1, "ste2": ste2,
            "sigma2": math.sqrt(a1 / a2), "sigma3": math.sqrt(a1 / a3),
            "_h_offset_coef": ste2 / math.sqrt(math.pi) * (p.l2 / p.l1)
            * math.sqrt(p.k2 * p.c1 / (p.k1 * p.c2)),
        }
        assert ctx.sigma2 == math.sqrt(ctx.alpha1 / ctx.alpha2)


def test_inner_coefficient_far_below_z0_is_refused(ctx_robin):
    # at z = 0 the complementary tail erfc(0) + u is 2 or more
    with pytest.raises(ValueError, match=r"h\(z\) < -1"):
        coef2_from_coef1(0.0, ctx_robin)


def test_scalar_values_match_reference(ctx_robin, ctx_dirichlet, ctx_neumann):
    assert phi(1.0, ctx_robin) == pytest.approx(E.PHI_AT_1, rel=1e-13)
    assert h_func(0.0, ctx_robin) == pytest.approx(E.H_AT_ZERO, rel=1e-13)
    assert h_func(1.0, ctx_robin) == pytest.approx(E.H_AT_1, rel=1e-13)
    assert q_func(0.0, ctx_robin) == pytest.approx(E.Q_AT_0, rel=1e-13)
    assert q_func(1.0, ctx_robin) == pytest.approx(E.Q_AT_1, rel=1e-13)
    assert t_func(0.3, ctx_robin) == pytest.approx(E.T_AT_03, rel=1e-12)
    assert u_func(0.3, ctx_robin) == pytest.approx(E.U_AT_03, rel=1e-12)
    assert v_func(0.2, ctx_dirichlet) == pytest.approx(E.V_AT_02, rel=1e-12)
    assert p_func(0.0, ctx_neumann) == pytest.approx(E.P_AT_0, rel=1e-13)
    assert p_func(0.2, ctx_neumann) == pytest.approx(E.P_AT_02, rel=1e-12)


def test_phi_increasing_and_smooth_at_series_switch(ctx_robin):
    prev = phi(0.0, ctx_robin)
    assert prev == pytest.approx(ctx_robin.ste1 / math.sqrt(math.pi), rel=1e-14)
    for i in range(1, 200):
        z = 8.0 * i / 199
        cur = phi(z, ctx_robin)
        assert cur > prev
        prev = cur
    # the asymptotic branch takes over at 6; crossing it may move the value
    # only by the function's own slope (about 1) times the interval width
    below, above = phi(6.0 - 1e-9, ctx_robin), phi(6.0 + 1e-9, ctx_robin)
    assert 0.0 < above - below < 5e-9


def test_domain_guards(ctx_robin, ctx_dirichlet, ctx_neumann):
    with pytest.raises(ValueError):
        phi(-0.1, ctx_robin)
    with pytest.raises(ValueError):
        coef2_from_coef1(-0.1, ctx_robin)
    with pytest.raises(ValueError):
        h_func(-1.0, ctx_robin)
    with pytest.raises(ValueError):
        q_func(-0.5, ctx_robin)
    with pytest.raises(ValueError):
        v_func(0.0, ctx_dirichlet)
    with pytest.raises(ValueError):
        u_func(ctx_robin.z0, ctx_robin)
    with pytest.raises(ValueError):
        u_func(ctx_robin.z0 - 0.01, ctx_robin)
    with pytest.raises(ValueError):
        p_func(-0.2, ctx_neumann)


def test_boundary_datum_guards(ctx_plain, ctx_robin, ctx_neumann):
    with pytest.raises(MissingBoundaryDatum):
        t_func(0.3, ctx_plain)
    with pytest.raises(MissingBoundaryDatum):
        t_func(0.3, ctx_neumann)
    with pytest.raises(MissingBoundaryDatum):
        v_func(0.3, ctx_robin)
    with pytest.raises(MissingBoundaryDatum):
        p_func(0.3, ctx_robin)


def test_inner_coefficient_solves_matching_relation(ctx_robin):
    c = ctx_robin
    for z in [c.z0 + 1e-6, 0.2, 0.5, 1.0, 2.0]:
        m = coef2_from_coef1(z, c)
        assert m > 0.0
        assert specfun.erf(m * c.sigma2) == pytest.approx(
            h_func(z, c), rel=1e-12, abs=1e-15
        )


def test_inner_coefficient_accurate_past_saturation(ctx_robin):
    # where h_func rounds to 1.0 the direct relation is vacuous; the
    # complementary one must still hold to full precision
    c = ctx_robin
    for z in [6.5, 7.0, 8.0]:
        m = coef2_from_coef1(z, c)
        tail = specfun.erfc(z * c.sigma2) + (
            specfun.erf(z * c.sigma2) - h_func(z, c)
        )
        assert specfun.erfc(m * c.sigma2) == pytest.approx(tail, rel=1e-10)


def test_inner_coefficient_increasing(ctx_robin):
    c = ctx_robin
    zs = [c.z0 + 1e-8 + (8.0 - 1e-8) * i / 400 for i in range(401)]
    ms = [coef2_from_coef1(z, c) for z in zs]
    assert all(b > a for a, b in zip(ms, ms[1:]))
    assert all(m < z for m, z in zip(ms, zs))  # inner front trails the outer


def test_find_root_simple_brackets():
    root = find_root_monotone(lambda z: (z * z * z - 8.0, 3.0 * z * z), 0.0)
    assert root == pytest.approx(2.0, abs=1e-13)
    root = find_root_monotone(lambda z: (5.0 - z, -1.0), 0.0)
    assert root == pytest.approx(5.0, abs=1e-13)
    root = find_root_monotone(
        lambda z: (math.expm1(z - 3.0), math.exp(z - 3.0)), 1.0)
    assert root == pytest.approx(3.0, abs=1e-13)


def test_find_root_exact_hit():
    assert find_root_monotone(lambda z: (z - 1.0, 1.0), 1.0) == 1.0


def _steep(z):
    # > 0 from 0 on, and its Newton step back is below an ulp once z is
    # large: doubling must go on to its budget there
    e = math.exp(min(50.0 * z, 700.0))
    return e, 50.0 * e


def test_find_root_no_sign_change():
    for f in (lambda z: (z + 10.0, 1.0), _steep):
        calls = []

        def g(z):
            calls.append(z)
            assert len(calls) <= 202  # lo, 1 and 200 doublings
            return f(z)

        with pytest.raises(RootFailure) as exc:
            find_root_monotone(g, 0.0)
        assert exc.value.reason == "no_sign_change"


def test_flat_residual_before_the_sign_change_ends(monkeypatch):
    # the outer residual is flat at -2.4e101 in float on this material, so
    # each Newton step from the lower end is a few ulps; the search must
    # fall back to doubling and fail, not creep forward by those steps
    calls = []

    def capped(ctx):
        f = outer_residual(ctx)

        def g(z):
            calls.append(z)
            if len(calls) > 10_000:
                raise AssertionError("the search does not end")
            return f(z)

        return g

    monkeypatch.setattr(solver, "outer_residual", capped)
    props = PROPS._replace(k1=0.5, c1=1e200, c3=1e8)
    with pytest.raises(RootFailure) as exc:
        solve(ProblemContext(props, TEMPS, Dirichlet(A=329.0)))
    assert exc.value.reason == "no_sign_change"


def test_find_root_non_finite():
    with pytest.raises(RootFailure) as exc:
        find_root_monotone(lambda z: (math.nan, 1.0), 0.0)
    assert exc.value.reason == "non_finite"


def test_find_root_tol_tightening_is_stable():
    # the search stops at 4 units in the last place; bisecting on to float
    # spacing moves the root by no more than that
    f = lambda z: (math.tanh(z - 1.25), 1.0 / math.cosh(z - 1.25) ** 2)
    for lo in (0.0, 0.5, 1.2, 1.25 - 1e-9):
        root = find_root_monotone(f, lo)
        tight = _bisected(lambda z: f(z)[0], lo, 2.0)
        assert abs(root - tight) <= 4.0 * math.ulp(tight), lo


@given(st.floats(min_value=1e-6, max_value=1e5))
def test_find_root_affine(r):
    root = find_root_monotone(lambda z: (z - r, 1.0), 0.0)
    assert abs(root - r) <= 1e-9 * max(1.0, r)


def test_exp_guard_keeps_large_arguments_finite(ctx_robin, ctx_neumann):
    # bracket doubling probes far past any root; signs must survive
    assert math.isfinite(q_func(50.0, ctx_robin))
    assert q_func(50.0, ctx_robin) > 0.0
    assert math.isfinite(u_func(50.0, ctx_robin))
    assert u_func(50.0, ctx_robin) < 0.0
    assert math.isfinite(p_func(40.0, ctx_neumann))
    assert p_func(40.0, ctx_neumann) < 0.0


def test_context_is_immutable_and_validating(ctx_robin):
    import dataclasses

    from stefan3 import ValidationError, PhaseTemps

    with pytest.raises(dataclasses.FrozenInstanceError):
        ctx_robin.props = None
    with pytest.raises(ValidationError):
        ProblemContext(ctx_robin.props, PhaseTemps(B=1.0, C=2.0, D=3.0))


def _bisection_count(f, lo, hi, tol=1e-12):
    # evaluations plain bisection takes on [lo, hi] to narrow its bracket to
    # 1e-14 with |f| <= tol there, or to float spacing
    flo, n = f(lo), 2
    f(hi)
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return n
        fmid = f(mid)
        n += 1
        if (fmid < 0.0) == (flo < 0.0):
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-14 and abs(fmid) <= tol:
            return n


def _bisected(f, lo, hi):
    # the sign change of f on [lo, hi], bisected down to float spacing
    flo = f(lo)
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return lo if abs(flo) <= abs(f(hi)) else hi
        fmid = f(mid)
        if fmid == 0.0:
            return mid
        if (fmid < 0.0) == (flo < 0.0):
            lo, flo = mid, fmid
        else:
            hi = mid


def _counted(f):
    calls = []

    def g(z):
        calls.append(z)
        return f(z)

    return g, calls


# (f, its exact slope, the root)
HARD_CASES = {
    "steep": (
        lambda z: math.tanh(1e8 * (z - 0.3)),
        lambda z: 1e8 * (1.0 - math.tanh(1e8 * (z - 0.3)))
        * (1.0 + math.tanh(1e8 * (z - 0.3))),
        0.3,
    ),
    "flat": (lambda z: (z - 0.7) ** 9, lambda z: 9.0 * (z - 0.7) ** 8, 0.7),
    "pole": (
        lambda z: -1e300 if z <= 0.0 else z - 0.4 - 1e-3 / z,
        lambda z: 0.0 if z <= 0.0 else 1.0 + 1e-3 / (z * z),
        0.2 + math.sqrt(0.041),
    ),
    # nearly straight on [0, 2], then sharply curved just before the root:
    # slopes at the doubling ends say a Newton step from 2 lands on it at
    # 2.5, where f is about 1; only an evaluated step may end the search.
    # The root is 2.5 - W(80)/80, W being Lambert's function.
    "curl": (
        lambda z: z - 2.5 + math.exp(80.0 * (z - 2.5)),
        lambda z: 1.0 + 80.0 * math.exp(80.0 * (z - 2.5)),
        2.459820134242225378659,
    ),
}


@pytest.mark.parametrize("name", sorted(HARD_CASES))
def test_find_root_worst_case_stays_near_bisection(name):
    f, slope, exact = HARD_CASES[name]
    g, calls = _counted(lambda z: (f(z), slope(z)))
    root = find_root_monotone(g, 0.0)
    hi = 1.0
    while f(hi) < 0.0:
        hi *= 2.0  # the doubling end that brackets the root
    assert len(calls) <= _bisection_count(f, 0.0, hi) + 8
    assert abs(root - exact) <= 1e-14
    # the sign change lies within the 1e-14 bracket around the result
    assert f(root) == 0.0 or f(root - 1e-14) < 0.0 < f(root + 1e-14)


def test_root_search_typical_cost(searches):
    from statistics import median

    from conftest import DIRICHLET, NEUMANN, PROPS, ROBIN, TEMPS
    from _random_sets import make_sets
    from stefan3 import solve

    problems = [(PROPS, TEMPS, (ROBIN, DIRICHLET, NEUMANN))]
    problems += [
        (s["ctx"].props, s["ctx"].temps, (s["robin"], s["dirichlet"], s["neumann"]))
        for s in make_sets()
    ]
    del searches[:]  # make_sets found z0 for its own contexts
    for props, temps, bcs in problems:
        ctx = ProblemContext(props, temps)
        ctx.z0
        for bc in bcs:
            solve(ctx.with_bc(bc))
    z0 = [n for kind, n in searches if kind == "z0"]
    outer = [n for kind, n in searches if kind == "outer"]
    assert (len(z0), len(outer)) == (51, 153)
    # plain bisection takes 49 for each; a Newton run from one side that
    # fell back to bisection once its bracket outgrew the budget took 63
    assert median(outer) <= 6 and max(outer) <= 9
    assert median(z0) <= 9 and max(z0) <= 12


def _kernel_contexts():
    from conftest import DIRICHLET, NEUMANN, PROPS, ROBIN, TEMPS
    from _random_sets import make_sets

    s = make_sets(1)[0]  # distinct diffusivities in every phase
    assert len(set(s["ctx"].alphas)) == 3
    return [ProblemContext(PROPS, TEMPS, bc) for bc in (ROBIN, DIRICHLET, NEUMANN)] + [
        s["ctx"].with_bc(s[kind]) for kind in ("robin", "dirichlet", "neumann")
    ]


def _z_grid(ctx):
    # from just above z0, through the asymptotic phi branch at 6, to past
    # the point where z*z*alpha1/alpha2 reaches _EXP_CAP and exp() saturates
    saturation = math.sqrt(690.0 * ctx.alpha2 / ctx.alpha1)
    zs = [ctx.z0 + d for d in (1e-12, 1e-10, 1e-8, 1e-6, 1e-4)]
    zs += [ctx.z0 + 1e-3 * 1.25**i for i in range(50)]
    zs += [saturation * (1.0 + d) for d in (-1e-12, 0.0, 1e-12)]
    zs += [1.5 * saturation, 100.0, 1e4]
    assert max(zs) > saturation
    return sorted(zs)


def _sign(value):
    return (value > 0.0) - (value < 0.0)


def test_fused_outer_residual_equals_the_point_functions_bit_for_bit():
    import _reference as R
    from stefan3.solver import _outer_bracket
    from stefan3.transcendental import outer_residual

    for ctx in _kernel_contexts():
        assert ctx.bc.law(ctx) == R.law(ctx), ctx.bc
        fused, law, paper = (
            outer_residual(ctx), R.law_residual(ctx), R.outer_residual(ctx))
        zs = _z_grid(ctx)
        values = [(fused(z)[0], law(z), paper(z)) for z in zs]
        assert all(a == b for a, b, _ in values), ctx.bc
        # the paper's per-kind equation has the same sign everywhere ...
        assert all(_sign(a) == _sign(c) for a, _, c in values), ctx.bc
        # ... the grid reaches both signs and the saturated far end ...
        assert values[0][2] < 0.0 < values[-1][2]
        # ... and both equations have the same root: the paper's bisected
        # down to float spacing
        root = find_root_monotone(fused, _outer_bracket(ctx))
        hi = next(z for z, (_, _, c) in zip(zs, values) if c > 0.0)
        want = _bisected(paper, _outer_bracket(ctx), hi)
        assert abs(root - want) <= 1e-14 * want, ctx.bc


def test_fused_h_kernel_equals_h_func_bit_for_bit():
    from stefan3.transcendental import _h_kernel

    for ctx in _kernel_contexts():
        h = _h_kernel(ctx)
        # densely around z0, where h is small and no rounding of the
        # subtracted term is absorbed by erf
        zs = [0.0, 1e-300, 1e-12] + [ctx.z0 * i / 64 for i in range(1, 193)]
        zs += _z_grid(ctx)
        assert all(h(z)[0] == h_func(z, ctx) for z in zs), ctx.bc
        assert h(ctx.z0)[0] == h_func(ctx.z0, ctx)


def test_kernel_slopes_match_the_60_digit_derivatives():
    # the slope half of each kernel against mpmath's derivative of the same
    # formula at 60 digits, from just above z0 to where exp() saturates:
    # past that the capped value has no slope, and the search needs only
    # its sign.  Seen at most 1.6e-13 relative, at the saturation end,
    # where the exponent's rounding (~690 eps) shows; a slope off by 1e-3
    # fails by nine orders
    import mpmath as mp

    import _reference as R
    from stefan3.transcendental import _h_kernel, outer_residual

    worst = 0.0
    with mp.workdps(60):
        for ctx in _kernel_contexts():
            saturation = math.sqrt(690.0 * ctx.alpha2 / ctx.alpha1)
            law = R.law_residual_mp(ctx)
            pairs = (
                (_h_kernel(ctx), lambda z: -R.h_tail_mp(z, ctx)),
                (outer_residual(ctx), law),
            )
            for z in _z_grid(ctx):
                if z >= saturation:
                    continue
                for kernel, exact in pairs:
                    want = mp.diff(exact, mp.mpf(z))
                    worst = max(worst, float(abs(kernel(z)[1] / want - 1)))
    assert worst <= 1e-12


def test_outer_residual_needs_a_boundary_datum(ctx_plain):
    from stefan3.transcendental import outer_residual

    with pytest.raises(MissingBoundaryDatum):
        outer_residual(ctx_plain)


def test_fused_residual_runs_phi_once_per_evaluation(monkeypatch, searches):
    from conftest import DIRICHLET, NEUMANN, PROPS, ROBIN, TEMPS
    from stefan3 import solve_dirichlet, solve_neumann, solve_robin

    calls = {"erf": 0, "erfc_inv": 0, "_inv_erfcx": 0}
    for name in calls:
        kernel = getattr(specfun, name)

        def counted(x, _kernel=kernel, _name=name):
            calls[_name] += 1
            return _kernel(x)

        monkeypatch.setattr(specfun, name, counted)
    for bc, solver in (
        (ROBIN, solve_robin), (DIRICHLET, solve_dirichlet), (NEUMANN, solve_neumann)
    ):
        before = dict(calls)
        del searches[:]
        solver(ProblemContext(PROPS, TEMPS, bc))  # z0 is searched afresh too
        (kind0, z0), (kind1, outer) = searches
        assert (kind0, kind1) == ("z0", "outer")
        ran = {name: calls[name] - before[name] for name in calls}
        # one inversion per evaluation, and one for the matched coef2
        assert ran["erfc_inv"] == outer + 1, bc
        # phi once per z0 and outer evaluation, and once for coef2
        assert ran["_inv_erfcx"] == z0 + outer + 1, bc
        # h runs erf once per z0 evaluation and the thresholds once for
        # erf(z0*sigma2); the residual runs it once per evaluation, except
        # for an imposed flux, whose weight is 1
        assert ran["erf"] == z0 + {
            "robin": outer + 1, "dirichlet": outer, "neumann": 1}[bc.kind], bc
