"""Residual harness: correct solutions pass, corrupted ones are caught."""

import json
import math
import sys

import pytest

from stefan3 import (
    Dirichlet,
    Neumann,
    ProblemContext,
    ResidualReport,
    Robin,
    RootFailure,
    far_field_residual,
    full_report,
    heat_residual,
    interface_residual,
    perturbed,
    solve,
    stefan_residual,
    thresholds,
    verify,
)
from stefan3.solver import _phase_excess, free_boundaries, phase_profile
from stefan3.verify import (
    BOUNDARY_TOL,
    FAR_FIELD_TOL,
    HEAT_SAMPLES,
    HEAT_TIMES,
    HEAT_TOL,
    INTERFACE_TOL,
    STEFAN_TOL,
)
from conftest import FLOAT_RANGE_CASES, PROPS, TEMPS
import _expected as E
import _reference as ref
from _random_sets import make_sets, wide_sets

EPS = sys.float_info.epsilon


def test_benchmark_solutions_pass_everywhere(sol_robin, sol_dirichlet, sol_neumann):
    for sol in (sol_robin, sol_dirichlet, sol_neumann):
        rep = full_report(sol)
        assert rep.passes, rep.failures()
        assert set(rep.heat) == {"phase1", "phase2", "phase3"}
        assert all(v <= HEAT_TOL for v in rep.heat.values())
        assert all(v <= INTERFACE_TOL for v in rep.interface.values())
        assert all(v <= STEFAN_TOL for v in rep.stefan.values())
        assert rep.boundary <= BOUNDARY_TOL
        assert rep.far_field <= FAR_FIELD_TOL


def test_heat_residual_well_below_tolerance(sol_robin):
    # a true field departs from its affine form by rounding alone (0.78 eps
    # at most), six orders under the gate
    res = heat_residual(sol_robin)
    assert set(res) == {"phase1", "phase2", "phase3"}
    assert max(res.values()) < 4.0 * EPS


def test_interface_exact_by_construction(sol_dirichlet):
    res = interface_residual(sol_dirichlet)
    assert set(res) == {
        "front2_liquid",
        "front2_middle",
        "front1_middle",
        "front1_solid",
    }
    assert all(v < 1e-13 for v in res.values())


def test_stefan_residual_time_independent(sol_robin):
    # the balance at t = 1 is the balance at any other time, for a solution
    # and for a wrong one whose residual sits far above rounding
    for sol in (sol_robin, perturbed(sol_robin, 1e-6, 1e-6)):
        got = stefan_residual(sol)
        assert set(got) == {"front1", "front2"}
        for t in (0.5, 50.0):
            want = ref.stefan_residual(sol, t)
            for key in got:
                assert got[key] == pytest.approx(want[key], abs=1e-12)


def test_far_field_matches_reference_and_decays(sol_robin, sol_dirichlet, sol_neumann):
    frozen = {
        "robin": (E.FARFIELD_ROBIN_X10, E.FARFIELD_ROBIN_X20, E.FARFIELD_ROBIN_X30),
        "dirichlet": (
            E.FARFIELD_DIRICHLET_X10,
            E.FARFIELD_DIRICHLET_X20,
            E.FARFIELD_DIRICHLET_X30,
        ),
        "neumann": (
            E.FARFIELD_NEUMANN_X10,
            E.FARFIELD_NEUMANN_X20,
            E.FARFIELD_NEUMANN_X30,
        ),
    }
    for sol in (sol_robin, sol_dirichlet, sol_neumann):
        want10, want20, want30 = frozen[sol.kind]
        # the nearer probes read the solid kernel as far_field_residual does
        t_ = sol.ctx.temps
        x1 = free_boundaries(sol, 1.0)[1]
        got = [abs(_phase_excess(sol, 1, 1.0, (f * x1,))[0]) / (t_.C - t_.D)
               for f in (10.0, 20.0)] + [far_field_residual(sol)]
        assert got[0] == pytest.approx(want10, rel=1e-9)
        assert got[1] == pytest.approx(want20, rel=1e-9)
        assert got[2] == pytest.approx(want30, rel=1e-6)
        assert got[0] > got[1] > got[2]
        # the probe distance is what makes the 1e-8 gate attainable
        assert got[1] > FAR_FIELD_TOL > got[2]


def test_far_field_rejects_near_probe(sol_robin):
    # the probe distance is fixed, so no caller can move it in, or anywhere
    for x_factor in (9.9, 30.0, math.nan, math.inf):
        with pytest.raises(TypeError, match="x_factor"):
            far_field_residual(sol_robin, x_factor=x_factor)
        with pytest.raises(TypeError, match="x_factor"):
            full_report(sol_robin, x_factor=x_factor)


def test_perturbation_scales_linearly(sol_robin):
    small = max(stefan_residual(perturbed(sol_robin, 1e-6, 1e-6)).values())
    large = max(stefan_residual(perturbed(sol_robin, 1e-5, 1e-5)).values())
    assert small > STEFAN_TOL  # even a 1e-6 relative error is caught
    assert 8.0 < large / small < 12.0


def test_perturbation_caught_by_energy_balance_only(sol_robin):
    # a wrong front coefficient still yields exact per-phase profiles,
    # continuous interfaces, and a satisfied surface condition, so the
    # energy balance is the check that must catch it
    rep = full_report(perturbed(sol_robin, 1e-4, 0.0))
    assert not rep.passes
    assert rep.failures() == ["stefan:front1", "stefan:front2"]
    assert all(v <= HEAT_TOL for v in rep.heat.values())
    assert rep.boundary <= BOUNDARY_TOL


def test_boundary_check_holds_at_a_large_exchange_coefficient(ctx_robin):
    # h0 = 1e6*h2 puts T(0) 1.2e-5 K below A_inf: the surface flux
    # h0*(T(0) - A_inf) cancels there, the law's terms do not
    from stefan3 import Robin, solve, thresholds

    bc = Robin(h0=1e6 * thresholds(ctx_robin).h2, A_inf=334.0)
    sol = solve(ctx_robin.with_bc(bc))
    rep = full_report(sol)
    assert rep.boundary <= 1e-14
    assert rep.passes, rep.failures()
    # a wrong root still satisfies the law it is derived from, and the
    # energy balance catches it
    assert full_report(perturbed(sol, 1e-6, 1e-6)).failures() == [
        "stefan:front1", "stefan:front2"]


def test_perturbation_both_coefficients_fails(sol_dirichlet, sol_neumann):
    for sol in (sol_dirichlet, sol_neumann):
        rep = full_report(perturbed(sol, 1e-3, -1e-3))
        assert not rep.passes
        assert any(f.startswith("stefan") for f in rep.failures())


# the steps the finite-difference heat check once took, none of them usable
@pytest.mark.parametrize("rel_step", [1e-200, 1e-160, 0.0, -1e-4, math.nan])
def test_step_whose_square_is_not_normal_is_rejected(sol_robin, rel_step):
    # the heat check takes no step, so full_report has none to be given: a
    # caller still passing one fails loudly rather than being ignored
    with pytest.raises(TypeError, match="rel_step"):
        full_report(sol_robin, rel_step=rel_step)


@pytest.mark.parametrize("rel_step", [1e-150, 1e-20, 1e-16])
def test_step_too_fine_to_clear_a_front_is_rejected(
    sol_robin, sol_dirichlet, sol_neumann, rel_step
):
    # no stencil has to clear a front any more, and heat_residual has no step
    for sol in (sol_robin, sol_dirichlet, sol_neumann):
        with pytest.raises(TypeError, match="rel_step"):
            heat_residual(sol, rel_step=rel_step)


def _kernel_calls(monkeypatch, check, sol):
    # every (phase, t, xs) the check hands the field kernel
    calls, kernel = [], verify._phase_excess

    def spy(sol, phase, t, xs):
        calls.append((phase, t, list(xs)))
        return kernel(sol, phase, t, xs)

    monkeypatch.setattr(verify, "_phase_excess", spy)
    check(sol)
    monkeypatch.undo()
    return calls


def test_windows_clear_the_fronts(sol_neumann, monkeypatch):
    # each phase is sampled from x = 0 or the front below up to the front
    # above (three diffusion lengths past the outer front in phase 1), in x
    # at each time, HEAT_SAMPLES evenly spaced samples
    c, (k1, k2) = sol_neumann.ctx, (sol_neumann.coef1, sol_neumann.coef2)
    ends = {3: (0.0, k2 * c.sigma3), 2: (k2 * c.sigma2, k1 * c.sigma2),
            1: (k1, k1 + 3.0)}
    calls = _kernel_calls(monkeypatch, heat_residual, sol_neumann)
    assert [(phase, t) for phase, t, _ in calls] == [
        (phase, t) for phase in (1, 2, 3) for t in HEAT_TIMES]
    for phase, t, xs in calls:
        d = 2.0 * math.sqrt(c.alphas[phase - 1] * t)
        etas = [x / d for x in xs]
        assert len(etas) == HEAT_SAMPLES
        assert etas[0] == pytest.approx(ends[phase][0], rel=4 * EPS, abs=0.0)
        assert etas[-1] == pytest.approx(ends[phase][1], rel=4 * EPS)
        steps = [b - a for a, b in zip(etas, etas[1:])]
        assert max(steps) == pytest.approx(min(steps), rel=1e-9)


def test_report_serialization(sol_robin):
    d = full_report(sol_robin).to_dict()
    json.dumps(d)
    assert d["pass"] is True
    assert d["failures"] == []
    assert set(d["tolerances"]) == {
        "heat",
        "interface",
        "stefan",
        "boundary",
        "far_field",
    }
    assert d["tolerances"]["heat"] == 1e-10


def test_failures_name_each_offender():
    rep = ResidualReport(
        heat={"phase1": 0.0, "phase2": 2e-6, "phase3": 0.0},
        interface={"front2_liquid": 1e-9},
        stefan={"front1": 0.0, "front2": 0.0},
        boundary=0.0,
        far_field=5e-8,
    )
    assert rep.failures() == ["heat:phase2", "interface:front2_liquid", "far_field"]
    assert not rep.passes
    rep = ResidualReport(
        heat={"phase1": 0.0},
        interface={"front1_solid": 0.0},
        stefan={"front1": 2e-10, "front2": 0.0},
        boundary=2e-10,
        far_field=0.0,
    )
    assert rep.failures() == ["stefan:front1", "boundary"]


# perturbation sizes: the check equals its point-by-point loop on wrong
# solutions too, whose fields are as affine as the true one's
@pytest.mark.parametrize("eps", [1e-4, 4e-3, 2e-3, 1e-3])
def test_heat_residual_equals_the_point_by_point_loop(
    eps, sol_robin, sol_dirichlet, sol_neumann
):
    for sol in (sol_robin, sol_dirichlet, sol_neumann):
        for s in (sol, perturbed(sol, eps, -eps)):
            got, want = heat_residual(s), ref.heat_residual(s)
            assert set(got) == set(want)
            # the loop takes erfc(eta)/erfc(coef1) plainly, not in ratio form
            for key in got:
                assert got[key] == pytest.approx(want[key], rel=0.0, abs=4 * EPS)


@pytest.mark.parametrize("n_points", [0, -3])
def test_heat_check_without_samples_is_rejected(sol_robin, monkeypatch, n_points):
    # the sample count is no parameter, so no caller can ask for a check
    # that samples nothing and passes; every phase is sampled at each time
    with pytest.raises(TypeError, match="n_points"):
        heat_residual(sol_robin, n_points=n_points)
    with pytest.raises(TypeError, match="n_points"):
        full_report(sol_robin, n_points=n_points)
    calls = _kernel_calls(monkeypatch, heat_residual, sol_robin)
    assert sorted(phase for phase, _, _ in calls) == [1, 1, 2, 2, 3, 3]
    assert {len(xs) for _, _, xs in calls} == {HEAT_SAMPLES} and HEAT_SAMPLES >= 3


def test_one_time_measures_what_three_did(sol_robin, sol_dirichlet, sol_neumann):
    # a true field's affine coefficients do not change in time, so held to
    # them at t = 0.1, 1 and 10 it reads the same rounding as at the check's
    # two times: the same verdicts
    sols = [sol_robin, sol_dirichlet, sol_neumann] + [
        solve(s["ctx"].with_bc(s[kind]))
        for s in wide_sets(20) for kind in ("robin", "dirichlet", "neumann")
    ]
    for sol in sols:
        three = ref.heat_residual(sol, times=(0.1, 1.0, 10.0))
        two = heat_residual(sol)
        assert max(three.values()) <= HEAT_TOL and max(two.values()) <= HEAT_TOL


def test_accepted_windows_hold_every_stencil_point(monkeypatch):
    # the heat check samples the field kernel where temperature_row and map
    # use it: every sample between a phase's two ends lies in that phase by
    # the solver's own cut, at each of the check's times
    strays, samples = [], 0
    for s in wide_sets(60):
        for kind in ("robin", "dirichlet", "neumann"):
            sol = solve(s["ctx"].with_bc(s[kind]))
            for phase, t, xs in _kernel_calls(monkeypatch, heat_residual, sol):
                samples += len(xs) - 2
                strays += [(kind, phase, t, x) for x in xs[1:-1]
                           if phase_profile(sol, x, t)[0] != phase]
    assert strays == []
    assert samples == 180 * 6 * (HEAT_SAMPLES - 2)


def test_similarity_form_passes_where_the_time_difference_failed():
    # a large coef1 (4.52 for Robin), where the time difference's truncation
    # read 1.9e-6 in phase 1
    s = wide_sets(20)[13]
    for kind in ("robin", "dirichlet"):
        rep = full_report(solve(s["ctx"].with_bc(s[kind])))
        assert rep.passes, (kind, rep.failures())


def test_kernel_with_a_wrong_diffusivity_fails_at_every_front(
    sol_robin, sol_dirichlet, sol_neumann, monkeypatch
):
    # the field kernel reads alpha only as alpha*t, so scaling t scales
    # alpha; the heat and stefan checks work in eta, so the interface
    # probes at the fronts in x are what catch a kernel scaled wrong
    from stefan3 import verify

    excess = verify._phase_excess
    monkeypatch.setattr(
        verify, "_phase_excess",
        lambda sol, phase, t, xs: excess(sol, phase, 1.001 * t, xs))
    for sol in (sol_robin, sol_dirichlet, sol_neumann):
        assert min(interface_residual(sol).values()) >= 1e-5 > INTERFACE_TOL


def _straight_phase2(kernel):
    # phase 2 as the straight line in x between its two front values
    def faulty(sol, phase, t, xs):
        if phase != 2:
            return kernel(sol, phase, t, xs)
        x2, x1 = free_boundaries(sol, t)
        t_ = sol.ctx.temps
        return [(t_.C - t_.D) + (t_.B - t_.C) * (x1 - x) / (x1 - x2) for x in xs]
    return faulty


def _scaled_phase2(kernel, alpha=1.0, time=1.0):
    # phase 2's own formula with its alpha, or its t, scaled
    def faulty(sol, phase, t, xs):
        if phase != 2:
            return kernel(sol, phase, t, xs)
        return kernel(sol, 2, time * t, [x / math.sqrt(alpha) for x in xs])
    return faulty


FAULTS = {
    "straight": _straight_phase2,
    "alpha": lambda k: _scaled_phase2(k, alpha=1.001),
    "time": lambda k: _scaled_phase2(k, time=1.3),
}


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_a_phase2_kernel_off_its_affine_form_fails_heat(
    fault, sol_robin, sol_dirichlet, sol_neumann, monkeypatch
):
    # the heat check reads the kernel map writes: a field that is not a +
    # b*erf of its phase's eta fails it, however close it comes at the fronts
    from stefan3 import solver

    faulty = FAULTS[fault](solver._phase_excess)
    monkeypatch.setattr(solver, "_phase_excess", faulty)
    monkeypatch.setattr(verify, "_phase_excess", faulty)
    for sol in (sol_robin, sol_dirichlet, sol_neumann):
        heat = heat_residual(sol)
        assert heat["phase2"] > 100.0 * HEAT_TOL, (sol.kind, heat)
        assert max(heat["phase1"], heat["phase3"]) < 4.0 * EPS
        assert "heat:phase2" in full_report(sol).failures()


def test_a_wide_family_verifies_and_its_controls_fail():
    # over 1,050 solves nothing raises, no true field fails the heat check,
    # and every control with both coefficients 1e-6 off fails the report
    count = 0
    for sets in (wide_sets(300), make_sets(50)):
        for s in sets:
            for kind in ("robin", "dirichlet", "neumann"):
                sol = solve(s["ctx"].with_bc(s[kind]))
                assert max(heat_residual(sol).values()) <= HEAT_TOL
                assert not full_report(perturbed(sol, 1e-6, 1e-6)).passes
                count += 1
    assert count == 1050


def test_data_near_the_upper_thresholds_and_large_data_pass_heat(ctx_plain):
    # a thin phase 3 once left a stencil no room (StencilCrossesFront), and
    # erf near 1 cancelled in the stencil at q0 = 1e6*q2 (7.1e-5 and 1.0e-5
    # in phases 2 and 3); the affine check reads rounding on all of them
    th = thresholds(ctx_plain, 334.0)
    for bc in (
        Neumann(q0=th.q2 * (1.0 + 1e-2)),
        Neumann(q0=th.q2 * (1.0 + 1e-3)),
        Robin(h0=th.h2 * (1.0 + 1e-3), A_inf=334.0),
        Dirichlet(A=ctx_plain.temps.B + 3e-3),
        Neumann(q0=1e6 * th.q2),
    ):
        rep = full_report(solve(ctx_plain.with_bc(bc)))
        assert max(rep.heat.values()) < 4.0 * EPS, (bc, rep.heat)
        assert not [f for f in rep.failures() if f.startswith("heat")]


def test_a_heat_window_that_collapses_is_unresolved():
    override, bc = FLOAT_RANGE_CASES["heat_window"]
    sol = solve(ProblemContext(PROPS._replace(**override), TEMPS, bc))
    assert sol.coef1 + 3.0 == sol.coef1  # phase 1's window has no width
    for check in (heat_residual, full_report):
        with pytest.raises(RootFailure) as exc:
            check(sol)
        assert exc.value.reason == "unresolved"
