"""Residual harness: correct solutions pass, corrupted ones are caught."""

import json
import math
import re

import pytest

from stefan3 import (
    ResidualReport,
    StencilCrossesFront,
    ValidationError,
    far_field_residual,
    full_report,
    heat_residual,
    interface_residual,
    perturbed,
    solve,
    stefan_residual,
)
from stefan3.verify import (
    BOUNDARY_TOL,
    FAR_FIELD_TOL,
    HEAT_TOL,
    INTERFACE_TOL,
    STEFAN_TOL,
    _phase_windows,
)
import _expected as E
import _reference as ref
from _random_sets import wide_sets


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
    # rounding floor at the default step sits two orders under the gate
    res = heat_residual(sol_robin)
    assert max(res.values()) < 5e-7


def test_heat_residual_second_order_ladder(sol_robin):
    # where truncation dominates, halving the step divides the residual by 4
    maxima = [
        max(heat_residual(sol_robin, rel_step=rs).values())
        for rs in (4e-3, 2e-3, 1e-3)
    ]
    for coarse, fine in zip(maxima, maxima[1:]):
        assert 2.5 < coarse / fine < 6.0


def test_heat_residual_single_point_smoke(sol_neumann):
    res = heat_residual(sol_neumann, n_points=1)
    assert max(res.values()) < HEAT_TOL


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
        got = [far_field_residual(sol, x_factor=f) for f in (10.0, 20.0, 30.0)]
        assert got[0] == pytest.approx(want10, rel=1e-9)
        assert got[1] == pytest.approx(want20, rel=1e-9)
        assert got[2] == pytest.approx(want30, rel=1e-6)
        assert got[0] > got[1] > got[2]
        # the default probe distance is what makes the 1e-8 gate attainable
        assert got[1] > FAR_FIELD_TOL > got[2]


def test_far_field_rejects_near_probe(sol_robin):
    for x_factor in (9.9, math.nan, math.inf):
        with pytest.raises(ValueError):
            far_field_residual(sol_robin, x_factor=x_factor)
        with pytest.raises(ValueError):
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


def test_coarse_step_has_no_room(sol_robin):
    with pytest.raises(StencilCrossesFront):
        heat_residual(sol_robin, rel_step=0.2)
    with pytest.raises(StencilCrossesFront):
        _phase_windows(sol_robin, 0.2)


@pytest.mark.parametrize("rel_step", [1e-200, 1e-160, 0.0, -1e-4, math.nan])
def test_step_whose_square_is_not_normal_is_rejected(sol_robin, rel_step):
    # the second difference divides by h*h, which underflows below ~1e-154
    with pytest.raises(ValidationError) as exc:
        full_report(sol_robin, rel_step=rel_step)
    assert [v.code for v in exc.value.violations] == ["BAD_REL_STEP"]


@pytest.mark.parametrize("rel_step", [1e-150, 1e-20, 1e-16])
def test_step_too_fine_to_clear_a_front_is_rejected(
    sol_robin, sol_dirichlet, sol_neumann, rel_step
):
    # a window's first stencil point would round into the band above a front
    for sol in (sol_robin, sol_dirichlet, sol_neumann):
        with pytest.raises(ValidationError) as exc:
            full_report(sol, rel_step=rel_step)
        (v,) = exc.value.violations
        assert v.code == "BAD_REL_STEP" and "too fine" in v.message


def test_windows_clear_the_fronts(sol_neumann):
    # each window in its phase's own variable, between the fronts there
    c, (k1, k2) = sol_neumann.ctx, (sol_neumann.coef1, sol_neumann.coef2)
    win = _phase_windows(sol_neumann, 1e-4)
    assert 0.0 < win[3][0] < win[3][1] < k2 * c.sigma3
    assert k2 * c.sigma2 < win[2][0] < win[2][1] < k1 * c.sigma2
    assert k1 < win[1][0] < win[1][1]


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
    assert d["tolerances"]["heat"] == 1e-6


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


# the default step, and the second-order ladder
@pytest.mark.parametrize("rel_step", [1e-4, 4e-3, 2e-3, 1e-3])
def test_heat_residual_equals_the_point_by_point_loop(
    rel_step, sol_robin, sol_dirichlet, sol_neumann
):
    for sol in (sol_robin, sol_dirichlet, sol_neumann):
        try:
            want = ref.heat_residual(sol, rel_step)
        except StencilCrossesFront as exc:
            # the coarse steps leave the thinner phase 3 no room
            with pytest.raises(StencilCrossesFront, match=re.escape(str(exc))):
                heat_residual(sol, rel_step)
            assert sol is not sol_robin
        else:
            assert heat_residual(sol, rel_step) == want
    # one point skips the geometric spacing; two is the shortest spacing
    for n in (1, 2):
        assert heat_residual(sol_robin, n_points=n) == ref.heat_residual(
            sol_robin, n_points=n
        )


@pytest.mark.parametrize("n_points", [0, -3])
def test_heat_check_without_samples_is_rejected(sol_robin, n_points):
    # no sample would leave every phase at 0, a pass that checked nothing
    with pytest.raises(ValueError, match="n_points must be >= 1"):
        heat_residual(sol_robin, n_points=n_points)
    with pytest.raises(ValueError, match="n_points must be >= 1"):
        full_report(sol_robin, n_points=n_points)


def _failing_phases(check, sol):
    try:
        return sorted(k for k, v in check(sol).items() if v > HEAT_TOL)
    except (StencilCrossesFront, ValidationError) as exc:
        return type(exc)


def test_one_time_measures_what_three_did(sol_robin, sol_dirichlet, sol_neumann):
    # every stencil in x scales with sqrt(t), so the check in x at t = 0.1,
    # 1 and 10 samples the same similarity values as the check in eta: the
    # one gives the three times' verdicts
    sols = [sol_robin, sol_dirichlet, sol_neumann] + [
        solve(s["ctx"].with_bc(s[kind]))
        for s in wide_sets(20) for kind in ("robin", "dirichlet", "neumann")
    ]

    def three(sol):
        return ref.heat_residual_x(sol, times=(0.1, 1.0, 10.0))

    for sol in sols:
        one = _failing_phases(heat_residual, sol)
        assert one == _failing_phases(three, sol)
        if not isinstance(one, type):
            assert heat_residual(sol) == ref.heat_residual(sol)


# the finest steps, where a stencil's lowest points near the band above a
# front, the default step and the coarse end of the refinement ladder
WINDOW_STEPS = (1e-16, 1e-15, 5e-15, 8e-15, 1e-14, 1.5e-14, 2e-14,
                1e-12, 1e-8, 1e-4, 1e-3, 4e-3)


def test_accepted_windows_hold_every_stencil_point():
    # _phase_windows is the verifier's only containment check: every window
    # it accepts keeps all three stencil rows of heat_residual inside the
    # phase, by the solver's own point-by-point classification at the x
    # of each eta
    from stefan3.solver import profile_row

    accepted, strays = 0, []
    for s in wide_sets(60):
        for kind in ("robin", "dirichlet", "neumann"):
            sol = solve(s["ctx"].with_bc(s[kind]))
            for rel_step in WINDOW_STEPS:
                try:
                    windows = _phase_windows(sol, rel_step)
                except (StencilCrossesFront, ValidationError):
                    continue
                accepted += 1
                for phase, (lo, hi) in windows.items():
                    scale = 2.0 * math.sqrt(sol.ctx.alphas[phase - 1])
                    etas = [lo * (hi / lo) ** (j / 99) for j in range(100)]
                    strays += [
                        (kind, rel_step, phase, x)
                        for h in (0.0, -rel_step, rel_step)
                        for row in ([scale * (e + h) for e in etas],)
                        for x, k in zip(row, profile_row(sol, 1.0, row)[0])
                        if k != phase
                    ]
    assert strays == []
    assert accepted >= 1600  # the property is not checked on nothing


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
