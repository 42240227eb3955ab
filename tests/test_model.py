"""Input model: validation codes, JSON round trips, derived numbers."""

import dataclasses
import inspect
import json
import math

import pytest
from hypothesis import given, strategies as st

from stefan3 import (
    DiffusivityWarning,
    Dirichlet,
    MaterialProperties,
    Neumann,
    PhaseTemps,
    ProblemContext,
    Robin,
    ValidationError,
    config_from_dict,
    config_to_dict,
    diffusivities,
    load_config,
    stefan_numbers,
    validate,
)
from conftest import MATERIAL_RANGE_OVERRIDES, PROPS, TEMPS, ROBIN, benchmark_config
from _expected import ALPHA, STE1, STE2


def codes(violations):
    return {v.code for v in violations}


def test_benchmark_data_is_valid():
    assert validate(PROPS, TEMPS, ROBIN) == []


def test_derived_numbers_match_reference():
    a1, a2, a3 = diffusivities(PROPS)
    assert a1 == pytest.approx(ALPHA, rel=1e-15)
    assert a1 == a2 == a3
    ste = stefan_numbers(PROPS, TEMPS)
    assert ste.ste1 == pytest.approx(STE1, rel=1e-15)
    assert ste.ste2 == pytest.approx(STE2, rel=1e-15)


@pytest.mark.parametrize("field", ["k1", "c2", "rho", "l1", "l2"])
def test_nonpositive_property_rejected(field):
    bad = PROPS._replace(**{field: 0.0})
    assert "PROPS_NOT_POSITIVE" in codes(validate(bad, TEMPS))
    bad = PROPS._replace(**{field: -1.0})
    assert "PROPS_NOT_POSITIVE" in codes(validate(bad, TEMPS))


def test_temperature_ordering_rejected():
    assert "TEMPS_NOT_STRICT" in codes(
        validate(PROPS, PhaseTemps(B=324.0, C=324.0, D=320.0))
    )
    assert "TEMPS_NOT_STRICT" in codes(
        validate(PROPS, PhaseTemps(B=320.0, C=324.0, D=328.0))
    )


def test_diffusivity_order_rejected():
    # alpha2 < alpha3 is structurally unsolvable
    bad = PROPS._replace(k2=0.1, k3=0.4)
    assert "DIFFUSIVITY_ORDER" in codes(validate(bad, TEMPS))


@pytest.mark.parametrize("override", MATERIAL_RANGE_OVERRIDES, ids=repr)
def test_derived_constant_out_of_float_range_rejected(override):
    # each field is admissible, but a constant derived from them is 0 or
    # infinite in floating point: one violation, not a ZeroDivisionError
    bad = PROPS._replace(**override)
    assert [v.code for v in validate(bad, TEMPS, ROBIN)] == ["MATERIAL_RANGE"]
    with pytest.raises(ValidationError) as exc:
        ProblemContext(bad, TEMPS, ROBIN)
    assert [v.code for v in exc.value.violations] == ["MATERIAL_RANGE"]


def test_equal_diffusivities_warn_but_pass():
    with pytest.warns(DiffusivityWarning):
        assert validate(PROPS, TEMPS) == []


def test_diffusivity_warning_names_the_callers_line():
    # the benchmark material has alpha2 == alpha3
    line = inspect.currentframe().f_lineno
    with pytest.warns(DiffusivityWarning) as record:
        ProblemContext(PROPS, TEMPS, ROBIN)
        validate(PROPS, TEMPS)
    assert [(w.filename, w.lineno) for w in record] == [
        (__file__, line + 2), (__file__, line + 3)]


def test_material_constants_run_once_per_context(monkeypatch):
    from stefan3 import model, transcendental

    calls = []
    derive = model.material_constants
    for module in (model, transcendental):  # each name bound to it
        if getattr(module, "material_constants", None) is derive:
            monkeypatch.setattr(module, "material_constants",
                                lambda *a: calls.append(a) or derive(*a))
    ctx = ProblemContext(PROPS, TEMPS, ROBIN)
    assert calls == [(PROPS, TEMPS)]
    heir = ctx.with_bc(Neumann(q0=300.0))
    assert len(calls) == 1 and heir.alphas is ctx.alphas
    assert {k: getattr(ctx, k) for k in derive(PROPS, TEMPS)} == derive(PROPS, TEMPS)


def test_non_finite_rejected():
    bad = PROPS._replace(k1=math.nan)
    assert codes(validate(bad, TEMPS)) == {"NOT_FINITE"}
    assert "NOT_FINITE" in codes(
        validate(PROPS, TEMPS, Robin(h0=math.inf, A_inf=334.0))
    )


def test_boundary_data_rejected():
    assert "ROBIN_H0_NOT_POSITIVE" in codes(
        validate(PROPS, TEMPS, Robin(h0=0.0, A_inf=334.0))
    )
    assert "ROBIN_BULK_NOT_ABOVE_B" in codes(
        validate(PROPS, TEMPS, Robin(h0=100.0, A_inf=328.0))
    )
    assert "DIRICHLET_A_NOT_ABOVE_B" in codes(
        validate(PROPS, TEMPS, Dirichlet(A=328.0))
    )
    assert "NEUMANN_Q0_NOT_POSITIVE" in codes(
        validate(PROPS, TEMPS, Neumann(q0=-3.0))
    )


def test_the_datum_members_are_not_fields():
    # law, bounds and checks are class members: asdict and replace read
    # only the data
    import dataclasses

    names = {cls: tuple(f.name for f in dataclasses.fields(cls))
             for cls in (Robin, Dirichlet, Neumann)}
    assert names == {Robin: ("h0", "A_inf"), Dirichlet: ("A",), Neumann: ("q0",)}
    assert dataclasses.asdict(ROBIN) == {"h0": 100.0, "A_inf": 334.0}
    for cls in names:
        assert callable(cls.law) and cls.checks
    assert (Robin.bounds, Dirichlet.bounds, Neumann.bounds) == (
        ("h0", "h1", "h2"), None, ("q0", "q1", "q2"))


@given(st.floats(min_value=1e-3, max_value=1e3))
def test_stefan_numbers_scale_with_latent_heat(factor):
    # halving l scales Ste accordingly: Ste * l is an invariant of temps
    scaled = PROPS._replace(l1=PROPS.l1 * factor, l2=PROPS.l2 * factor)
    ste0 = stefan_numbers(PROPS, TEMPS)
    ste1 = stefan_numbers(scaled, TEMPS)
    assert ste1.ste1 * factor == pytest.approx(ste0.ste1, rel=1e-12)
    assert ste1.ste2 * factor == pytest.approx(ste0.ste2, rel=1e-12)


@pytest.mark.parametrize("kind", ["robin", "dirichlet", "neumann"])
def test_config_round_trip(kind):
    obj = benchmark_config(kind)
    props, temps, bc = config_from_dict(obj)
    assert bc is not None and bc.kind == kind
    assert config_to_dict(props, temps, bc) == obj
    assert list(config_to_dict(props, temps, bc)) == list(obj)


def test_config_without_boundary_section():
    obj = benchmark_config("robin")
    del obj["boundary"]
    props, temps, bc = config_from_dict(obj)
    assert bc is None
    assert props == PROPS and temps == TEMPS


def test_config_missing_field_rejected():
    obj = benchmark_config("robin")
    del obj["rho"]
    with pytest.raises(ValidationError) as exc:
        config_from_dict(obj)
    assert "MISSING_FIELD" in codes(exc.value.violations)


def test_config_bad_types_rejected():
    obj = benchmark_config("robin")
    obj["k1"] = "0.2"
    with pytest.raises(ValidationError):
        config_from_dict(obj)
    obj = benchmark_config("robin")
    obj["boundary"]["type"] = "mixed"
    with pytest.raises(ValidationError) as exc:
        config_from_dict(obj)
    assert "BAD_BOUNDARY_TYPE" in codes(exc.value.violations)


@pytest.mark.parametrize(
    "kind, missing, first",
    [
        ("robin", ("rho", "k1"), "k1"),
        ("robin", ("D", "l2"), "l2"),
        ("robin", ("B", "C"), "B"),
        ("robin", ("boundary.A_inf", "boundary.h0"), "h0"),
        ("dirichlet", ("boundary.A",), "A"),
        ("neumann", ("boundary.q0",), "q0"),
    ],
)
def test_config_reports_the_first_missing_field(kind, missing, first):
    obj = benchmark_config(kind)
    for key in missing:
        section, _, name = key.rpartition(".")
        del (obj[section] if section else obj)[name]
    with pytest.raises(ValidationError) as exc:
        config_from_dict(obj)
    assert [(v.code, v.message) for v in exc.value.violations] == [
        ("MISSING_FIELD", f"config field {first!r} is required")
    ]


class _Float(float):
    """A float subclass, which a config reads as the exact float it holds."""


def _parsed_number(value):
    # config_from_dict's reading of one present field: a float, or the code
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return "BAD_FIELD_TYPE"
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


@pytest.mark.parametrize(
    "value", [0.25, -0.0, math.nan, math.inf, _Float(0.25), 2, 0, -7,
              10**400, -10**400, True, False, None, "0.2", [0.2]],
    ids=repr)
@pytest.mark.parametrize("field", ["k1", "D", "boundary.h0", "boundary.A_inf"])
def test_config_reads_each_number_as_float_does(field, value):
    obj = benchmark_config("robin")
    section, _, name = field.rpartition(".")
    (obj[section] if section else obj)[name] = value
    want = _parsed_number(value)
    if want == "BAD_FIELD_TYPE":
        with pytest.raises(ValidationError) as exc:
            config_from_dict(obj)
        assert [(v.code, v.message) for v in exc.value.violations] == [
            (want, f"config field {name!r} must be a number")]
        return

    def fields(props, temps, bc):
        return {**props._asdict(), **temps._asdict(), **dataclasses.asdict(bc)}

    got = fields(*config_from_dict(obj))
    assert all(type(v) is float for v in got.values())
    assert repr(got.pop(name)) == repr(want)
    default = fields(*config_from_dict(benchmark_config("robin")))
    assert got == {k: v for k, v in default.items() if k != name}


@pytest.mark.parametrize("field", ["k1", "D", "boundary.h0"])
def test_config_reports_a_missing_field_after_numbers_of_each_type(field):
    obj = benchmark_config("robin")
    obj.update(k2=2, k3=10**400, c1=0.5)
    section, _, name = field.rpartition(".")
    del (obj[section] if section else obj)[name]
    with pytest.raises(ValidationError) as exc:
        config_from_dict(obj)
    assert [(v.code, v.message) for v in exc.value.violations] == [
        ("MISSING_FIELD", f"config field {name!r} is required")]


@pytest.mark.parametrize("kind", [None, ["robin"], {"robin": 1}, 1.0, "Robin"])
def test_config_unknown_boundary_type_rejected(kind):
    obj = benchmark_config("robin")
    obj["boundary"]["type"] = kind
    with pytest.raises(ValidationError) as exc:
        config_from_dict(obj)
    assert codes(exc.value.violations) == {"BAD_BOUNDARY_TYPE"}


def test_load_config_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(benchmark_config("neumann")))
    props, temps, bc = load_config(str(path))
    assert bc == Neumann(q0=300.0)


def test_load_config_bad_json(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("{not json")
    with pytest.raises(ValidationError) as exc:
        load_config(str(path))
    assert "BAD_JSON" in codes(exc.value.violations)


def test_load_config_missing_file():
    with pytest.raises(OSError):
        load_config("/nonexistent/config.json")
