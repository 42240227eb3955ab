"""Command-line behavior: JSON/CSV output, exit codes, stderr."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from stefan3.cli import main
from stefan3.errors import HypothesisError, RootFailure
from stefan3.model import config_to_dict
from conftest import (
    FLOAT_RANGE_CASES, MATERIAL_RANGE_OVERRIDES, PROPS, TEMPS, benchmark_config,
)
import _expected as E

SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(capsys, argv):
    code = main(argv)
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def fresh_env(**extra):
    """The environment of a fresh interpreter that imports src/'s stefan3."""
    return {**os.environ, "PYTHONPATH": str(SRC), **extra}


@pytest.fixture
def robin_config(write_config):
    return write_config(benchmark_config("robin"))


def test_solve_json(capsys, robin_config):
    code, out, _ = run_cli(capsys, ["solve", "--config", robin_config])
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "robin"
    assert doc["regime"] == "three_phase"
    assert doc["coef1"] == pytest.approx(E.ROBIN_COEF1, abs=1e-12)
    assert doc["coef2"] == pytest.approx(E.ROBIN_COEF2, abs=1e-12)
    assert doc["surface_temperature"] == pytest.approx(E.ROBIN_SURFACE_T, rel=1e-12)
    assert doc["thresholds"]["h2"] == pytest.approx(E.H2, rel=1e-12)
    assert doc["input"]["boundary"]["type"] == "robin"


def test_solve_output_is_deterministic(capsys, robin_config):
    _, first, _ = run_cli(capsys, ["solve", "--config", robin_config])
    _, second, _ = run_cli(capsys, ["solve", "--config", robin_config])
    assert first == second


def test_thresholds_without_boundary_section(capsys, write_config):
    cfg = benchmark_config("robin")
    del cfg["boundary"]
    path = write_config(cfg)
    code, out, _ = run_cli(capsys, ["thresholds", "--config", path])
    assert code == 0
    doc = json.loads(out)
    assert doc["z0"] == pytest.approx(E.Z0, abs=1e-13)
    assert doc["q1"] == pytest.approx(E.Q1, rel=1e-12)
    assert doc["q2"] == pytest.approx(E.Q2, rel=1e-12)
    assert "h1" not in doc and "h2" not in doc  # no bulk temperature given
    # but solving needs a boundary section
    code, _, err = run_cli(capsys, ["solve", "--config", path])
    assert code == 1
    assert "boundary" in err


def test_thresholds_with_convective_boundary(capsys, robin_config):
    code, out, _ = run_cli(capsys, ["thresholds", "--config", robin_config])
    assert code == 0
    doc = json.loads(out)
    assert doc["h1"] == pytest.approx(E.H1, rel=1e-12)
    assert doc["h2"] == pytest.approx(E.H2, rel=1e-12)


def test_equiv_to_dirichlet(capsys, robin_config):
    code, out, _ = run_cli(
        capsys, ["equiv", "--config", robin_config, "--to", "dirichlet"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["datum_name"] == "A"
    assert doc["mapped_value"] == pytest.approx(E.A_FROM_ROBIN, rel=1e-12)
    assert doc["coef1_delta"] < 1e-9
    assert doc["source"]["kind"] == "robin" and doc["target"]["kind"] == "dirichlet"
    assert all(h["holds"] for h in doc["hypotheses"])


def test_equiv_to_robin_needs_bulk(capsys, write_config):
    path = write_config(benchmark_config("dirichlet"))
    code, _, err = run_cli(capsys, ["equiv", "--config", path, "--to", "robin"])
    assert code == 1
    assert "A_inf" in err
    code, out, _ = run_cli(
        capsys,
        ["equiv", "--config", path, "--to", "robin", "--a-inf", "334.0"],
    )
    assert code == 0
    assert json.loads(out)["mapped_value"] == pytest.approx(
        E.H0_FROM_DIRICHLET_334, rel=1e-12
    )


@pytest.mark.parametrize("a_inf", ["nan", "inf", "-inf"])
def test_equiv_rejects_a_non_finite_bulk(capsys, write_config, a_inf):
    path = write_config(benchmark_config("dirichlet"))
    code, out, err = run_cli(
        capsys, ["equiv", "--config", path, "--to", "robin", f"--a-inf={a_inf}"]
    )
    assert (code, out) == (1, "")
    assert err == "invalid input: NOT_FINITE: A_inf must be a finite number\n"


def test_equiv_same_kind_rejected(capsys, robin_config):
    code, _, err = run_cli(capsys, ["equiv", "--config", robin_config, "--to", "robin"])
    assert code == 1
    assert "SAME_KIND" in err


def test_equiv_bad_target_is_usage_error(capsys, robin_config):
    code, _, err = run_cli(
        capsys, ["equiv", "--config", robin_config, "--to", "periodic"]
    )
    assert code == 1
    assert "invalid choice" in err


def test_map_writes_field_and_fronts(capsys, tmp_path, write_config):
    from stefan3 import ProblemContext, evaluate_temperature, solve
    from conftest import NEUMANN, PROPS, TEMPS

    path = write_config(benchmark_config("neumann"))
    out_csv = tmp_path / "field.csv"
    code, _, _ = run_cli(
        capsys,
        [
            "map", "--config", path, "--out", str(out_csv),
            "--tmax", "4.0", "--nx", "5", "--nt", "3",
        ],
    )
    assert code == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "x,t,temperature"
    assert len(lines) == 1 + 5 * 3

    sol = solve(ProblemContext(PROPS, TEMPS, NEUMANN))
    rows = [tuple(float(v) for v in ln.split(",")) for ln in lines[1:]]
    ts = sorted({r[1] for r in rows})
    assert ts == [pytest.approx(4.0 * k / 3) for k in (1, 2, 3)]
    xs = [r[0] for r in rows[:5]]
    assert xs[0] == 0.0
    assert xs == sorted(xs)
    for x, t, temp in rows:
        assert temp == evaluate_temperature(sol, x, t)  # repr round trip

    fr_lines = (tmp_path / "field.fronts.csv").read_text().splitlines()
    assert fr_lines[0] == "t,x2,x1"
    assert len(fr_lines) == 1 + 3
    fronts = [tuple(float(v) for v in ln.split(",")) for ln in fr_lines[1:]]
    for t, x2, x1 in fronts:
        assert 0.0 < x2 < x1
        assert x1 / math.sqrt(t) == pytest.approx(
            fronts[0][2] / math.sqrt(fronts[0][0]), rel=1e-12
        )
    # default xmax doubles the outer front reach at tmax
    biggest_x = rows[-1][0]
    assert biggest_x == pytest.approx(2.0 * fronts[-1][2], rel=1e-12)


def test_map_names_the_fronts_file_after_an_out_path_without_csv(
    capsys, tmp_path, robin_config
):
    out = tmp_path / "field"
    code, _, err = run_cli(capsys, ["map", "--config", robin_config, "--out",
                                    str(out), "--nx", "3", "--nt", "2"])
    assert code == 0, err
    assert out.read_text().startswith("x,t,temperature\n")
    assert (tmp_path / "field.fronts.csv").read_text().startswith("t,x2,x1\n")


@pytest.mark.parametrize(
    "grid",
    [
        ["--nx", "1"],
        ["--nt", "0"],
        ["--xmax", "-1"],
        ["--xmax", "nan"],
        ["--xmax", "inf"],
        ["--tmax", "inf"],
        ["--tmax", "nan"],
        ["--tmax", "0"],
        # finite and positive, but the grid's last x or t overflows or its
        # first t underflows to 0
        ["--xmax", "1e308", "--nx", "3"],
        ["--tmax", "1e308", "--nt", "3"],
        ["--tmax", "5e-324", "--nt", "2"],
        # t is positive, but alpha*t underflows to 0
        ["--tmax", "1e-320", "--nx", "3", "--nt", "1"],
    ],
    ids=["nx-1", "nt-0", "xmax-negative", "xmax-nan", "xmax-inf", "tmax-inf",
         "tmax-nan", "tmax-0", "xmax-overflow", "tmax-overflow", "tmax-underflow",
         "tmax-scale-underflow"],
)
def test_map_rejects_degenerate_grid(capsys, tmp_path, robin_config, grid):
    code, _, err = run_cli(
        capsys,
        ["map", "--config", robin_config, "--out", str(tmp_path / "f.csv"),
         *grid],
    )
    assert code == 1
    assert "invalid input: BAD_GRID" in err
    # rejected before either CSV file was opened
    assert list(tmp_path.iterdir()) == [tmp_path / "config.json"]


def test_map_writes_a_negative_zero_xmax_as_zero(capsys, tmp_path, robin_config):
    out = tmp_path / "f.csv"
    code, _, _ = run_cli(
        capsys,
        ["map", "--config", robin_config, "--out", str(out), "--xmax", "-0.0",
         "--nx", "2", "--nt", "1"],
    )
    assert code == 0
    rows = out.read_text(encoding="utf-8").splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["0.0", "0.0"]


@pytest.mark.parametrize(
    "kind, grid",
    [
        ("neumann", ["--tmax", "4.0", "--nx", "7", "--nt", "3"]),
        ("robin", ["--tmax", "0.3", "--nx", "40", "--nt", "5", "--xmax", "0.02"]),
        ("dirichlet", ["--nx", "2", "--nt", "1", "--xmax", "0"]),
    ],
)
def test_map_bytes_equal_a_point_by_point_writer(
    capsys, tmp_path, write_config, kind, grid
):
    import _reference as ref
    from stefan3 import ProblemContext, config_from_dict, solve

    cfg = benchmark_config(kind)
    out = tmp_path / "field.csv"
    code, _, _ = run_cli(
        capsys, ["map", "--config", write_config(cfg), "--out", str(out), *grid]
    )
    assert code == 0
    args = dict(zip(grid[::2], grid[1::2]))
    sol = solve(ProblemContext(*config_from_dict(cfg)))
    field, fronts = ref.map_csv(
        sol,
        float(args.get("--tmax", 10.0)),
        int(args["--nx"]),
        int(args["--nt"]),
        float(args["--xmax"]) if "--xmax" in args else None,
    )
    assert out.read_bytes() == field.encode("utf-8")
    assert (tmp_path / "field.fronts.csv").read_bytes() == fronts.encode("utf-8")


def test_verify_passes_then_fails_when_perturbed(capsys, monkeypatch,
                                                 robin_config):
    import stefan3.cli
    from stefan3 import perturbed

    code, out, _ = run_cli(capsys, ["verify", "--config", robin_config])
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True and doc["failures"] == []
    solve = stefan3.cli.solve
    monkeypatch.setattr(stefan3.cli, "solve",
                        lambda ctx: perturbed(solve(ctx), 1e-3, 1e-3))
    code, out, _ = run_cli(capsys, ["verify", "--config", robin_config])
    assert code == 6
    doc = json.loads(out)
    assert doc["pass"] is False
    assert any(f.startswith("stefan") for f in doc["failures"])


def _is_an_unrecognized_argument(capsys, config, *flag):
    # refused before the config is read
    code, out, err = run_cli(capsys, ["verify", "--config", config, *flag])
    assert (code, out) == (1, "")
    assert err.endswith(f"error: unrecognized arguments: {' '.join(flag)}\n")


# verify has no step to set
@pytest.mark.parametrize("rel_step", ["nan", "inf", "0", "-1e-4"])
def test_verify_rejects_a_bad_rel_step(capsys, robin_config, rel_step):
    _is_an_unrecognized_argument(capsys, robin_config, f"--rel-step={rel_step}")


def test_verify_has_no_perturb_option(capsys, robin_config):
    # negative controls perturb a solution with the library's perturbed
    _is_an_unrecognized_argument(capsys, robin_config, "--perturb", "1e-3")


# steps that once underflowed their square or rounded a stencil onto a
# front, now refused as the option itself is
@pytest.mark.parametrize("rel_step", ["1e-200", "1e-160", "1e-150", "1e-20", "1e-16"])
def test_verify_step_too_fine_to_use_exits_one(capsys, robin_config, rel_step):
    _is_an_unrecognized_argument(capsys, robin_config, "--rel-step", rel_step)


def test_verify_finest_resolvable_step_still_reports(
    capsys, robin_config, write_config
):
    from stefan3 import config_to_dict
    from _random_sets import wide_sets

    s = wide_sets(20)[13]
    # a material whose phase-1 stencil once sat in the band above the outer
    # front, and whose finest steps failed through rounding: with no step,
    # both configs verify
    neumann = write_config(
        config_to_dict(s["ctx"].props, s["ctx"].temps, s["neumann"]),
        "neumann.json")
    for path in (robin_config, neumann):
        code, out, err = run_cli(capsys, ["verify", "--config", path])
        assert (code, err) == (0, "")
        assert json.loads(out)["failures"] == []


def test_verify_step_too_coarse_for_a_phase_exits_one(capsys, robin_config):
    _is_an_unrecognized_argument(capsys, robin_config, "--rel-step", "0.5")


def test_verify_reports_on_data_near_the_upper_thresholds(
    capsys, write_config, ctx_plain
):
    # a phase 3 too thin for the stencil once printed "verify step: ..." and
    # exited 1; these data now report, with no heat failure (A = B + 3 mK
    # fails stefan:front2 on the solver's rounding)
    from stefan3 import thresholds

    th = thresholds(ctx_plain, 334.0)
    for i, boundary in enumerate([
        {"type": "neumann", "q0": th.q2 * (1.0 + 1e-2)},
        {"type": "neumann", "q0": th.q2 * (1.0 + 1e-3)},
        {"type": "robin", "h0": th.h2 * (1.0 + 1e-3), "A_inf": 334.0},
        {"type": "dirichlet", "A": 328.003},
    ]):
        cfg = {**benchmark_config("robin"), "boundary": boundary}
        code, out, err = run_cli(
            capsys, ["verify", "--config", write_config(cfg, f"near{i}.json")])
        assert "verify step" not in err and code in (0, 6)
        assert not [f for f in json.loads(out)["failures"] if f.startswith("heat")]


def test_subcritical_datum_exits_two(capsys, write_config):
    cfg = benchmark_config("robin")
    cfg["boundary"]["h0"] = 20.0
    path = write_config(cfg)
    code, out, err = run_cli(capsys, ["solve", "--config", path])
    assert code == 2
    doc = json.loads(out)
    assert doc["regime"] == "two_phase"
    assert "error" in doc
    assert "regime" in err


def test_invalid_physical_data_exits_one(capsys, write_config):
    cfg = benchmark_config("dirichlet")
    cfg["boundary"]["A"] = 328.0  # not above the upper change temperature
    path = write_config(cfg)
    code, _, err = run_cli(capsys, ["solve", "--config", path])
    assert code == 1
    assert "DIRICHLET_A_NOT_ABOVE_B" in err


@pytest.mark.parametrize("command", ["solve", "thresholds"])
@pytest.mark.parametrize("where", ["k1", "h0"])
def test_an_integer_past_the_float_range_is_not_finite(
    capsys, write_config, command, where
):
    # JSON reads 10**400 as an int, which float() cannot hold; it must be
    # reported as the literal 1e400 is, not escape as an OverflowError
    cfg = benchmark_config("robin")
    (cfg if where == "k1" else cfg["boundary"])[where] = 10**400
    code, out, err = run_cli(capsys, [command, "--config", write_config(cfg)])
    assert (code, out) == (1, "")
    assert err == "invalid input: NOT_FINITE: all inputs must be finite numbers\n"


@pytest.mark.parametrize("override", MATERIAL_RANGE_OVERRIDES, ids=repr)
def test_material_out_of_float_range_exits_one(capsys, write_config, override):
    cfg = {**benchmark_config("robin"), **override}
    code, out, err = run_cli(capsys, ["thresholds", "--config", write_config(cfg)])
    assert (code, out) == (1, "")
    assert err.startswith("invalid input: MATERIAL_RANGE: ")


def test_schema_problems_exit_one(capsys, write_config, tmp_path):
    cfg = benchmark_config("robin")
    del cfg["k2"]
    path = write_config(cfg)
    code, _, err = run_cli(capsys, ["solve", "--config", path])
    assert code == 1
    assert "MISSING_FIELD" in err

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(capsys, ["solve", "--config", str(bad)])
    assert code == 1
    assert "BAD_JSON" in err


@pytest.mark.parametrize("config, violation", [
    ([benchmark_config("robin")], "BAD_CONFIG"),
    ({**benchmark_config("robin"), "boundary": ["robin", 100.0, 334.0]},
     "BAD_FIELD_TYPE"),
])
def test_a_config_of_the_wrong_shape_exits_one(
    capsys, write_config, config, violation
):
    code, out, err = run_cli(capsys, ["solve", "--config", write_config(config)])
    assert (code, out) == (1, "")
    assert err.startswith(f"invalid input: {violation}: ")


def test_a_config_that_is_not_utf8_is_bad_json(tmp_path):
    # a UTF-16 byte order mark cannot start UTF-8 text
    cfg = tmp_path / "c.json"
    cfg.write_bytes(b"\xff\xfe" + json.dumps(benchmark_config("robin")).encode())
    proc = subprocess.run(
        [sys.executable, "-m", "stefan3", "solve", "--config", str(cfg)],
        capture_output=True, text=True, env=fresh_env(), timeout=60,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("invalid input: BAD_JSON: ")
    assert "Traceback" not in proc.stderr and proc.stdout == ""


def test_an_unresolved_inner_coefficient_exits_three(tmp_path):
    # the solve returned coef2 = 0.0 here, and printing its surface
    # temperature raised ZeroDivisionError
    cfg = tmp_path / "c.json"
    config = benchmark_config("dirichlet")
    config.update(c2=1e-30, c3=3.0, boundary={"type": "dirichlet", "A": 328.5})
    cfg.write_text(json.dumps(config))
    proc = subprocess.run(
        [sys.executable, "-m", "stefan3", "solve", "--config", str(cfg)],
        capture_output=True, text=True, env=fresh_env(), timeout=60,
    )
    assert proc.returncode == 3
    assert proc.stderr.startswith("root search failed (unresolved): ")
    assert "Traceback" not in proc.stderr and proc.stdout == ""


@pytest.mark.parametrize("case, command, codes", [
    ("robin_law", "solve", (3,)),
    ("heat_window", "verify", (3,)),
    ("thresholds", "thresholds", (3,)),
    ("phase1_kernel", "verify", (0, 6)),
    ("stefan_balance", "verify", (3,)),
    ("heat_scale", "verify", (3,)),
])
def test_a_float_range_case_ends_without_a_traceback(tmp_path, case, command, codes):
    # each printed a ZeroDivisionError or OverflowError traceback
    override, bc = FLOAT_RANGE_CASES[case]
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(config_to_dict(PROPS._replace(**override), TEMPS, bc)))
    proc = subprocess.run(
        [sys.executable, "-m", "stefan3", command, "--config", str(cfg)],
        capture_output=True, text=True, env=fresh_env(), timeout=60,
    )
    assert proc.returncode in codes, proc.stderr
    assert "Traceback" not in proc.stderr
    if proc.returncode == 3:
        assert "root search failed (unresolved): " in proc.stderr
    else:
        assert json.loads(proc.stdout)["pass"] is (proc.returncode == 0)


def test_io_errors_exit_five(capsys, tmp_path, robin_config):
    code, _, err = run_cli(
        capsys, ["solve", "--config", str(tmp_path / "absent.json")]
    )
    assert code == 5
    assert "i/o error" in err
    code, _, err = run_cli(
        capsys,
        ["map", "--config", robin_config, "--out",
         str(tmp_path / "no_such_dir" / "f.csv")],
    )
    assert code == 5


# erfc(coef1) underflows to 0 for this material: coef1 = 28.658
UNDERFLOW_CONFIG = {
    "k1": 0.003, "k2": 50.0, "k3": 40.0, "c1": 5.0, "c2": 0.2, "c3": 0.2,
    "rho": 1000.0, "l1": 1000.0, "l2": 1000.0, "B": 300.0, "C": 290.0,
    "D": 280.0, "boundary": {"type": "dirichlet", "A": 320.0},
}


def test_map_and_verify_survive_an_underflowed_erfc_of_coef1(
    capsys, tmp_path, write_config
):
    import mpmath

    path = write_config(UNDERFLOW_CONFIG)
    out_csv = tmp_path / "field.csv"
    code, _, err = run_cli(capsys, [
        "map", "--config", path, "--out", str(out_csv),
        "--tmax", "10", "--nx", "60", "--nt", "4",
    ])
    assert code == 0, err
    code, out, _ = run_cli(capsys, ["solve", "--config", path])
    coef1 = json.loads(out)["coef1"]
    assert math.erfc(coef1) == 0.0

    rows = [tuple(map(float, ln.split(",")))
            for ln in out_csv.read_text().splitlines()[1:]]
    fronts = {t: x1 for t, _, x1 in (
        tuple(map(float, ln.split(",")))
        for ln in (tmp_path / "field.fronts.csv").read_text().splitlines()[1:]
    )}
    assert all(math.isfinite(temp) for _, _, temp in rows)
    for t in fronts:
        temps = [temp for _, tt, temp in rows if tt == t]
        assert all(a >= b for a, b in zip(temps, temps[1:]))
    c = UNDERFLOW_CONFIG
    solid = [(x, t, temp) for x, t, temp in rows if x > fronts[t] * (1 + 1e-14)]
    assert len(solid) > 60
    with mpmath.workdps(60):
        alpha1 = mpmath.mpf(c["k1"]) / (mpmath.mpf(c["rho"]) * c["c1"])
        for x, t, temp in solid:
            eta = mpmath.mpf(x) / (2 * mpmath.sqrt(alpha1 * mpmath.mpf(t)))
            ratio = mpmath.erfc(eta) / mpmath.erfc(coef1)
            assert abs(temp - float(c["D"] + (c["C"] - c["D"]) * ratio)) <= 1e-9

    code, _, err = run_cli(capsys, ["verify", "--config", path])
    assert code in (0, 6), err
    assert "Traceback" not in err


def test_root_failure_exits_three(capsys, monkeypatch, robin_config):
    def boom(ctx):
        raise RootFailure("no_sign_change", "bracket search exhausted")

    monkeypatch.setattr("stefan3.cli.solve", boom)
    code, _, err = run_cli(capsys, ["solve", "--config", robin_config])
    assert code == 3
    assert "no_sign_change" in err


def test_hypothesis_failure_exits_four(capsys, monkeypatch, robin_config):
    # unreachable from data that passes validation and classification, so
    # injected here to pin the exit code and the two-sided message
    def boom(ctx, target_kind, a_inf=None):
        raise HypothesisError("mapped_q0_above_q2", 1.0, 3.0)

    monkeypatch.setattr("stefan3.equivalence.mapping", boom)
    code, _, err = run_cli(
        capsys, ["equiv", "--config", robin_config, "--to", "neumann"]
    )
    assert code == 4
    assert "mapped_q0_above_q2" in err
    assert "lhs=1.0" in err and "rhs=3.0" in err


def test_usage_and_help(capsys):
    assert run_cli(capsys, [])[0] == 1
    assert run_cli(capsys, ["frobnicate"])[0] == 1
    code, out, _ = run_cli(capsys, ["--help"])
    assert code == 0
    assert "solve" in out and "verify" in out


def test_stefan3_log_changes_nothing(robin_config):
    # the CLI reads no environment setting: with STEFAN3_LOG set, a run
    # reads as it does without it, and neither loads logging
    script = ("import sys; from stefan3.cli import main; code = main(sys.argv[1:]); "
              "print('logging' in sys.modules, file=sys.stderr); sys.exit(code)")
    runs = [
        subprocess.run(
            [sys.executable, "-c", script, "solve", "--config", robin_config],
            capture_output=True, text=True, env=env, timeout=60,
        )
        for env in (fresh_env(), fresh_env(STEFAN3_LOG="debug"))
    ]
    unset, debug = [(p.returncode, p.stdout, p.stderr) for p in runs]
    assert debug == unset
    assert unset[0] == 0 and unset[2].endswith("False\n")


def test_diffusivity_warning_is_one_line_without_a_path(tmp_path):
    # the benchmark material has alpha2 == alpha3; a fresh interpreter shows
    # the warning, where the test suite's filters hide it
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(benchmark_config("robin")))
    env = fresh_env()
    env.pop("PYTHONWARNINGS", None)
    proc = subprocess.run(
        [sys.executable, "-m", "stefan3", "solve", "--config", str(cfg)],
        capture_output=True, env=env, timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stderr == (
        b"DiffusivityWarning: alpha2 == alpha3: solvability is only "
        b"established for alpha2 > alpha3\n"
    )


def test_module_entry_point(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(benchmark_config("dirichlet")))
    proc = subprocess.run(
        [sys.executable, "-m", "stefan3", "solve", "--config", str(cfg)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["coef1"] == pytest.approx(E.DIRICHLET_COEF1, abs=1e-12)
