"""Tests of the benchmark itself.  Run: PYTHONPATH=src python3 -m pytest bench -q

They are outside the package's test suite on purpose: each one starts
benchmark runs, which take seconds.
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import stefan3  # noqa: E402
import stefan3.cli  # noqa: E402,F401
from workloads import WORKLOADS, material_of  # noqa: E402

EPS = 1e-6


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=300,
    )
    return proc


def result(*args):
    proc = bench(*args)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_runs_to_its_end(workload):
    for trace in ("0", "1"):
        res = result("--workload", workload, "--seed", "7", "--seconds", "1",
                     "--trace", trace, "--smoke")
        assert res["correct"] is True
        assert res["attempted"] >= 1
        assert set(res) == {"correct", "attempted", "failed", "metrics"}


def test_known_faults_fail_every_round():
    res = result("--workload", "sweep", "--seed", "3", "--seconds", "1", "--smoke")
    assert res["failed"] == 2 and res["attempted"] == 50
    res = result("--workload", "verify", "--seed", "3", "--seconds", "1", "--smoke")
    assert res["failed"] == 2 and res["attempted"] == 24


def test_per_layer_counts_repeat_for_a_seed():
    runs = [result("--workload", "sweep", "--seed", "11", "--seconds", s,
                   "--trace", "1") for s in ("1", "2")]
    counts = [{k: v["value"] for k, v in r["metrics"].items()
               if v["unit"] == "count"} for r in runs]
    assert counts[0] == counts[1]
    assert counts[0]["transcendental.residual_evals_per_solve"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


# -- a wrong result cannot pass -------------------------------------------

def _problem(workload="sweep", index=0):
    items = WORKLOADS[workload].generate(5, HERE / "out")
    return items[index]["config"]


def _solve(config):
    return stefan3.solve(stefan3.ProblemContext(*stefan3.config_from_dict(config)))


@pytest.mark.parametrize("eps1, eps2", [(EPS, 0.0), (0.0, EPS), (EPS, EPS)])
def test_solution_check_rejects_perturbed_coefficients(eps1, eps2):
    config = _problem()
    sol = _solve(config)
    sweep = WORKLOADS["sweep"]
    ok, _, _ = sweep.check(stefan3, [{"config": config, "fault": None}], 0,
                           (sol, []), None)
    assert ok == []
    bad, known, _ = sweep.check(stefan3, [{"config": config, "fault": None}], 0,
                                (stefan3.perturbed(sol, eps1, eps2), []), None)
    assert bad and not known


def test_sweep_check_rejects_a_wrong_mapping():
    sweep = WORKLOADS["sweep"]
    state = [{"config": _problem(), "bulk_margin": 3.0, "fault": None}]
    sol, reports = out = sweep.op(stefan3, state, 0)
    assert sweep.check(stefan3, state, 0, out, None)[0] == []
    rep = reports[0]
    wrong = dataclasses.replace(rep, target=stefan3.perturbed(rep.target, EPS, EPS))
    bad = sweep.check(stefan3, state, 0, (sol, [wrong]), None)[0]
    assert any(b.startswith("target:") for b in bad)
    wrong = dataclasses.replace(rep, mapped_value=rep.mapped_value * (1 + EPS))
    assert sweep.check(stefan3, state, 0, (sol, [wrong]), None)[0]


def test_field_check_rejects_perturbed_files(tmp_path):
    field = WORKLOADS["field"]
    items = field.generate(5, tmp_path)
    assert field.op(stefan3, items, 0) == 0
    assert field.check(stefan3, items, 0, 0, None)[0] == []
    out, fronts = field.outputs(items[0])
    text = fronts.read_text()
    lines = text.splitlines()
    rows = [lines[0]] + [
        f"{t},{x2},{float(x1) * (1 + EPS)!r}"
        for t, x2, x1 in (ln.split(",") for ln in lines[1:])
    ]
    fronts.write_text("\n".join(rows) + "\n")
    assert field.check(stefan3, items, 0, 0, None)[0]
    fronts.write_text(text)
    lines = out.read_text().splitlines()
    x, t, temp = lines[len(lines) // 2].split(",")
    lines[len(lines) // 2] = f"{x},{t},{float(temp) * (1 + EPS)!r}"
    out.write_text("\n".join(lines) + "\n")
    assert "field_value" in field.check(stefan3, items, 0, 0, None)[0]


def test_verify_check_needs_the_right_verdict():
    verify = WORKLOADS["verify"]
    items = verify.generate(5, HERE / "out")
    state = verify.prepare(stefan3, items)
    for i, item in enumerate(items):
        rep = stefan3.full_report(state[1][i])
        bad, known, _ = verify.check(stefan3, state, i, rep, None)
        assert bad == [] and known == (item["fault"] == "far_field")
        # the opposite verdict from full_report must be caught
        passing = dataclasses.replace(
            rep, heat={k: 0.0 for k in rep.heat}, stefan={k: 0.0 for k in rep.stefan},
            far_field=0.0)
        failing = dataclasses.replace(rep, stefan={k: 1.0 for k in rep.stefan})
        wrong = passing if item["perturb"] is not None else failing
        assert verify.check(stefan3, state, i, wrong, None)[0]


def test_route_a_agrees_and_disagrees():
    config = _problem()
    sol = _solve(config)
    m, bc = material_of(config), config["boundary"]
    c1, c2 = checks.route_a(m, bc, sol.coef1, sol.coef2)
    assert math.isclose(c1, sol.coef1, rel_tol=1e-12)
    assert math.isclose(c2, sol.coef2, rel_tol=1e-12)
    c1, _ = checks.route_a(m, bc, sol.coef1 * (1 + EPS), sol.coef2)
    assert math.isclose(c1, sol.coef1, rel_tol=1e-12)
