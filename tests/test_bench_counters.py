"""Regression gate on the benchmark's deterministic per-layer counters.

Runs one traced smoke round of each workload (about 1.5 s for ``sweep``,
2 s for ``field`` and 2.6 s for ``verify``).  Its counts are exact for a
seed and equal those of a full-length run, so they gate root-search cost,
repeated work and field-evaluation cost without timing anything.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# seed-1 values before interpolation and reuse: 48.2, 49, 7.76, 8.59, and
# 1.66, 2, 1.66 for the last three; residual evaluations per solve read 9.79
# before mapping targets were seeded with their source's root, 5.98 after,
# and 10.02 once a target took its source's pair and searched for nothing
UPPER_BOUNDS = {
    # one outer search per op, so this counts outer evaluations per op: a cap
    # of 10.5 per op where 8.0 per search over 4.0 searches allowed 32.  It
    # includes the two near-threshold searches that double to infinity
    "transcendental.residual_evals_per_solve": 10.5,
    "transcendental.z0_evals_per_search": 12.0,
    # z0 and the source; a mapping target takes the source's pair
    "transcendental.root_searches_per_op": 2.0,
    # one z0 per op, and every material carries three ops
    "transcendental.z0_per_material": 3.0,
    "solver.solves_per_problem": 1.0,
    "equivalence.solves_per_mapping": 1.0,
    "solver.thresholds.calls_per_solve": 1.0,
    # the op's own context; a mapping target checks only its new datum
    # (2.92 at seed 1 while with_bc validated the material again)
    "model.validate.calls_per_op": 1.0,
}


# Floors the work guarantees, so a counter that stops counting fails its gate
# while a real cut in work still passes.  Seed-1 readings: 10.02, 9.02, 2.0,
# 2.94, 1.0, 0.68 and 1.0.  equivalence.solves_per_mapping has none: it reads
# 0, since the tracer wraps only the solve_* functions, a mapping's source
# solve is a memo hit and its target is built from the source's pair.
LOWER_BOUNDS = {
    # a search evaluates both ends of its bracket at least
    "transcendental.residual_evals_per_solve": 2.0,
    "transcendental.z0_evals_per_search": 2.0,
    # z0 and the source search of every op, the failing ones included
    "transcendental.root_searches_per_op": 2.0,
    # every material computes its z0
    "transcendental.z0_per_material": 1.0,
    # every distinct problem is solved
    "solver.solves_per_problem": 1.0,
    # each op solves one problem of each kind, and a Robin and a Neumann solve
    # classify against the thresholds: 2/3 of the solves
    "solver.thresholds.calls_per_solve": 0.6,
    # every op parses and validates its one problem
    "model.validate.calls_per_op": 1.0,
}


def traced_smoke(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--smoke", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.splitlines()[-1])
    assert res["correct"] is True, proc.stderr
    return res


def test_sweep_counters_stay_within_bounds():
    res = traced_smoke("sweep")
    # the two near-threshold data still raise RootFailure("non_finite")
    assert (res["failed"], res["attempted"]) == (2, 50)
    counts = {name: res["metrics"][name]["value"] for name in UPPER_BOUNDS}
    over = {k: v for k, v in counts.items() if v > UPPER_BOUNDS[k]}
    assert not over, counts
    under = {k: counts[k] for k, floor in LOWER_BOUNDS.items() if counts[k] < floor}
    assert not under, counts


def test_field_writes_every_row():
    res = traced_smoke("field")
    assert (res["failed"], res["attempted"]) == (0, 8)
    # rows per op over the field and fronts files of the seed-1 grids
    assert res["metrics"]["cli.map.rows_written"]["value"] == 3074.625
    # one erf call per liquid-phase point, as evaluating each point on its
    # own made (1053.625 per op at seed 1)
    assert res["metrics"]["specfun.erf.calls_per_op"]["value"] <= 1053.625


def test_verify_does_no_extra_kernel_work():
    res = traced_smoke("verify")
    # the two fixed far-field cases still fail their probe
    assert (res["failed"], res["attempted"]) == (2, 24)
    # row evaluation makes the same erf calls as evaluating each stencil
    # point on its own did, the interface probes take erf(coef1*sigma2)
    # from the solution's cached constants, and every check samples one
    # time (1003 per op at seed 1; 3009 while each sampled three)
    assert res["metrics"]["specfun.erf.calls_per_op"]["value"] <= 1003.0
