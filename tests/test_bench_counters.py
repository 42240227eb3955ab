"""Regression gate on the benchmark's deterministic per-layer counters.

Runs one traced smoke round of the ``sweep`` workload (about 1.5 s).  Its
counts are exact for a seed and equal those of a full-length run, so they
gate root-search cost and repeated work without timing anything.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# seed-1 values before interpolation and reuse: 48.2, 49, 7.76, 8.59, and
# 1.66, 2, 1.66 for the last three
UPPER_BOUNDS = {
    # includes the two near-threshold searches that double to infinity
    "transcendental.residual_evals_per_solve": 14.0,
    "transcendental.z0_evals_per_search": 12.0,
    # z0, the source, and the two mapping targets
    "transcendental.root_searches_per_op": 4.0,
    # one z0 per op, and every material carries three ops
    "transcendental.z0_per_material": 3.0,
    "solver.solves_per_problem": 1.0,
    "equivalence.solves_per_mapping": 1.0,
    "solver.thresholds.calls_per_solve": 1.0,
}


def test_sweep_counters_stay_within_bounds():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--smoke", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.splitlines()[-1])
    assert res["correct"] is True, proc.stderr
    # the two near-threshold data still raise RootFailure("non_finite")
    assert (res["failed"], res["attempted"]) == (2, 50)
    counts = {name: res["metrics"][name]["value"] for name in UPPER_BOUNDS}
    over = {k: v for k, v in counts.items() if v > UPPER_BOUNDS[k]}
    assert not over, counts
