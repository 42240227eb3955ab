"""Where a seed-1 ``sweep`` op spends its time, stage by stage.

    python3 tests/tools/stage_times.py [--root CHECKOUT ...] [--rounds N]

Runs the seeded ops of one round of the benchmark's ``sweep`` workload
(``bench/workloads.py`` of the checkout holding this file, seed 1; the two
near-threshold ops that fail are left out) in one worker process per
checkout, which imports ``stefan3`` from ``CHECKOUT/src`` (default: the
checkout holding this file).  Each op is split into the stages the workload
runs, timed with ``perf_counter_ns`` around each:

* parse: ``config_from_dict``;
* context: ``ProblemContext``;
* z0: the context's first read of ``z0``;
* solve: ``solve``;
* map1, map2: the op's first and second ``mapping``.

After one warm-up round, the workers run N rounds (default 41) in turn, so
that drifts in machine speed reach every checkout alike.  Prints, per
checkout, the median over rounds of each stage's mean time per op, in
microseconds, and their sum.  The bench tracer has no span for parse or
context; this splits the whole op.  Pass several ``--root`` to compare
checkouts within one interleaved run.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter_ns

STAGES = ("parse", "context", "z0", "solve", "map1", "map2")
HERE = Path(__file__).resolve()


def sweep_items() -> list[dict]:
    """The seeded items of one seed-1 sweep round, in round order."""
    sys.path.insert(0, str(HERE.parents[2] / "bench"))
    from workloads import WORKLOADS

    with tempfile.TemporaryDirectory() as tmp:
        items = WORKLOADS["sweep"].generate(1, Path(tmp))
    return [item for item in items if item["fault"] is None]


def timed_round(s3, items: list[dict]) -> list[float]:
    # each stage's total over one pass of items, in nanoseconds
    totals = [0] * len(STAGES)
    for item in items:
        t0 = perf_counter_ns()
        props, temps, bc = s3.config_from_dict(item["config"])
        t1 = perf_counter_ns()
        ctx = s3.ProblemContext(props, temps, bc)
        t2 = perf_counter_ns()
        ctx.z0
        t3 = perf_counter_ns()
        sol = s3.solve(ctx)
        marks = [t0, t1, t2, t3, perf_counter_ns()]
        for kind in ("robin", "dirichlet", "neumann"):
            if kind != bc.kind:
                a_inf = sol.surface_temp + item["bulk_margin"]
                s3.mapping(ctx, kind, a_inf if kind == "robin" else None)
                marks.append(perf_counter_ns())
        for i in range(len(STAGES)):
            totals[i] += marks[i + 1] - marks[i]
    return totals


def worker(src: Path, items_path: Path) -> None:
    # one round per line read from stdin, its stage totals as a JSON line
    sys.path.insert(0, str(src))
    s3 = importlib.import_module("stefan3")
    items = json.loads(items_path.read_text())
    for _ in sys.stdin:
        print(json.dumps(timed_round(s3, items)), flush=True)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--root", action="append", type=Path, default=None,
                        help="checkout to time (repeatable)")
    parser.add_argument("--rounds", type=int, default=41)
    parser.add_argument("--worker", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--items", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.worker is not None:
        return worker(args.worker, args.items)
    roots = args.root or [HERE.parents[2]]

    items = sweep_items()
    series = {r: [] for r in range(len(roots))}
    with tempfile.TemporaryDirectory() as tmp:
        items_path = Path(tmp) / "items.json"
        items_path.write_text(json.dumps(items))
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        procs = [subprocess.Popen(
            [sys.executable, str(HERE), "--worker",
             str(root.resolve() / "src"), "--items", str(items_path)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env)
            for root in roots]
        try:
            for n in range(args.rounds + 1):  # round 0 warms up
                for r, proc in enumerate(procs):
                    proc.stdin.write("\n")
                    proc.stdin.flush()
                    totals = json.loads(proc.stdout.readline())
                    if n:
                        series[r].append([t / 1e3 / len(items) for t in totals])
        finally:
            for proc in procs:
                proc.stdin.close()
                proc.wait()

    print(f"python {sys.version.split()[0]}, {os.cpu_count()} cores, "
          f"{len(items)} seed-1 sweep ops per round, medians of {args.rounds} "
          "interleaved rounds, us per op")
    print(" ".join(f"{name:>8}" for name in (*STAGES, "total")), " checkout")
    for r, rounds in series.items():
        medians = [statistics.median(col) for col in zip(*rounds)]
        total = statistics.median(map(sum, rounds))
        print(" ".join(f"{v:8.2f}" for v in (*medians, total)), "", roots[r])


if __name__ == "__main__":
    main()
