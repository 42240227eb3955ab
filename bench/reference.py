"""Regenerate the reference figures of bench/README.md.

    python3 bench/reference.py --seeds 10 --seconds 10

Runs every workload untraced once per seed (1..N), then traced once with
seed 1, and prints a Markdown table: the median of each end-to-end metric
with its quartile spread (third minus first quartile, as a share of the
median, the measure the benchmark's bounds are checked against), the share
of failed ops, and the tracing overhead.  Run it from the checkout root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402


def run(workload: str, seed: int, seconds: str, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", seconds, "--trace", str(trace)],
        capture_output=True, text=True, check=True, timeout=600,
    ).stdout
    return json.loads(out.splitlines()[-1])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--seconds", default="10")
    args = parser.parse_args()

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"]]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print(f"Python {platform.python_version()}, {os.cpu_count()} cores, "
          f"{args.seeds} seeds x {args.seconds} s per workload\n")
    print("| workload | " + " | ".join(f"{n} ({units[n]})" for n in names)
          + " | failed/attempted | tracing overhead |")
    print("|---" * (len(names) + 3) + "|")
    for workload in WORKLOADS:
        results = [run(workload, s, args.seconds, 0) for s in range(1, args.seeds + 1)]
        if not all(r["correct"] for r in results):
            raise SystemExit(f"{workload}: a run reported incorrect output")
        cells = []
        for name in names:
            values = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            flag = "" if spread < bounds[name] / 3 else " (!)"
            cells.append(f"{med:.4g} ±{spread:.1%}{flag}")
        shares = {r["failed"] / r["attempted"] for r in results}
        counts = f"{results[0]['failed']}/{results[0]['attempted']}"
        traced = run(workload, 1, args.seconds, 1)
        record = json.loads(
            (HERE / "out" / f"{workload}-s1" / "run-trace1.json").read_text())
        untraced = statistics.median(r["metrics"]["ops_per_s"]["value"] for r in results)
        overhead = untraced / record["ops_per_s"] - 1.0
        if not traced["correct"]:
            raise SystemExit(f"{workload}: the traced run reported incorrect output")
        share = ", ".join(f"{s:.2%}" for s in sorted(shares))
        print(f"| {workload} | " + " | ".join(cells)
              + f" | {share} ({counts} at seed 1) | +{overhead:.0%} |")


if __name__ == "__main__":
    main()
