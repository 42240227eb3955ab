"""Cold-start cost of each CLI command, against a bare interpreter.

    python3 tests/tools/cold_start.py [--root CHECKOUT ...] [--runs N]
                                      [COMMAND ...]

Runs ``python -m stefan3 COMMAND`` with ``CHECKOUT/src`` on PYTHONPATH
(default: the checkout holding this file), and ``python -c pass`` under the
same environment, N times each (default 21), interleaved so that drifts in
machine speed reach every series alike.  Commands default to ``solve``;
each reads the README's example Robin config, ``map`` writes its default
200x200 grid into a temporary directory.  Prints, per checkout and
command, the median wall time of the command, of the bare interpreter, and
their difference, in milliseconds.  Pass several ``--root`` to compare
checkouts within one interleaved run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

CONFIG = {
    "k1": 0.2, "k2": 0.2, "k3": 0.2,
    "c1": 2.0, "c2": 2.0, "c3": 2.0,
    "rho": 770.0, "l1": 160.0, "l2": 150.0,
    "B": 328.0, "C": 324.0, "D": 320.0,
    "boundary": {"type": "robin", "h0": 100.0, "A_inf": 334.0},
}


def argv_for(command: str, config: Path, workdir: Path) -> list[str]:
    extra = {"equiv": ["--to", "neumann"],
             "map": ["--out", str(workdir / "field.csv")]}.get(command, [])
    return [command, "--config", str(config), *extra]


def timed(cmd: list[str], env: dict) -> float:
    # no timeout: with one, the wait polls in steps of up to 50 ms
    start = time.perf_counter()
    subprocess.run(cmd, env=env, check=True, stdout=subprocess.DEVNULL,
                   stderr=subprocess.DEVNULL)
    return (time.perf_counter() - start) * 1e3


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("commands", nargs="*", metavar="COMMAND",
                        help="solve, thresholds, equiv, map or verify")
    parser.add_argument("--root", action="append", type=Path, default=None,
                        help="checkout to time (repeatable)")
    parser.add_argument("--runs", type=int, default=21)
    args = parser.parse_args()
    roots = args.root or [Path(__file__).resolve().parents[2]]
    commands = args.commands or ["solve"]

    base_env = {k: v for k, v in os.environ.items()
                if k not in ("PYTHONPATH", "STEFAN3_LOG", "PYTHONWARNINGS")}
    envs = [{**base_env, "PYTHONPATH": str(root.resolve() / "src")}
            for root in roots]
    bare = []
    times = {(r, c): [] for r in range(len(roots)) for c in commands}
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        config = workdir / "problem.json"
        config.write_text(json.dumps(CONFIG))
        for _ in range(args.runs):
            bare.append(timed([sys.executable, "-c", "pass"], envs[0]))
            for (r, command), series in times.items():
                series.append(timed(
                    [sys.executable, "-m", "stefan3",
                     *argv_for(command, config, workdir)],
                    envs[r],
                ))

    bare_ms = statistics.median(bare)
    print(f"python {sys.version.split()[0]}, {os.cpu_count()} cores, "
          f"medians of {args.runs} interleaved runs; bare interpreter "
          f"{bare_ms:.1f} ms")
    for (r, command), series in times.items():
        ms = statistics.median(series)
        print(f"{roots[r]} {command}: {ms:.1f} ms - {bare_ms:.1f} ms = "
              f"{ms - bare_ms:.1f} ms")


if __name__ == "__main__":
    main()
