"""One fresh-interpreter set-up, timed: import stefan3, then prepare a workload.

Run as ``python3 -I bench/probe.py WORKLOAD INPUTS_JSON SRC_DIR``; prints the
CPU seconds the set-up took, scaled to the reference speed of
calibration.py.  Reading the inputs is the benchmark's own work and happens
before the clock starts.
"""

import importlib
import json
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import calibration  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main() -> None:
    name, inputs, src = sys.argv[1:4]
    workload = WORKLOADS[name]
    items = json.loads(Path(inputs).read_text())
    sys.path.insert(0, src)
    calibration.sample()  # the first run in a fresh process is cold
    before = statistics.median(calibration.sample() for _ in range(3))
    start = time.process_time()
    s3 = importlib.import_module("stefan3")
    for module in workload.extra_modules:
        importlib.import_module(module)
    workload.prepare(s3, items)
    cpu = time.process_time() - start
    after = statistics.median(calibration.sample() for _ in range(3))
    print(repr(cpu * calibration.scale(before, after)))


if __name__ == "__main__":
    main()
