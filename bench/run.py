"""Benchmark of the stefan3 package: one workload, one seed, one run.

    python3 bench/run.py --workload sweep --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout: the package is imported from
``src/`` beside this directory, never from anywhere else.  The run repeats
whole rounds of the workload's ops in one process and thread (a closed
loop: each op starts when the previous one has ended) until the ops have
taken ``--seconds`` seconds, checks every op's output against the
benchmark's own computation outside the timed region, and prints one JSON
object as its last line of output.  With ``--trace 0`` it holds the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a traced
run.  Scratch files go to ``bench/out/``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import calibration  # noqa: E402
import checks  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, material_of, materials_per_round  # noqa: E402

SETUP_PROBES = 21
IMPORT_PROBES = 5
ORACLE_PICKS = 3
MAX_REPORTED_PROBLEMS = 5


def load_program(src: Path):
    sys.path.insert(0, str(src))
    s3 = importlib.import_module("stefan3")
    importlib.import_module("stefan3.cli")
    if not Path(s3.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"bench: stefan3 imported from {s3.__file__}, not {src}")
    return s3


def setup_probe(workload, inputs: Path, src: Path) -> float:
    """One fresh-interpreter set-up, in CPU seconds at reference speed."""
    out = subprocess.run(
        [sys.executable, "-I", str(HERE / "probe.py"), workload.name,
         str(inputs), str(src)],
        capture_output=True, text=True, check=True, timeout=120,
    ).stdout
    return float(out.split()[-1])


class Run:
    def __init__(self, workload, s3, items, state):
        self.workload, self.s3, self.items, self.state = workload, s3, items, state
        self.tracer = None
        self.attempted = self.failed = self.rounds = 0
        self.busy = 0.0  # CPU seconds of counted ops, at reference speed
        self.cpu_busy = self.wall_busy = 0.0  # the same, unscaled
        self.latencies = []  # seconds, ops that did not fail
        self.round_rates = []
        self.problems = []  # the first few, of n_problems
        self.n_problems = 0
        self.keys = None  # per-item fingerprint from the first round
        self.rows = self.bytes = 0

    def problem(self, text):
        self.n_problems += 1
        if len(self.problems) < MAX_REPORTED_PROBLEMS:
            self.problems.append(text)

    def one_round(self, counted: bool) -> None:
        """Run every item once; time each op in CPU seconds at reference speed."""
        wl, s3, tr = self.workload, self.s3, self.tracer
        round_busy, keys = 0.0, []
        before = calibration.sample()
        for i in range(len(self.items)):
            exc = None
            wall_start = time.perf_counter()
            start = time.process_time()
            try:
                if tr is None:
                    out = wl.op(s3, self.state, i)
                else:
                    with tr.op(), tr.span(wl.span):
                        out = wl.op(s3, self.state, i)
            except Exception as e:  # an op's failure is data, not a crash
                out, exc = None, e
            cpu = time.process_time() - start
            wall = time.perf_counter() - wall_start
            after = calibration.sample()
            elapsed = cpu * calibration.scale(before, after)
            bad, known, key = wl.check(s3, self.state, i, out, exc)
            keys.append(key)
            for b in bad:
                self.problem(f"item {i}: {b}")
            if not counted:
                continue
            round_busy += elapsed
            self.wall_busy += wall
            self.cpu_busy += cpu
            if known or bad:
                self.failed += 1
            else:
                self.latencies.append(elapsed)
            if tr is not None and wl.span == "cli.map":
                rows, nbytes = wl.written(self.items[i])
                self.rows += rows
                self.bytes += nbytes
            before = calibration.sample()
        if self.keys is None:
            self.keys = keys
        elif keys != self.keys:
            self.problem("outputs differ between rounds")
        if counted:
            self.rounds += 1
            self.attempted += len(self.items)
            self.busy += round_busy
            self.round_rates.append(len(self.items) / round_busy)

    def census(self, work: Path) -> None:
        """Reach every layer once, so each per-call time is measured."""
        s3, tr = self.s3, self.tracer
        cfg = next(it["config"] for it in self.items if it["fault"] is None)
        path = work / "census.json"
        path.write_text(json.dumps(cfg))
        tr.scope = "census"
        ctx = s3.ProblemContext(*s3.config_from_dict(cfg))
        sol = s3.solve(ctx)
        target = "neumann" if ctx.bc.kind != "neumann" else "robin"
        s3.mapping(ctx, target, sol.surface_temp + 5.0 if target == "robin" else None)
        s3.full_report(sol)
        with tr.span("cli.map"):
            s3.cli.main(["map", "--config", str(path), "--out",
                         str(work / "census.csv"), "--nx", "20", "--nt", "10"])
        tr.scope = "op"

    def oracle(self, seed: int, picks: int) -> None:
        """Route-A check of a seeded subsample at 60 digits."""
        candidates = [i for i, it in enumerate(self.items)
                      if it["fault"] is None and not it.get("perturb")
                      and self.keys[i] is not None]
        for i in random.Random(seed).sample(candidates, min(picks, len(candidates))):
            cfg = self.items[i]["config"]
            coef1, coef2 = self.keys[i]
            ref1, ref2 = checks.route_a(material_of(cfg), cfg["boundary"], coef1, coef2)
            if (checks.rel_diff(coef1, ref1) > checks.CHECK_TOL
                    or checks.rel_diff(coef2, ref2) > checks.CHECK_TOL):
                self.problem(f"item {i}: route A gives ({ref1!r}, {ref2!r}), "
                             f"program ({coef1!r}, {coef2!r})")


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one round, few probes: a quick end-to-end check")
    args = parser.parse_args(argv)

    wl = WORKLOADS[args.workload]
    src = HERE.parent / "src"
    if not (src / "stefan3" / "__init__.py").is_file():
        print(f"bench: no stefan3 package at {src}; run from a source checkout",
              file=sys.stderr)
        return 2
    wall_start = time.perf_counter()
    work = HERE / "out" / f"{wl.name}-s{args.seed}"
    work.mkdir(parents=True, exist_ok=True)
    items = wl.generate(args.seed, work)
    inputs = work / "inputs.json"
    inputs.write_text(json.dumps(items))

    # setup_s is the median of several fresh set-ups spread over the run, so
    # that no single stretch of machine load decides it.  The first one pays
    # for compiling bytecode and filling the page cache, once per checkout,
    # and is dropped.
    n_probes = 0 if args.trace else 2 if args.smoke else SETUP_PROBES
    probes = []
    if n_probes:
        setup_probe(wl, inputs, src)

    def probe_due() -> bool:
        share = 1.0 if args.smoke else min(1.0, run.wall_busy / args.seconds)
        return len(probes) < n_probes * share

    s3 = load_program(src)
    run = Run(wl, s3, items, wl.prepare(s3, items))
    run.one_round(counted=False)  # warm-up, checked but not measured
    if args.trace:
        run.tracer = tracing.Tracer(s3).install()
    try:
        while run.rounds == 0 or (not args.smoke and run.wall_busy < args.seconds):
            run.one_round(counted=True)
            if run.tracer is not None:
                run.tracer.keep_spans = False
            while probe_due():
                probes.append(setup_probe(wl, inputs, src))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if run.tracer is not None:
            run.census(work)
    finally:
        if run.tracer is not None:
            run.tracer.uninstall()
    run.oracle(args.seed, 1 if args.smoke else ORACLE_PICKS)

    lat_ms = [x * 1e3 for x in run.latencies]
    throughput = statistics.median(run.round_rates)
    if args.trace:
        import_ms = tracing.import_self_ms(src, 1 if args.smoke else IMPORT_PROBES)
        layers = tracing.per_layer(
            run.tracer, run.rounds, materials_per_round(items),
            (run.rows, run.bytes), import_ms)
        metrics = {k: metric(v, u) for k, (v, u) in layers.items()}
        run.tracer.write_spans(work / "spans-round1.csv")
    else:
        metrics = {
            "ops_per_s": metric(throughput, "1/s"),
            "op_p50_ms": metric(statistics.median(lat_ms), "ms"),
            "op_p90_ms": metric(statistics.quantiles(lat_ms, n=10)[8], "ms"),
            "setup_s": metric(statistics.median(probes), "s"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
        }
    result = {
        "correct": run.n_problems == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    record = dict(result, workload=wl.name, seed=args.seed, trace=args.trace,
                  rounds=run.rounds, ops_per_round=len(items),
                  busy_s=run.busy, cpu_busy_s=run.cpu_busy,
                  wall_busy_s=run.wall_busy, wall_s=time.perf_counter() - wall_start,
                  ops_per_s=throughput, setup_probes_s=probes,
                  python=sys.version.split()[0],
                  problems=run.problems, n_problems=run.n_problems)
    tracing.dump(work / f"run-trace{args.trace}.json", record)
    for text in run.problems:
        print(f"bench: check failed: {text}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
