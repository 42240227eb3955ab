"""One sha256 per benchmark workload over the outputs of seeds 1-10.

    python3 tests/tools/output_digest.py [--root CHECKOUT] [--deltas]

Imports ``stefan3`` from ``CHECKOUT/src`` and the workloads from
``CHECKOUT/bench/workloads.py`` (default: the checkout holding this file),
runs every item of every seed once, and prints ``<workload> <sha256>``:

* sweep: each op's solution and mapping reports as ``to_dict``;
* field: the bytes of the field and fronts CSVs that ``map`` writes, with
  its exit code;
* verify: ``full_report(sol).to_dict()`` of each solution.

An exception is recorded as its type and message.  Two checkouts whose
digests agree produce the same outputs bit for bit on these inputs, so a
refactor that must not change results can be checked by running this on
the parent and on the change.

``--deltas`` prints, in place of the digests, how far each ``sweep``
mapping's target coefficients land from a cold solve of its mapped datum
on a fresh context: the largest relative gap in coef1 and in coef2, and how
many of all those gaps are exactly zero.  A mapping's target is its
source's pair, so these figures measure the paper's equivalence as the
solver resolves it.  A change that moves the last bits of the solves
changes the digests; these figures say by how much that agreement moved.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import sys
import tempfile
from pathlib import Path

SEEDS = range(1, 11)


def _raised(exc: Exception) -> dict:
    return {"raised": type(exc).__name__, "message": str(exc)}


def _sweep(s3, w, seed: int, workdir: Path) -> list:
    items = w.generate(seed, workdir)
    state = w.prepare(s3, items)
    out = []
    for i in range(len(items)):
        try:
            sol, reports = w.op(s3, state, i)
        except Exception as exc:  # recorded: failures are outputs too
            out.append(_raised(exc))
            continue
        out.append([sol.to_dict(), [r.to_dict() for r in reports]])
    return out


def _field(s3, w, seed: int, workdir: Path) -> list:
    items = w.generate(seed, workdir)
    state = w.prepare(s3, items)
    out = []
    for i, item in enumerate(items):
        try:
            code = w.op(s3, state, i)
        except Exception as exc:
            out.append(_raised(exc))
            continue
        files = [f.read_bytes().decode() for f in w.outputs(item)]
        out.append([code, files])
    return out


def _verify(s3, w, seed: int, workdir: Path) -> list:
    items = w.generate(seed, workdir)
    _, sols = w.prepare(s3, items)
    out = []
    for sol in sols:
        try:
            out.append(s3.full_report(sol).to_dict())
        except Exception as exc:
            out.append(_raised(exc))
    return out


def _print_deltas(s3, outputs: list) -> None:
    worst = {"coef1": 0.0, "coef2": 0.0}
    zeros = total = 0
    for out in outputs:
        if isinstance(out, dict):  # a raised op maps nothing
            continue
        for rep in out[1]:
            tgt = rep["target"]
            ctx = s3.ProblemContext(*s3.config_from_dict(tgt["input"]))
            cold = s3.solve(ctx)
            for name in worst:
                gap = abs(tgt[name] - getattr(cold, name))
                worst[name] = max(worst[name], gap / abs(tgt[name]))
                zeros += gap == 0.0
                total += 1
    for name, value in worst.items():
        print(f"sweep {name} max relative gap to a cold solve {value:.3g}")
    print(f"sweep exact-zero gaps {zeros} of {total}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--root", type=Path,
                        default=Path(__file__).resolve().parents[2],
                        help="source checkout holding src/ and bench/")
    parser.add_argument("--deltas", action="store_true",
                        help="print how far sweep's mapping targets lie from "
                        "cold solves of their data instead of the digests")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    s3 = importlib.import_module("stefan3")
    importlib.import_module("stefan3.cli")
    workloads = importlib.import_module("workloads")
    runners = {"sweep": _sweep, "field": _field, "verify": _verify}
    with tempfile.TemporaryDirectory() as tmp:
        if args.deltas:
            w = workloads.WORKLOADS["sweep"]
            _print_deltas(s3, [op for seed in SEEDS
                               for op in _sweep(s3, w, seed, Path(tmp))])
            return 0
        for name, run in runners.items():
            w = workloads.WORKLOADS[name]
            digest = hashlib.sha256()
            for seed in SEEDS:
                outputs = run(s3, w, seed, Path(tmp))
                digest.update(json.dumps(outputs, sort_keys=True).encode())
            print(name, digest.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
