"""Per-layer tracing from outside the program.

``Tracer`` replaces the module-level functions that one stefan3 module
calls in another with wrappers that record a span each: name, start, end
and parent.  Self time (a span minus its child spans), call counts and a
few contextual counts are aggregated as the spans close; the spans
themselves are kept in memory only for the first round and written out
when the run ends, so a long run does not grow without bound.

Counts are split by scope: "op" for the timed ops, "census" for the one
pass that reaches every layer after them (see ``per_layer``).
"""

from __future__ import annotations

import functools
import json
import statistics
import subprocess
import sys
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

# (module, function, span name).  The three solve_* bodies share one span
# name; the ``solve`` dispatcher only forwards to them.
TARGETS = (
    ("model", "validate", "model.validate"),
    ("specfun", "erf", "specfun.erf"),
    ("specfun", "erfc", "specfun.erfc"),
    ("specfun", "erf_inv", "specfun.erf_inv"),
    ("specfun", "erfc_inv", "specfun.erfc_inv"),
    ("specfun", "_inv_erfcx", "specfun.inv_erfcx"),
    ("solver", "solve_robin", "solver.solve"),
    ("solver", "solve_dirichlet", "solver.solve"),
    ("solver", "solve_neumann", "solver.solve"),
    ("solver", "thresholds", "solver.thresholds"),
    ("solver", "evaluate_temperature", "solver.evaluate_temperature"),
    ("solver", "phase_profile", "solver.phase_profile"),
    ("solver", "free_boundaries", "solver.free_boundaries"),
    ("equivalence", "mapping", "equivalence.mapping"),
    ("verify", "full_report", "verify.full_report"),
    ("verify", "heat_residual", "verify.heat_residual"),
    ("verify", "interface_residual", "verify.interface_residual"),
    ("verify", "stefan_residual", "verify.stefan_residual"),
    ("verify", "boundary_residual", "verify.boundary_residual"),
    ("verify", "far_field_residual", "verify.far_field_residual"),
)

# A call of the first name made inside a span of the second is also counted
# as "first@second".
WITHIN = {
    "solver.thresholds": ("solver.solve",),
    "solver.solve": ("equivalence.mapping",),
    "solver.phase_profile": ("verify.full_report",),
}

MODULES = ("model", "specfun", "transcendental", "solver", "equivalence",
           "verify", "cli")

SPAN_KEEP_LIMIT = 500_000


class Tracer:
    def __init__(self, s3):
        self.s3 = s3
        self.scope = "op"
        self.calls = Counter()  # (scope, name) -> calls
        self.total_ns = Counter()  # name -> inclusive time, every scope
        self.self_ns = Counter()  # name -> exclusive time, every scope
        self.active = Counter()  # name -> open spans
        self.stack = []  # [name, start, child_ns, span index]
        self.spans = []
        self.keep_spans = True
        self.op_problems = set()
        self.distinct_problems = 0  # summed over ops
        self.ops = 0
        self._undo = []

    # -- recording -------------------------------------------------------
    def count(self, name):
        self.calls[(self.scope, name)] += 1

    def _enter(self, name):
        self.count(name)
        for outer in WITHIN.get(name, ()):
            if self.active[outer]:
                self.count(f"{name}@{outer}")
        self.active[name] += 1
        idx = -1
        if self.keep_spans and len(self.spans) < SPAN_KEEP_LIMIT:
            idx = len(self.spans)
            self.spans.append(None)
        self.stack.append([name, time.perf_counter_ns(), 0, idx])

    def _exit(self):
        end = time.perf_counter_ns()
        name, start, child_ns, idx = self.stack.pop()
        dur = end - start
        self.total_ns[name] += dur
        self.self_ns[name] += dur - child_ns
        self.active[name] -= 1
        parent = -1
        if self.stack:
            self.stack[-1][2] += dur
            parent = self.stack[-1][3]
        if idx >= 0:
            self.spans[idx] = (name, start, end, parent)

    @contextmanager
    def span(self, name):
        if name is None:
            yield
            return
        self._enter(name)
        try:
            yield
        finally:
            self._exit()

    @contextmanager
    def op(self):
        """One timed op: problems solved inside it are counted as distinct."""
        self.op_problems = set()
        try:
            yield
        finally:
            self.distinct_problems += len(self.op_problems)
            self.ops += 1

    def _wrap(self, name, fn, hook=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if hook is not None:
                hook(args, kwargs)
            tracer._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit()

        return wrapper

    # -- installing ------------------------------------------------------
    def _patch(self, obj, attr, value):
        self._undo.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def _replace_everywhere(self, original, wrapper):
        """Rebind every stefan3 module name that refers to ``original``."""
        s3 = self.s3
        for mod in [s3] + [getattr(s3, m) for m in MODULES]:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, wrapper)

    def install(self):
        s3 = self.s3

        def solve_hook(args, kwargs):
            ctx = args[0]
            if self.scope == "op":
                self.op_problems.add((ctx.props, ctx.temps, ctx.bc))

        for mod, fn_name, span in TARGETS:
            original = getattr(getattr(s3, mod), fn_name)
            hook = solve_hook if span == "solver.solve" else None
            self._replace_everywhere(original, self._wrap(span, original, hook))

        search = s3.transcendental.find_root_monotone
        self._replace_everywhere(search, self._wrap_search(search))

        # z0 is a cached property of ProblemContext, computed once per context
        ctx_cls = s3.transcendental.ProblemContext
        cached = ctx_cls.__dict__["z0"]
        z0 = functools.cached_property(self._wrap("transcendental.z0", cached.func))
        z0.__set_name__(ctx_cls, "z0")
        self._patch(ctx_cls, "z0", z0)
        return self

    def _wrap_search(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(f, *args, **kwargs):
            kind = "z0" if tracer.active["transcendental.z0"] else "outer"
            tracer.count(f"transcendental.searches.{kind}")
            evals = f"transcendental.evals.{kind}"

            def counted(z):
                tracer.count(evals)
                return f(z)

            tracer._enter("transcendental.root_search")
            try:
                return fn(counted, *args, **kwargs)
            finally:
                tracer._exit()

        return wrapper

    def uninstall(self):
        while self._undo:
            obj, attr, value = self._undo.pop()
            setattr(obj, attr, value)

    def write_spans(self, path: Path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start_ns,end_ns,parent\n")
            for span in self.spans:
                if span is not None:
                    fh.write("%s,%d,%d,%d\n" % span)


def import_self_ms(src: Path, samples: int) -> float:
    """Median summed self time of the stefan3 modules under -X importtime."""
    code = f"import sys; sys.path.insert(0, {str(src)!r}); import stefan3"
    values = []
    for _ in range(samples):
        err = subprocess.run(
            [sys.executable, "-I", "-X", "importtime", "-c", code],
            capture_output=True, text=True, check=True, timeout=60,
        ).stderr
        us = 0
        for line in err.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip().split(".")[0] == "stefan3":
                us += int(parts[0].split(":")[1])
        values.append(us / 1e3)
    return statistics.median(values)


def _ratio(a, b):
    return a / b if b else 0.0


def per_layer(tr: Tracer, rounds: int, materials: int, written: tuple,
              import_ms: float) -> dict:
    """Every per-layer metric as {name: (value, unit)}.

    Counts come from the op scope alone, so they repeat exactly for a seed.
    Times are means over every call the traced run made, the census pass
    included, and per-op times count the census as one more op: a layer the
    workload's ops never reach is then still measured, on the census call.
    """
    ops = tr.ops

    def c(name):
        return tr.calls[("op", name)]

    def n_all(name):
        return tr.calls[("op", name)] + tr.calls[("census", name)]

    def per_call(name, scale):
        return _ratio(tr.total_ns[name], n_all(name)) / scale

    def self_per_call(name, scale):
        return _ratio(tr.self_ns[name], n_all(name)) / scale

    def per_op(name):
        return _ratio(c(name), ops)

    specfun_self = sum(v for k, v in tr.self_ns.items() if k.startswith("specfun."))
    rows, nbytes = written
    out = {
        "model.validate.calls_per_op": (per_op("model.validate"), "count"),
        "model.validate.us": (per_call("model.validate", 1e3), "us"),
        "specfun.erfc_inv.calls_per_op": (per_op("specfun.erfc_inv"), "count"),
        "specfun.erfc_inv.us": (per_call("specfun.erfc_inv", 1e3), "us"),
        "specfun.erf.calls_per_op": (per_op("specfun.erf"), "count"),
        "specfun.self_ms_per_op": (specfun_self / (ops + 1) / 1e6, "ms"),
        "transcendental.residual_evals_per_solve": (
            _ratio(c("transcendental.evals.outer"),
                   c("transcendental.searches.outer")), "count"),
        "transcendental.root_searches_per_op": (
            per_op("transcendental.root_search"), "count"),
        "transcendental.z0_evals_per_search": (
            _ratio(c("transcendental.evals.z0"), c("transcendental.searches.z0")),
            "count"),
        "transcendental.root_search_ms_per_op": (
            tr.total_ns["transcendental.root_search"] / (ops + 1) / 1e6, "ms"),
        "transcendental.z0_per_material": (
            _ratio(c("transcendental.z0"), rounds * materials), "count"),
        "solver.solves_per_problem": (_ratio(c("solver.solve"), tr.distinct_problems), "count"),
        "solver.solve.ms": (per_call("solver.solve", 1e6), "ms"),
        "solver.thresholds.calls_per_solve": (
            _ratio(c("solver.thresholds@solver.solve"), c("solver.solve")), "count"),
        "solver.evaluate_temperature.calls_per_op": (
            per_op("solver.evaluate_temperature"), "count"),
        "solver.evaluate_temperature.us": (
            per_call("solver.evaluate_temperature", 1e3), "us"),
        "solver.phase_profile.calls_per_op": (per_op("solver.phase_profile"), "count"),
        "solver.phase_profile.us": (per_call("solver.phase_profile", 1e3), "us"),
        "solver.free_boundaries.calls_per_op": (
            per_op("solver.free_boundaries"), "count"),
        "equivalence.mapping.ms": (per_call("equivalence.mapping", 1e6), "ms"),
        "equivalence.mapping.self_ms": (
            self_per_call("equivalence.mapping", 1e6), "ms"),
        "equivalence.solves_per_mapping": (
            _ratio(c("solver.solve@equivalence.mapping"), c("equivalence.mapping")),
            "count"),
        "verify.full_report.ms": (per_call("verify.full_report", 1e6), "ms"),
        "verify.profile_evals_per_report": (
            _ratio(c("solver.phase_profile@verify.full_report"),
                   c("verify.full_report")), "count"),
    }
    for check in ("heat", "interface", "stefan", "boundary", "far_field"):
        name = f"verify.{check}_residual"
        out[f"{name}.ms"] = (per_call(name, 1e6), "ms")
    out.update({
        "cli.map.ms": (per_call("cli.map", 1e6), "ms"),
        "cli.map.self_ms": (self_per_call("cli.map", 1e6), "ms"),
        "cli.map.rows_written": (_ratio(rows, ops), "count"),
        "cli.map.bytes_written": (_ratio(nbytes, ops), "count"),
        "import.stefan3_ms": (import_ms, "ms"),
    })
    return out


def dump(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=1, sort_keys=True) + "\n")
