"""The three workloads: seeded inputs, set-up, one op, and its check.

A workload's inputs are one *round*: a fixed list of items that every run
repeats whole, so the share of known-failing ops is the same in every run.
Seeded items come from a material family chosen so that every op succeeds
and every check holds with margin; the known-failing items are fixed data
that do not depend on the seed.

Set-up (``prepare``) and ops receive the stefan3 package as an argument, so
that nothing here imports it: the set-up probe times that import itself.
"""

from __future__ import annotations

import dataclasses
import json
import math
import random
from pathlib import Path

import checks

KINDS = ("robin", "dirichlet", "neumann")

# The seeded material family.  Phase conductivities and heats scatter by
# at most 18% around a common value, which keeps alpha_i/alpha_1 within
# [0.5, 2]; with latent heats of 30-60 J/kg and steps of 5-8 K between the
# temperatures, and data 1.5-4x their upper thresholds, the outer
# coefficient stays within about [0.19, 0.9] (checked on 9,000 draws).
# Below that band full_report's far-field probe misfires; above it the
# heat residual approaches its tolerance through rounding.
DATUM_FACTOR = (1.5, 4.0)
DIRICHLET_EXCESS = (2.0, 8.0)
BULK_EXCESS = (5.0, 20.0)


def draw_material(rng: random.Random) -> dict:
    k, c = rng.uniform(0.2, 0.8), rng.uniform(1.0, 3.0)
    k1, k2, k3 = (k * rng.uniform(0.85, 1.18) for _ in range(3))
    c1, c2, c3 = (c * rng.uniform(0.85, 1.18) for _ in range(3))
    if k2 / c2 <= k3 / c3:
        # the inner liquid must be the more diffusive one
        (k2, c2), (k3, c3) = (k3, c3), (k2, c2)
    D = rng.uniform(250.0, 320.0)
    C = D + rng.uniform(5.0, 8.0)
    B = C + rng.uniform(5.0, 8.0)
    return {
        "k1": k1, "k2": k2, "k3": k3, "c1": c1, "c2": c2, "c3": c3,
        "rho": rng.uniform(500.0, 1500.0),
        "l1": rng.uniform(30.0, 60.0), "l2": rng.uniform(30.0, 60.0),
        "B": B, "C": C, "D": D,
    }


def draw_datum(rng: random.Random, m: dict, kind: str) -> dict:
    if kind == "dirichlet":
        return {"type": "dirichlet", "A": m["B"] + rng.uniform(*DIRICHLET_EXCESS)}
    a_inf = m["B"] + rng.uniform(*BULK_EXCESS)
    q2, h2 = checks.upper_thresholds(m, a_inf)
    factor = rng.uniform(*DATUM_FACTOR)
    if kind == "neumann":
        return {"type": "neumann", "q0": q2 * factor}
    return {"type": "robin", "h0": h2 * factor, "A_inf": a_inf}


def material_of(config: dict) -> dict:
    return {k: v for k, v in config.items() if k != "boundary"}


def materials_per_round(items: list[dict]) -> int:
    return len({tuple(sorted(material_of(it["config"]).items())) for it in items})


# Fixed near-threshold data: one material of the tests/_random_sets.py
# family (its set 2), with q0 = q2*(1 + 1e-12) and h0 = h2*(1 + 1e-12).
# solve raises RootFailure("non_finite") on both: the lower bracket
# z0 + 1e-12 already lies past the root (solver._outer_bracket).
_NEAR_MATERIAL = {
    "k1": 0.716822064061822, "k2": 0.834695618863691, "k3": 0.5295871943550841,
    "c1": 2.533402176354787, "c2": 4.67566020846161, "c3": 3.4367669899050313,
    "rho": 582.4892950749352, "l1": 190.5367689808305, "l2": 195.1742660112574,
    "B": 314.55448516916505, "C": 310.99456727738124, "D": 301.97394777387495,
}
NEAR_THRESHOLD = (
    {**_NEAR_MATERIAL, "boundary": {"type": "neumann", "q0": 522.7000266377702}},
    {**_NEAR_MATERIAL, "boundary": {
        "type": "robin", "h0": 87.11667110629503, "A_inf": 320.55448516916505}},
)

# Fixed far-field cases: set 1 of tests/_random_sets.py under its own Robin
# and Neumann data.  Both solutions are correct (Stefan residuals <= 3e-12),
# but coef1 is 0.042 and 0.133, so verify.far_field_residual's probe at 30x
# the outer front is only ~1.3 and ~4 diffusion lengths away and the check
# fails.
_FAR_MATERIAL = {
    "k1": 0.5360537067948744, "k2": 0.0674666096617253, "k3": 0.0774705614695231,
    "c1": 1.9709742389611695, "c2": 0.7101078313304401, "c3": 3.3640577300625445,
    "rho": 781.2831996476286, "l1": 389.44929827231476, "l2": 291.08861819131107,
    "B": 271.01120322224165, "C": 265.2347111989722, "D": 259.59419871169297,
}
FAR_FIELD = (
    {**_FAR_MATERIAL, "boundary": {
        "type": "robin", "h0": 1109.7423812705915, "A_inf": 273.5317414877835}},
    {**_FAR_MATERIAL, "boundary": {"type": "neumann", "q0": 1635.0343007669242}},
)


def bc_dict(bc) -> dict:
    """JSON form of one of the program's boundary-datum objects."""
    return {"type": bc.kind, **dataclasses.asdict(bc)}


def raised(exc: Exception) -> str:
    return f"raised {type(exc).__name__}: {exc}"


def solution_problems(config: dict, sol) -> list[str]:
    return checks.solution_problems(
        material_of(config), bc_dict(sol.ctx.bc), sol.coef1, sol.coef2,
        sol.surface_temp, sol.flux_coef,
    )


class Sweep:
    """Parameter study: solve each datum, then map it onto the other kinds.

    16 materials carry one datum of each kind; the two fixed near-threshold
    data end the round.  An op parses the config, builds the context,
    solves, and runs ``mapping`` onto both other kinds.
    """

    name = "sweep"
    materials = 16
    extra_modules = ()
    span = None

    def generate(self, seed: int, workdir: Path) -> list[dict]:
        rng = random.Random(seed)
        items = []
        for _ in range(self.materials):
            m = draw_material(rng)
            for kind in KINDS:
                items.append({
                    "config": {**m, "boundary": draw_datum(rng, m, kind)},
                    "bulk_margin": rng.uniform(2.0, 10.0),
                    "fault": None,
                })
        rng.shuffle(items)
        items += [
            {"config": cfg, "bulk_margin": 5.0, "fault": "near_threshold"}
            for cfg in NEAR_THRESHOLD
        ]
        return items

    def prepare(self, s3, items):
        return items

    def op(self, s3, state, i):
        item = state[i]
        props, temps, bc = s3.config_from_dict(item["config"])
        ctx = s3.ProblemContext(props, temps, bc)
        sol = s3.solve(ctx)
        reports = []
        for kind in KINDS:
            if kind != bc.kind:
                a_inf = sol.surface_temp + item["bulk_margin"]
                reports.append(s3.mapping(ctx, kind, a_inf if kind == "robin" else None))
        return sol, reports

    def check(self, s3, state, i, out, exc):
        item = state[i]
        if exc is not None:
            known = (item["fault"] == "near_threshold"
                     and isinstance(exc, s3.RootFailure)
                     and exc.reason == "non_finite")
            return ([] if known else [raised(exc)]), known, None
        sol, reports = out
        cfg = item["config"]
        bad = solution_problems(cfg, sol)
        for rep in reports:
            src, tgt = rep.source, rep.target
            if (checks.rel_diff(src.coef1, sol.coef1) > checks.CHECK_TOL
                    or checks.rel_diff(src.coef2, sol.coef2) > checks.CHECK_TOL):
                bad.append("mapping_source_differs")
            bad += [f"target:{p}" for p in solution_problems(cfg, tgt)]
            # the paper's equivalence: the mapped datum rebuilds the same field
            if checks.rel_diff(tgt.coef1, src.coef1) > checks.CHECK_TOL or checks.rel_diff(
                tgt.coef2, src.coef2
            ) > checks.CHECK_TOL:
                bad.append(f"{rep.target_kind}:coefficients_differ")
            datum = bc_dict(tgt.ctx.bc)
            if datum["type"] == "dirichlet":
                expect = src.surface_temp
            elif datum["type"] == "neumann":
                expect = src.flux_coef
            else:
                expect = src.flux_coef / (datum["A_inf"] - src.surface_temp)
            got = datum[rep.datum_name]
            if checks.rel_diff(got, expect) > checks.CHECK_TOL or got != rep.mapped_value:
                bad.append(f"{rep.target_kind}:mapped_datum")
        return bad, False, (sol.coef1, sol.coef2)


class Field:
    """Temperature-field export through the CLI ``map`` command.

    Eight problems per round, each kind at least twice, on a fixed set of
    grids of about 3,000 points, so every round writes the same number of
    rows whatever the seed.
    """

    name = "field"
    grids = ((60, 50), (50, 60), (64, 48), (48, 64), (55, 55), (75, 40),
             (40, 75), (68, 44))
    extra_modules = ("stefan3.cli",)
    span = "cli.map"

    def generate(self, seed: int, workdir: Path) -> list[dict]:
        rng = random.Random(seed)
        kinds = [KINDS[i % 3] for i in range(len(self.grids))]
        rng.shuffle(kinds)
        grids = list(self.grids)
        rng.shuffle(grids)
        items = []
        for i, (kind, (nx, nt)) in enumerate(zip(kinds, grids)):
            m = draw_material(rng)
            cfg = {**m, "boundary": draw_datum(rng, m, kind)}
            path = workdir / f"field-{i}.json"
            path.write_text(json.dumps(cfg))
            items.append({
                "config": cfg,
                "argv": ["map", "--config", str(path),
                         "--out", str(workdir / f"field-{i}.csv"),
                         "--tmax", repr(rng.uniform(1.0, 20.0)),
                         "--nx", str(nx), "--nt", str(nt)],
                "fault": None,
            })
        return items

    def prepare(self, s3, items):
        return items

    def op(self, s3, state, i):
        return s3.cli.main(state[i]["argv"])

    def check(self, s3, state, i, code, exc):
        if exc is not None:
            return [raised(exc)], False, None
        if code != 0:
            return [f"exit_code_{code}"], False, None
        item = state[i]
        argv = item["argv"]
        out, fronts_csv = self.outputs(item)
        nx, nt = int(argv[argv.index("--nx") + 1]), int(argv[argv.index("--nt") + 1])
        m = material_of(item["config"])
        bc = item["config"]["boundary"]
        bad = []

        fronts = fronts_csv.read_text().splitlines()
        if fronts[0] != "t,x2,x1" or len(fronts) != nt + 1:
            return ["fronts_file_shape"], False, None
        front_rows = [tuple(map(float, ln.split(","))) for ln in fronts[1:]]
        a1 = checks.alphas(m)[0]
        coefs = [(x2 / (2 * math.sqrt(a1 * t)), x1 / (2 * math.sqrt(a1 * t)))
                 for t, x2, x1 in front_rows]
        coef2, coef1 = coefs[0]
        if any(checks.rel_diff(c2, coef2) > 1e-12 or checks.rel_diff(c1, coef1) > 1e-12
               for c2, c1 in coefs):
            bad.append("fronts_not_similarity")
        ts = checks.surface_temp(m, bc, coef2)
        bad += checks.solution_problems(m, bc, coef1, coef2, ts)
        prof = checks.Profile(m, coef1, coef2, ts)

        lines = out.read_text().splitlines()
        if lines[0] != "x,t,temperature" or len(lines) != nx * nt + 1:
            return bad + ["field_file_shape"], False, None
        fronts_at = {t: (x2, x1) for t, x2, x1 in front_rows}
        tol = checks.FIELD_TOL_K
        prev_t, prev_temp = None, None
        for ln in lines[1:]:
            x, t, temp = map(float, ln.split(","))
            if abs(temp - prof(x, t)) > tol:
                bad.append("field_value")
                break
            x2, x1 = fronts_at[t]
            if x == 0.0 and abs(temp - ts) > tol:
                bad.append("surface_temperature")
                break
            hi, lo = (
                (math.inf, m["B"]) if x < x2 else
                (m["B"], m["C"]) if x < x1 else
                (m["C"], m["D"]) if x > x1 else (math.inf, -math.inf)
            )
            if not lo - tol <= temp <= hi + tol:
                bad.append("phase_range")
                break
            if t == prev_t and temp > prev_temp + 1e-12:
                bad.append("not_decreasing_in_x")
                break
            prev_t, prev_temp = t, temp
        if any(abs(prof.phase_value(phase, x, t) - want) > tol
               for t, (x2, x1) in fronts_at.items()
               for phase, x, want in ((3, x2, m["B"]), (2, x2, m["B"]),
                                      (2, x1, m["C"]), (1, x1, m["C"]))):
            bad.append("front_temperature")
        return bad, False, (coef1, coef2)

    @staticmethod
    def outputs(item) -> tuple[Path, Path]:
        """The field CSV and the fronts CSV an op writes."""
        argv = item["argv"]
        out = Path(argv[argv.index("--out") + 1])
        return out, out.with_name(out.stem + ".fronts.csv")

    def written(self, item) -> tuple[int, int]:
        """Rows and bytes the op wrote, over both files."""
        files = self.outputs(item)
        rows = sum(len(f.read_text().splitlines()) - 1 for f in files)
        return rows, sum(f.stat().st_size for f in files)


class Verify:
    """Residual verification of solutions solved during set-up.

    Six materials with one datum of each kind give 18 correct solutions;
    four of them also appear perturbed by 1e-6 as negative controls, whose
    correct verdict is "fails"; the two fixed far-field cases end the round.
    """

    name = "verify"
    materials = 6
    controls = 4
    perturbation = 1e-6
    extra_modules = ()
    span = None

    def generate(self, seed: int, workdir: Path) -> list[dict]:
        rng = random.Random(seed)
        items = []
        for _ in range(self.materials):
            m = draw_material(rng)
            items += [{"config": {**m, "boundary": draw_datum(rng, m, kind)},
                       "perturb": None, "fault": None} for kind in KINDS]
        items += [dict(item, perturb=self.perturbation)
                  for item in rng.sample(items, self.controls)]
        rng.shuffle(items)
        items += [{"config": cfg, "perturb": None, "fault": "far_field"}
                  for cfg in FAR_FIELD]
        return items

    def prepare(self, s3, items):
        sols = []
        for item in items:
            sol = s3.solve(s3.ProblemContext(*s3.config_from_dict(item["config"])))
            if item["perturb"] is not None:
                sol = s3.perturbed(sol, item["perturb"], item["perturb"])
            sols.append(sol)
        return items, sols

    def op(self, s3, state, i):
        return s3.full_report(state[1][i])

    def check(self, s3, state, i, rep, exc):
        item, sol = state[0][i], state[1][i]
        if exc is not None:
            return [raised(exc)], False, None
        key = (sol.coef1, sol.coef2)
        # the benchmark's own verdict on the solution decides the right report
        if solution_problems(item["config"], sol):
            return ([] if not rep.passes else ["control_passed"]), False, key
        if rep.passes:
            return [], False, key
        if item["fault"] == "far_field" and rep.failures() == ["far_field"]:
            return [], True, key
        return ["correct_solution_failed:" + ",".join(rep.failures())], False, key


WORKLOADS = {w.name: w for w in (Sweep(), Field(), Verify())}
