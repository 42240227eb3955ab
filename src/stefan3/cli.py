"""Command-line interface.

Commands read a JSON config file and write deterministic JSON to stdout
(CSV files for ``map``).  Diagnostics go to stderr only, controlled by the
STEFAN3_LOG environment variable (quiet, info, debug; only the last two
import ``logging``).  A warning prints as one line, ``Category: message``.

Exit codes:
    0  success
    1  invalid input (config schema, physical invariants, usage or a
       verify perturbation)
    2  boundary datum outside the three-phase regime
    3  root search failure
    4  a mapping hypothesis inequality failed
    5  file I/O error
    6  verification ran and at least one residual exceeded its tolerance
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import types
import warnings
from typing import Optional

from .errors import (
    HypothesisError,
    MissingBoundaryDatum,
    RegimeError,
    RootFailure,
    ValidationError,
)
from .model import _BOUNDARY_KINDS, Violation, load_config
from .transcendental import ProblemContext
from .solver import _grid, _resolvable, free_boundaries, perturbed, solve, thresholds


log = _QUIET = types.SimpleNamespace(debug=lambda *a: None, info=lambda *a: None)


class _Parser(argparse.ArgumentParser):
    # usage problems are input problems; keep exit code 2 reserved for
    # regime classification
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built once per process: every parse starts from a fresh namespace
    parser = _Parser(
        prog="stefan3",
        description="Three-phase melting with a square-root-of-time "
        "boundary input: solve, classify, map between equivalent boundary "
        "conditions, and verify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def with_config(p):
        p.add_argument("--config", required=True, metavar="PATH",
                       help="JSON problem description")
        return p

    with_config(sub.add_parser("solve", help="solve and print the solution"))
    with_config(sub.add_parser("thresholds", help="print regime thresholds"))

    p = with_config(sub.add_parser("equiv", help="map to another boundary kind"))
    p.add_argument("--to", required=True,
                   choices=tuple(_BOUNDARY_KINDS),
                   help="target boundary kind")
    p.add_argument("--a-inf", type=float, default=None, dest="a_inf",
                   help="bulk temperature for mappings onto a convective "
                   "condition")

    p = with_config(sub.add_parser("map", help="write temperature field CSV"))
    p.add_argument("--out", required=True, metavar="PATH", help="output CSV")
    p.add_argument("--xmax", type=float, default=None,
                   help="largest x (default: twice the outer front at tmax)")
    p.add_argument("--tmax", type=float, default=10.0, help="largest t")
    p.add_argument("--nx", type=int, default=200, help="x samples")
    p.add_argument("--nt", type=int, default=200, help="t samples")

    p = with_config(sub.add_parser("verify", help="run residual checks"))
    p.add_argument("--perturb", type=float, default=None,
                   help=argparse.SUPPRESS)

    return parser


def _setup_logging() -> None:
    global log
    level = os.environ.get("STEFAN3_LOG", "quiet").strip().upper()
    log = _QUIET  # any other value is quiet, as nothing logs above info
    if level in ("INFO", "DEBUG"):
        import logging

        handler = logging.StreamHandler(sys.stderr)
        handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
        log = logging.getLogger("stefan3")
        log.handlers[:] = [handler]
        log.setLevel(level)


def _show_warning(message, category, filename, lineno, file=None, line=None):
    print(f"{category.__name__}: {message}", file=sys.stderr)


def _emit(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj, indent=2) + "\n")


def _context(path: str) -> ProblemContext:
    props, temps, bc = load_config(path)
    log.debug("config %s parsed: bc=%r", path, bc)
    return ProblemContext(props, temps, bc)


def cmd_solve(args) -> int:
    sol = solve(_require_bc(_context(args.config)))
    log.info("solved %s problem: coef1=%r coef2=%r", sol.kind, sol.coef1,
             sol.coef2)
    _emit(sol.to_dict())
    return 0


def cmd_thresholds(args) -> int:
    ctx = _context(args.config)
    _emit(thresholds(ctx).to_dict())
    return 0


def cmd_equiv(args) -> int:
    # imported on use: importing the CLI loads neither equivalence nor verify
    from .equivalence import mapping

    rep = mapping(_require_bc(_context(args.config)), args.to, a_inf=args.a_inf)
    log.info("mapped %s -> %s: %s=%r", rep.source_kind, rep.target_kind,
             rep.datum_name, rep.mapped_value)
    _emit(rep.to_dict())
    return 0


def _require_bc(ctx: ProblemContext) -> ProblemContext:
    if ctx.bc is None:
        raise MissingBoundaryDatum("config has no 'boundary' section")
    return ctx


def _fronts_path(out: str) -> str:
    if out.endswith(".csv"):
        return out[: -len(".csv")] + ".fronts.csv"
    return out + ".fronts.csv"


def cmd_map(args) -> int:
    sol = solve(_require_bc(_context(args.config)))
    tmax, xmax, nx, nt = args.tmax, args.xmax, args.nx, args.nt
    if not (
        math.isfinite(tmax) and tmax > 0.0
        and (xmax is None or (math.isfinite(xmax) and xmax >= 0.0))
        and nx >= 2 and nt >= 1
    ):
        raise ValidationError(
            [Violation("BAD_GRID", "need finite tmax > 0, finite xmax >= 0, "
                       "nx >= 2 and nt >= 1")]
        )
    ts = [tmax * (i + 1) / nt for i in range(nt)]
    # ts ascends, so its ends bound every time
    if not (_resolvable(sol, ts[0]) and math.isfinite(ts[-1])):
        raise ValidationError([Violation(
            "BAD_GRID", f"grid times overflow or underflow: t runs from "
            f"{ts[0]!r} to {ts[-1]!r}")])
    if xmax is None:
        xmax = 2.0 * free_boundaries(sol, tmax)[1]
    xs = [abs(xmax) * j / (nx - 1) for j in range(nx)]  # abs: -0.0 writes 0.0
    if not math.isfinite(xs[-1]):
        raise ValidationError([Violation(
            "BAD_GRID", f"grid points overflow: x runs to {xs[-1]!r}")])
    t_cells = [f"{t!r}," for t in ts]
    # x, t, temperature and newline cells per point, reused for every row
    cells = ["\n"] * (4 * nx)
    cells[0::4] = [f"{x!r}," for x in xs]
    fronts_rows = ["t,x2,x1\n"]
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write("x,t,temperature\n")
        # each time's fronts and field row come from one pass of the grid
        for t_cell, (x2, x1, row) in zip(
                t_cells, _grid(sol, ts, xs, sol.ctx.temps.D)):
            cells[1::4] = [t_cell] * nx
            cells[2::4] = map(repr, row)
            fh.write("".join(cells))
            fronts_rows.append(f"{t_cell}{x2!r},{x1!r}\n")
    fronts = _fronts_path(args.out)
    with open(fronts, "w", encoding="utf-8", newline="") as fh:
        fh.write("".join(fronts_rows))
    log.info("wrote %d rows to %s and %d rows to %s", nx * nt, args.out, nt,
             fronts)
    return 0


def cmd_verify(args) -> int:
    sol = solve(_require_bc(_context(args.config)))
    if args.perturb is not None:
        log.info("perturbing both coefficients by %r", args.perturb)
        sol = perturbed(sol, args.perturb, args.perturb)
    from .verify import full_report

    rep = full_report(sol)
    _emit(rep.to_dict())
    if not rep.passes:
        log.info("verification failed: %s", ", ".join(rep.failures()))
        return 6
    return 0


_COMMANDS = {
    "solve": cmd_solve,
    "thresholds": cmd_thresholds,
    "equiv": cmd_equiv,
    "map": cmd_map,
    "verify": cmd_verify,
}


def main(argv: Optional[list] = None) -> int:
    """Entry point; returns the process exit code."""
    _setup_logging()
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse handles --help and usage errors
        return int(exc.code or 0)
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning
        try:
            return _COMMANDS[args.command](args)
        except (ValidationError, MissingBoundaryDatum) as exc:
            if isinstance(exc, ValidationError):
                for v in exc.violations:
                    print(f"invalid input: {v.code}: {v.message}", file=sys.stderr)
            else:
                print(f"invalid input: {exc}", file=sys.stderr)
            return 1
        except RegimeError as exc:
            _emit({"regime": exc.regime.value, "error": str(exc)})
            print(f"regime: {exc}", file=sys.stderr)
            return 2
        except RootFailure as exc:
            print(f"root search failed ({exc.reason}): {exc}", file=sys.stderr)
            return 3
        except HypothesisError as exc:
            print(
                f"hypothesis {exc.name} failed: lhs={exc.lhs!r} rhs={exc.rhs!r}",
                file=sys.stderr,
            )
            return 4
        except OSError as exc:
            print(f"i/o error: {exc}", file=sys.stderr)
            return 5
