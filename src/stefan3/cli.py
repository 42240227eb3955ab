"""Command-line interface.

Commands read a JSON config file and write deterministic JSON to stdout
(CSV files for ``map``), and nothing else: stderr carries only the
message of a nonzero exit and warnings, each warning on one line,
``Category: message``.

Exit codes:
    0  success
    1  invalid input (config schema, physical invariants or usage)
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
import sys
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
from .solver import _grid, _resolvable, free_boundaries, solve, thresholds


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

    def command(name, handler, help):
        # main calls the handler of the command parsed
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler)
        p.add_argument("--config", required=True, metavar="PATH",
                       help="JSON problem description")
        return p

    command("solve", cmd_solve, "solve and print the solution")
    command("thresholds", cmd_thresholds, "print regime thresholds")

    p = command("equiv", cmd_equiv, "map to another boundary kind")
    p.add_argument("--to", required=True,
                   choices=tuple(_BOUNDARY_KINDS),
                   help="target boundary kind")
    p.add_argument("--a-inf", type=float, default=None, dest="a_inf",
                   help="bulk temperature for mappings onto a convective "
                   "condition")

    p = command("map", cmd_map, "write temperature field CSV")
    p.add_argument("--out", required=True, metavar="PATH", help="output CSV")
    p.add_argument("--xmax", type=float, default=None,
                   help="largest x (default: twice the outer front at tmax)")
    p.add_argument("--tmax", type=float, default=10.0, help="largest t")
    p.add_argument("--nx", type=int, default=200, help="x samples")
    p.add_argument("--nt", type=int, default=200, help="t samples")

    command("verify", cmd_verify, "run residual checks")

    return parser


def _show_warning(message, category, filename, lineno, file=None, line=None):
    print(f"{category.__name__}: {message}", file=sys.stderr)


def _emit(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj, indent=2) + "\n")


def _context(path: str) -> ProblemContext:
    return ProblemContext(*load_config(path))


def cmd_solve(args) -> int:
    _emit(solve(_require_bc(_context(args.config))).to_dict())
    return 0


def cmd_thresholds(args) -> int:
    _emit(thresholds(_context(args.config)).to_dict())
    return 0


def cmd_equiv(args) -> int:
    # imported on use: importing the CLI loads neither equivalence nor verify
    from .equivalence import mapping

    rep = mapping(_require_bc(_context(args.config)), args.to, a_inf=args.a_inf)
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
    with open(_fronts_path(args.out), "w", encoding="utf-8", newline="") as fh:
        fh.write("".join(fronts_rows))
    return 0


def cmd_verify(args) -> int:
    sol = solve(_require_bc(_context(args.config)))
    from .verify import full_report

    rep = full_report(sol)
    _emit(rep.to_dict())
    return 0 if rep.passes else 6


def main(argv: Optional[list] = None) -> int:
    """Entry point; returns the process exit code."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse handles --help and usage errors
        return int(exc.code or 0)
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning
        try:
            return args.handler(args)
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
