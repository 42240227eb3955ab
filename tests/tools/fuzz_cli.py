"""Seeded census of extreme but admissible inputs, stdlib only.

    python3 tests/tools/fuzz_cli.py [--draws N] [--seed S]

Each draw starts from the tests' benchmark material and temperatures,
replaces up to four material fields with values from LADDER, and takes one
boundary datum of a random kind built from the same ladder: a flux or
convective coefficient is a ladder value, a temperature is B plus one.
Every field is then admissible on its own.  The draw runs the stages
construction (``ProblemContext``), ``thresholds``, ``solve`` and
``full_report`` in turn, each under a time limit of LIMIT_S seconds, and
ends at the first stage that raises or runs out of time.

Prints one line per outcome with its count: the stage the draw ended in
(``done`` when every stage ran), the exception's class (``Timeout`` past
the limit), and the ``file:line`` of the innermost frame outside this
tool where it was raised or, for a timeout, where the limit struck.
Exits 1 when some draw ended in anything but a documented error
(``stefan3.errors``), else 0: at the default 1,500 draws it exits 0 on
each of seeds 1 to 10, where a divisor that floating point leaves at 0
ends in ``RootFailure("unresolved")``.  Runs on ``src/`` of the checkout
holding this file.
"""

from __future__ import annotations

import argparse
import os
import random
import signal
import sys
import traceback
import warnings
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src")]

import stefan3  # noqa: E402
from stefan3 import errors  # noqa: E402

# the tests' benchmark material and temperatures (tests/conftest.py)
PROPS = stefan3.MaterialProperties(
    k1=0.2, k2=0.2, k3=0.2, c1=2.0, c2=2.0, c3=2.0, rho=770.0, l1=160.0, l2=150.0
)
TEMPS = stefan3.PhaseTemps(B=328.0, C=324.0, D=320.0)

LADDER = (1e-300, 1e-200, 1e-30, 1e-8, 0.5, 1.0, 3.0, 1e8, 1e30, 1e200, 1e300,
          1.7e308)
MAX_FIELDS = 4
LIMIT_S = 2.0
STAGES = ("construct", "thresholds", "solve", "report")

# the errors the package documents: each ends a CLI command with its code
DOCUMENTED = (errors.ValidationError, errors.MissingBoundaryDatum,
              errors.RegimeError, errors.RootFailure, errors.HypothesisError)


class Timeout(Exception):
    """A stage ran past its time limit."""


def draw(rng: random.Random) -> tuple:
    """One (props, temps, bc) case."""
    fields = rng.sample(PROPS._fields, rng.randint(0, MAX_FIELDS))
    props = PROPS._replace(**{f: rng.choice(LADDER) for f in fields})
    kind = rng.choice(("robin", "dirichlet", "neumann"))
    if kind == "robin":
        bc = stefan3.Robin(h0=rng.choice(LADDER), A_inf=TEMPS.B + rng.choice(LADDER))
    elif kind == "dirichlet":
        bc = stefan3.Dirichlet(A=TEMPS.B + rng.choice(LADDER))
    else:
        bc = stefan3.Neumann(q0=rng.choice(LADDER))
    return props, TEMPS, bc


def _on_alarm(signum, frame):
    raise Timeout(f"past {LIMIT_S} s")


def _where(exc: BaseException) -> str:
    # the innermost frame outside this file: for a timeout, where it struck
    frames = traceback.extract_tb(exc.__traceback__)
    frame = ([f for f in frames if f.filename != __file__] or frames)[-1]
    return f"{os.path.basename(frame.filename)}:{frame.lineno}"


def run(case: tuple, stages=STAGES) -> tuple:
    """(stage, outcome, where) of one case: ("done", "ok", "") if none raised.

    Call from the main thread: the time limit is a SIGALRM timer.
    """
    value = case
    steps = {
        "construct": lambda v: stefan3.ProblemContext(*v),
        "thresholds": lambda v: (stefan3.thresholds(v), v)[1],  # keeps the context
        "solve": stefan3.solve,
        "report": stefan3.full_report,
    }
    for stage in stages:
        signal.setitimer(signal.ITIMER_REAL, LIMIT_S)
        try:
            value = steps[stage](value)
        except Exception as exc:  # every outcome is counted
            return stage, type(exc).__name__, _where(exc)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
    return "done", "ok", ""


def census(seed: int, draws: int, stages=STAGES) -> Counter:
    """Counts of (stage, outcome, where) over the seed's draws."""
    rng = random.Random(seed)
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", errors.DiffusivityWarning)
            return Counter(run(draw(rng), stages) for _ in range(draws))
    finally:
        signal.signal(signal.SIGALRM, previous)


def undocumented(counts: Counter) -> Counter:
    """The outcomes that are neither a finished draw nor a documented error."""
    names = {cls.__name__ for cls in DOCUMENTED} | {"ok"}
    return Counter({k: n for k, n in counts.items() if k[1] not in names})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--draws", type=int, default=1500)
    parser.add_argument("--seed", type=int, default=5)
    args = parser.parse_args(argv)
    counts = census(args.seed, args.draws)
    for (stage, outcome, where), n in sorted(counts.items()):
        print(f"{n:6d}  {stage:10s}  {outcome:20s}  {where}")
    return 1 if undocumented(counts) else 0


if __name__ == "__main__":
    sys.exit(main())
