"""Solved front coefficients against the 60-digit oracle over a wide family.

``tests/tools/reference_oracle.py`` solves each problem with mpmath by its
own scalar reduction (route B).  Ten materials of ``_random_sets.wide_sets``
with all three kinds take about 7 s.  The search stops within a few units
in the last place of the outer equation's root, so coef1 is as accurate
as the equation's own rounding lets it be; coef2 inherits coef1's
rounding, amplified where coef1 lies close to z0, so its bound is the
wider one.
"""

import dataclasses
import importlib.util
from pathlib import Path

import mpmath
import pytest

from _random_sets import wide_sets
from stefan3 import solve

ORACLE = Path(__file__).resolve().parent / "tools" / "reference_oracle.py"
KINDS = ("robin", "dirichlet", "neumann")


@pytest.fixture(scope="module")
def oracle():
    # the oracle sets 60 digits on import; workdps restores the caller's
    with mpmath.workdps(60):
        spec = importlib.util.spec_from_file_location("reference_oracle", ORACLE)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return module


def _errors(oracle, s, kinds=KINDS):
    # relative errors of (coef1, coef2) against the oracle's route B at 60
    # digits, for each kind of one set; z0 is searched once per material
    p, t = s["ctx"].props, s["ctx"].temps
    material = ((p.k1, p.k2, p.k3), (p.c1, p.c2, p.c3), p.rho, p.l1, p.l2,
                t.B, t.C, t.D)
    with mpmath.workdps(60):
        z0 = oracle.solve_z0(oracle.Case(*material, None))
        for kind in kinds:
            sol = solve(s["ctx"].with_bc(s[kind]))
            case = oracle.Case(*material, kind, **dataclasses.asdict(s[kind]))
            c1, c2 = oracle.solve_route_b(case, z0)
            yield float(abs(sol.coef1 - c1) / c1), float(abs(sol.coef2 - c2) / c2)


def test_every_kind_agrees_with_the_oracle_over_a_wide_family(oracle):
    errors = [e for s in wide_sets(10) for e in _errors(oracle, s)]
    assert len(errors) == 30
    assert max(e1 for e1, _ in errors) <= 1e-14
    assert max(e2 for _, e2 in errors) <= 2e-10


def test_oracle_solves_an_imposed_temperature_with_z0_above_one(oracle):
    # the oracle's upper bracket end must lie above z0, where the imposed
    # temperature's right-hand side has its pole
    s = next(s for s in wide_sets(40) if s["ctx"].z0 > 1.0)
    ((e1, e2),) = _errors(oracle, s, ("dirichlet",))
    assert e1 <= 1e-14 and e2 <= 2e-10
