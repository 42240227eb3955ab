"""Shared fixtures: the benchmark material and its three solved problems."""

import json

import pytest

from stefan3 import (
    Dirichlet,
    MaterialProperties,
    Neumann,
    PhaseTemps,
    ProblemContext,
    Robin,
    solve,
)

# One material exercised throughout: equal conductivities and heats across
# phases, so all three diffusivities coincide (the boundary case the
# validator warns about).
PROPS = MaterialProperties(
    k1=0.2, k2=0.2, k3=0.2, c1=2.0, c2=2.0, c3=2.0, rho=770.0, l1=160.0, l2=150.0
)
TEMPS = PhaseTemps(B=328.0, C=324.0, D=320.0)

# Overrides of PROPS, each admissible field by field, under which one
# constant a ProblemContext derives underflows to 0 or overflows: in order,
# rho*c3, alpha2 (so sigma2), k1*c2 in h's offset, alpha1, the offset
# itself (so z0 = 0) and Ste1.
MATERIAL_RANGE_OVERRIDES = (
    dict(k2=1e8, c3=1e-200, rho=1e-300),
    dict(c2=1.7e308, c3=1e300, rho=1e30),
    dict(k1=1e-300, c2=1e-300),
    dict(k1=1e300, c1=1.7e308),
    dict(c2=1e-30, l1=1.7e308),
    dict(k1=1e-200, c1=1e-300, rho=1e300, l1=1e200),
)

# Overrides of PROPS, each with a datum, under which a stage ended in a bare
# ZeroDivisionError or OverflowError.  In "phase1_kernel", coef1 = 2.4e14
# and phase 1's exp((coef1 - eta)(coef1 + eta)) overflowed where eta
# rounded just below coef1.  In the others a divisor is 0 in floating
# point: the convective law's h0*sqrt(pi*alpha3), the heat fit's over
# phase 1's window [coef1, coef1 + 3] (coef1 = 6.2e48), the critical flux
# q2's erf(z0*sigma2) (z0 = 0), both sides of the energy balance at front
# 1, where rho*l1 underflows and the two fluxes cancel (coef1 = 0.549), and
# the largest |value| of phase 1's field, whose ratio kernel reads 0 at
# every sample as one ulp of coef1 = 3.5e13 is 0.004 in eta.
FLOAT_RANGE_CASES = {
    "robin_law": (dict(c3=1e300), Robin(h0=1e-200, A_inf=1e300)),
    "heat_window": (dict(k1=1e-300, c1=1e-200), Dirichlet(A=331.0)),
    "thresholds": (dict(k1=1e200, c1=1e200, c2=1e-300), Dirichlet(A=1e30)),
    "phase1_kernel": (dict(k1=1e-30, k3=1e-30, c3=3.0, l1=3.0), Neumann(q0=1e8)),
    "stefan_balance": (dict(rho=1e-200, l1=1e-300), Dirichlet(A=331.0)),
    "heat_scale": (dict(k1=1e-30, c1=0.5, c3=1e200), Dirichlet(A=100000328.0)),
}

ROBIN = Robin(h0=100.0, A_inf=334.0)
DIRICHLET = Dirichlet(A=331.0)
NEUMANN = Neumann(q0=300.0)


def benchmark_config(kind: str) -> dict:
    base = {
        "k1": 0.2, "k2": 0.2, "k3": 0.2,
        "c1": 2.0, "c2": 2.0, "c3": 2.0,
        "rho": 770.0, "l1": 160.0, "l2": 150.0,
        "B": 328.0, "C": 324.0, "D": 320.0,
    }
    boundary = {
        "robin": {"type": "robin", "h0": 100.0, "A_inf": 334.0},
        "dirichlet": {"type": "dirichlet", "A": 331.0},
        "neumann": {"type": "neumann", "q0": 300.0},
    }[kind]
    return {**base, "boundary": boundary}


def cold_gaps(rep) -> tuple[float, float]:
    """How far a mapping's target pair lies from a cold solve of its datum.

    The mapped datum is solved on a fresh context, which shares no cached
    value and no recorded pair with the source, so the paper's equivalence
    is checked rather than assumed.  Returns the coef1 and coef2 gaps.
    """
    c = rep.target.ctx
    cold = solve(ProblemContext(c.props, c.temps, c.bc))
    return abs(rep.target.coef1 - cold.coef1), abs(rep.target.coef2 - cold.coef2)


@pytest.fixture(scope="session")
def ctx_plain():
    return ProblemContext(PROPS, TEMPS)


@pytest.fixture(scope="session")
def ctx_robin():
    return ProblemContext(PROPS, TEMPS, ROBIN)


@pytest.fixture(scope="session")
def ctx_dirichlet():
    return ProblemContext(PROPS, TEMPS, DIRICHLET)


@pytest.fixture(scope="session")
def ctx_neumann():
    return ProblemContext(PROPS, TEMPS, NEUMANN)


@pytest.fixture(scope="session")
def sol_robin(ctx_robin):
    return solve(ctx_robin)


@pytest.fixture(scope="session")
def sol_dirichlet(ctx_dirichlet):
    return solve(ctx_dirichlet)


@pytest.fixture(scope="session")
def sol_neumann(ctx_neumann):
    return solve(ctx_neumann)


@pytest.fixture
def write_config(tmp_path):
    """Factory writing a config dict to a JSON file, returning its path."""

    def _write(obj, name="config.json"):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return str(path)

    return _write


@pytest.fixture
def searches(monkeypatch):
    """Each root search the package starts from here on: [kind, evaluations].

    The kind is "z0" for searches started in the transcendental module (the
    z0 property) and "outer" for the solver's.
    """
    from stefan3 import solver, transcendental
    from stefan3.transcendental import find_root_monotone

    started = []

    def counting(kind):
        def search(f, *args, **kwargs):
            record = [kind, 0]
            started.append(record)

            def counted(z):
                record[1] += 1
                return f(z)

            return find_root_monotone(counted, *args, **kwargs)

        return search

    monkeypatch.setattr(transcendental, "find_root_monotone", counting("z0"))
    monkeypatch.setattr(solver, "find_root_monotone", counting("outer"))
    return started
