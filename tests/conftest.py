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
