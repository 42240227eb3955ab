"""Deterministic random problem sets for the cross-mapping sweeps.

Each set carries one material, one temperature triple, and an admissible
three-phase datum of every boundary kind, plus the bulk temperatures the
convective-target mappings need.  Data bounds keep every draw inside the
regime where all mappings are defined: h0 and q0 sit a factor of at least
1.5 above their upper thresholds and the bulk temperatures clear the
relevant surface temperature by an explicit margin.
"""

import math
import random

from stefan3 import (
    Dirichlet,
    MaterialProperties,
    Neumann,
    PhaseTemps,
    ProblemContext,
    Robin,
    thresholds,
)

SEED = 20260822


def make_sets(n: int = 50, seed: int = SEED) -> list:
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        k1, k2, k3 = (rng.uniform(0.05, 1.0) for _ in range(3))
        c1, c2, c3 = (rng.uniform(0.5, 5.0) for _ in range(3))
        if k2 / c2 < k3 / c3:
            # keep the inner liquid at least as diffusive as the outer one
            (k2, c2), (k3, c3) = (k3, c3), (k2, c2)
        props = MaterialProperties(
            k1=k1, k2=k2, k3=k3, c1=c1, c2=c2, c3=c3,
            rho=rng.uniform(100.0, 2000.0),
            l1=rng.uniform(50.0, 500.0),
            l2=rng.uniform(50.0, 500.0),
        )
        D = rng.uniform(250.0, 320.0)
        C = D + rng.uniform(1.0, 10.0)
        B = C + rng.uniform(1.0, 10.0)
        temps = PhaseTemps(B=B, C=C, D=D)
        ctx = ProblemContext(props, temps)
        q2 = thresholds(ctx).q2
        a_inf_r = B + rng.uniform(1.0, 30.0)
        h0 = thresholds(ctx, a_inf_r).h2 * rng.uniform(1.5, 20.0)
        A = B + rng.uniform(0.5, 20.0)
        out.append(
            {
                "ctx": ctx,
                "robin": Robin(h0=h0, A_inf=a_inf_r),
                "dirichlet": Dirichlet(A=A),
                "neumann": Neumann(q0=q2 * rng.uniform(1.5, 20.0)),
                # bulk temperature handed to the imposed-temperature source
                "a_inf_d": A + rng.uniform(0.5, 10.0),
                # margin above the flux-induced surface temperature for the
                # flux source; the surface value is only known after solving
                "margin_n": rng.uniform(0.5, 5.0),
            }
        )
    return out


def wide_sets(n: int = 10, seed: int = 7) -> list:
    """A wide admissible family: every value log-uniform over its range.

    k in [0.01, 100], c in [0.1, 10], rho in [100, 5000], l1 and l2 in
    [1, 1e5], C - D and B - C in [0.5, 50] K; h0 and q0 at their upper
    thresholds times [1.5, 1e3], A = B + [0.1, 100] K and A_inf = B + [1,
    100] K.  Phases 2 and 3 swap where needed so that alpha2 > alpha3.
    """
    rng = random.Random(seed)

    def draw(lo, hi):
        return math.exp(rng.uniform(math.log(lo), math.log(hi)))

    out = []
    for _ in range(n):
        k1, k2, k3 = (draw(0.01, 100.0) for _ in range(3))
        c1, c2, c3 = (draw(0.1, 10.0) for _ in range(3))
        if k2 / c2 < k3 / c3:
            (k2, c2), (k3, c3) = (k3, c3), (k2, c2)
        props = MaterialProperties(
            k1=k1, k2=k2, k3=k3, c1=c1, c2=c2, c3=c3, rho=draw(100.0, 5000.0),
            l1=draw(1.0, 1e5), l2=draw(1.0, 1e5),
        )
        D = rng.uniform(250.0, 320.0)
        C = D + draw(0.5, 50.0)
        B = C + draw(0.5, 50.0)
        ctx = ProblemContext(props, PhaseTemps(B=B, C=C, D=D))
        a_inf = B + draw(1.0, 100.0)
        h0 = thresholds(ctx, a_inf).h2 * draw(1.5, 1e3)
        q0 = thresholds(ctx).q2 * draw(1.5, 1e3)
        out.append({
            "ctx": ctx,
            "robin": Robin(h0=h0, A_inf=a_inf),
            "dirichlet": Dirichlet(A=B + draw(0.1, 100.0)),
            "neumann": Neumann(q0=q0),
        })
    return out
