"""Independent checks of the program's outputs.

Nothing here imports stefan3.  The float functions re-derive the similarity
solution from the closed-form erf profiles: the two front energy balances,
the surface law of each boundary kind and the temperature field itself.
``route_a`` solves the two energy balances at 60 digits with mpmath, the
same route A as ``tests/tools/reference_oracle.py``.

A material is a dict with k1..k3, c1..c3, rho, l1, l2, B, C, D; a datum is
``{"type": "robin", "h0", "A_inf"}``, ``{"type": "dirichlet", "A"}`` or
``{"type": "neumann", "q0"}``, the JSON config form the program reads.
"""

from __future__ import annotations

import math

# Relative tolerance of every float check.  Correct solutions of the
# benchmark's material family sit below 1e-11; a coefficient perturbed by
# 1e-6 moves the energy balances by about 1e-6.
CHECK_TOL = 1e-9

# Absolute tolerance, in kelvin, between a written temperature and the
# benchmark's own evaluation of the same profile.
FIELD_TOL_K = 1e-8

_SQRT_PI = math.sqrt(math.pi)


def alphas(m: dict) -> tuple[float, float, float]:
    return tuple(m[f"k{i}"] / (m["rho"] * m[f"c{i}"]) for i in (1, 2, 3))


def rel_diff(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale else 0.0


def z0_of(m: dict) -> float:
    """Smallest admissible outer coefficient: zero of the matching map H."""
    a1, a2, _ = alphas(m)
    s2 = math.sqrt(a1 / a2)
    ste1 = m["c1"] * (m["C"] - m["D"]) / m["l1"]
    ste2 = m["c2"] * (m["B"] - m["C"]) / m["l2"]
    coef = ste2 / _SQRT_PI * m["l2"] / m["l1"] * math.sqrt(
        m["k2"] * m["c1"] / (m["k1"] * m["c2"])
    )

    def h(z):
        phi = z + ste1 / _SQRT_PI * math.exp(-z * z) / math.erfc(z)
        return math.erf(z * s2) - coef * math.exp(-z * z * a1 / a2) / phi

    lo, hi = 0.0, 1.0
    while h(hi) < 0.0:
        lo, hi = hi, 2.0 * hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        lo, hi = (mid, hi) if h(mid) < 0.0 else (lo, mid)
    return 0.5 * (lo + hi)


def upper_thresholds(m: dict, a_inf: float) -> tuple[float, float]:
    """(q2, h2): the flux and convective data above which three phases form."""
    a1, a2, a3 = alphas(m)
    e = math.erf(z0_of(m) * math.sqrt(a1 / a2))
    q2 = m["k2"] * (m["B"] - m["C"]) / (math.sqrt(math.pi * a2) * e)
    h2 = (
        (m["B"] - m["C"])
        / (a_inf - m["B"])
        * math.sqrt(m["k2"] * m["k3"] * m["c2"] / (math.pi * m["c3"] * a3))
        / e
    )
    return q2, h2


def surface_temp(m: dict, bc: dict, coef2: float) -> float:
    """Surface temperature the datum's law implies for an inner coefficient."""
    a1, _, a3 = alphas(m)
    e3 = math.erf(coef2 * math.sqrt(a1 / a3))
    g = m["k3"] / (math.sqrt(math.pi * a3) * e3)  # flux coefficient per kelvin
    if bc["type"] == "dirichlet":
        return bc["A"]
    if bc["type"] == "neumann":
        return m["B"] + bc["q0"] / g
    return (g * m["B"] + bc["h0"] * bc["A_inf"]) / (g + bc["h0"])


def solution_residuals(
    m: dict, bc: dict, coef1: float, coef2: float, ts: float, flux_coef=None
) -> dict:
    """Relative residuals of a claimed solution, all time independent.

    front1/front2 are the energy balances, boundary the datum's surface law,
    and flux, when a claimed surface-flux coefficient is given, that
    coefficient against the phase-3 profile.
    """
    a1, a2, a3 = alphas(m)
    s2, s3 = math.sqrt(a1 / a2), math.sqrt(a1 / a3)
    B, C, D = m["B"], m["C"], m["D"]
    span2 = math.erf(coef1 * s2) - math.erf(coef2 * s2)
    e3 = math.erf(coef2 * s3)
    # conductive heat flux -k dT/dx times sqrt(t), at each side of each front
    q1_solid = m["k1"] * (C - D) * math.exp(-coef1 * coef1) / (
        math.sqrt(math.pi * a1) * math.erfc(coef1)
    )
    q1_mid = m["k2"] * (B - C) * math.exp(-coef1 * coef1 * a1 / a2) / (
        math.sqrt(math.pi * a2) * span2
    )
    q2_mid = m["k2"] * (B - C) * math.exp(-coef2 * coef2 * a1 / a2) / (
        math.sqrt(math.pi * a2) * span2
    )
    q2_liq = m["k3"] * (ts - B) * math.exp(-coef2 * coef2 * a1 / a3) / (
        math.sqrt(math.pi * a3) * e3
    )
    q_surface = m["k3"] * (ts - B) / (math.sqrt(math.pi * a3) * e3)
    speed = math.sqrt(a1)  # front speed times sqrt(t), per unit coefficient
    kind = bc["type"]
    if kind == "dirichlet":
        boundary = abs(ts - bc["A"]) / (bc["A"] - B)
    elif kind == "neumann":
        boundary = rel_diff(q_surface, bc["q0"])
    else:
        boundary = rel_diff(q_surface, bc["h0"] * (bc["A_inf"] - ts))
    out = {
        "front1": rel_diff(q1_mid - q1_solid, m["rho"] * m["l1"] * coef1 * speed),
        "front2": rel_diff(q2_liq - q2_mid, m["rho"] * m["l2"] * coef2 * speed),
        "boundary": boundary,
    }
    if flux_coef is not None:
        out["flux"] = rel_diff(flux_coef, q_surface)
    return out


def solution_problems(m, bc, coef1, coef2, ts, flux_coef=None) -> list[str]:
    """Names of the residuals above CHECK_TOL; empty for a correct solution."""
    if not 0.0 < coef2 < coef1:
        return ["front_order"]
    res = solution_residuals(m, bc, coef1, coef2, ts, flux_coef)
    return [k for k, v in res.items() if not v <= CHECK_TOL]


class Profile:
    """The explicit temperature field of given coefficients and surface value."""

    def __init__(self, m: dict, coef1: float, coef2: float, ts: float):
        self.m, self.coef1, self.coef2, self.ts = m, coef1, coef2, ts
        a1, a2, a3 = self.alphas = alphas(m)
        self.e3 = math.erf(coef2 * math.sqrt(a1 / a3))
        self.e1_mid = math.erf(coef1 * math.sqrt(a1 / a2))
        self.span2 = self.e1_mid - math.erf(coef2 * math.sqrt(a1 / a2))
        self.erfc1 = math.erfc(coef1)

    def fronts(self, t: float) -> tuple[float, float]:
        scale = 2.0 * math.sqrt(self.alphas[0] * t)
        return self.coef2 * scale, self.coef1 * scale

    def phase_value(self, phase: int, x: float, t: float) -> float:
        m = self.m
        eta = x / (2.0 * math.sqrt(self.alphas[phase - 1] * t))
        if phase == 3:
            return self.ts - (self.ts - m["B"]) * math.erf(eta) / self.e3
        if phase == 2:
            top = self.e1_mid - math.erf(eta)
            return m["C"] + (m["B"] - m["C"]) * top / self.span2
        return m["D"] + (m["C"] - m["D"]) * math.erfc(eta) / self.erfc1

    def __call__(self, x: float, t: float) -> float:
        x2, x1 = self.fronts(t)
        phase = 3 if x <= x2 else 2 if x <= x1 else 1
        return self.phase_value(phase, x, t)


def route_a(m: dict, bc: dict, coef1: float, coef2: float) -> tuple[float, float]:
    """Front coefficients from the two energy balances at 60 digits.

    Newton from the claimed coefficients; the balances use the datum's
    surface law directly, so no scalar reduction of the program is shared.
    """
    import mpmath as mp

    with mp.workdps(60):
        v = {k: mp.mpf(x) for k, x in m.items()}
        a1, a2, a3 = (v[f"k{i}"] / (v["rho"] * v[f"c{i}"]) for i in (1, 2, 3))
        s2, s3 = mp.sqrt(a1 / a2), mp.sqrt(a1 / a3)
        B, C, D = v["B"], v["C"], v["D"]
        kind = bc["type"]
        datum = {k: mp.mpf(x) for k, x in bc.items() if k != "type"}

        def surface_flux(c2):
            # k3 * (Ts - B)/(sqrt(pi a3) erf(c2 s3)) with Ts from the law
            g = v["k3"] / (mp.sqrt(mp.pi * a3) * mp.erf(c2 * s3))
            if kind == "dirichlet":
                return g * (datum["A"] - B)
            if kind == "neumann":
                return datum["q0"]
            return g * datum["h0"] * (datum["A_inf"] - B) / (g + datum["h0"])

        def balances(c1, c2):
            span2 = mp.erf(c1 * s2) - mp.erf(c2 * s2)
            slope2 = v["k2"] * (B - C) / (mp.sqrt(mp.pi * a2) * span2)
            r1 = (
                slope2 * mp.exp(-c1 * c1 * a1 / a2)
                - v["k1"] * (C - D) * mp.exp(-c1 * c1)
                / (mp.sqrt(mp.pi * a1) * mp.erfc(c1))
                - v["rho"] * v["l1"] * c1 * mp.sqrt(a1)
            )
            r2 = (
                surface_flux(c2) * mp.exp(-c2 * c2 * a1 / a3)
                - slope2 * mp.exp(-c2 * c2 * a1 / a2)
                - v["rho"] * v["l2"] * c2 * mp.sqrt(a1)
            )
            return r1, r2

        root = mp.findroot(balances, (mp.mpf(coef1), mp.mpf(coef2)))
        return float(root[0]), float(root[1])
