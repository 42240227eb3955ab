"""Independent high-precision reference computation for the frozen fixtures.

Everything in tests/_expected.py is recomputed here from first principles
with mpmath at 60 significant digits, without importing the library under
test.  Two independent routes are used for the front coefficients:

  route A: solve the two Stefan energy-balance equations directly as a
           2x2 nonlinear system in (coef1, coef2), using only the closed
           form temperature profiles and their exact derivatives;
  route B: the scalar reduction (root of H for z0, then a single monotone
           equation Q(z) = {U|V|P}(m(z)) on (z0, inf) with
           m(z) = sqrt(a2/a1) * erfinv(H(z))).

The script asserts that both routes agree to ~1e-40 before printing
anything, so a transcription error in either route cannot survive.

Run:  python tests/tools/reference_oracle.py > fixtures.txt
"""

from __future__ import annotations

import sys

import mpmath as mp

mp.mp.dps = 60

SQPI = None  # set after dps


def _refresh_consts() -> None:
    global SQPI
    SQPI = mp.sqrt(mp.pi)


_refresh_consts()


class Case:
    """One parameter set: material constants, temperatures, boundary datum."""

    def __init__(self, k, c, rho, l1, l2, B, C, D, kind, **datum):
        self.k1, self.k2, self.k3 = [mp.mpf(v) for v in k]
        self.c1, self.c2, self.c3 = [mp.mpf(v) for v in c]
        self.rho = mp.mpf(rho)
        self.l1, self.l2 = mp.mpf(l1), mp.mpf(l2)
        self.B, self.C, self.D = mp.mpf(B), mp.mpf(C), mp.mpf(D)
        self.kind = kind
        self.datum = {key: mp.mpf(v) for key, v in datum.items()}
        self.a1 = self.k1 / (self.rho * self.c1)
        self.a2 = self.k2 / (self.rho * self.c2)
        self.a3 = self.k3 / (self.rho * self.c3)
        self.ste1 = self.c1 * (self.C - self.D) / self.l1
        self.ste2 = self.c2 * (self.B - self.C) / self.l2
        self.s2 = mp.sqrt(self.a1 / self.a2)
        self.s3 = mp.sqrt(self.a1 / self.a3)

    def with_bc(self, kind, **datum):
        return Case(
            (self.k1, self.k2, self.k3),
            (self.c1, self.c2, self.c3),
            self.rho, self.l1, self.l2, self.B, self.C, self.D,
            kind, **datum,
        )


def phi(case, z):
    return z + case.ste1 / SQPI * mp.exp(-z * z) / mp.erfc(z)


def h_func(case, z):
    coef = case.ste2 / SQPI * (case.l2 / case.l1) * mp.sqrt(
        case.k2 * case.c1 / (case.k1 * case.c2))
    return mp.erf(z * case.s2) - coef * mp.exp(-z * z * case.a1 / case.a2) / phi(case, z)


def bisect(f, lo, hi, iters=240):
    flo, fhi = f(lo), f(hi)
    assert mp.sign(flo) != mp.sign(fhi), (flo, fhi)
    for _ in range(iters):
        mid = (lo + hi) / 2
        fm = f(mid)
        if mp.sign(fm) == mp.sign(flo):
            lo, flo = mid, fm
        else:
            hi, fhi = mid, fm
    return (lo + hi) / 2


def solve_z0(case):
    hi = mp.mpf(1)
    while h_func(case, hi) < 0:
        hi *= 2
    return bisect(lambda z: h_func(case, z), mp.mpf('1e-30'), hi)


def q_func(case, z):
    return case.l1 / case.l2 * phi(case, z) * mp.exp(z * z * case.a1 / case.a2)


def t_func(case, z):
    h0, a_inf = case.datum['h0'], case.datum['A_inf']
    coef = (case.ste2 / (SQPI * case.c2)) * ((a_inf - case.B) / (case.B - case.C)) \
        * mp.sqrt(case.k3 * case.c1 * case.c3 / case.k1)
    den = case.k3 / (h0 * mp.sqrt(mp.pi * case.a3)) + mp.erf(z * case.s3)
    expo = mp.exp(-z * z * case.a1 * (1 / case.a3 - 1 / case.a2))
    return coef * expo / den - z * mp.exp(z * z * case.a1 / case.a2)


def v_func(case, z):
    a = case.datum['A']
    coef = (a - case.B) / case.l2 * mp.sqrt(case.c1 * case.c3 * case.k3 / (mp.pi * case.k1))
    expo = mp.exp(-z * z * (case.a1 / case.a3 - case.a1 / case.a2))
    return coef * expo / mp.erf(z * case.s3) - z * mp.exp(z * z * case.a1 / case.a2)


def p_func(case, z):
    q0 = case.datum['q0']
    inner = -z + q0 / case.l2 * mp.sqrt(case.c1 / (case.rho * case.k1)) \
        * mp.exp(-z * z * case.a1 / case.a3)
    return mp.exp(z * z * case.a1 / case.a2) * inner


def m_of(case, z):
    return mp.sqrt(case.a2 / case.a1) * mp.erfinv(h_func(case, z))


def inner_equation(case, z):
    if case.kind == 'robin':
        return t_func(case, m_of(case, z))
    if case.kind == 'dirichlet':
        return v_func(case, m_of(case, z))
    return p_func(case, m_of(case, z))


def solve_route_b(case, z0):
    f = lambda z: q_func(case, z) - inner_equation(case, z)
    lo = z0 + mp.mpf('1e-45')
    hi = max(2 * z0, mp.mpf(1))  # above z0, where m = 0 and V has its pole
    while f(hi) < 0:
        hi *= 2
    c1 = bisect(f, lo, hi)
    return c1, m_of(case, c1)


def phase3_slope_coef(case, c2):
    """dPhi3/dx = -slope * exp(-eta3^2) / sqrt(t); returns slope (K s^1/2 / m)."""
    if case.kind == 'robin':
        h0, a_inf = case.datum['h0'], case.datum['A_inf']
        den = case.k3 / (h0 * mp.sqrt(mp.pi * case.a3)) + mp.erf(c2 * case.s3)
        return (a_inf - case.B) / (den * mp.sqrt(mp.pi * case.a3))
    if case.kind == 'dirichlet':
        a = case.datum['A']
        return (a - case.B) / (mp.erf(c2 * case.s3) * mp.sqrt(mp.pi * case.a3))
    q0 = case.datum['q0']
    return q0 / case.k3 * mp.exp(0)  # exp factor applied by caller via eta


def stefan_residuals(case, c1, c2):
    """Both interface energy balances, divided by sqrt(1/t)."""
    e_band = mp.erf(c1 * case.s2) - mp.erf(c2 * case.s2)
    slope1 = (case.C - case.D) / (mp.sqrt(mp.pi * case.a1) * mp.erfc(c1))
    slope2 = (case.B - case.C) / (mp.sqrt(mp.pi * case.a2) * e_band)
    slope3 = phase3_slope_coef(case, c2)
    # k1 dPhi1/dx - k2 dPhi2/dx = rho l1 dy1/dt  at y1
    r1 = (-case.k1 * slope1 * mp.exp(-c1 * c1)
          + case.k2 * slope2 * mp.exp(-c1 * c1 * case.a1 / case.a2)
          - case.rho * case.l1 * c1 * mp.sqrt(case.a1))
    # k2 dPhi2/dx - k3 dPhi3/dx = rho l2 dy2/dt  at y2
    r2 = (-case.k2 * slope2 * mp.exp(-c2 * c2 * case.a1 / case.a2)
          + case.k3 * slope3 * mp.exp(-c2 * c2 * case.a1 / case.a3)
          - case.rho * case.l2 * c2 * mp.sqrt(case.a1))
    return r1, r2


def solve_route_a(case, seed):
    f = lambda u, v: stefan_residuals(case, u, v)
    return mp.findroot(f, seed)


def solve_case(case):
    z0 = solve_z0(case)
    c1b, c2b = solve_route_b(case, z0)
    sol = solve_route_a(case, (c1b, c2b))
    c1a, c2a = sol[0], sol[1]
    assert abs(c1a - c1b) < mp.mpf('1e-40'), (case.kind, c1a - c1b)
    assert abs(c2a - c2b) < mp.mpf('1e-40'), (case.kind, c2a - c2b)
    r1, r2 = stefan_residuals(case, c1b, c2b)
    assert abs(r1) < mp.mpf('1e-45') and abs(r2) < mp.mpf('1e-45'), (r1, r2)
    return z0, c1b, c2b


def surface_temperature(case, c2):
    if case.kind == 'robin':
        h0, a_inf = case.datum['h0'], case.datum['A_inf']
        khat = case.k3 / (h0 * mp.sqrt(mp.pi * case.a3))
        den = khat + mp.erf(c2 * case.s3)
        return (case.B * khat + a_inf * mp.erf(c2 * case.s3)) / den
    if case.kind == 'dirichlet':
        return case.datum['A']
    q0 = case.datum['q0']
    return case.B + q0 * mp.sqrt(mp.pi * case.a3) / case.k3 * mp.erf(c2 * case.s3)


def flux_coefficient(case, c2):
    """Surface flux is -coef / sqrt(t)."""
    if case.kind == 'robin':
        h0, a_inf = case.datum['h0'], case.datum['A_inf']
        s = h0 * mp.sqrt(mp.pi * case.a3) / case.k3
        return (a_inf - case.B) * h0 / (1 + s * mp.erf(c2 * case.s3))
    if case.kind == 'dirichlet':
        a = case.datum['A']
        return case.k3 * (a - case.B) / (mp.sqrt(mp.pi * case.a3) * mp.erf(c2 * case.s3))
    return case.datum['q0']


def thresholds(case, a_inf=None):
    z0 = solve_z0(case)
    q1 = case.k1 * (case.C - case.D) / mp.sqrt(mp.pi * case.a1)
    q2 = case.k2 * (case.B - case.C) / (mp.sqrt(case.a2 * mp.pi) * mp.erf(z0 * case.s2))
    h1 = h2 = None
    if a_inf is not None:
        a_inf = mp.mpf(a_inf)
        h1 = case.k1 / mp.sqrt(mp.pi * case.a1) * (case.C - case.D) / (a_inf - case.C)
        h2 = (case.B - case.C) / (a_inf - case.B) * mp.sqrt(
            case.k2 * case.k3 * case.c2 / (mp.pi * case.c3 * case.a3)) \
            / mp.erf(z0 * case.s2)
    return z0, h1, h2, q1, q2


def fmt(name, value, digits=25):
    as_float = float(value)
    print(f"{name} = {as_float!r}  # {mp.nstr(value, digits)}")
    return as_float


def far_field_ratio(c1, factor):
    """(Phi1 - D)/(C - D) at x = factor * x1(t); time independent."""
    return mp.erfc(factor * c1) / mp.erfc(c1)


def main():
    shared = dict(k=(0.2, 0.2, 0.2), c=(2, 2, 2), rho=770, l1=160, l2=150,
                  B=328, C=324, D=320)
    robin = Case(**shared, kind='robin', h0=100, A_inf=334)
    diri = Case(**shared, kind='dirichlet', A=331)
    neum = Case(**shared, kind='neumann', q0=300)

    print("# Generated by tests/tools/reference_oracle.py (mpmath, 60 digits).")
    print("# Comments carry 25 significant digits of the exact value.")
    print()

    a1 = robin.a1
    fmt("ALPHA", a1)
    fmt("STE1", robin.ste1)
    fmt("STE2", robin.ste2)
    print()

    z0, h1, h2, q1, q2 = thresholds(robin, a_inf=334)
    fmt("Z0", z0)
    fmt("H_AT_ZERO", h_func(robin, mp.mpf(0)))
    fmt("H1", h1)
    fmt("H2", h2)
    fmt("Q1", q1)
    fmt("Q2", q2)
    print()

    # sample scalar-function values for regression tests
    fmt("PHI_AT_1", phi(robin, mp.mpf(1)))
    fmt("H_AT_1", h_func(robin, mp.mpf(1)))
    fmt("Q_AT_0", q_func(robin, mp.mpf(0)))
    fmt("Q_AT_1", q_func(robin, mp.mpf(1)))
    fmt("T_AT_03", t_func(robin, mp.mpf('0.3')))
    fmt("U_AT_03", t_func(robin, m_of(robin, mp.mpf('0.3'))))
    fmt("V_AT_02", v_func(diri, mp.mpf('0.2')))
    fmt("P_AT_0", p_func(neum, mp.mpf(0)))
    fmt("P_AT_02", p_func(neum, mp.mpf('0.2')))
    print()

    _, rc1, rc2 = solve_case(robin)
    _, dc1, dc2 = solve_case(diri)
    _, nc1, nc2 = solve_case(neum)
    fmt("ROBIN_COEF1", rc1)
    fmt("ROBIN_COEF2", rc2)
    fmt("DIRICHLET_COEF1", dc1)
    fmt("DIRICHLET_COEF2", dc2)
    fmt("NEUMANN_COEF1", nc1)
    fmt("NEUMANN_COEF2", nc2)
    print()

    fmt("ROBIN_SURFACE_T", surface_temperature(robin, rc2))
    fmt("ROBIN_FLUX_COEF", flux_coefficient(robin, rc2))
    fmt("DIRICHLET_FLUX_COEF", flux_coefficient(diri, dc2))
    fmt("NEUMANN_SURFACE_T", surface_temperature(neum, nc2))
    print()

    # the six mapped data values (A_inf = 334 where one is needed)
    a_from_robin = surface_temperature(robin, rc2)
    q0_from_robin = flux_coefficient(robin, rc2)
    q0_from_diri = flux_coefficient(diri, dc2)
    h0_from_diri = case_h0_from_dirichlet = robin.k3 / mp.sqrt(robin.a3 * mp.pi) \
        * (diri.datum['A'] - diri.B) / ((mp.mpf(334) - diri.datum['A'])
                                        * mp.erf(dc2 * diri.s3))
    a_from_neum = surface_temperature(neum, nc2)
    h0_from_neum = neum.datum['q0'] / (
        (mp.mpf(334) - neum.B)
        - neum.datum['q0'] * mp.sqrt(mp.pi * neum.a3) / neum.k3 * mp.erf(nc2 * neum.s3))
    fmt("A_FROM_ROBIN", a_from_robin)
    fmt("Q0_FROM_ROBIN", q0_from_robin)
    fmt("H0_FROM_DIRICHLET_334", h0_from_diri)
    fmt("Q0_FROM_DIRICHLET", q0_from_diri)
    fmt("A_FROM_NEUMANN", a_from_neum)
    fmt("H0_FROM_NEUMANN_334", h0_from_neum)
    print()

    # round trips: re-solve the target problem with the mapped datum and
    # compare coefficients against the source at full precision
    checks = [
        ("robin->dirichlet", robin.with_bc('dirichlet', A=a_from_robin), rc1, rc2),
        ("robin->neumann", robin.with_bc('neumann', q0=q0_from_robin), rc1, rc2),
        ("dirichlet->robin", diri.with_bc('robin', h0=h0_from_diri, A_inf=334), dc1, dc2),
        ("dirichlet->neumann", diri.with_bc('neumann', q0=q0_from_diri), dc1, dc2),
        ("neumann->dirichlet", neum.with_bc('dirichlet', A=a_from_neum), nc1, nc2),
        ("neumann->robin", neum.with_bc('robin', h0=h0_from_neum, A_inf=334), nc1, nc2),
    ]
    for label, mapped_case, c1_src, c2_src in checks:
        _, c1m, c2m = solve_case(mapped_case)
        d1, d2 = abs(c1m - c1_src), abs(c2m - c2_src)
        assert d1 < mp.mpf('1e-40') and d2 < mp.mpf('1e-40'), (label, d1, d2)
        print(f"# round trip {label}: |d1|={mp.nstr(d1, 3)} |d2|={mp.nstr(d2, 3)}")
    print()

    # hypothesis inequality sides on the benchmark data
    fmt("MAPPED_H0_FROM_DIRI_MINUS_H2", h0_from_diri - h2)
    fmt("MAPPED_Q0_FROM_DIRI_MINUS_Q2", q0_from_diri - q2)
    fmt("MAPPED_Q0_FROM_ROBIN_MINUS_Q2", q0_from_robin - q2)
    fmt("NEUMANN_DENOM_334", mp.mpf(334) - a_from_neum)
    print()

    # corollary inequality sides (Dirichlet benchmark, A_inf = 334)
    lhs = mp.erf(dc2 * diri.s3)
    ratio = mp.sqrt(diri.k3 * diri.c3 / (diri.k2 * diri.c2))
    ab = (diri.datum['A'] - diri.B) / (diri.B - diri.C)
    rhs_lim = ratio * ab * mp.erf(z0 * diri.s2)
    rhs_334 = rhs_lim * (mp.mpf(334) - diri.B) / (mp.mpf(334) - diri.datum['A'])
    rhs_flux = diri.k3 / diri.k2 * mp.sqrt(diri.a2 / diri.a3) * ab * mp.erf(z0 * diri.s2)
    fmt("INNER_BOUND_LHS_DIRI", lhs)
    fmt("INNER_BOUND_RHS_DIRI_334", rhs_334)
    fmt("INNER_BOUND_RHS_DIRI_LIMIT", rhs_lim)
    fmt("INNER_BOUND_RHS_DIRI_FLUX", rhs_flux)
    assert lhs < rhs_lim < rhs_334 and lhs < rhs_flux
    print()

    # limit behaviour used by the scan tests
    big = robin.with_bc('robin', h0=mp.mpf('1e9'), A_inf=334)
    _, bc1, bc2 = solve_case(big)
    lim = robin.with_bc('dirichlet', A=334)
    _, lc1, lc2 = solve_case(lim)
    fmt("ROBIN_H0_1E9_COEF1", bc1)
    fmt("DIRICHLET_A334_COEF1", lc1)
    fmt("BIG_H0_VS_DIRICHLET_DELTA", abs(bc1 - lc1))

    near = robin.with_bc('robin', h0=h2 * mp.mpf('1.0001'), A_inf=334)
    _, nr1, _ = solve_case(near)
    fmt("ROBIN_NEAR_H2_COEF1_MINUS_Z0", nr1 - z0)
    neard = diri.with_bc('dirichlet', A=diri.B + mp.mpf('1e-6'))
    _, nd1, _ = solve_case(neard)
    fmt("DIRICHLET_NEAR_B_COEF1_MINUS_Z0", nd1 - z0)
    nearn = neum.with_bc('neumann', q0=q2 * mp.mpf('1.0001'))
    _, nn1, _ = solve_case(nearn)
    fmt("NEUMANN_NEAR_Q2_COEF1_MINUS_Z0", nn1 - z0)
    print()

    # far field decay at multiples of the outer front
    for factor in (10, 20, 30):
        for label, c1v in (("ROBIN", rc1), ("DIRICHLET", dc1), ("NEUMANN", nc1)):
            fmt(f"FARFIELD_{label}_X{factor}", far_field_ratio(c1v, factor))
    print()

    # sufficient condition constants for the automatic-satisfaction check
    a_inf_floor = robin.B + mp.sqrt(robin.a3 / robin.a2) * robin.k2 / robin.k3 \
        * (robin.B - robin.C) / mp.erf(z0 * robin.s2)
    fmt("A_INF_FLOOR_AUTO", a_inf_floor)

    def f_auto(a_inf, z):
        return robin.k3 * (a_inf - robin.B) * mp.sqrt(mp.pi * robin.a2) \
            * mp.erf(z0 * robin.s2) * z / (
                robin.k2 * (robin.B - robin.C) * (robin.k3 + z * mp.sqrt(mp.pi * robin.a3)))

    a360 = mp.mpf(360)
    h2_star_360 = bisect(lambda z: f_auto(a360, z) - 1, mp.mpf('1e-20'), mp.mpf('1e6'))
    _, _, h2_360, _, _ = thresholds(robin, a_inf=a360)
    fmt("H2_STAR_360", h2_star_360)
    fmt("H2_AT_360", h2_360)
    auto = robin.with_bc('robin', h0=50, A_inf=a360)
    _, ac1, ac2 = solve_case(auto)
    q0_auto = flux_coefficient(auto, ac2)
    fmt("AUTO_Q0_MAPPED_MINUS_Q2", q0_auto - q2)
    assert mp.mpf(50) > max(h2_360, h2_star_360) and q0_auto > q2
    print()

    # asymptote scan for the mapped h0(A) family (A_inf = 334)
    def h0_of_a(a_val):
        c = diri.with_bc('dirichlet', A=mp.mpf(a_val))
        _, _, c2v = solve_case(c)
        return c.k3 / mp.sqrt(c.a3 * mp.pi) * (mp.mpf(a_val) - c.B) \
            / ((mp.mpf(334) - mp.mpf(a_val)) * mp.erf(c2v * c.s3))

    mid = h0_of_a(331)
    edge = h0_of_a(334 - mp.mpf('1e-3') * 6)
    fmt("H0_OF_A_MID", mid)
    fmt("H0_OF_A_EDGE", edge)
    assert edge > 100 * mid
    print()
    print("# all internal consistency assertions passed", file=sys.stderr)


if __name__ == '__main__':
    main()
