"""Point-by-point reference implementations of the fused code.

The scalar functions of the outer-coefficient equation, one z at a time:
the solid-side kernel ``phi``, ``h_func``, whose zero is z0, the left side
``q_func``, the surface law of every kind as (theta, n) read off its datum
(``law``) and the outer equation it gives (``law_residual``).  The package
evaluates them fused, in ``transcendental._h_kernel`` and
``transcendental.outer_residual``, with their slopes, and the tests assert
that the fused kernels' values equal them bit for bit and that their
slopes match the 60-digit derivatives of the same formulas in mpmath,
``h_tail_mp`` (1 - h) and ``law_residual_mp``.
``h2_star_gap`` is the paper's saturating ratio whose zero is h2*, which
``equivalence.h2_star`` reads in closed form.

The paper writes each kind's equation with its own right-hand side:
``t_func`` (convective, composed with the inner match as ``u_func``),
``v_func`` (imposed temperature; ``v_func_times_erf`` is it without its
pole) and ``p_func`` (imposed flux).  ``outer_residual`` composes them as
each solver's own residual once did; the tests assert that the law's
equation has the same sign everywhere and the same root.

The package evaluates its fields one time row at a time
(``solver.temperature_row``).  The functions after those evaluate one
(x, t) at a time, with the per-point classification and scaling the row
code replaced, and the tests assert that the row code equals them bit for
bit.  ``heat_residual`` is the heat check with one field-kernel call per
sample; the tests compare the row form with it.
"""

import math

from stefan3 import specfun, verify
from stefan3.errors import MissingBoundaryDatum
from stefan3.model import Dirichlet, Neumann, Robin
from stefan3.solver import _FRONT_BAND, free_boundaries
from stefan3.transcendental import _EXP_CAP, _SQRT_PI, coef2_from_coef1


def _exp_capped(x):
    # exp() saturated as the fused kernels saturate it
    return math.exp(min(x, _EXP_CAP))


def phi(z, ctx):
    """phi(z) = z + (Ste1/sqrt(pi)) * exp(-z^2)/erfc(z), for z >= 0.

    Strictly increasing from phi(0) = Ste1/sqrt(pi); the quotient is
    evaluated in ratio form so large z does not underflow.
    """
    if z < 0.0:
        raise ValueError("phi is defined for z >= 0")
    return z + ctx.ste1 / _SQRT_PI * specfun._inv_erfcx(z)


def _h_subtracted(z, ctx):
    # the strictly positive term subtracted from erf(z*sigma2) in h
    return (
        ctx._h_offset_coef
        * math.exp(-z * z * ctx.alpha1 / ctx.alpha2)
        / phi(z, ctx)
    )


def h_func(z, ctx):
    """Strictly increasing map with h_func(0) < 0 and limit 1 at infinity.

    Its zero z0 is the smallest outer-front coefficient for which a matched
    inner front exists.
    """
    if z < 0.0:
        raise ValueError("h_func is defined for z >= 0")
    return specfun.erf(z * ctx.sigma2) - _h_subtracted(z, ctx)


def q_func(z, ctx):
    """Left side of the outer-coefficient equation, strictly increasing.

    q_func(z) = (l1/l2) * phi(z) * exp(z^2 alpha1/alpha2), z >= 0.
    """
    if z < 0.0:
        raise ValueError("q_func is defined for z >= 0")
    p = ctx.props
    return (
        p.l1 / p.l2 * phi(z, ctx) * _exp_capped(z * z * ctx.alpha1 / ctx.alpha2)
    )


def _surface_coef(surface, ctx):
    # the surface temperature's excess over B in the outer equation's units
    p = ctx.props
    return (
        (surface - ctx.temps.B)
        / (p.l2 * _SQRT_PI)
        * math.sqrt(p.k3 * p.c1 * p.c3 / p.k1)
    )


def law(ctx):
    """(theta, n) of theta*s + (1 - theta)*(T(0) - B) = n for the datum.

    s is the phase-3 amplitude, so the surface flux is k3*s/sqrt(pi
    alpha3 t); convective exchange k3*s/sqrt(pi alpha3) = h0*(A_inf - T(0))
    is the law times 1 + k, k = k3/(h0 sqrt(pi alpha3)).
    """
    bc, B, a3 = ctx.bc, ctx.temps.B, ctx.alpha3
    if isinstance(bc, Dirichlet):
        return 0.0, bc.A - B
    if isinstance(bc, Neumann):
        return 1.0, bc.q0 * math.sqrt(math.pi * a3) / ctx.props.k3
    bc = _datum(ctx, Robin)
    k = ctx.props.k3 / (bc.h0 * math.sqrt(math.pi * a3))
    return k / (1.0 + k), (bc.A_inf - B) / (1.0 + k)


def law_residual(ctx):
    """The outer equation of every kind, from the point functions.

    w(m)*(q_func(z) + m exp(m^2 alpha1/alpha2)) - d*n*exp(-m^2 (alpha1/alpha3
    - alpha1/alpha2)) at m = max(coef2_from_coef1(z), 0), with w(m) = theta
    + (1 - theta)*erf(m*sigma3) and d*n = _surface_coef(B + n) without the
    rounding of B + n.
    """
    theta, n = law(ctx)
    p = ctx.props
    a1, a2, a3 = ctx.alphas
    drive = n / (p.l2 * _SQRT_PI) * math.sqrt(p.k3 * p.c1 * p.c3 / p.k1)

    def f(z):
        m = max(coef2_from_coef1(z, ctx), 0.0)
        w = 1.0
        if theta != 1.0:  # an imposed flux's weight needs no erf
            w = theta + (1.0 - theta) * specfun.erf(m * ctx.sigma3)
        right = m * _exp_capped(m * m * a1 / a2)
        return w * (q_func(z, ctx) + right) - drive * math.exp(
            -m * m * (a1 / a3 - a1 / a2)
        )

    return f


def h_tail_mp(z, ctx):
    """1 - h_func in mpmath at the working precision, to differentiate h.

    erfc(z*sigma2) plus the term h subtracts, on the context's float
    constants taken exactly: where h is within 1e-60 of 1, 1 - h would
    keep none of the digits of its slope.
    """
    import mpmath as mp

    a1, a2 = (mp.mpf(a) for a in ctx.alphas[:2])
    ph = z + mp.mpf(ctx.ste1) / mp.sqrt(mp.pi) * mp.exp(-z * z) / mp.erfc(z)
    return mp.erfc(z * ctx.sigma2) + ctx._h_offset_coef * mp.exp(
        -z * z * a1 / a2) / ph


def law_residual_mp(ctx):
    """law_residual in mpmath at the working precision, to differentiate it.

    The matched inner coefficient solves erfc(m*sigma2) = 1 - h(z) by
    Newton steps from the float one.  exp() is not capped, so it equals
    law_residual only below the cap.
    """
    import mpmath as mp

    theta, n = law(ctx)
    p = ctx.props
    a1, a2, a3 = (mp.mpf(a) for a in ctx.alphas)
    drive = n / (p.l2 * mp.sqrt(mp.pi)) * mp.sqrt(
        mp.mpf(p.k3) * p.c1 * p.c3 / p.k1)

    def f(z):
        tail = h_tail_mp(z, ctx)
        y = mp.mpf(specfun.erfc_inv(float(tail)))
        for _ in range(50):
            step = (mp.erfc(y) - tail) / (2 / mp.sqrt(mp.pi) * mp.exp(-y * y))
            y += step
            if abs(step) <= abs(y) * mp.eps:
                break
        m = mp.sqrt(a2 / a1) * y
        w = theta + (1 - theta) * mp.erf(m * ctx.sigma3)
        q = mp.mpf(p.l1) / p.l2 * (z + mp.mpf(ctx.ste1) / mp.sqrt(mp.pi)
                                   * mp.exp(-z * z) / mp.erfc(z))
        return w * (q * mp.exp(z * z * a1 / a2) + m * mp.exp(m * m * a1 / a2)) - (
            drive * mp.exp(-m * m * (a1 / a3 - a1 / a2)))

    return f


def h2_star_gap(ctx, a_inf):
    """The paper's saturating ratio of the mapped flux to q2, minus one.

    A function of the convective coefficient h, increasing from -1 at h = 0
    towards a limit that is positive only above the bulk floor; its zero is
    the auxiliary threshold h2*.
    """
    p, t = ctx.props, ctx.temps
    num_coef = (
        p.k3 * (a_inf - t.B) * math.sqrt(math.pi * ctx.alpha2) * ctx._erf_z0
    )
    den_coef = p.k2 * (t.B - t.C)
    root_pi_a3 = math.sqrt(math.pi * ctx.alpha3)
    return lambda h: num_coef * h / (den_coef * (p.k3 + h * root_pi_a3)) - 1.0


def _datum(ctx, kind):
    if not isinstance(ctx.bc, kind):
        raise MissingBoundaryDatum(f"operation needs a {kind.kind} boundary datum")
    return ctx.bc


def t_func(z, ctx):
    """Right side of the outer equation for the convective condition.

    Strictly decreasing in z; evaluated at the matched inner coefficient.
    """
    if z < 0.0:
        raise ValueError("t_func is defined for z >= 0")
    bc = _datum(ctx, Robin)
    p = ctx.props
    a1, a2, a3 = ctx.alphas
    coef = _surface_coef(bc.A_inf, ctx)
    khat = p.k3 / (bc.h0 * math.sqrt(math.pi * a3))
    decay = math.exp(-z * z * (a1 / a3 - a1 / a2))
    return coef * decay / (khat + specfun.erf(z * ctx.sigma3)) - z * _exp_capped(
        z * z * a1 / a2
    )


def v_func(z, ctx):
    """Right side of the outer equation for the imposed-temperature condition.

    Singular as z -> 0+, strictly decreasing on z > 0.
    """
    if z <= 0.0:
        raise ValueError("v_func is defined for z > 0")
    return v_func_times_erf(z, ctx) / specfun.erf(z * ctx.sigma3)


def v_func_times_erf(z, ctx):
    """v_func(z) * erf(z * sigma3), which is finite where v_func has its pole.

    Strictly decreasing on z >= 0 from its positive value at 0, so the
    imposed-temperature equation can be solved in this form without a
    sentinel for the pole.
    """
    if z < 0.0:
        raise ValueError("v_func_times_erf is defined for z >= 0")
    bc = _datum(ctx, Dirichlet)
    a1, a2, a3 = ctx.alphas
    coef = _surface_coef(bc.A, ctx)
    return coef * math.exp(-z * z * (a1 / a3 - a1 / a2)) - z * _exp_capped(
        z * z * a1 / a2
    ) * specfun.erf(z * ctx.sigma3)


def p_func(z, ctx):
    """Right side of the outer equation for the imposed-flux condition."""
    if z < 0.0:
        raise ValueError("p_func is defined for z >= 0")
    bc = _datum(ctx, Neumann)
    p = ctx.props
    a1, a2, a3 = ctx.alphas
    return _exp_capped(z * z * a1 / a2) * (
        -z
        + bc.q0
        / p.l2
        * math.sqrt(p.c1 / (p.rho * p.k1))
        * math.exp(-z * z * a1 / a3)
    )


def u_func(z, ctx):
    """Convective right side composed with the inner-coefficient match.

    Defined for z > z0 only, where the match exists; strictly decreasing.
    """
    if z <= ctx.z0:
        raise ValueError("u_func is defined for z > z0")
    return t_func(coef2_from_coef1(z, ctx), ctx)


def outer_residual(ctx):
    """The outer equation of the context's kind, from the point functions."""
    if isinstance(ctx.bc, Robin):
        return lambda z: q_func(z, ctx) - u_func(z, ctx)
    if isinstance(ctx.bc, Dirichlet):

        def f(z):
            m = max(coef2_from_coef1(z, ctx), 0.0)
            return specfun.erf(m * ctx.sigma3) * q_func(z, ctx) - v_func_times_erf(
                m, ctx
            )

        return f
    assert isinstance(ctx.bc, Neumann)

    def f(z):
        m = coef2_from_coef1(z, ctx)
        return q_func(z, ctx) - p_func(max(m, 0.0), ctx)

    return f


def _check_point(x, t):
    if not (math.isfinite(x) and x >= 0.0):
        raise ValueError("x must be finite and >= 0")
    if not (math.isfinite(t) and t > 0.0):
        raise ValueError("t must be finite and > 0")


def classify_point(sol, x, t):
    x2, x1 = free_boundaries(sol, t)
    if x <= x2 * (1.0 + _FRONT_BAND):
        return 3
    if x <= x1 * (1.0 + _FRONT_BAND):
        return 2
    return 1


def phase_profile(sol, x, t):
    _check_point(x, t)
    phase = classify_point(sol, x, t)
    alpha = sol.ctx.alphas[phase - 1]
    eta = x / (2.0 * math.sqrt(alpha * t))
    if phase == 1:
        return 1, specfun.erfc(eta)
    return phase, specfun.erf(eta)


def temperature_excess(sol, x, t):
    _check_point(x, t)
    phase = classify_point(sol, x, t)
    c = sol.ctx
    t_ = c.temps
    if phase == 3:
        eta = x / (2.0 * math.sqrt(c.alpha3 * t))
        return (sol.surface_temp - t_.D) - sol._surface[0] * specfun.erf(eta)
    if phase == 2:
        eta = x / (2.0 * math.sqrt(c.alpha2 * t))
        at_front1 = specfun.erf(sol.coef1 * c.sigma2)
        span2 = at_front1 - specfun.erf(sol.coef2 * c.sigma2)
        top = at_front1 - specfun.erf(eta)
        return (t_.C - t_.D) + (t_.B - t_.C) * top / span2
    eta = x / (2.0 * math.sqrt(c.alpha1 * t))
    return (t_.C - t_.D) * specfun.erfc(eta) / specfun.erfc(sol.coef1)


def evaluate_temperature(sol, x, t):
    return sol.ctx.temps.D + temperature_excess(sol, x, t)


def heat_residual(sol, times=verify.HEAT_TIMES, n=verify.HEAT_SAMPLES):
    """verify.heat_residual with one field-kernel call per sample and time.

    Each phase's field at x = 2*sqrt(alpha_i*t)*eta for n evenly spaced eta
    between its ends, held to the line a + b*f(eta) through the first and
    last sample at the first time, with f = erf, or erfc(eta)/erfc(coef1)
    in phase 1 (taken plainly, so coef1 must leave erfc(coef1 + 3) normal).
    The kernel is looked up on verify per call, so a patched one is used.
    """
    c, k1 = sol.ctx, sol.coef1
    ends = {1: (k1, k1 + 3.0), 2: (sol.coef2 * c.sigma2, k1 * c.sigma2),
            3: (0.0, sol.coef2 * c.sigma3)}
    out = {}
    for phase, (lo, hi) in ends.items():
        etas = [lo + (hi - lo) * j / (n - 1) for j in range(n - 1)] + [hi]
        fs = [specfun.erfc(e) / specfun.erfc(k1) if phase == 1 else specfun.erf(e)
              for e in etas]
        rows = []
        for t in times:
            d = 2.0 * math.sqrt(c.alphas[phase - 1] * t)
            rows.append([verify._phase_excess(sol, phase, t, (d * e,))[0]
                         for e in etas])
        first = rows[0]
        slope = (first[-1] - first[0]) / (fs[-1] - fs[0])
        dev = big = 0.0
        for row in rows:
            for v, f in zip(row, fs):
                dev = max(dev, abs(v - first[0] - slope * (f - fs[0])))
                big = max(big, abs(v))
        out[f"phase{phase}"] = dev / big
    return out


def stefan_residual(sol, t):
    """verify.stefan_residual's energy balance at the time t."""
    c, p, t_ = sol.ctx, sol.ctx.props, sol.ctx.temps
    x2, x1 = free_boundaries(sol, t)

    def slope(alpha, x, amplitude):
        # d/dx of -amplitude * erf(x/(2 sqrt(alpha t))), and of the erfc form
        eta = x / (2.0 * math.sqrt(alpha * t))
        return -amplitude * math.exp(-eta * eta) / math.sqrt(math.pi * alpha * t)

    span2 = specfun.erf(sol.coef1 * c.sigma2) - specfun.erf(sol.coef2 * c.sigma2)
    g1 = slope(c.alpha1, x1, (t_.C - t_.D) / specfun.erfc(sol.coef1))
    g2_at_1 = slope(c.alpha2, x1, (t_.B - t_.C) / span2)
    g2_at_2 = slope(c.alpha2, x2, (t_.B - t_.C) / span2)
    g3 = slope(c.alpha3, x2, sol._surface[0])
    rate = math.sqrt(c.alpha1 / t)
    balances = (
        ("front1", p.k1 * g1 - p.k2 * g2_at_1, p.rho * p.l1 * sol.coef1 * rate),
        ("front2", p.k2 * g2_at_2 - p.k3 * g3, p.rho * p.l2 * sol.coef2 * rate),
    )
    return {key: abs(lhs - rhs) / max(abs(lhs), abs(rhs))
            for key, lhs, rhs in balances}


def map_csv(sol, tmax, nx, nt, xmax=None):
    """The texts ``stefan3 map`` writes for this grid, one point at a time.

    Returns (field, fronts): the field CSV and the fronts CSV, the latter
    with one ``free_boundaries`` call per t.
    """
    if xmax is None:
        xmax = 2.0 * free_boundaries(sol, tmax)[1]
    ts = [tmax * (i + 1) / nt for i in range(nt)]
    xs = [xmax * j / (nx - 1) for j in range(nx)]
    lines = ["x,t,temperature\n"]
    for t in ts:
        for x in xs:
            lines.append(f"{x!r},{t!r},{evaluate_temperature(sol, x, t)!r}\n")
    fronts = ["t,x2,x1\n"]
    for t in ts:
        x2, x1 = free_boundaries(sol, t)
        fronts.append(f"{t!r},{x2!r},{x1!r}\n")
    return "".join(lines), "".join(fronts)
