"""Point-by-point reference implementations of the fused code.

The scalar functions of the outer-coefficient equation, one z at a time:
``h_func``, whose zero is z0, the left side ``q_func``, the surface law
of every kind as (theta, n) read off its datum (``law``) and the
outer equation it gives (``law_residual``).  The package evaluates them
fused, in ``transcendental._h_kernel`` and ``transcendental.outer_residual``,
and the tests assert that the fused kernels equal them bit for bit.
``h2_star_gap`` is the paper's saturating ratio whose zero is h2*, which
``equivalence.h2_star`` reads in closed form.

The paper writes each kind's equation with its own right-hand side:
``t_func`` (convective, composed with the inner match as ``u_func``),
``v_func`` (imposed temperature; ``v_func_times_erf`` is it without its
pole) and ``p_func`` (imposed flux).  ``outer_residual`` composes them as
each solver's own residual once did; the tests assert that the law's
equation has the same sign everywhere and the same root.

The package evaluates its fields one time row at a time
(``solver.profile_row``).  The functions after those evaluate one (x, t)
at a time, with the per-point classification, scaling and stencil loop the
row code replaced, and the tests assert that the row code equals them bit
for bit.  ``heat_residual_x`` is the heat check as it was taken in x, on
the x windows of ``x_windows``; the tests assert that the check in the
similarity variable gives its verdicts.
"""

import math
import sys

from stefan3 import specfun, verify
from stefan3.errors import MissingBoundaryDatum, StencilCrossesFront, ValidationError
from stefan3.model import Dirichlet, Neumann, Robin, Violation
from stefan3.solver import _FRONT_BAND, free_boundaries
from stefan3.transcendental import (
    _SQRT_PI,
    _exp_capped,
    _h_subtracted,
    coef2_from_coef1,
    phi,
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


def heat_residual(sol, rel_step=1e-4, n_points=100):
    """verify.heat_residual with one profile evaluation per stencil point.

    Three points per sample of each phase's own variable eta: the central
    differences of f'' + 2*eta*f' = 0, with d_t = -2*eta*(wp - wm)/(2h).
    Each point is classified by the solver's rule at x = 2*sqrt(alpha_i)*eta
    and t = 1, and must lie in the phase it tests.
    """
    worst = {1: 0.0, 2: 0.0, 3: 0.0}
    h = rel_step
    for phase, (lo, hi) in verify._phase_windows(sol, rel_step).items():
        scale = 2.0 * math.sqrt(sol.ctx.alphas[phase - 1])
        ratio = hi / lo
        for j in range(n_points):
            eta = lo * ratio ** (j / (n_points - 1)) if n_points > 1 else lo
            samples = []
            for e in (eta, eta - h, eta + h):
                got = classify_point(sol, scale * e, 1.0)
                if got != phase:
                    raise StencilCrossesFront(
                        f"stencil point eta={e!r} fell in phase {got} while "
                        f"testing phase {phase}"
                    )
                samples.append(specfun.erfc(e) if phase == 1 else specfun.erf(e))
            w0, wm, wp = samples
            d_xx = (wp - 2.0 * w0 + wm) / (h * h)
            d_t = -2.0 * eta * (wp - wm) / (2.0 * h)
            res = abs(d_t - d_xx) / max(abs(d_t), abs(d_xx), verify._EPS)
            if res > worst[phase]:
                worst[phase] = res
    return {f"phase{k}": v for k, v in worst.items()}


def x_windows(sol, t, rel_step):
    """The heat check's windows (lo, hi, h) in x at time t, per phase.

    The formulas verify used while it checked the heat equation in x:
    each phase's step is h = rel_step * 2*sqrt(alpha_i*t), and the margins
    are those of verify._phase_windows, scaled to x.
    """
    bounds = (0.0, *free_boundaries(sol, t))
    band = 1.0 + _FRONT_BAND
    out = {}
    for phase, i in ((3, 0), (2, 1), (1, 2)):
        alpha = sol.ctx.alphas[phase - 1]
        below = bounds[i]
        h = rel_step * 2.0 * math.sqrt(alpha * t)
        lo = below + 6.0 * h + below * rel_step
        if not (h > 0.0 and h * h >= sys.float_info.min) or lo - h <= below * band:
            raise ValidationError([Violation("BAD_REL_STEP", f"phase {phase}")])
        if phase == 1:
            hi = below + 6.0 * math.sqrt(alpha * t)
        else:
            above = bounds[i + 1]
            hi = above - 6.0 * h - above * rel_step
        if not lo < hi or phase > 1 and lo * (hi / lo) + h > above * band:
            raise StencilCrossesFront(f"no room inside phase {phase}")
        out[phase] = (lo, hi, h)
    return out


def heat_residual_x(sol, rel_step=1e-4, n_points=100, times=(1.0,)):
    """The heat check in x, one phase_profile call per stencil point.

    alpha*T_xx + (x/(2t))*T_x = 0 by central differences in x, with d_t =
    -x/(2t)*(wp - wm)/(2h), on the windows of x_windows, maximised over the
    times.  It shows that the check in eta gives the verdicts the check in
    x gave at any time.
    """
    worst = {1: 0.0, 2: 0.0, 3: 0.0}
    for t in times:
        for phase, (lo, hi, h) in x_windows(sol, t, rel_step).items():
            alpha = sol.ctx.alphas[phase - 1]
            ratio = hi / lo
            for j in range(n_points):
                x = lo * ratio ** (j / (n_points - 1)) if n_points > 1 else lo
                samples = []
                for xx in (x, x - h, x + h):
                    got, w = phase_profile(sol, xx, t)
                    if got != phase:
                        raise StencilCrossesFront(
                            f"stencil point (x={xx!r}, t={t!r}) fell in "
                            f"phase {got} while testing phase {phase}"
                        )
                    samples.append(w)
                w0, wm, wp = samples
                d_xx = (wp - 2.0 * w0 + wm) / (h * h)
                d_t = -x / (2.0 * t) * (wp - wm) / (2.0 * h)
                num = abs(d_t - alpha * d_xx)
                den = max(abs(d_t), abs(alpha * d_xx), verify._EPS / t)
                res = num / den
                if res > worst[phase]:
                    worst[phase] = res
    return {f"phase{k}": v for k, v in worst.items()}


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
    """The text ``stefan3 map`` writes for this grid, one point at a time."""
    if xmax is None:
        xmax = 2.0 * free_boundaries(sol, tmax)[1]
    ts = [tmax * (i + 1) / nt for i in range(nt)]
    xs = [xmax * j / (nx - 1) for j in range(nx)]
    lines = ["x,t,temperature\n"]
    for t in ts:
        for x in xs:
            lines.append(f"{x!r},{t!r},{evaluate_temperature(sol, x, t)!r}\n")
    return "".join(lines)
