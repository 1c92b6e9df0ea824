"""Per-element truncated-Gaussian moments: the reference the array kernel is
checked against.

This is the code the solver ran, one call per (problem, material, step),
before permgamp.trunc_gauss took whole batches: the regime choice, the
one-sided and straddle ratios on numpy scalars, and a 64-node Gauss-Legendre
pass of its own for each narrow element. moments_loop runs it over arrays
one element at a time. permgamp.trunc_gauss.truncated_moments must return
the same means and variances bit for bit.
"""

import math

import numpy as np

from permgamp.trunc_gauss import (
    _GL_U, _GL_W, INV_SQRT_2, SQRT_HALF_PI, VAR_FLOOR_SCALE, Interval, erfcx,
)


def _mills(x: float) -> float:
    """Phi_c(x) / phi(x) = sqrt(pi/2) * erfcx(x / sqrt(2)), for x >= 0."""
    return SQRT_HALF_PI * erfcx(x * INV_SQRT_2)


def _one_sided_ratios(alpha: float, beta: float) -> tuple[float, float]:
    """(phi(a)-phi(b))/Z and (a phi(a) - b phi(b))/Z for 0 <= alpha < beta.

    Z/phi(alpha) = F(alpha) - d F(beta) with d = phi(beta)/phi(alpha) <= 1
    and F the Mills ratio; everything is evaluated in factored forms that
    avoid subtracting nearly equal numbers.
    """
    fa = _mills(alpha)
    fb = _mills(beta)
    expo = 0.5 * (alpha - beta) * (alpha + beta)  # (a^2 - b^2)/2 <= 0
    d = math.exp(expo)
    one_minus_d = -math.expm1(expo)
    denom = fa * one_minus_d + d * (fa - fb)
    if denom <= 0.0 or not math.isfinite(denom):
        return math.inf, math.inf  # caller falls back to the floor
    r1 = one_minus_d / denom
    r2 = (alpha * one_minus_d - d * (beta - alpha)) / denom
    return r1, r2


def _straddle_ratios(alpha: float, beta: float) -> tuple[float, float]:
    """Same ratios for alpha <= 0 <= beta (Z is well away from underflow
    unless the interval is tiny, which expm1 keeps accurate)."""
    z = 0.5 * (math.erf(beta * INV_SQRT_2) - math.erf(alpha * INV_SQRT_2))
    if z <= 0.0:
        return math.inf, math.inf
    ea = 0.5 * alpha * alpha
    eb = 0.5 * beta * beta
    if ea <= eb:
        phi_a = math.exp(-ea) / math.sqrt(2.0 * math.pi)
        phi_diff = -phi_a * math.expm1(ea - eb)
        phi_b = phi_a - phi_diff
    else:
        phi_b = math.exp(-eb) / math.sqrt(2.0 * math.pi)
        phi_diff = phi_b * math.expm1(eb - ea)
        phi_a = phi_b + phi_diff
    r1 = phi_diff / z
    r2 = (alpha * phi_a - beta * phi_b) / z
    return r1, r2


def _narrow_moments(c_hat, s, alpha, beta):
    """Moments via Gauss-Legendre when the interval is narrow in sigma units."""
    mid = 0.5 * (alpha + beta)
    h = 0.5 * (beta - alpha)
    u = h * _GL_U
    f = -mid * u - 0.5 * u * u
    f -= np.max(f)
    w = _GL_W * np.exp(f)
    z = float(np.sum(w))
    eu = float(np.sum(w * u)) / z
    vu = float(np.sum(w * (u - eu) ** 2)) / z
    return c_hat + s * (mid + eu), s * s * vu


def truncated_moments(c_hat, tau_c, interval):
    """Mean and variance of N(c_hat, tau_c) truncated to the interval."""
    if not tau_c > 0.0:
        raise ValueError(f"tau_c={tau_c} must be > 0")
    lo, hi = interval.lo, interval.hi
    s = math.sqrt(tau_c)
    alpha = (lo - c_hat) / s
    beta = (hi - c_hat) / s

    if beta - alpha <= 1.0 and abs(alpha + beta) * (beta - alpha) <= 160.0:
        mean, var = _narrow_moments(c_hat, s, alpha, beta)
    else:
        if alpha >= 0.0:
            r1, r2 = _one_sided_ratios(alpha, beta)
        elif beta <= 0.0:
            r1, r2 = _one_sided_ratios(-beta, -alpha)
            r1 = -r1
        else:
            r1, r2 = _straddle_ratios(alpha, beta)
        mean = c_hat + s * r1
        var = tau_c * (1.0 + r2 - r1 * r1)

    floor = VAR_FLOOR_SCALE * interval.width**2
    if not math.isfinite(mean) or not lo < mean < hi:
        edge = lo if abs(c_hat - lo) <= abs(c_hat - hi) else hi
        mean = edge + math.sqrt(floor) if edge == lo else edge - math.sqrt(floor)
    if not math.isfinite(var) or var < floor:
        var = floor
    return mean, var


def moments_loop(c_hat, tau_c, interval):
    """truncated_moments of every element of same-shape arrays or flat lists,
    one call each; the result takes the form of the arguments."""
    c_hat, tau_c, lo, hi = np.array([c_hat, tau_c, interval.lo, interval.hi], float)
    mean, var = np.empty_like(c_hat), np.empty_like(c_hat)
    for i in np.ndindex(c_hat.shape):
        mean[i], var[i] = truncated_moments(c_hat[i], tau_c[i], Interval(lo[i], hi[i]))
    if isinstance(interval.lo, list):
        return mean.tolist(), var.tolist()
    return mean, var
