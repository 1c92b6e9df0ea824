"""Moments of a Gaussian restricted to an interval, elementwise.

This is the input-channel posterior of the solver: an N(c_hat, tau_c)
density truncated to the intersection of the prior box and the trust
region. With s = sqrt(tau_c), alpha = (lo - c)/s, beta = (hi - c)/s and
Z = Phi(beta) - Phi(alpha),

    mean = c + s * (phi(alpha) - phi(beta)) / Z
    var  = tau_c * (1 + (alpha phi(alpha) - beta phi(beta))/Z
                      - ((phi(alpha) - phi(beta))/Z)^2)

evaluated in four regimes to stay accurate when the interval sits far in
a tail or is narrow relative to s:

* interval narrow in sigma units (beta - alpha <= 1): fixed 64-node
  Gauss-Legendre on the re-centered density; the closed-form bracket
  1 + r2 - r1^2 cancels catastrophically here, the quadrature does not;
* both endpoints on one side of c: ratios through the scaled complementary
  error function erfcx (phi and Z underflow individually, their ratios do
  not), with expm1 for the phi difference;
* interval straddling c: direct erf-based Z (the two erf terms add, no
  cancellation) and expm1 for the phi difference;
* hopeless cases (rounding pushed the mean onto an endpoint or the
  variance to zero): mean = nearest endpoint -/+ sqrt(floor) and
  var = floor with floor = 1e-12 (hi-lo)^2, so iterating callers never see
  NaN, inf, or an out-of-interval mean.

truncated_moments takes floats, same-shape arrays or the solver's flat lists
(once per inner step, over every (problem, material)), all through one list
kernel. Each element's regime is picked on Python floats. The one-sided,
straddle and hopeless cases stay scalar (math.exp/expm1/erf and erfcx below,
on Python floats), cheaper on a few dozen elements than masked numpy arrays;
only the narrow rows go to numpy, as one (n, 64) quadrature pass.

Phi/phi come from libm through math: erf directly, and the scaled
complement erfcx(x) = exp(x^2) erfc(x) from exp and erfc (see erfcx), within
a few ulp in double precision.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

SQRT_HALF_PI = math.sqrt(math.pi / 2.0)
INV_SQRT_2 = 1.0 / math.sqrt(2.0)
INV_SQRT_PI = 1.0 / math.sqrt(math.pi)
VAR_FLOOR_SCALE = 1e-12  # variance floor = scale * width^2

# Fixed-order Gauss-Legendre rule for the narrow-interval branch.
_GL_U, _GL_W = np.polynomial.legendre.leggauss(64)


@dataclass(frozen=True)
class Interval:
    lo: float | np.ndarray | list  # arrays or flat lists: one interval per element
    hi: float | np.ndarray | list

    def __post_init__(self):
        if not all(np.less(self.lo, self.hi).flat):
            raise ValueError(f"interval [{self.lo}, {self.hi}] needs lo < hi")

    @property
    def width(self) -> float | np.ndarray:
        return self.hi - self.lo

    @functools.cached_property
    def floors(self) -> list[float]:
        """Each element's variance floor VAR_FLOOR_SCALE * width^2, flat, inf
        where it overflows; cached, as the solver reuses a box for many steps."""
        floors = []
        for lo, hi in zip(*np.array([self.lo, self.hi], float).reshape(2, -1).tolist()):
            try:
                floors.append(VAR_FLOOR_SCALE * (hi - lo) ** 2)
            except OverflowError:  # a finite width whose square overflows
                floors.append(math.inf)
        return floors


# erfcx's bands: below _ERFCX_SPLIT x^2 rounds too little to matter in exp;
# from _ERFCX_ASYMPTOTIC on erfc(x) nears underflow, and the series to
# k = 7 is exact to ~2e-19 relative (its first omitted term, 15!! / (2x^2)^8).
_ERFCX_SPLIT = 0.5
_ERFCX_ASYMPTOTIC = 26.0
_VELTKAMP = 134217729.0  # 2^27 + 1


def erfcx(x: float) -> float:
    """exp(x^2) * erfc(x) for x >= 0, within a few ulp.

    Small x: the product as written. Mid x: x = hi + lo split exactly
    (Veltkamp), so that x^2 = hi^2 + (2 hi + lo) lo with hi^2 exact, and exp
    never sees the rounding of x^2; the small factor exp((2 hi + lo) lo)
    joins through expm1. Large x: erfc underflows, so the asymptotic series
    1/(x sqrt(pi)) sum_k (-1)^k (2k-1)!! / (2x^2)^k, k = 0..7, in Horner
    form and in 1/x so that x^2 may overflow.
    """
    if x < _ERFCX_SPLIT:
        return math.exp(x * x) * math.erfc(x)
    if x < _ERFCX_ASYMPTOTIC:
        c = _VELTKAMP * x
        hi = c - (c - x)
        lo = x - hi
        p = math.exp(hi * hi) * math.erfc(x)
        return p + p * math.expm1((hi + hi + lo) * lo)
    inv = 1.0 / x
    r = 0.5 * inv * inv
    series = 1.0 - r * (1.0 - 3.0 * r * (1.0 - 5.0 * r * (1.0 - 7.0 * r * (
        1.0 - 9.0 * r * (1.0 - 11.0 * r * (1.0 - 13.0 * r))))))
    return INV_SQRT_PI * inv * series


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
    """Same ratios for alpha < 0 < beta. The narrow rows take every such
    interval with beta - alpha <= 1, so here Z >= Phi(1) - Phi(0) > 0.34."""
    z = 0.5 * (math.erf(beta * INV_SQRT_2) - math.erf(alpha * INV_SQRT_2))
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


def _narrow_moments(mid, h):
    """Gauss-Legendre mean and variance, in u units, of rows narrow in sigma.

    In u = (x - mid)/s the density is exp(gamma u - u^2/2) on [-h, h] up to
    a constant, gamma = (c - mid)/s. The closed-form ratios cancel
    catastrophically here, while a 64-node rule integrates the gently
    varying exponential to machine precision (the exponent is re-centered
    at its maximum, so tails cost nothing). Each of the n rows is summed as
    a lone 64-node array would be, so it rounds as it would alone.
    """
    u = h[:, None] * _GL_U
    f = -mid[:, None] * u - 0.5 * u * u
    f -= np.maximum.reduce(f, axis=1, keepdims=True)
    w = _GL_W * np.exp(f)
    z = np.add.reduce(w, axis=1)
    eu = np.add.reduce(w * u, axis=1) / z
    vu = np.add.reduce(w * (u - eu[:, None]) ** 2, axis=1) / z
    return eu.tolist(), vu.tolist()


def _settle(c, lo, hi, floor, mean, var):
    """The hopeless cases: a mean not inside (lo, hi) moves next to the
    endpoint nearer c, and a variance under the floor becomes the floor."""
    if floor == math.inf:
        raise ValueError(f"interval ({lo}, {hi}): its width squared overflows")
    if not math.isfinite(mean) or not lo < mean < hi:
        edge = lo if abs(c - lo) <= abs(c - hi) else hi
        mean = edge + math.sqrt(floor) if edge == lo else edge - math.sqrt(floor)
    if not math.isfinite(var) or var < floor:
        var = floor
    return mean, var


def truncated_moments(c_hat, tau_c, interval: Interval):
    """Mean and variance of N(c_hat, tau_c) truncated to the interval.

    c_hat, tau_c, interval.lo and interval.hi are floats, same-shape arrays
    or flat lists of floats, and the result is two floats, two arrays or two
    new lists to match. Guaranteed for finite inputs with tau_c > 0: every
    mean strictly inside its (lo, hi), every variance > 0, all finite. A
    non-finite input or a tau_c <= 0 raises ValueError naming it, and so
    does an interval whose width squared overflows.
    """
    if isinstance(c_hat, list):
        return _moments(c_hat, tau_c, interval.lo, interval.hi, interval.floors)
    args = np.array([c_hat, tau_c, interval.lo, interval.hi])
    mean, var = _moments(*args.reshape(4, -1).tolist(), interval.floors)
    if args.ndim == 1:
        return mean[0], var[0]
    return np.array(mean).reshape(args.shape[1:]), np.array(var).reshape(args.shape[1:])


def _moments(c_hat, tau_c, lo, hi, floors):
    """truncated_moments on flat lists of floats, with the interval's floors."""
    # a sum of floats is finite only if every term is; the rare sum that
    # overflows on finite terms just takes the exact test
    for name, row in zip(("c_hat", "tau_c", "interval.lo", "interval.hi"), (c_hat, tau_c, lo, hi)):
        if not math.isfinite(sum(row)) and not all(map(math.isfinite, row)):
            raise ValueError(f"{name} must be finite")
    mean, var, narrow = [0.0] * len(c_hat), [0.0] * len(c_hat), []
    for i, (c, tau, a, b, floor) in enumerate(zip(c_hat, tau_c, lo, hi, floors)):
        if not tau > 0.0:
            raise ValueError(f"tau_c={tau} must be > 0")
        s = math.sqrt(tau)
        alpha = (a - c) / s
        beta = (b - c) / s
        if beta - alpha <= 1.0 and abs(alpha + beta) * (beta - alpha) <= 160.0:
            narrow.append((i, c, s, a, b, floor, 0.5 * (alpha + beta), 0.5 * (beta - alpha)))
            continue
        if alpha >= 0.0:
            r1, r2 = _one_sided_ratios(alpha, beta)
        elif beta <= 0.0:
            r1, r2 = _one_sided_ratios(-beta, -alpha)
            r1 = -r1
        else:
            r1, r2 = _straddle_ratios(alpha, beta)
        m, v = c + s * r1, tau * (1.0 + r2 - r1 * r1)
        plain = a < m < b and floor <= v < math.inf  # else a hopeless case
        mean[i], var[i] = (m, v) if plain else _settle(c, a, b, floor, m, v)
    if narrow:
        idx, cn, sn, lon, hin, fn, mid, h = zip(*narrow)
        eu, vu = _narrow_moments(np.array(mid), np.array(h))
        for i, c, s, a, b, floor, m, e, v in zip(idx, cn, sn, lon, hin, fn, mid, eu, vu):
            mean[i], var[i] = _settle(c, a, b, floor, c + s * (m + e), s * s * v)
    return mean, var
