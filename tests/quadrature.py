"""Truncated-Gaussian moments by adaptive quadrature: the reference the
moment kernel is checked against.

quadrature_moments integrates the definition with scipy's QUADPACK and
refuses any answer whose error estimate exceeds QUAD_ABS_TARGET, so
permgamp.trunc_gauss.truncated_moments is held to absolute bounds that are
independent of its own closed forms.
"""

import math
import warnings

from scipy.integrate import IntegrationWarning, quad

from permgamp.trunc_gauss import Interval

QUAD_ABS_TARGET = 1e-11


def quadrature_moments(
    c_hat: float, tau_c: float, interval: Interval
) -> tuple[float, float]:
    """Truncated-Gaussian moments by adaptive quadrature of the definition.

    Integrates w(x) = exp(-((x - c)^2 - d0^2) / (2 tau)) with d0 the
    distance from c to the interval (zero when inside); the constant shift
    cancels in the moment ratios and keeps the integrand's peak at 1. The
    domain is clipped to where the exponent stays above -800 (w underflows
    to exactly 0 beyond), so far-tail spikes are always resolved.
    """
    if not tau_c > 0.0:
        raise ValueError(f"tau_c={tau_c} must be > 0")
    lo, hi = interval.lo, interval.hi
    d0_sq = max(lo - c_hat, c_hat - hi, 0.0) ** 2

    def w(x):
        return math.exp(-((x - c_hat) ** 2 - d0_sq) / (2.0 * tau_c))

    r_cut = math.sqrt(d0_sq + 1600.0 * tau_c)
    a = max(lo, c_hat - r_cut)
    b = min(hi, c_hat + r_cut)
    if not a < b:  # interval entirely in the underflow region (cannot happen
        raise RuntimeError("empty effective support")  # with d0 from interval)
    s = math.sqrt(tau_c)
    pts = sorted({min(b, max(a, c_hat + k * s)) for k in (-3, -1, 0, 1, 3)})
    kw = dict(epsabs=1e-300, epsrel=1e-13, limit=500, points=pts)

    with warnings.catch_warnings():
        # Roundoff chatter is fine as long as the error estimates below
        # stay under the target.
        warnings.simplefilter("ignore", IntegrationWarning)
        z, z_err = quad(w, a, b, **kw)
        if z <= 0.0:
            raise RuntimeError(f"quadrature collapsed (Z={z:.3e})")
        m1, m1_err = quad(lambda x: x * w(x), a, b, **kw)
        mean = m1 / z
        v, v_err = quad(lambda x: (x - mean) ** 2 * w(x), a, b, **kw)
        var = v / z
    mean_err = (m1_err + abs(mean) * z_err) / z
    var_err = (v_err + var * z_err) / z
    if mean_err > QUAD_ABS_TARGET or var_err > QUAD_ABS_TARGET:
        raise RuntimeError(
            f"quadrature error above target (mean_err={mean_err:.2e}, "
            f"var_err={var_err:.2e})"
        )
    return mean, var
