"""Truncated-Gaussian moment kernel against quadrature and closed forms."""

import math

import mpmath as mp
import numpy as np
import pytest

from permgamp import Interval, quadrature_moments, truncated_moments

# Frozen 50-digit reference (mpmath: phi/Phi of the defining formulas) for
# c=0, tau=1, interval [0, 1].
REF_MEAN_01 = 0.4598622292864265003330267
REF_VAR_01 = 0.07965182484851131233334055


def test_flat_gaussian_limit_is_uniform():
    mean, var = truncated_moments(0.0, 1e9, Interval(-1.0, 1.0))
    assert abs(mean) <= 1e-6
    assert abs(var - 1.0 / 3.0) <= 1e-6


def test_untruncated_limit():
    mean, var = truncated_moments(5.0, 1e-8, Interval(0.0, 10.0))
    assert abs(mean - 5.0) <= 1e-12 * 5.0
    assert abs(var - 1e-8) <= 1e-12 * 1e-8


def test_unit_interval_case_matches_quadrature_and_reference():
    mean, var = truncated_moments(0.0, 1.0, Interval(0.0, 1.0))
    qmean, qvar = quadrature_moments(0.0, 1.0, Interval(0.0, 1.0))
    assert abs(mean - qmean) <= 1e-9
    assert abs(var - qvar) <= 1e-9
    assert abs(mean - REF_MEAN_01) <= 1e-13
    assert abs(var - REF_VAR_01) <= 1e-13


@pytest.mark.parametrize("u", [1e-3, 0.1, 1.0, 25.0])
@pytest.mark.parametrize("tau", [1e-6, 1e-2, 1.0, 1e4])
def test_symmetric_interval_mean_is_zero(u, tau):
    mean, var = truncated_moments(0.0, tau, Interval(-u, u))
    assert abs(mean) <= 1e-14 * u
    assert var > 0.0


def test_translation_equivariance(rng):
    # Mean shifts exactly; the variance is identical up to rounding on the
    # natural scale min(tau, width^2/4) (far in the tails the value itself
    # sits at the safety floor, where relative comparison is meaningless).
    for _ in range(500):
        c = rng.uniform(-5, 5)
        tau = 10.0 ** rng.uniform(-4, 3)
        lo = rng.uniform(-5, 5)
        hi = lo + 10.0 ** rng.uniform(-0.5, 1)
        t = rng.uniform(-20, 20)
        m0, v0 = truncated_moments(c, tau, Interval(lo, hi))
        m1, v1 = truncated_moments(c + t, tau, Interval(lo + t, hi + t))
        cap = min(tau, (hi - lo) ** 2 / 4.0)
        assert abs((m1 - t) - m0) <= 1e-12 * max(1.0, abs(t))
        assert abs(v1 - v0) <= 1e-9 * cap + 1e-9 * v0


def test_scale_equivariance(rng):
    for _ in range(500):
        c = rng.uniform(-5, 5)
        tau = 10.0 ** rng.uniform(-4, 3)
        lo = rng.uniform(-5, 5)
        hi = lo + 10.0 ** rng.uniform(-0.5, 1)
        s = 10.0 ** rng.uniform(-2, 2)
        m0, v0 = truncated_moments(c, tau, Interval(lo, hi))
        m1, v1 = truncated_moments(s * c, s * s * tau, Interval(s * lo, s * hi))
        cap = min(tau, (hi - lo) ** 2 / 4.0)
        assert abs(m1 - s * m0) <= 1e-11 * max(1.0, abs(s * m0))
        assert abs(v1 - s * s * v0) <= s * s * (1e-9 * cap + 1e-9 * v0)


@pytest.mark.parametrize("tau", [1e-4, 0.1, 10.0])
def test_mean_monotone_in_center(tau):
    interval = Interval(-1.0, 2.0)
    cs = np.linspace(-30.0, 30.0, 301)
    means = [truncated_moments(c, tau, interval)[0] for c in cs]
    assert np.all(np.diff(means) >= -1e-12)


def _mp_moments(c, tau, lo, hi):
    """80-digit evaluation of the defining Phi/phi formulas.

    Z = Phi(b) - Phi(a) goes through erfc of the positive arguments in the
    one-sided cases: the naive (1 + erf)/2 difference would itself cancel
    catastrophically in deep tails, even at this precision.
    """
    mp.mp.dps = 80
    c, s = mp.mpf(c), mp.sqrt(mp.mpf(tau))
    a, b = (mp.mpf(lo) - c) / s, (mp.mpf(hi) - c) / s
    phi = lambda x: mp.exp(-x * x / 2) / mp.sqrt(2 * mp.pi)
    if a >= 0:
        z = (mp.erfc(a / mp.sqrt(2)) - mp.erfc(b / mp.sqrt(2))) / 2
    elif b <= 0:
        z = (mp.erfc(-b / mp.sqrt(2)) - mp.erfc(-a / mp.sqrt(2))) / 2
    else:
        z = (mp.erf(b / mp.sqrt(2)) - mp.erf(a / mp.sqrt(2))) / 2
    r1 = (phi(a) - phi(b)) / z
    mean = c + s * r1
    var = s * s * (1 + (a * phi(a) - b * phi(b)) / z - r1 * r1)
    return float(mean), float(var)


def test_matches_high_precision_reference_across_regimes(rng):
    # Deeper tails than quadrature can resolve; mpmath carries 60 digits, so
    # disagreement here is the kernel's fault.
    cases = []
    for _ in range(60):
        lo = rng.uniform(-5, 5)
        hi = lo + 10.0 ** rng.uniform(-2, 1)
        tau = 10.0 ** rng.uniform(-4, 3)
        offset = rng.uniform(-30.0, 30.0) * math.sqrt(tau)
        cases.append((lo + offset, tau, lo, hi))
    cases += [
        (0.0, 1.0, 0.0, 1.0),
        (-12.0, 0.25, 0.0, 1.0),     # 24 sigma below
        (19.0, 0.25, 0.0, 1.0),      # 36 sigma above
        (0.5, 1e6, 0.0, 1.0),        # flat
        (0.5, 1e-9, 0.0, 1.0),       # spike inside
    ]
    for c, tau, lo, hi in cases:
        got_m, got_v = truncated_moments(c, tau, Interval(lo, hi))
        ref_m, ref_v = _mp_moments(c, tau, lo, hi)
        cap = min(tau, (hi - lo) ** 2 / 4.0)
        assert abs(got_m - ref_m) <= 1e-10 * max(1.0, abs(ref_m)), (c, tau, lo, hi)
        assert abs(got_v - ref_v) <= 1e-9 * cap + 1e-9 * ref_v, (c, tau, lo, hi)


def test_far_tail_is_finite_and_inside():
    for tau in (1e-6, 1.0, 1e4):
        s = math.sqrt(tau)
        for side in (+1, -1):
            c = 2.0 + side * (1.0 + 40.0 * s)  # interval [1, 3], 40 sigma out
            mean, var = truncated_moments(c, tau, Interval(1.0, 3.0))
            assert math.isfinite(mean) and math.isfinite(var)
            assert 1.0 < mean < 3.0
            assert var > 0.0


def test_variance_bounded_by_gaussian_and_interval(rng):
    for _ in range(500):
        c = rng.uniform(-10, 10)
        tau = 10.0 ** rng.uniform(-5, 4)
        lo = rng.uniform(-10, 10)
        hi = lo + 10.0 ** rng.uniform(-2, 1)
        mean, var = truncated_moments(c, tau, Interval(lo, hi))
        cap = min(tau, (hi - lo) ** 2 / 4.0)
        assert 0.0 < var <= cap * (1.0 + 1e-9) + 1e-30
        assert lo < mean < hi


def test_extreme_center_never_nan():
    # The canonical failure mode of iterating solvers: enormous pseudo-
    # observations must still produce usable moments.
    for c in (1e12, -1e12, 1e300):
        mean, var = truncated_moments(c, 1.0, Interval(0.0, 1.0))
        assert math.isfinite(mean) and math.isfinite(var)
        assert 0.0 < mean < 1.0
        assert var > 0.0


def test_rejects_bad_inputs():
    with pytest.raises(ValueError):
        truncated_moments(0.0, 0.0, Interval(0.0, 1.0))
    with pytest.raises(ValueError):
        Interval(1.0, 1.0)
    with pytest.raises(ValueError):
        Interval(2.0, 1.0)

