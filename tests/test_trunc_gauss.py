"""Truncated-Gaussian moment kernel against quadrature, closed forms and
the per-element scalar reference."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import scalar_moments
from permgamp import Interval, truncated_moments
from permgamp.trunc_gauss import erfcx
from quadrature import quadrature_moments

# Frozen 50-digit reference (mpmath: phi/Phi of the defining formulas) for
# c=0, tau=1, interval [0, 1].
REF_MEAN_01 = 0.4598622292864265003330267
REF_VAR_01 = 0.07965182484851131233334055


# Error bounds in units in the last place of the 50-digit value, fixed from a
# probe before erfcx was written: scipy's Cephes erfcx reached 7.7 ulp on
# [0, 0.5), 5.3 on [0.5, 26) and 2.1 past 26 (2,000 random points each), and
# math.erf 0.81 ulp on [-8, 8].
ERFCX_ULP = 4.0
ERF_ULP = 1.0
SCIPY_ERFCX_ULP = 8.0
ERFCX_EDGES = (0.0, math.nextafter(0.5, 0.0), 0.5, math.nextafter(26.0, 0.0), 26.0,
               1e300, 1.7976931348623157e308)


def _ulps(got: float, want) -> float:
    """|got - want| in units in the last place of want rounded to a float."""
    return float(abs(mp.mpf(got) - want) / math.ulp(float(want)))


def _mp_erfcx(x: float):
    """exp(x^2) erfc(x) to 50 digits (mpmath's erfc stops working near 1e300,
    and past 1e50 the series' second term is below 50 digits)."""
    with mp.workdps(50):
        x = mp.mpf(x)
        return mp.exp(x * x) * mp.erfc(x) if x < 1e50 else 1 / (x * mp.sqrt(mp.pi))


def _erfcx_points(rng):
    """Points on each of erfcx's three bands, and the band edges."""
    return (list(rng.uniform(0.0, 0.5, 300)) + list(rng.uniform(0.5, 26.0, 300))
            + list(10.0 ** rng.uniform(math.log10(26.0), 300.0, 300)) + list(ERFCX_EDGES))


def test_erfcx_is_within_a_few_ulp_of_mpmath(rng):
    worst = max((_ulps(erfcx(x), _mp_erfcx(x)), x) for x in _erfcx_points(rng))
    assert worst[0] <= ERFCX_ULP, worst
    assert (erfcx(0.0), erfcx(math.inf)) == (1.0, 0.0)


def test_erfcx_agrees_with_scipy(rng):
    from scipy.special import erfcx as scipy_erfcx  # the reference the kernel replaced

    for x in _erfcx_points(rng):
        assert _ulps(erfcx(x), mp.mpf(float(scipy_erfcx(x)))) <= ERFCX_ULP + SCIPY_ERFCX_ULP, x
    assert float(scipy_erfcx(math.inf)) == erfcx(math.inf)


def test_libm_erf_is_within_an_ulp_over_the_straddle_range(rng):
    # the straddle branch takes erf(alpha / sqrt 2) and erf(beta / sqrt 2)
    xs = list(rng.uniform(-8.0, 8.0, 1000)) + list(10.0 ** rng.uniform(-300, 0, 200))
    with mp.workdps(50):
        worst = max((_ulps(math.erf(x), mp.erf(mp.mpf(x))), x) for x in xs)
    assert worst[0] <= ERF_ULP, worst


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
    with pytest.raises(ValueError, match="lo < hi"):
        Interval(np.array([0.0, 1.0]), np.array([1.0, 1.0]))  # elementwise
    with pytest.raises(ValueError, match="tau_c"):
        truncated_moments(np.zeros(2), np.array([1.0, -1.0]), Interval(np.zeros(2), np.ones(2)))


@pytest.mark.parametrize(
    "args,named",
    [
        ((0.0, 1.0, -math.inf, math.inf), "interval.lo"),
        ((0.0, 1.0, 0.0, math.inf), "interval.hi"),
        ((math.nan, 1.0, 0.0, 1.0), "c_hat"),
        ((0.0, math.inf, 0.0, 1.0), "tau_c"),
    ],
    ids=["unbounded", "half_bounded", "nan_center", "inf_variance"],
)
def test_rejects_non_finite_inputs(args, named):
    # each of these once returned a NaN, infinite or edge moment
    c, tau, lo, hi = args
    with pytest.raises(ValueError, match=named):
        truncated_moments(c, tau, Interval(lo, hi))
    arrays = [np.full((2, 3), v) for v in (0.5, 1.0, 0.0, 1.0)]
    for array, v in zip(arrays, args):  # one bad element in an array call
        array[1, 2] = v
    with pytest.raises(ValueError, match=named):
        truncated_moments(arrays[0], arrays[1], Interval(arrays[2], arrays[3]))


def test_rejects_an_interval_whose_width_squared_overflows():
    with pytest.raises(ValueError, match=r"interval \(-1e\+155, 1e\+155\)"):
        truncated_moments(0.0, 1.0, Interval(-1e155, 1e155))
    # hi - lo overflows to inf itself, and inf ** 2 raises nothing
    with pytest.raises(ValueError, match=r"interval \(-1e\+308, 1e\+308\)"):
        truncated_moments(0.0, 1.0, Interval(-1e308, 1e308))


def test_array_call_returns_arrays_and_a_scalar_call_floats():
    mean, var = truncated_moments(0.0, 1.0, Interval(0.0, 1.0))
    assert type(mean) is float and type(var) is float
    c = np.array([[0.0, 0.5, 3.0], [-40.0, 1.0, 0.25]])
    mean, var = truncated_moments(c, np.ones_like(c), Interval(np.zeros_like(c), np.ones_like(c)))
    assert mean.shape == var.shape == c.shape
    for i in np.ndindex(c.shape):
        assert (mean[i], var[i]) == truncated_moments(c[i], 1.0, Interval(0.0, 1.0))


def _same_bits(got, want):
    return np.array_equal(np.asarray(got, float).view(np.int64),
                          np.asarray(want, float).view(np.int64))


def _reference(c, tau, lo, hi):
    """scalar_moments over same-shape arrays. Its hopeless cases overflow
    numpy scalars on their way to the floor, with warnings the kernel, on
    Python floats, does not give."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return scalar_moments.moments_loop(c, tau, Interval(lo, hi))


# (alpha, beta) exactly on the narrow branch's edges: beta - alpha = 1,
# |alpha + beta| (beta - alpha) = 160, and an endpoint on the center
EDGES = [(-0.5, 0.5), (2.25, 3.25), (-7.0, -6.0), (79.5, 80.5), (-80.5, -79.5),
         (159.75, 160.25), (-160.25, -159.75), (127.6875, 128.3125), (0.0, 0.25),
         (0.0, 1.0), (0.0, 1.5), (0.0, 3.0), (0.0, 40.0), (-0.25, 0.0), (-1.0, 0.0),
         (-1.5, 0.0), (-3.0, 0.0), (-40.0, 0.0)]


def _edge(c, k, edge):
    """(c, tau, lo, hi) with tau = 4^k and (lo - c, hi - c) = edge * 2^k; all
    dyadic, so the kernel's alpha and beta come out as the edge exactly."""
    s = 2.0**k
    return c, s * s, c + edge[0] * s, c + edge[1] * s


def test_kernel_matches_the_reference_on_the_regime_edges():
    cases = [_edge(c, k, e) for e in EDGES for c in (-3.125, 0.0, 7.5) for k in (-20, 0, 20)]
    for (c, tau, lo, hi), edge in zip(cases, np.repeat(EDGES, 9, axis=0).tolist()):
        assert ((lo - c) / math.sqrt(tau), (hi - c) / math.sqrt(tau)) == tuple(edge)
    c, tau, lo, hi = map(np.array, zip(*cases))
    mean, var = truncated_moments(c, tau, Interval(lo, hi))
    ref_mean, ref_var = _reference(c, tau, lo, hi)
    assert _same_bits(mean, ref_mean) and _same_bits(var, ref_var)


_generic = st.builds(
    lambda lo, log_w, log_tau, k: (lo + 0.5 * 10.0**log_w + k * 10.0 ** (0.5 * log_tau),
                                   10.0**log_tau, lo, lo + 10.0**log_w),
    st.floats(-10.0, 10.0), st.floats(-3.0, 1.5), st.floats(-8.0, 6.0), st.floats(-60.0, 60.0),
)
_edges = st.builds(_edge, st.integers(-64, 64).map(lambda j: j / 8.0), st.integers(-20, 20),
                   st.sampled_from(EDGES))
_extremes = st.builds(
    lambda c, tau, lo, w: (c, tau, lo, lo + w),
    st.sampled_from([1e300, -1e300, 0.0, 3.0]), st.sampled_from([1e-300, 1e300, 1.0]),
    st.floats(-10.0, 10.0), st.floats(0.01, 10.0),
)
_tails = st.builds(  # 40 sigma (and more) beyond either end
    lambda lo, w, log_tau, side, k: (
        (lo + w + k * 10.0 ** (0.5 * log_tau)) if side else (lo - k * 10.0 ** (0.5 * log_tau)),
        10.0**log_tau, lo, lo + w),
    st.floats(-5.0, 5.0), st.floats(0.1, 10.0), st.floats(-6.0, 4.0), st.booleans(),
    st.floats(40.0, 100.0),
)


@given(st.integers(1, 5), st.integers(1, 3), st.data())
def test_kernel_matches_the_scalar_reference_bit_for_bit(b, m, data):
    elements = data.draw(st.lists(st.one_of(_generic, _edges, _extremes, _tails),
                                  min_size=b * m, max_size=b * m))
    c, tau, lo, hi = (np.array(col).reshape(b, m) for col in zip(*elements))
    mean, var = truncated_moments(c, tau, Interval(lo, hi))
    ref_mean, ref_var = _reference(c, tau, lo, hi)
    assert _same_bits(mean, ref_mean) and _same_bits(var, ref_var)


def test_scalar_call_matches_the_reference_on_criterion_1_panel():
    # the draws of test_acceptance.test_criterion_1_moment_kernel
    rng = np.random.Generator(np.random.PCG64(12345))
    cases = []
    for _ in range(1000):
        lo = rng.uniform(-10.0, 10.0)
        width = 10.0 ** rng.uniform(-2, 1)
        hi = lo + width
        tau = 10.0 ** rng.uniform(-5, 4)
        s = math.sqrt(tau)
        cases.append((rng.uniform(lo - width - 4 * s, hi + width + 4 * s), tau, lo, hi))
    for k in range(50):
        tau = 10.0 ** rng.uniform(-6, 4)
        s = math.sqrt(tau)
        lo = rng.uniform(-5.0, 5.0)
        hi = lo + 10.0 ** rng.uniform(-1, 1)
        side = 1 if k % 2 == 0 else -1
        cases.append(((hi if side > 0 else lo) + side * (40.0 + rng.uniform(0, 60)) * s,
                      tau, lo, hi))
    for c, tau, lo, hi in cases:
        got = truncated_moments(c, tau, Interval(lo, hi))
        want = scalar_moments.truncated_moments(c, tau, Interval(lo, hi))
        assert _same_bits(got, want), (c, tau, lo, hi)

