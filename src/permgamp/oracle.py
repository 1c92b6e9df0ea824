"""Independent ground-truth machinery for tests and acceptance checks.

The exact log-posterior of the estimation problem, a brute-force grid
argmax over the prior box (Fresnel tabulated once per axis node, the grid
scanned row by row with each ray folding only its real bounces, in the
forward model's order), a central-difference Jacobian of the forward map,
and adaptive-quadrature moments of the truncated-Gaussian input channel.
The iterative solver never imports this module (and this module never
imports the solver, which tests/test_bench_lookup_sites.py checks), so the
two sides stay independent.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import forward_model
from .errors import GridSizeError, UnusableLinkError, ValidationError
from .forward_model import GAIN_FLOOR, RayTable, forward, gains_db, ray_table
from .scenario import Dataset, Scenario, check_noise_std, normalize_measurements
from .trunc_gauss import Interval

GRID_GUARD = 10_000_000  # max number of grid nodes
GRID_SEGMENT_ELEMENTS = 1 << 17  # ray slots x last-axis nodes per row segment
GRID_TABLE_ELEMENTS = 1 << 20  # axis nodes x bounces of one material per table
SIGMA_VAR_FLOOR = 1e-12  # dB^2; keeps sigma_z = 0 arithmetic finite
QUAD_ABS_TARGET = 1e-11


def log_posterior(scenario: Scenario, ray_cache, y, eps, sigma_z: float) -> float:
    """Log posterior of eps given normalized measurements y, up to a constant.

    Uniform box prior: -inf outside the prior bounds, otherwise the
    Gaussian log-likelihood -sum (y_n - gain_n(eps))^2 / (2 sigma_z^2).
    ValidationError as _checked_levels raises it, or for an eps without one
    entry per material.
    """
    y = _checked_levels(y, sigma_z, len(ray_cache))
    eps = np.asarray(eps, dtype=float)
    lo, hi = scenario.prior_bounds()
    if eps.shape != lo.shape:
        raise ValidationError(f"eps has shape {eps.shape} for {len(lo)} materials")
    if np.any(eps < lo) or np.any(eps > hi):
        return -math.inf
    var = max(sigma_z**2, SIGMA_VAR_FLOOR)
    resid = y - forward(scenario, ray_cache, eps)
    return float(-0.5 * np.dot(resid, resid) / var)


def _checked_levels(y, sigma_z, n_links: int) -> np.ndarray:
    """y as floats; ValidationError naming a bad sigma_z, a y whose shape
    is not (n_links,), or the first non-finite y[i]."""
    check_noise_std(sigma_z, "sigma_z")
    y = np.asarray(y, dtype=float)
    if y.shape != (n_links,):
        raise ValidationError(f"y has shape {y.shape} for {n_links} links")
    bad = np.flatnonzero(~np.isfinite(y))
    if bad.size:
        raise ValidationError(f"y[{bad[0]}]={y[bad[0]]} must be finite")
    return y


def check_scorable(scenario: Scenario, dataset: Dataset) -> None:
    """ValidationError naming the largest level unless the squared levels
    over the floored noise variance, the scale of log_posterior, are finite."""
    y = normalize_measurements(scenario, dataset)
    if not math.isfinite(float(np.sum(y * y)) / max(dataset.noise_var, SIGMA_VAR_FLOOR)):
        n = int(np.argmax(np.abs(y)))
        raise ValidationError(
            f"measured_db[{n}]={dataset.measured_db[n]}: the squared levels over "
            f"noise_var={dataset.noise_var} (floored at {SIGMA_VAR_FLOOR}) overflow, "
            f"so no log posterior can be scored"
        )


def fd_jacobian(table: RayTable, eps, step: float = 1e-6):
    """Central-difference d gain_db / d eps over a ray table, the cross-check
    of the solver's analytic Jacobian; returns (a_matrix, warnings). A
    central step that would cross the eps = 1 boundary degrades to a
    one-sided difference and is flagged in the warnings."""
    eps = np.asarray(eps, dtype=float)
    a = np.zeros((table.friis.shape[1], len(eps)))
    warns = []
    for m in range(len(eps)):
        e_hi, e_lo = eps.copy(), eps.copy()
        e_hi[m] += step
        width = 2.0 * step
        if eps[m] - step >= 1.0:
            e_lo[m] -= step
        else:
            width = step
            warns.append(f"fd: one-sided difference for material {m + 1} at eps={eps[m]}")
        a[:, m] = (gains_db(table, e_hi) - gains_db(table, e_lo)) / width
    return a, warns


@dataclass(frozen=True)
class GridSpec:
    """Uniform per-material grid step; bounds come from the priors."""

    step: float = 0.05

    def __post_init__(self):
        if not (math.isfinite(self.step) and self.step > 0):
            raise ValidationError(f"grid step={self.step} must be finite and > 0")


def grid_axes(scenario: Scenario, grid: GridSpec) -> list[np.ndarray]:
    """One node axis per material; GridSizeError, before any axis is built,
    when the grid would have more than GRID_GUARD nodes."""
    lo, hi = scenario.prior_bounds()
    counts = np.floor((hi - lo) / grid.step + 1e-9) + 1
    size = math.prod(counts.tolist())
    if size > GRID_GUARD:
        raise GridSizeError(f"grid has {size:.0f} nodes (> {GRID_GUARD})")
    return [lo[m] + grid.step * np.arange(int(count)) for m, count in enumerate(counts)]


def _bounce_patterns(ray_cache):
    """Bounced rays grouped by their bounce materials: per pattern, (the
    materials in bounce order, the rays' slots flat over ray_table's (R, L)
    friis, a contiguous row of math.cos per bounce, as ray_table takes them:
    column views slow the scan). Rays without a bounce appear in none."""
    by_pattern: dict[tuple, tuple[list, list]] = {}
    for n, rays in enumerate(ray_cache):
        for j, ray in enumerate(rays):
            if ray.reflections:
                pattern = tuple(ref.material_index - 1 for ref in ray.reflections)
                slots, cos = by_pattern.setdefault(pattern, ([], []))
                slots.append(j * len(ray_cache) + n)
                cos.append([math.cos(ref.incidence_angle) for ref in ray.reflections])
    return [(p, np.array(s, np.intp), np.array(c).T.copy()) for p, (s, c) in by_pattern.items()]


def _grid_ssr(table: RayTable, patterns, axes, y) -> np.ndarray:
    """Sum of squared dB residuals at every node of the Cartesian grid over
    axes, shaped like the grid; +inf at a node that leaves some link's total
    gain below GAIN_FLOOR. Ray gains are table.friis times the patterns' bounces.

    The grid is scanned row by row, the last axis vectorized in segments of
    at most GRID_SEGMENT_ELEMENTS (ray slots x nodes). Within a row every
    other material's |Gamma|^2 is fixed: one row of its per-axis table (the
    elementwise _fresnel on the same floats as at each node, so the same
    bits), or evaluated per row when that table would pass
    GRID_TABLE_ELEMENTS. The last axis's |Gamma|^2 is evaluated once per
    segment. Rays are grouped by their bounce materials and fold only their
    real bounces, left to right like the forward model: a leading run of
    last-material bounces once per segment, the rest per row. Skipped
    padding factors are exact 1.0s, so every node gets the bits of the
    forward model's fold and ray-order sum.
    """
    shape = tuple(map(len, axes))
    last = len(axes) - 1
    n_rays, n_links = table.friis.shape
    friis = table.friis.reshape(-1, 1)
    segment = max(1, GRID_SEGMENT_ELEMENTS // max(1, friis.size))

    def fresnel(m, cos, at):  # |Gamma|^2 (slots, nodes) at the nodes `at` of axis m
        gamma = forward_model._fresnel(axes[m][at], cos[:, None], table.polarization)[0]
        return gamma * gamma

    bounces = {m: sum(len(slots) * pattern.count(m) for pattern, slots, _ in patterns)
               for m in range(len(axes))}
    row_tables = {}  # (pattern, bounce) -> (axis nodes, slots) of a row material
    for p, (pattern, slots, cos) in enumerate(patterns):
        for b, m in enumerate(pattern):
            if m != last and len(axes[m]) * bounces[m] <= GRID_TABLE_ELEMENTS:
                tab = row_tables[p, b] = np.empty((len(axes[m]), len(slots)))
                step = max(1, GRID_SEGMENT_ELEMENTS // len(slots))  # bounded temporaries
                for i in range(0, len(tab), step):
                    tab[i:i + step] = fresnel(m, cos[b], slice(i, i + step)).T

    ssr = np.empty((math.prod(shape[:-1]), shape[-1]))
    for v0 in range(0, shape[-1], segment):
        nodes = slice(v0, v0 + segment)
        gains = np.empty((friis.size, len(axes[last][nodes])))
        gains[:] = friis  # rays without a bounce; padding rays are 0
        folds = []
        for p, (pattern, slots, cos) in enumerate(patterns):
            g = friis[slots]
            steps = []
            for b, m in enumerate(pattern):
                if m == last:
                    f = fresnel(m, cos[b], nodes)
                    if steps:
                        steps.append((m, f, None))
                    else:
                        g = g * f  # leading last-axis run: once per segment
                else:
                    steps.append((m, row_tables.get((p, b)), cos[b]))
            if steps:
                folds.append((slots, g, steps))
            else:
                gains[slots] = g
        by_ray = gains.reshape(n_rays, n_links, gains.shape[1])
        for row, index in enumerate(itertools.product(*map(range, shape[:-1]))):
            for slots, g, steps in folds:
                for m, f, cos in steps:
                    if m != last:  # this row's node of axis m
                        f = fresnel(m, cos, index[m]) if f is None else f[index[m], :, None]
                    g = g * f
                gains[slots] = g
            total = np.zeros((n_links, gains.shape[1]))
            for j in range(n_rays):  # ray order, as summed_gains sums
                total += by_ray[j]
            total = np.ascontiguousarray(total.T)
            resid = 10.0 * np.log10(np.maximum(total, GAIN_FLOOR)) - y
            out = ssr[row, nodes]
            out[:] = np.einsum("ij,ij->i", resid, resid)
            out[(total < GAIN_FLOOR).any(axis=1)] = math.inf
    return ssr.reshape(shape)


def grid_map(scenario: Scenario, ray_cache, y, sigma_z: float, grid: GridSpec) -> np.ndarray:
    """Exhaustive argmax of the log posterior over the Cartesian prior grid.

    Ties resolve to the lexicographically smallest node (first hit in
    row-major order). sigma_z only scales the posterior, so the argmax is
    returned for any sigma_z >= 0. A node that leaves a link below
    GAIN_FLOOR is excluded, as forward would refuse it; UnusableLinkError
    when every node is. ValidationError as log_posterior raises it.
    """
    y = _checked_levels(y, sigma_z, len(ray_cache))
    axes = grid_axes(scenario, grid)
    table = ray_table(ray_cache, scenario.wavelength_m, scenario.polarization)
    ssr = _grid_ssr(table, _bounce_patterns(ray_cache), axes, y)
    best = np.unravel_index(np.argmin(ssr), ssr.shape)  # first = lexicographically smallest
    if ssr[best] == math.inf:
        raise UnusableLinkError(
            f"every grid node leaves a link's total linear gain below {GAIN_FLOOR:g}"
        )
    return np.array([ax[i] for ax, i in zip(axes, best)])


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
    # Local import: scipy.integrate is slow to load, and only this test
    # reference needs it.
    from scipy.integrate import IntegrationWarning, quad

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
