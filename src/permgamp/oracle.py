"""Independent ground-truth machinery for tests and acceptance checks.

The exact log-posterior of the estimation problem and a brute-force grid
argmax over the prior box (Fresnel tabulated once per axis node, the grid
scanned row by row with each ray folding only its real bounces, in the
forward model's order). The finite-difference Jacobian and the quadrature
moments that check the solver's other parts live with the tests.
The iterative solver never imports this module (and this module never
imports the solver, which tests/test_bench_lookup_sites.py checks), so the
two sides stay independent.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import forward_model
from .errors import UnusableLinkError, ValidationError
from .forward_model import GAIN_FLOOR, RayTable, forward
from .scenario import Dataset, Scenario, check_noise_std, normalize_measurements

GRID_GUARD = 10_000_000  # max number of grid nodes
GRID_SEGMENT_ELEMENTS = 1 << 17  # ray slots x last-axis nodes per row segment
GRID_TABLE_ELEMENTS = 1 << 20  # axis nodes x bounces of one material per table
SIGMA_VAR_FLOOR = 1e-12  # dB^2; keeps sigma_z = 0 arithmetic finite


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


@dataclass(frozen=True)
class GridSpec:
    """Uniform per-material grid step; bounds come from the priors."""

    step: float = 0.05

    def __post_init__(self):
        if not (math.isfinite(self.step) and self.step > 0):
            raise ValidationError(f"grid step={self.step} must be finite and > 0")


def grid_axes(scenario: Scenario, grid: GridSpec) -> list[np.ndarray]:
    """One node axis per material; ValidationError naming grid_step, before
    any axis is built, when the grid would have more than GRID_GUARD nodes."""
    lo, hi = scenario.prior_bounds()
    counts = np.floor((hi - lo) / grid.step + 1e-9) + 1
    size = math.prod(counts.tolist())
    if size > GRID_GUARD:
        raise ValidationError(f"grid_step={grid.step}: grid has {size:.0f} nodes (> {GRID_GUARD})")
    return [lo[m] + grid.step * np.arange(int(count)) for m, count in enumerate(counts)]


def _bounce_patterns(table: RayTable):
    """The table's bounced rays grouped by their bounce materials: per
    pattern, (the materials in bounce order, the rays' slots flat over the
    (R, L) friis, a contiguous row of cos per bounce: column views slow the
    scan). Rays without a bounce appear in none."""
    if not table.groups:
        return []
    materials = np.full((table.n_bounces, table.friis.size), -1)
    cos = np.empty(materials.shape)
    for m, slots, c in table.groups:
        materials.reshape(-1)[slots] = m
        cos.reshape(-1)[slots] = c
    patterns, which = np.unique(materials.T, axis=0, return_inverse=True)
    which = which.reshape(-1)
    out = []
    for p, pattern in enumerate(patterns):
        k = np.count_nonzero(pattern >= 0)  # a ray's bounces fill the first k
        if k:
            slots = np.flatnonzero(which == p)
            out.append((tuple(pattern[:k].tolist()), slots, cos[:k, slots]))
    return out


def _grid_ssr(table: RayTable, axes, y) -> np.ndarray:
    """Sum of squared dB residuals at every node of the Cartesian grid over
    axes, shaped like the grid; +inf at a node that leaves some link's total
    gain below GAIN_FLOOR. Ray gains are table.friis times their bounces.

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
    patterns = _bounce_patterns(table)
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
    when every node is. ValidationError as log_posterior raises it. The scan
    runs over ray_cache.table, the table a traced scenario's rays build once.
    """
    y = _checked_levels(y, sigma_z, len(ray_cache))
    axes = grid_axes(scenario, grid)
    ssr = _grid_ssr(ray_cache.table, axes, y)
    best = np.unravel_index(np.argmin(ssr), ssr.shape)  # first = lexicographically smallest
    if ssr[best] == math.inf:
        raise UnusableLinkError(
            f"every grid node leaves a link's total linear gain below {GAIN_FLOOR:g}"
        )
    return np.array([ax[i] for ax, i in zip(axes, best)])
