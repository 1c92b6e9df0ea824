"""Independent ground-truth machinery for tests and acceptance checks.

The exact log-posterior of the estimation problem, a brute-force grid
argmax over the prior box (Fresnel tabulated once per axis node, folded and
summed over rays by the forward model), a central-difference Jacobian of
the forward map, and adaptive-quadrature moments of the truncated-Gaussian
input channel. The iterative solver never imports this module (and this
module never imports the solver), so the two sides stay independent.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.integrate import IntegrationWarning, quad

from . import forward_model
from .errors import GridSizeError, UnusableLinkError, ValidationError
from .forward_model import GAIN_FLOOR, RayTable, forward, gains_db, ray_table, summed_gains
from .scenario import Scenario
from .trunc_gauss import Interval

GRID_GUARD = 10_000_000  # max number of grid nodes
GRID_CHUNK_ELEMENTS = 1 << 15  # nodes x bounce slots per kernel call
GRID_TABLE_ELEMENTS = 1 << 20  # axis nodes x bounces of one material per table
SIGMA_VAR_FLOOR = 1e-12  # dB^2; keeps sigma_z = 0 arithmetic finite
QUAD_ABS_TARGET = 1e-11


def log_posterior(scenario: Scenario, ray_cache, y, eps, sigma_z: float) -> float:
    """Log posterior of eps given normalized measurements y, up to a constant.

    Uniform box prior: -inf outside the prior bounds, otherwise the
    Gaussian log-likelihood -sum (y_n - gain_n(eps))^2 / (2 sigma_z^2).
    """
    eps = np.asarray(eps, dtype=float)
    lo, hi = scenario.prior_bounds()
    if np.any(eps < lo) or np.any(eps > hi):
        return -math.inf
    var = max(sigma_z**2, SIGMA_VAR_FLOOR)
    resid = np.asarray(y, dtype=float) - forward(scenario, ray_cache, eps)
    return float(-0.5 * np.dot(resid, resid) / var)


def fd_jacobian(scenario: Scenario, table: RayTable, eps, step: float = 1e-6):
    """Central-difference d gain_db / d eps over a ray table, the cross-check
    of the solver's analytic Jacobian; returns (a_matrix, warnings). A
    central step that would cross the eps = 1 boundary degrades to a
    one-sided difference and is flagged in the warnings."""
    eps = np.asarray(eps, dtype=float)
    pol = scenario.polarization
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
        a[:, m] = (gains_db(table, e_hi, pol) - gains_db(table, e_lo, pol)) / width
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


def _grid_ssr(table: RayTable, axes, y, polarization: str) -> np.ndarray:
    """Sum of squared dB residuals at every node of the Cartesian grid over
    axes, shaped like the grid; +inf at a node that leaves some link's total
    gain below GAIN_FLOOR.

    A bounce's |Gamma|^2 depends only on its own material's axis, so it is
    tabulated once per axis node (the elementwise _fresnel on the same
    floats as at each node, so the same bits) and each chunk of nodes only
    gathers its rows into the bounce slots. An axis whose table would pass
    GRID_TABLE_ELEMENTS is evaluated per chunk instead.
    """
    shape = tuple(map(len, axes))
    size = math.prod(shape)
    slots = max(1, table.friis.size * max(1, table.n_bounces))
    chunk = max(1, GRID_CHUNK_ELEMENTS // slots)  # bounded temporaries, no gains matrix

    def fresnel(m, cos, at):  # (nodes, bounces) at the nodes `at` of axis m
        return forward_model._fresnel(axes[m][at, None], cos, polarization)

    tables = []
    for m, _, cos in table.groups:
        tab = None
        if len(axes[m]) * len(cos) <= GRID_TABLE_ELEMENTS:
            tab = np.empty((len(axes[m]), len(cos)))
            for i in range(0, len(tab), chunk):  # chunk-sized temporaries
                tab[i:i + chunk] = fresnel(m, cos, slice(i, i + chunk))
        tables.append(tab)
    coeff = np.ones((min(chunk, size), table.n_bounces) + table.friis.shape)
    ssr = np.empty(size)
    for start in range(0, size, chunk):
        nodes = np.unravel_index(np.arange(start, min(start + chunk, size)), shape)
        part = coeff[:len(nodes[0])]  # padding slots stay 1.0 across chunks
        for (m, slots_m, cos), tab in zip(table.groups, tables):
            rows = fresnel(m, cos, nodes[m]) if tab is None else tab[nodes[m]]
            part.reshape(len(part), -1)[:, slots_m] = rows
        totals = summed_gains(table.friis, part)
        resid = 10.0 * np.log10(np.maximum(totals, GAIN_FLOOR)) - y
        out = ssr[start:start + len(part)]
        out[:] = np.einsum("ij,ij->i", resid, resid)
        out[(totals < GAIN_FLOOR).any(axis=1)] = math.inf
    return ssr.reshape(shape)


def grid_map(scenario: Scenario, ray_cache, y, sigma_z: float, grid: GridSpec) -> np.ndarray:
    """Exhaustive argmax of the log posterior over the Cartesian prior grid.

    Ties resolve to the lexicographically smallest node (first hit in
    row-major order). sigma_z only scales the posterior, so the argmax is
    returned for any sigma_z >= 0. A node that leaves a link below
    GAIN_FLOOR is excluded, as forward would refuse it; UnusableLinkError
    when every node is.
    """
    axes = grid_axes(scenario, grid)
    table = ray_table(ray_cache, scenario.wavelength_m)
    ssr = _grid_ssr(table, axes, np.asarray(y, dtype=float), scenario.polarization)
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
