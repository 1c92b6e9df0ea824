"""Per-ray gains, dB link gains, the full forward map, and its linearization.

The per-ray power gain is Friis spreading times the product of power
reflection coefficients over the ray's bounces,

    g = (lambda / (4 pi d))^2 * prod_b |Gamma(eps_b, theta_b)|^2 ,

and a link's gain in dB is the energy superposition over its rays,

    gain_db = 10 log10( sum_j g_j ).

Permittivities are plain float vectors ordered by material index (entry m
is material m+1). The linearization at a point x is the pair (A, mu) with
A the Jacobian d gain_db / d eps and mu = gain(x) - A x, so the affine
surrogate is gain(x') ~= A x' + mu.

Reflections are lossless-dielectric Fresnel with a scenario-wide
polarization (TE by default), which each ray table carries:

    Gamma_TE = (cos t - sqrt(eps - sin^2 t)) / (cos t + sqrt(eps - sin^2 t))
    Gamma_TM = (eps cos t - sqrt(eps - sin^2 t)) / (eps cos t + sqrt(eps - sin^2 t))

All gains go through one fold and ray sum, summed_gains: link_totals and
jacobian feed it Fresnel values per permittivity vector. Its scalar
reference, one ray at a time, is tests/scalar_forward.py. The grid oracle
folds the same factors in the same order without the padding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import UnusableLinkError
from .scenario import Scenario

GAIN_FLOOR = 1e-30          # linear; below this a link is unusable at that eps
DB_PER_LN = 10.0 / math.log(10.0)


def _fresnel(eps, c, polarization: str):
    """(Gamma, s = sqrt(eps - sin^2), denominator) elementwise over arrays of
    eps and c = cos(theta), as _fresnel_slope takes them; no domain checks."""
    # eps - sin^2 = (eps - 1) + cos^2: exact at eps = 1, no cancellation
    s = np.sqrt((eps - 1.0) + c * c)
    if polarization == "TE":
        num, den = c - s, c + s
    elif polarization == "TM":
        num, den = eps * c - s, eps * c + s
    else:
        raise ValueError(f"polarization={polarization!r} not in ('TE', 'TM')")
    # Vacuum reflects nothing: at eps = 1, s = sqrt(c * c) == c exactly in
    # binary floating point, so num, Gamma and the slope are exactly 0.
    return num / den, s, den


def _fresnel_slope(eps, c, polarization: str, gamma, s, den):
    """d|Gamma|^2 / d eps from _fresnel's (Gamma, s, den) at the same eps, c."""
    # chain rule through sqrt(eps - sin^2); eps - 2 sin^2 = (eps - 2) + 2 cos^2;
    # float_power is libm pow for scalars and arrays alike (** squares arrays)
    if polarization == "TE":
        dgamma = -c / (s * np.float_power(den, 2))
    else:
        dgamma = c * ((eps - 2.0) + 2.0 * c * c) / (s * np.float_power(den, 2))
    return 2.0 * gamma * dgamma


class RayTable(NamedTuple):
    """Rays padded to (bounces K, rays R, links L) slots, at the wavelength
    (in friis) and polarization every kernel evaluates: padding rays have
    Friis factor 0 and padding bounces |Gamma|^2 = 1, exact in the products
    and sums. groups holds, per material m, the flat slots of its bounces
    in (link, ray, bounce) order and their cos(incidence), from math.cos."""

    friis: np.ndarray      # (R, L)
    n_bounces: int         # K
    groups: tuple[tuple[int, np.ndarray, np.ndarray], ...]  # (m, slots, cos)
    polarization: str      # "TE" or "TM"


def ray_table(rays, wavelength_m: float, polarization: str) -> RayTable:
    """The table of a traced scenario's rays at wavelength_m under
    polarization. rays has len() links and, one row per ray in (link, ray)
    order, the columns link, length, materials (bounce material indices, -1
    past the last bounce) and angles (see raytracer.Rays)."""
    n_links = len(rays)
    per_link = np.bincount(rays.link, minlength=n_links)
    n_rays = int(per_link.max(initial=0))
    j = np.arange(len(rays.link)) - np.repeat(np.cumsum(per_link) - per_link, per_link)
    friis = np.zeros((n_rays, n_links))
    # float_power is libm pow, as Python's ** on a float is (** squares arrays)
    friis[j, rays.link] = np.float_power(wavelength_m / (4.0 * math.pi * rays.length), 2)
    bounce = rays.materials >= 0
    r, b = np.nonzero(bounce)  # in (link, ray, bounce) order
    slots = (b * n_rays + j[r]) * n_links + rays.link[r]
    mats = rays.materials[r, b] - 1
    cos = np.array(list(map(math.cos, rays.angles[r, b].tolist())))
    groups = tuple((m, slots[mats == m], cos[mats == m])
                   for m in np.flatnonzero(np.bincount(mats)).tolist())
    return RayTable(friis, int(np.count_nonzero(bounce, axis=1).max(initial=0)), groups,
                    polarization)


def _coefficients(table: RayTable, eps: np.ndarray):
    """Bounce coefficients |Gamma|^2 (B, K, R, L) at eps (B, M), 1.0 in
    the padding slots, and _fresnel's (Gamma, s, den) per table group."""
    if not ((eps >= 1.0) & (eps < math.inf)).all():
        raise ValueError(f"eps={eps} must be finite and >= 1 (passive dielectric)")
    if table.groups and table.groups[-1][0] >= eps.shape[-1]:
        raise ValueError(f"eps={eps} has no permittivity for material {table.groups[-1][0] + 1}")
    coeff = np.ones((len(eps), table.n_bounces) + table.friis.shape)
    cores = [_fresnel(eps[:, m, None], cos, table.polarization) for m, _, cos in table.groups]
    for (_, slots, _), (gamma, _, _) in zip(table.groups, cores):
        coeff.reshape(len(eps), -1)[:, slots] = gamma * gamma
    return coeff, cores


def summed_gains(friis, coeff) -> np.ndarray:
    """Per-link sums (B, L) over rays, in ray order, of the ray gains friis
    (R, L) times the bounce coefficients coeff (B, K, R, L), folded into
    friis left to right, bounce by bounce."""
    g = friis
    for b in range(coeff.shape[1]):
        g = g * coeff[:, b]
    total = np.zeros((len(coeff), friis.shape[1]))
    for j in range(friis.shape[0]):
        total += g[..., j, :]
    return total


def link_totals(table: RayTable, eps) -> np.ndarray:
    """Summed linear gains (B, L) of every link at a batch of permittivity
    vectors eps (B, M)."""
    coeff, _ = _coefficients(table, np.asarray(eps, dtype=float))
    return summed_gains(table.friis, coeff)


def _checked_db(total: np.ndarray, eps: np.ndarray) -> np.ndarray:
    """10 log10 (math.log10) of link totals (B, L) at eps (B, M); raises
    naming a link below the floor."""
    low = total < GAIN_FLOOR
    if low.any():
        b, n = np.argwhere(low)[0]
        raise UnusableLinkError(
            f"link {n}: total linear gain {total[b, n]:.3e} below floor at eps={eps[b]}", int(n)
        )
    return (10.0 * np.array(list(map(math.log10, total.ravel().tolist())))).reshape(total.shape)


def gains_db(table: RayTable, eps) -> np.ndarray:
    """Per-link dB gains at one eps (M,) or a batch (B, M); raises naming
    a link below the floor."""
    eps = np.asarray(eps, dtype=float)
    batch = np.atleast_2d(eps)
    db = _checked_db(link_totals(table, batch), batch)
    return db if eps.ndim == 2 else db[0]


def forward(scenario: Scenario, ray_cache, eps) -> np.ndarray:
    """dB link gains for every link at one permittivity vector eps (M,),
    or at each row of a batch (B, M): gains_db on a table of ray_cache, a
    traced scenario's rays."""
    if np.shape(eps)[-1:] != (scenario.n_materials,):
        raise ValueError(f"eps={eps} must hold one permittivity per material, "
                         f"{scenario.n_materials}")
    return gains_db(ray_table(ray_cache, scenario.wavelength_m, scenario.polarization), eps)


@dataclass(frozen=True)
class Linearization:
    """Affine surrogates of the forward map at a batch of B expansion points
    x_b: gain(x'_b) ~= a_matrix[b] @ x'_b + mu[b], with gains[b] = gain(x_b)
    exactly, the gains_db bits the surrogate is anchored to."""

    a_matrix: np.ndarray     # (B, N, M), dB per unit permittivity
    mu: np.ndarray           # (B, N), dB
    gains: np.ndarray        # (B, N), dB


def jacobian(table: RayTable, eps) -> Linearization:
    """Linearizations (A, mu) of the forward map at each row of eps (B, M),
    and the gains there, the Fresnel products differentiated in closed form
    over a prebuilt ray table, from one array of bounce coefficients.

    The gains fold each ray's bounces left to right, as gains_db does. A
    divides by friis x (product of the bounces), grouped like the
    derivative terms friis x (product of the other bounces) x d|Gamma|^2;
    those come from prefix and suffix products, never g / Gamma, so
    Gamma = 0 (eps = 1, Brewster) stays exact.
    """
    eps = np.asarray(eps, dtype=float)
    coeff, cores = _coefficients(table, eps)
    g0 = _checked_db(summed_gains(table.friis, coeff), eps)  # names an unusable link
    total = summed_gains(table.friis, np.prod(coeff, axis=1, keepdims=True))
    prefix, suffix = np.ones(coeff.shape), np.ones(coeff.shape)
    for b in range(1, table.n_bounces):
        prefix[:, b] = prefix[:, b - 1] * coeff[:, b - 1]
        suffix[:, -1 - b] = coeff[:, -b] * suffix[:, -b]
    others = (table.friis * (prefix * suffix)).reshape(len(eps), -1)
    dtotal = np.zeros(total.shape + eps.shape[1:])
    n_links = total.shape[1]
    for (m, slots, cos), core in zip(table.groups, cores):
        d = _fresnel_slope(eps[:, m, None], cos, table.polarization, *core)
        # bincount sums in input order: each link's sum runs over (ray, bounce)
        bins = (np.arange(len(eps))[:, None] * n_links + slots % n_links).ravel()
        dtotal[..., m] = np.bincount(
            bins, (others[:, slots] * d).ravel(), minlength=total.size
        ).reshape(total.shape)
    a = DB_PER_LN * dtotal / total[..., None]
    return Linearization(a_matrix=a, mu=g0 - (a @ eps[..., None])[..., 0], gains=g0)
