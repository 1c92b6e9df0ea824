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
polarization (TE by default):

    Gamma_TE = (cos t - sqrt(eps - sin^2 t)) / (cos t + sqrt(eps - sin^2 t))
    Gamma_TM = (eps cos t - sqrt(eps - sin^2 t)) / (eps cos t + sqrt(eps - sin^2 t))

All gains go through one fold and ray sum, summed_gains: link_totals feeds it
Fresnel values per permittivity vector, the grid oracle per-axis tables;
ray_gain_linear is its reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import UnusableLinkError
from .raytracer import Ray
from .scenario import Scenario

GAIN_FLOOR = 1e-30          # linear; below this a link is unusable at that eps
DB_PER_LN = 10.0 / math.log(10.0)


def _fresnel(eps, c, polarization: str, deriv: bool = False):
    """|Gamma|^2, or with deriv=True d|Gamma|^2 / d eps, elementwise over
    arrays of eps and c = cos(theta); no domain checks."""
    # eps - sin^2 = (eps - 1) + cos^2: exact at eps = 1, no cancellation
    s = np.sqrt((eps - 1.0) + c * c)
    if polarization == "TE":
        num, den = c - s, c + s
    elif polarization == "TM":
        num, den = eps * c - s, eps * c + s
    else:
        raise ValueError(f"polarization={polarization!r} not in ('TE', 'TM')")
    # Vacuum reflects nothing: at eps = 1, s = sqrt(c * c) == c exactly in
    # binary floating point, so num, Gamma and the derivative are exactly 0.
    gamma = num / den
    if not deriv:
        return gamma * gamma
    # chain rule through sqrt(eps - sin^2); eps - 2 sin^2 = (eps - 2) + 2 cos^2;
    # float_power is libm pow for scalars and arrays alike (** squares arrays)
    if polarization == "TE":
        dgamma = -c / (s * np.float_power(den, 2))
    else:
        dgamma = c * ((eps - 2.0) + 2.0 * c * c) / (s * np.float_power(den, 2))
    return 2.0 * gamma * dgamma


def _checked_fresnel(eps, theta, polarization: str, deriv: bool):
    eps = np.asarray(eps, dtype=float)
    if np.any(eps < 1.0):
        raise ValueError(f"eps={eps} below 1 (passive dielectric)")
    if not 0.0 <= theta < math.pi / 2.0:
        raise ValueError(f"theta={theta} outside [0, pi/2)")
    out = _fresnel(eps, math.cos(theta), polarization, deriv)
    return out if out.ndim else float(out)


def fresnel_power_coeff(eps, theta, polarization: str = "TE"):
    """Power reflection coefficient |Gamma|^2; accepts scalars or arrays."""
    return _checked_fresnel(eps, theta, polarization, deriv=False)


def fresnel_power_coeff_deriv(eps, theta, polarization: str = "TE"):
    """d|Gamma|^2 / d eps, closed form; accepts scalars or arrays."""
    return _checked_fresnel(eps, theta, polarization, deriv=True)


def ray_gain_linear(ray: Ray, eps, wavelength_m: float, polarization: str = "TE"):
    """Linear power gain of one ray; LOS has an empty reflection product."""
    eps = np.asarray(eps, dtype=float)
    g = (wavelength_m / (4.0 * math.pi * ray.total_length_m)) ** 2
    for ref in ray.reflections:
        g = g * fresnel_power_coeff(
            eps[ref.material_index - 1], ref.incidence_angle, polarization
        )
    return g


class RayTable(NamedTuple):
    """Rays padded to (bounces K, rays R, links L) slots: padding rays have
    Friis factor 0 and padding bounces |Gamma|^2 = 1, exact in the products
    and sums. groups holds, per material m, the flat slots of its bounces
    in (link, ray, bounce) order and their cos(incidence), from math.cos."""

    friis: np.ndarray      # (R, L)
    n_bounces: int         # K
    groups: tuple[tuple[int, np.ndarray, np.ndarray], ...]  # (m, slots, cos)


def ray_table(ray_cache, wavelength_m: float) -> RayTable:
    n_rays = max(map(len, ray_cache), default=0)
    n_bounces = max((r.n_bounces for rays in ray_cache for r in rays), default=0)
    friis = np.zeros((n_rays, len(ray_cache)))
    groups: dict[int, tuple[list, list]] = {}
    for n, rays in enumerate(ray_cache):
        for j, ray in enumerate(rays):
            friis[j, n] = (wavelength_m / (4.0 * math.pi * ray.total_length_m)) ** 2
            for b, ref in enumerate(ray.reflections):
                slots, cos = groups.setdefault(ref.material_index - 1, ([], []))
                slots.append((b * n_rays + j) * len(ray_cache) + n)
                cos.append(math.cos(ref.incidence_angle))
    return RayTable(friis, n_bounces, tuple(
        (m, np.array(slots, np.intp), np.array(cos))
        for m, (slots, cos) in sorted(groups.items())
    ))


def summed_gains(friis, coeff, fold: bool = True) -> np.ndarray:
    """Per-link sums (B, L) over rays, in ray order, of the ray gains friis
    (R, L) times the bounce coefficients coeff (B, K, R, L): folded into
    friis left to right, as ray_gain_linear does, or with fold=False friis x
    (product of the bounces), grouped like link_totals' derivative terms."""
    if fold:
        g = friis
        for b in range(coeff.shape[1]):
            g = g * coeff[:, b]
    else:
        g = friis * np.prod(coeff, axis=1)
    total = np.zeros((len(coeff), friis.shape[1]))
    for j in range(friis.shape[0]):
        total += g[..., j, :]
    return total


def link_totals(table: RayTable, eps, polarization: str, deriv: bool = False):
    """Summed linear gains (B, L) of every link at a batch of permittivity
    vectors eps (B, M); with deriv=True also their derivatives (B, L, M).

    Sums run over rays in ray order. Without deriv each ray's gain folds its
    bounces into friis left to right, as ray_gain_linear does, so totals are
    bit-identical to summing it. With deriv a ray's gain is friis x (product
    of its bounces), grouped like its derivative terms friis x (product of
    the other bounces) x d|Gamma|^2; those come from prefix and suffix
    products, never g / Gamma, so Gamma = 0 (eps = 1, Brewster) stays exact.
    """
    eps = np.asarray(eps, dtype=float)
    if (eps < 1.0).any():
        raise ValueError(f"eps={eps} below 1 (passive dielectric)")
    shape = (len(eps), table.n_bounces) + table.friis.shape    # (B, K, R, L)
    coeff = np.ones(shape)
    for m, slots, cos in table.groups:
        c = _fresnel(eps[:, m, None], cos, polarization)
        coeff.reshape(len(eps), -1)[:, slots] = c
    total = summed_gains(table.friis, coeff, fold=not deriv)
    if not deriv:
        return total
    prefix, suffix = np.ones(shape), np.ones(shape)
    for b in range(1, table.n_bounces):
        prefix[:, b] = prefix[:, b - 1] * coeff[:, b - 1]
        suffix[:, -1 - b] = coeff[:, -b] * suffix[:, -b]
    others = (table.friis * (prefix * suffix)).reshape(len(eps), -1)
    dtotal = np.zeros(total.shape + eps.shape[1:])
    for m, slots, cos in table.groups:
        d = _fresnel(eps[:, m, None], cos, polarization, deriv=True)
        # unbuffered, in slot order: each link's sum runs over (ray, bounce)
        np.add.at(dtotal[..., m], (slice(None), slots % shape[3]), others[:, slots] * d)
    return total, dtotal


def gains_db(table: RayTable, eps, polarization: str) -> np.ndarray:
    """Per-link 10 log10 (math.log10) at one eps (M,) or a batch (B, M);
    raises naming a link below the floor."""
    eps = np.asarray(eps, dtype=float)
    batch = np.atleast_2d(eps)
    total = link_totals(table, batch, polarization)
    low = total < GAIN_FLOOR
    if low.any():
        b, n = np.argwhere(low)[0]
        raise UnusableLinkError(
            f"link {n}: total linear gain {total[b, n]:.3e} below floor "
            f"at eps={batch[b]}"
        )
    db = np.array([10.0 * math.log10(t) for t in total.ravel().tolist()]).reshape(total.shape)
    return db if eps.ndim == 2 else db[0]


def link_gain_db(rays, eps, wavelength_m: float, polarization: str = "TE") -> float:
    """10 log10 of the summed linear ray gains (energy superposition)."""
    return float(gains_db(ray_table([rays], wavelength_m), eps, polarization)[0])


def forward(scenario: Scenario, ray_cache, eps) -> np.ndarray:
    """dB link gains for every link at one permittivity vector eps (M,),
    or at each row of a batch (B, M): gains_db on a table of ray_cache."""
    return gains_db(ray_table(ray_cache, scenario.wavelength_m), eps, scenario.polarization)


@dataclass(frozen=True)
class Linearization:
    """Affine surrogates of the forward map at a batch of B points:
    gain(x_b) ~= a_matrix[b] @ x_b + mu[b]."""

    a_matrix: np.ndarray     # (B, N, M), dB per unit permittivity
    mu: np.ndarray           # (B, N), dB


def jacobian(scenario: Scenario, table: RayTable, eps) -> Linearization:
    """Linearizations (A, mu) of the forward map at each row of eps (B, M),
    the Fresnel products differentiated in closed form over a prebuilt
    ray table."""
    eps = np.asarray(eps, dtype=float)
    pol = scenario.polarization
    g0 = gains_db(table, eps, pol)  # names the link if one is unusable
    total, dtotal = link_totals(table, eps, pol, True)
    a = DB_PER_LN * dtotal / total[..., None]
    return Linearization(a_matrix=a, mu=g0 - (a @ eps[..., None])[..., 0])
