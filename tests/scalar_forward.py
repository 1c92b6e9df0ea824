"""Scalar forward-model references: what the array kernels are checked against.

fresnel_power_coeff evaluates |Gamma|^2 of one bounce with the forward
model's own reflection core, and ray_gain_linear folds one ray's Friis
factor and its bounces left to right, as permgamp.forward_model.link_totals
must, bit for bit. table_reference lays out per-link Ray lists one ray and
one bounce at a time, as permgamp.forward_model.ray_table must from the
tracer's columns, bit for bit; as_rays gives Ray lists built by hand those
columns. fd_jacobian differentiates gains_db by central differences over a
ray table: the cross-check of the closed-form
permgamp.forward_model.jacobian.
"""

import math

import numpy as np

from permgamp.forward_model import RayTable, _fresnel, gains_db
from permgamp.raytracer import Ray, Rays


def fresnel_power_coeff(eps, theta, polarization: str = "TE"):
    """Power reflection coefficient |Gamma|^2; accepts scalars or arrays."""
    eps = np.asarray(eps, dtype=float)
    if not ((eps >= 1.0) & (eps < math.inf)).all():
        raise ValueError(f"eps={eps} must be finite and >= 1 (passive dielectric)")
    if not 0.0 <= theta < math.pi / 2.0:
        raise ValueError(f"theta={theta} outside [0, pi/2)")
    gamma = _fresnel(eps, math.cos(theta), polarization)[0]
    out = gamma * gamma
    return out if out.ndim else float(out)


def ray_gain_linear(ray: Ray, eps, wavelength_m: float, polarization: str = "TE"):
    """Linear power gain of one ray; LOS has an empty reflection product."""
    eps = np.asarray(eps, dtype=float)
    g = (wavelength_m / (4.0 * math.pi * ray.total_length_m)) ** 2
    for ref in ray.reflections:
        g = g * fresnel_power_coeff(
            eps[ref.material_index - 1], ref.incidence_angle, polarization
        )
    return g


def as_rays(ray_cache, wavelength_m: float, polarization: str) -> Rays:
    """Per-link Ray lists as the tracer's columns, traced at wavelength_m
    under polarization: rows in list order, the bounces padded to the most
    any ray has, and NaN bounce points where a ray has none."""
    rows = [(n, ray) for n, rays in enumerate(ray_cache) for ray in rays]
    k = max((ray.n_bounces for _, ray in rows), default=0)
    materials = np.full((len(rows), k), -1)
    angles = np.zeros((len(rows), k))
    points = np.full((len(rows), k, 2), np.nan)
    for i, (_, ray) in enumerate(rows):
        for b, ref in enumerate(ray.reflections):
            materials[i, b], angles[i, b] = ref.material_index, ref.incidence_angle
        if ray.points:
            points[i, :len(ray.points)] = ray.points
    return Rays(len(ray_cache), np.array([n for n, _ in rows], dtype=int),
                np.array([ray.total_length_m for _, ray in rows], dtype=float),
                materials, angles, points, wavelength_m, polarization)


def table_reference(ray_cache, wavelength_m: float):
    """(friis, n_bounces, groups) of the RayTable of per-link Ray lists at
    wavelength_m: each ray's Friis factor from Python's float **, each
    bounce's cosine from math.cos, and each material's slots in (link, ray,
    bounce) order."""
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
    return friis, n_bounces, tuple(
        (m, np.array(slots, np.intp), np.array(cos)) for m, (slots, cos) in sorted(groups.items())
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
