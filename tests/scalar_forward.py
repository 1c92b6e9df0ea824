"""Scalar forward-model references: what the array kernels are checked against.

fresnel_power_coeff evaluates |Gamma|^2 of one bounce with the forward
model's own reflection core, and ray_gain_linear folds one ray's Friis
factor and its bounces left to right, as permgamp.forward_model.link_totals
must, bit for bit. fd_jacobian differentiates gains_db by central
differences over a ray table: the cross-check of the closed-form
permgamp.forward_model.jacobian.
"""

import math

import numpy as np

from permgamp.forward_model import RayTable, _fresnel, gains_db
from permgamp.raytracer import Ray


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
