"""Trace the bundled canyon and look at one link's multipath structure.

Run from the repository root:  python demos/01_rays_and_gains.py
"""

import math
import sys

import numpy as np

from permgamp import (
    bundled_scenario_path,
    forward,
    load_scenario,
    trace_scenario,
)
from permgamp.raytracer import rays_to_csv

sc = load_scenario(bundled_scenario_path("canyon"))
print(f"canyon: {len(sc.surfaces)} walls, {sc.n_materials} materials, "
      f"{sc.n_links} links, lambda = {sc.wavelength_m} m")

# Every link sees the LOS plus up to two bounces per wall ordering. The
# tracer returns every link's rays as columns; indexing one link builds its
# Ray objects.
cache = trace_scenario(sc)
rays = cache[0]
print(f"\nlink 0 rays ({len(rays)}):")
for r in rays:
    mats = [ref.material_index for ref in r.reflections]
    angs = [round(math.degrees(ref.incidence_angle), 1) for ref in r.reflections]
    print(f"  length {r.total_length_m:7.3f} m  bounces {mats}  angles(deg) {angs}")

# Reflection strength rises with permittivity, so the link gain does too.
for eps in (np.array([2.0, 4.0]), np.array([3.0, 6.0]), np.array([8.0, 10.0])):
    g = forward(sc, cache.take([0]), eps)[0]  # the forward map of link 0 alone
    print(f"gain at eps={eps.tolist()}: {g:8.3f} dB")

# TE power reflection coefficient |Gamma|^2 = ((cos t - s) / (cos t + s))^2,
# s = sqrt(eps - sin^2 t)
theta = math.radians(70.0)
cos_t = math.cos(theta)
gammas = []
for e in (2.0, 4.0, 6.0, 9.0):
    s = math.sqrt(e - math.sin(theta) ** 2)
    gammas.append(round(((cos_t - s) / (cos_t + s)) ** 2, 3))
print("\n|Gamma|^2 at 70 deg incidence (TE):", gammas)

# The full forward map is just this, per link.
g = forward(sc, cache, sc.true_eps_vector())
print(f"\nforward map at the true eps: mean {g.mean():.2f} dB, "
      f"spread [{g.min():.2f}, {g.max():.2f}] dB over {len(g)} links")

# Machine-readable dump of the first three links.
print("\nray table (first 3 links):")
rays_to_csv(cache[:3], sys.stdout)
