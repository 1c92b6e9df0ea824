"""Indoor room scenario for the room-estimate workload.

A 20 x 15 m floor: four outer walls of material 1 and eight interior
partition segments of material 2. The partitions form four walls, each
split by a 1.2 m door gap, which divides the floor into a corridor and
four rooms. Links are drawn from a layout seed; a link is kept only
if it traces to at least one ray, so every emitted link is usable.
"""

from __future__ import annotations

import math

import numpy as np

from permgamp import Link, Material, Scenario, Surface, UnusableLinkError
from permgamp import raytracer

WIDTH_M = 20.0
DEPTH_M = 15.0
WAVELENGTH_M = 0.125
MAX_REFLECTIONS = 3
N_LINKS = 24
MIN_LINK_DIST_M = 3.0
WALL_CLEARANCE_M = 0.25   # endpoints keep this far from every segment
SIGMA_DB = 1.0
LAYOUT_SEED = 1            # link draw used by the room-estimate workload

MATERIALS = (
    Material(index=1, prior_lo=2.0, prior_hi=10.0, true_eps=5.0),   # outer walls
    Material(index=2, prior_lo=1.5, prior_hi=6.0, true_eps=2.5),    # partitions
)

OUTER = (
    ((0.0, 0.0), (WIDTH_M, 0.0)),
    ((WIDTH_M, 0.0), (WIDTH_M, DEPTH_M)),
    ((WIDTH_M, DEPTH_M), (0.0, DEPTH_M)),
    ((0.0, DEPTH_M), (0.0, 0.0)),
)

# Four partition walls, each two segments around a 1.2 m door gap.
PARTITIONS = (
    ((7.0, 0.0), (7.0, 6.0)), ((7.0, 7.2), (7.0, DEPTH_M)),
    ((13.0, 0.0), (13.0, 8.0)), ((13.0, 9.2), (13.0, DEPTH_M)),
    ((0.0, 7.5), (3.0, 7.5)), ((4.2, 7.5), (7.0, 7.5)),
    ((13.0, 6.0), (16.0, 6.0)), ((17.2, 6.0), (WIDTH_M, 6.0)),
)


def room_surfaces() -> tuple[Surface, ...]:
    return tuple(Surface(a, b, 1) for a, b in OUTER) + tuple(
        Surface(a, b, 2) for a, b in PARTITIONS
    )


def _dist_to_segment(p, a, b) -> float:
    ax, ay = a
    dx, dy = b[0] - ax, b[1] - ay
    t = ((p[0] - ax) * dx + (p[1] - ay) * dy) / (dx * dx + dy * dy)
    t = min(1.0, max(0.0, t))
    return math.hypot(p[0] - ax - t * dx, p[1] - ay - t * dy)


def _clear_of_walls(p) -> bool:
    return all(
        _dist_to_segment(p, a, b) >= WALL_CLEARANCE_M for a, b in OUTER + PARTITIONS
    )


def _draw_point(rng: np.random.Generator):
    while True:
        p = (float(rng.uniform(0.0, WIDTH_M)), float(rng.uniform(0.0, DEPTH_M)))
        if _clear_of_walls(p):
            return p


def make_room_scenario(seed: int) -> Scenario:
    """Room with N_LINKS usable links drawn from PCG64(seed).

    Candidate links closer than MIN_LINK_DIST_M, or with no ray that
    survives tracing, are rejected and redrawn.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    surfaces = room_surfaces()
    links: list[Link] = []
    while len(links) < N_LINKS:
        tx = _draw_point(rng)
        rx = _draw_point(rng)
        if math.dist(tx, rx) < MIN_LINK_DIST_M:
            continue
        link = Link(tx_pos=tx, rx_pos=rx, tx_power_dbm=20.0, tx_gain_db=0.0, rx_gain_db=0.0)
        probe = Scenario(
            surfaces=surfaces,
            materials=MATERIALS,
            links=(link,),
            wavelength_m=WAVELENGTH_M,
            max_reflections=MAX_REFLECTIONS,
        )
        try:
            raytracer.trace_link(probe, 0)
        except UnusableLinkError:
            continue
        links.append(link)
    return Scenario(
        surfaces=surfaces,
        materials=MATERIALS,
        links=tuple(links),
        wavelength_m=WAVELENGTH_M,
        max_reflections=MAX_REFLECTIONS,
    )
