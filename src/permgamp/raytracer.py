"""Image-method ray enumeration over 2D segment geometry.

For every link the tracer returns the line-of-sight ray (when unobstructed)
plus every specular reflection path of order <= max_reflections. A k-bounce
candidate for the ordered surface sequence (s1..sk) is built by mirroring
the TX image across s1..sk; the path exists iff walking back from the RX
through the image chain yields bounce points inside each finite segment,
and no leg of the resulting polyline is blocked by another surface.

Grazing hits (incidence within 1e-9 rad of pi/2) and bounce points outside
the finite segments are discarded; there is no diffraction model.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from itertools import product

from .errors import UnusableLinkError
from .scenario import Point, Scenario, Surface

GEOM_EPS = 1e-9        # meters; endpoint tolerance for occlusion tests
GRAZING_EPS = 1e-9     # radians; discard incidence >= pi/2 - GRAZING_EPS


@dataclass(frozen=True)
class Reflection:
    material_index: int
    incidence_angle: float  # radians from the surface normal, [0, pi/2)


@dataclass(frozen=True)
class Ray:
    """One propagation path; empty reflections means line of sight."""

    total_length_m: float
    reflections: tuple[Reflection, ...] = ()
    points: tuple[Point, ...] = field(default=(), compare=False)  # bounce points

    @property
    def n_bounces(self) -> int:
        return len(self.reflections)


# -- planar geometry helpers -------------------------------------------------

def _sub(a: Point, b: Point) -> Point:
    return (a[0] - b[0], a[1] - b[1])


def _dot(a: Point, b: Point) -> float:
    return a[0] * b[0] + a[1] * b[1]


def _cross(a: Point, b: Point) -> float:
    return a[0] * b[1] - a[1] * b[0]


def _mirror(p: Point, s: Surface) -> Point:
    """Reflect p across the infinite line through s."""
    a, b = s.endpoint_a, s.endpoint_b
    d = _sub(b, a)
    t = _dot(_sub(p, a), d) / _dot(d, d)
    foot = (a[0] + t * d[0], a[1] + t * d[1])
    return (2.0 * foot[0] - p[0], 2.0 * foot[1] - p[1])


def _unit_normal(s: Surface) -> Point:
    d = _sub(s.endpoint_b, s.endpoint_a)
    n = (-d[1], d[0])
    ln = math.hypot(*n)
    return (n[0] / ln, n[1] / ln)


def _line_hit(p: Point, q: Point, s: Surface):
    """Intersection of segment p->q with the line through s.

    Returns (t, u, point) with t the parameter along p->q and u along the
    surface, or None for (near-)parallel lines.
    """
    r = _sub(q, p)
    d = _sub(s.endpoint_b, s.endpoint_a)
    denom = _cross(r, d)
    if abs(denom) < 1e-15:
        return None
    ap = _sub(s.endpoint_a, p)
    t = _cross(ap, d) / denom
    u = _cross(ap, r) / denom
    point = (p[0] + t * r[0], p[1] + t * r[1])
    return t, u, point


def _segment_blocked(p: Point, q: Point, surfaces, skip=()) -> bool:
    """True if any surface crosses the open segment p->q.

    Hits within GEOM_EPS meters of either endpoint do not count, so a leg
    that starts or ends on its own reflecting surface is not self-blocked.
    Surfaces listed in skip are ignored outright.
    """
    leg = math.dist(p, q)
    if leg <= GEOM_EPS:
        return False
    t_eps = GEOM_EPS / leg
    for idx, s in enumerate(surfaces):
        if idx in skip:
            continue
        hit = _line_hit(p, q, s)
        if hit is None:
            continue
        t, u, _ = hit
        if t_eps < t < 1.0 - t_eps and 0.0 <= u <= 1.0:
            return True
    return False


# -- tracing -----------------------------------------------------------------

def _sequences(n_surfaces: int, max_order: int):
    """Ordered surface-index sequences without immediate repeats."""
    for order in range(1, max_order + 1):
        for seq in product(range(n_surfaces), repeat=order):
            if any(seq[i] == seq[i + 1] for i in range(order - 1)):
                continue
            yield seq


def _build_reflected_ray(scenario: Scenario, tx: Point, rx: Point, seq):
    surfaces = scenario.surfaces
    # Chain of TX images: images[j] is TX mirrored across seq[0..j-1].
    images = [tx]
    for si in seq:
        images.append(_mirror(images[-1], surfaces[si]))

    # Walk back from RX: bounce point on seq[j] comes from the segment
    # images[j] -> next point.
    nxt = rx
    bounce_pts: list[Point] = []
    for j in range(len(seq) - 1, -1, -1):
        s = surfaces[seq[j]]
        hit = _line_hit(images[j + 1], nxt, s)
        if hit is None:
            return None
        t, u, point = hit
        if not (0.0 < t < 1.0):
            return None
        seg_len = math.dist(s.endpoint_a, s.endpoint_b)
        u_eps = GEOM_EPS / seg_len
        if not (u_eps <= u <= 1.0 - u_eps):
            return None  # bounce falls off the finite segment
        bounce_pts.append(point)
        nxt = point
    bounce_pts.reverse()

    # Occlusion and incidence angles along TX -> bounces -> RX.
    path = [tx, *bounce_pts, rx]
    reflections = []
    for j, si in enumerate(seq):
        p_in, p_at = path[j], path[j + 1]
        leg = math.dist(p_in, p_at)
        if leg <= GEOM_EPS:
            return None
        d = ((p_at[0] - p_in[0]) / leg, (p_at[1] - p_in[1]) / leg)
        n = _unit_normal(surfaces[si])
        cos_inc = min(1.0, abs(_dot(d, n)))
        theta = math.acos(cos_inc)
        if theta >= math.pi / 2.0 - GRAZING_EPS:
            return None
        reflections.append(
            Reflection(
                material_index=surfaces[si].material_index,
                incidence_angle=theta,
            )
        )
    for j in range(len(path) - 1):
        incident = set()
        if j > 0:
            incident.add(seq[j - 1])
        if j < len(seq):
            incident.add(seq[j])
        if _segment_blocked(path[j], path[j + 1], surfaces, skip=incident):
            return None

    total = math.dist(images[-1], rx)  # image-method length law
    return Ray(
        total_length_m=total,
        reflections=tuple(reflections),
        points=tuple(bounce_pts),
    )


def trace_link(scenario: Scenario, link_index: int) -> list[Ray]:
    """All unblocked rays for one link, sorted by length (LOS first).

    Raises UnusableLinkError when no ray survives; the solver cannot use
    such a link and callers are expected to drop it.
    """
    link = scenario.links[link_index]
    tx, rx = link.tx_pos, link.rx_pos
    rays: list[Ray] = []

    if not _segment_blocked(tx, rx, scenario.surfaces):
        rays.append(Ray(total_length_m=math.dist(tx, rx)))

    for seq in _sequences(len(scenario.surfaces), scenario.max_reflections):
        ray = _build_reflected_ray(scenario, tx, rx, seq)
        if ray is not None:
            rays.append(ray)

    if not rays:
        raise UnusableLinkError(f"link {link_index}: no unblocked ray")
    rays.sort(
        key=lambda r: (
            r.total_length_m,
            r.n_bounces,
            tuple(ref.material_index for ref in r.reflections),
        )
    )
    return rays


def trace_scenario(scenario: Scenario) -> list[list[Ray]]:
    """Ray lists for every link; propagates UnusableLinkError with index."""
    return [trace_link(scenario, n) for n in range(scenario.n_links)]


def rays_to_csv(ray_cache: list[list[Ray]], fh) -> None:
    """Debug dump: one row per ray (link, ray, length, bounces, materials, angles)."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["link", "ray", "length_m", "n_bounces", "materials", "angles_rad"])
    for n, rays in enumerate(ray_cache):
        for j, ray in enumerate(rays):
            writer.writerow(
                [
                    n,
                    j,
                    repr(ray.total_length_m),
                    ray.n_bounces,
                    ";".join(str(r.material_index) for r in ray.reflections),
                    ";".join(repr(r.incidence_angle) for r in ray.reflections),
                ]
            )
