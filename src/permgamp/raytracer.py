"""Image-method ray enumeration over 2D segment geometry.

For every link the tracer returns the line-of-sight ray (when unobstructed)
plus every specular reflection path of order <= max_reflections. A k-bounce
candidate for the ordered surface sequence (s1..sk) is built by mirroring
the TX image across s1..sk; the path exists iff walking back from the RX
through the image chain yields bounce points inside each finite segment,
and no leg of the resulting polyline is blocked by another surface. The
images form a tree, so each is mirrored once and shared by every sequence
it prefixes. Points are complex numbers inside the tracer; Ray.points are
(x, y) tuples.

Grazing hits (incidence within 1e-9 rad of pi/2) and bounce points outside
the finite segments are discarded; there is no diffraction model.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

from .errors import UnusableLinkError
from .scenario import Point, Scenario

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


# -- planar geometry on complex points ---------------------------------------
# For complex a and b, conj(a) * b has real part dot(a, b) and imaginary part
# cross(a, b). Lengths use math.hypot on the parts, which rounds as math.dist
# does; abs(z) differs from it in the last bit on some points.

def _length(z: complex) -> float:
    return math.hypot(z.real, z.imag)


def _line_hit(p: complex, q: complex, a: complex, b: complex):
    """Intersection of segment p->q with the line through a->b.

    Returns (t, u, point) with t the parameter along p->q and u along a->b,
    or None for (near-)parallel lines.
    """
    r = q - p
    d = b - a
    denom = (r.conjugate() * d).imag
    if abs(denom) < 1e-15:
        return None
    ap = (a - p).conjugate()
    t = (ap * d).imag / denom
    u = (ap * r).imag / denom
    return t, u, p + t * r


def _segment_blocked(p: complex, q: complex, walls, skip=()) -> bool:
    """True if any wall (a, b) crosses the open segment p->q.

    Hits within GEOM_EPS meters of either endpoint do not count, so a leg
    that starts or ends on its own reflecting surface is not self-blocked.
    Walls listed in skip are ignored outright.
    """
    leg = _length(q - p)
    if leg <= GEOM_EPS:
        return False
    t_eps = GEOM_EPS / leg
    for idx, (a, b) in enumerate(walls):
        if idx in skip:
            continue
        hit = _line_hit(p, q, a, b)
        if hit is None:
            continue
        t, u, _ = hit
        if t_eps < t < 1.0 - t_eps and 0.0 <= u <= 1.0:
            return True
    return False


# -- tracing -----------------------------------------------------------------

def _image_chains(walls, seq, images, max_order: int):
    """Depth-first (sequence, images) for every wall-index sequence that
    extends seq up to max_order without immediate repeats, each order in
    lexicographic order; images[j] is images[0] mirrored across
    sequence[0..j-1], and each prefix's image is mirrored once."""
    if len(seq) >= max_order:
        return
    p = images[-1]
    for si, (a, b) in enumerate(walls):
        if seq and si == seq[-1]:
            continue
        d = b - a
        t = (d.conjugate() * (p - a)).real / (d.conjugate() * d).real
        chain = (*images, 2.0 * (a + t * d) - p)  # p mirrored across the line
        yield (*seq, si), chain
        yield from _image_chains(walls, (*seq, si), chain, max_order)


def _build_reflected_ray(scenario: Scenario, walls, rx: complex, seq, images):
    # Walk back from RX: bounce point on seq[j] comes from the segment
    # images[j + 1] -> next point.
    nxt = rx
    bounce_pts: list[complex] = []
    for j in range(len(seq) - 1, -1, -1):
        a, b = walls[seq[j]]
        hit = _line_hit(images[j + 1], nxt, a, b)
        if hit is None:
            return None
        t, u, point = hit
        if not (0.0 < t < 1.0):
            return None
        u_eps = GEOM_EPS / _length(b - a)
        if not (u_eps <= u <= 1.0 - u_eps):
            return None  # bounce falls off the finite segment
        bounce_pts.append(point)
        nxt = point
    bounce_pts.reverse()

    # Occlusion and incidence angles along TX -> bounces -> RX.
    path = [images[0], *bounce_pts, rx]
    reflections = []
    for j, si in enumerate(seq):
        v = path[j + 1] - path[j]
        leg = _length(v)
        if leg <= GEOM_EPS:
            return None
        a, b = walls[si]
        n = 1j * (b - a)
        cos_inc = min(1.0, abs(((v / leg).conjugate() * (n / _length(n))).real))
        theta = math.acos(cos_inc)
        if theta >= math.pi / 2.0 - GRAZING_EPS:
            return None
        reflections.append(
            Reflection(
                material_index=scenario.surfaces[si].material_index,
                incidence_angle=theta,
            )
        )
    for j in range(len(path) - 1):
        incident = set()
        if j > 0:
            incident.add(seq[j - 1])
        if j < len(seq):
            incident.add(seq[j])
        if _segment_blocked(path[j], path[j + 1], walls, skip=incident):
            return None

    return Ray(
        total_length_m=_length(rx - images[-1]),  # image-method length law
        reflections=tuple(reflections),
        points=tuple((z.real, z.imag) for z in bounce_pts),
    )


def trace_link(scenario: Scenario, link_index: int) -> list[Ray]:
    """All unblocked rays for one link, sorted by length (LOS first).

    Raises UnusableLinkError when no ray survives; the solver cannot use
    such a link and callers are expected to drop it.
    """
    link = scenario.links[link_index]
    tx, rx = complex(*link.tx_pos), complex(*link.rx_pos)
    walls = [(complex(*s.endpoint_a), complex(*s.endpoint_b)) for s in scenario.surfaces]
    rays: list[Ray] = []

    if not _segment_blocked(tx, rx, walls):
        rays.append(Ray(total_length_m=_length(rx - tx)))

    for seq, images in _image_chains(walls, (), (tx,), scenario.max_reflections):
        ray = _build_reflected_ray(scenario, walls, rx, seq, images)
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
