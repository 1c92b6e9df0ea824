"""Scalar image-method tracer: the reference the array tracer is checked against.

It tests one wall sequence at a time on Python complex points, with the
formulas the array tracer writes out on (x, y): the walk back from the RX
(walk_back, through _line_hit), the leg lengths and incidence angles
(_build_reflected_ray) and the occlusion test (_segment_blocked).
permgamp.raytracer must return its rays bit for bit, bounce points and
signed zeros included.
"""

import math
from itertools import product

from permgamp.raytracer import GEOM_EPS, GRAZING_EPS, Ray, Reflection


def _length(z: complex) -> float:
    # math.hypot on the parts rounds as math.dist does; abs(z) differs from
    # it in the last bit on some points
    return math.hypot(z.real, z.imag)


def _line_hit(p: complex, q: complex, a: complex, b: complex):
    """Intersection of segment p->q with the line through a->b.

    Returns (t, u, point) with t the parameter along p->q and u along a->b,
    or None for (near-)parallel lines. For complex a and b, conj(a) * b has
    real part dot(a, b) and imaginary part cross(a, b).
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


def _mirror(p: complex, a: complex, b: complex) -> complex:
    """p mirrored across the line through a and b."""
    d = b - a
    t = (d.conjugate() * (p - a)).real / (d.conjugate() * d).real
    return 2.0 * (a + t * d) - p


def image_chain(walls, tx: complex, seq) -> tuple[complex, ...]:
    """images[j] is tx mirrored across walls seq[0..j-1]."""
    images = [tx]
    for si in seq:
        images.append(_mirror(images[-1], *walls[si]))
    return tuple(images)


def walk_back(walls, rx: complex, seq, images):
    """Bounce points of seq, in path order, or None if the walk back from
    RX leaves a finite segment: the bounce point on seq[j] comes from the
    segment images[j + 1] -> next point."""
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
    return bounce_pts[::-1]


def _build_reflected_ray(scenario, walls, rx: complex, seq, images):
    bounce_pts = walk_back(walls, rx, seq, images)
    if bounce_pts is None:
        return None

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


def wall_sequences(n_walls: int, max_order: int) -> list[tuple[int, ...]]:
    """Every wall sequence of order 1..max_order without an immediate
    repeat, in lexicographic order (a prefix before its extensions)."""
    return sorted(
        seq
        for order in range(1, max_order + 1)
        for seq in product(range(n_walls), repeat=order)
        if all(seq[i] != seq[i + 1] for i in range(order - 1))
    )


def trace_link(scenario, link_index: int) -> list[Ray]:
    """All unblocked rays for one link, sorted by length (LOS first); []
    when none survives."""
    link = scenario.links[link_index]
    tx, rx = complex(*link.tx_pos), complex(*link.rx_pos)
    walls = [(complex(*s.endpoint_a), complex(*s.endpoint_b)) for s in scenario.surfaces]
    rays = [] if _segment_blocked(tx, rx, walls) else [Ray(total_length_m=_length(rx - tx))]
    for seq in wall_sequences(len(walls), scenario.max_reflections):
        ray = _build_reflected_ray(scenario, walls, rx, seq, image_chain(walls, tx, seq))
        if ray is not None:
            rays.append(ray)
    rays.sort(
        key=lambda r: (
            r.total_length_m,
            r.n_bounces,
            tuple(ref.material_index for ref in r.reflections),
        )
    )
    return rays
