"""Image-method ray enumeration over 2D segment geometry.

For every link the tracer returns the line-of-sight ray (when unobstructed)
plus every specular reflection path of order <= max_reflections. A k-bounce
candidate for the ordered surface sequence (s1..sk) is built by mirroring
the TX image across s1..sk; the path exists iff walking back from the RX
through the image chain yields bounce points inside each finite segment,
and no leg of the resulting polyline is blocked by another surface.

Candidates are enumerated one reflection order at a time, each order's
images one mirror past its parent order's (the image method of Allen &
Berkley, JASA 1979). An order of VECTOR_MIN_CANDIDATES or more candidates
is first culled in numpy, as beam tracing culls invalid image paths in bulk:
the walk back and the occlusion test run over the whole order at once, with
every bound widened by MARGIN, so the filter drops only candidates the exact
test drops. The survivors, and every candidate of a smaller order, then go
in lexicographic order through the exact scalar test, so the rays, their
order and their tie-breaks do not depend on the filter. Points are complex
numbers in the scalar code; Ray.points are (x, y) tuples.

Grazing hits (incidence within 1e-9 rad of pi/2) and bounce points outside
the finite segments are discarded; there is no diffraction model.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

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


# -- candidates ----------------------------------------------------------------
# A candidate is an ordered wall sequence with no immediate repeat. Order k
# has S * (S - 1) ** (k - 1) of them for S walls, and row r of order k
# extends row r // (S - 1) of order k - 1, so lexicographic order is kept.

# An order of this many candidates or more is prefiltered over arrays: the
# measured break-even against the scalar test is 56-72 candidates.
VECTOR_MIN_CANDIDATES = 64
MARGIN = 1e-6  # widens every prefilter bound past numpy-versus-math rounding
_BLOCK = 1 << 16  # (leg, wall) pairs per occlusion chunk


def _mirror(p: complex, a: complex, b: complex) -> complex:
    """p mirrored across the line through a and b."""
    d = b - a
    t = (d.conjugate() * (p - a)).real / (d.conjugate() * d).real
    return 2.0 * (a + t * d) - p


def _image_chain(walls, tx: complex, seq) -> tuple[complex, ...]:
    """images[j] is tx mirrored across walls seq[0..j-1]."""
    images = [tx]
    for si in seq:
        images.append(_mirror(images[-1], *walls[si]))
    return tuple(images)


def _scalar_chains(walls, tx: complex, max_order: int):
    """(seq, images) for every candidate of order 1..max_order in
    lexicographic order, a prefix before its extensions, with images as in
    _image_chain; each prefix's image is mirrored once."""
    stack = [((), (tx,))]
    while stack:
        seq, images = stack.pop()
        if seq:
            yield seq, images
        if len(seq) < max_order:
            prev = seq[-1] if seq else -1
            for w in range(len(walls) - 1, -1, -1):  # the lowest wall is popped first
                if w != prev:
                    a, b = walls[w]
                    stack.append(((*seq, w), (*images, _mirror(images[-1], a, b))))


def _order_tables(ends: np.ndarray, tx: complex, max_order: int):
    """(seq, images) for each order k = 1..max_order: seq is the (N_k, k)
    table of candidates in lexicographic order and images[r, j] the (x, y)
    of tx mirrored across walls seq[r, :j]; ends rows are (ax, ay, bx, by).

    Row r of order k extends row r // (S - 1) of order k - 1 and mirrors its
    last image once, in the arithmetic of _mirror written out on (x, y), so
    the images equal (==) _image_chain's."""
    n_walls = len(ends)
    seq = np.zeros((1, 0), dtype=np.intp)
    images = np.array([[[tx.real, tx.imag]]])
    for k in range(1, max_order + 1):
        fan_out = n_walls - (k > 1)  # no wall follows itself
        if fan_out * len(seq) == 0:
            return
        c = np.tile(np.arange(fan_out), len(seq))
        seq = np.repeat(seq, fan_out, axis=0)
        images = np.repeat(images, fan_out, axis=0)
        last = c + (c >= seq[:, -1]) if k > 1 else c
        ax, ay, bx, by = ends[last].T
        px, py = images[:, -1, 0], images[:, -1, 1]
        dx, dy = bx - ax, by - ay
        t = ((px - ax) * dx + (py - ay) * dy) / (dx * dx + dy * dy)
        mirrored = np.empty((len(seq), 1, 2))
        mirrored[:, 0, 0] = 2.0 * (ax + t * dx) - px
        mirrored[:, 0, 1] = 2.0 * (ay + t * dy) - py
        seq = np.column_stack([seq, last])
        images = np.concatenate([images, mirrored], axis=1)
        yield seq, images


def _may_reflect(ends: np.ndarray, rx: complex, seq: np.ndarray, images: np.ndarray):
    """Boolean mask over the rows of one order: False only where
    _build_reflected_ray rejects the candidate.

    It repeats the scalar walk back from rx (segment test) and the leg
    occlusion test with the same arithmetic, each bound widened by MARGIN,
    so a rounding difference can only let a candidate through. The walk back
    has no parallel-line cutoff: a leg parallel to its wall gives an inf or
    NaN t, which fails the t bounds, and keeping more is conservative."""
    n, k = seq.shape
    dx_w, dy_w = ends[:, 2] - ends[:, 0], ends[:, 3] - ends[:, 1]
    u_eps_w = GEOM_EPS / np.hypot(dx_w, dy_w)
    live = np.arange(n)
    path = np.empty((n, k + 2, 2))
    path[:, 0] = images[:, 0]
    path[:, k + 1] = rx.real, rx.imag
    for j in range(k - 1, -1, -1):
        w = seq[live, j]
        ax, ay, dx, dy, u_eps = ends[w, 0], ends[w, 1], dx_w[w], dy_w[w], u_eps_w[w]
        px, py = images[live, j + 1, 0], images[live, j + 1, 1]
        rx_, ry_ = path[live, j + 2, 0] - px, path[live, j + 2, 1] - py
        denom = rx_ * dy - ry_ * dx
        apx, apy = ax - px, ay - py
        t = (apx * dy - apy * dx) / denom
        u = (apx * ry_ - apy * rx_) / denom
        path[live, j + 1, 0] = px + t * rx_
        path[live, j + 1, 1] = py + t * ry_
        live = live[(-MARGIN < t) & (t < 1.0 + MARGIN)
                    & (u_eps - MARGIN <= u) & (u <= 1.0 - u_eps + MARGIN)]
    # leg j runs path[j] -> path[j + 1]; its incident walls are
    # seq[j - 1] and seq[j] (-1 where the leg ends at TX or RX)
    none = np.full((len(live), 1), -1)
    before = np.hstack([none, seq[live]]).ravel()
    after = np.hstack([seq[live], none]).ravel()
    p = path[live, :-1].reshape(-1, 2)
    q = path[live, 1:].reshape(-1, 2)
    blocked = _legs_blocked(ends, p, q, before, after).reshape(len(live), k + 1)
    keep = np.zeros(n, dtype=bool)
    keep[live[~blocked.any(axis=1)]] = True
    return keep


def _legs_blocked(ends: np.ndarray, p: np.ndarray, q: np.ndarray, before, after):
    """Per leg p[i] -> q[i]: True where _segment_blocked, skipping walls
    before[i] and after[i], surely returns True (bounds narrowed by MARGIN)."""
    wall_ids = np.arange(len(ends))
    ax, ay, bx, by = ends.T
    dx, dy = bx - ax, by - ay
    d_len = np.hypot(dx, dy)
    blocked = np.zeros(len(p), dtype=bool)
    step = max(1, _BLOCK // max(1, len(ends)))
    for s in range(0, len(p), step):
        px, py = p[s:s + step, :1], p[s:s + step, 1:]
        rx_, ry_ = q[s:s + step, :1] - px, q[s:s + step, 1:] - py
        leg = np.hypot(rx_, ry_)
        denom = rx_ * dy - ry_ * dx
        apx, apy = ax - px, ay - py
        t = (apx * dy - apy * dx) / denom
        u = (apx * ry_ - apy * rx_) / denom
        t_eps = GEOM_EPS / leg
        hit = ((np.abs(denom) >= 1e-15 + MARGIN * leg * d_len)
               & (t_eps + MARGIN < t) & (t < 1.0 - t_eps - MARGIN)
               & (MARGIN <= u) & (u <= 1.0 - MARGIN)
               & (wall_ids != before[s:s + step, None]) & (wall_ids != after[s:s + step, None]))
        blocked[s:s + step] = hit.any(axis=1)
    return blocked


def _candidates(walls, tx: complex, rx: complex, max_order: int):
    """(seq, images) of every wall sequence that may give a ray, in
    lexicographic order (a prefix before its extensions). An order of
    VECTOR_MIN_CANDIDATES or more is prefiltered by _may_reflect and its
    survivors' images are rebuilt by _image_chain; smaller orders pass whole,
    and when every order is small no array is built."""
    n_walls = len(walls)
    if max_order < 1 or n_walls * (n_walls - 1) ** (max_order - 1) < VECTOR_MIN_CANDIDATES:
        return _scalar_chains(walls, tx, max_order)
    ends = np.array([(a.real, a.imag, b.real, b.imag) for a, b in walls])
    kept: list[tuple[int, ...]] = []
    with np.errstate(all="ignore"):  # an inf or NaN fails every bound
        for seq, images in _order_tables(ends, tx, max_order):
            if len(seq) >= VECTOR_MIN_CANDIDATES:
                seq = seq[_may_reflect(ends, rx, seq, images)]
            kept += map(tuple, seq.tolist())
    return ((seq, _image_chain(walls, tx, seq)) for seq in sorted(kept))


# -- tracing -----------------------------------------------------------------

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

    for seq, images in _candidates(walls, tx, rx, scenario.max_reflections):
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
