"""Image-method ray enumeration over 2D segment geometry.

For every link the tracer returns the line-of-sight ray (when unobstructed)
plus every specular reflection path of order <= max_reflections. A k-bounce
candidate for the ordered surface sequence (s1..sk) is built by mirroring
the TX image across s1..sk (the image method of Allen & Berkley, JASA 1979);
the path exists iff walking back from the RX through the image chain yields
bounce points inside each finite segment, no leg of the resulting polyline
is blocked by another surface, and no bounce grazes its surface.

All candidates of a chunk of links are tested at once, exactly, in arrays.
The line of sight is the order-0 candidate. The images form a tree with one
level per order, each image one mirror past its parent's. The walk back, the
leg lengths and the occlusion test are masks over the candidates, computed
with plain real formulas and math.hypot; only the survivors' incidence
angles are taken one by one, with math.acos. The tests check the rays bit
for bit against a scalar reference that tests one sequence at a time. A
chunk holds as many links as fit in _CELLS path points (each candidate's
path is padded to max_order bounces), which bounds a trace's memory.

Grazing hits (incidence within 1e-9 rad of pi/2) and bounce points outside
the finite segments are discarded; there is no diffraction model.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import UnusableLinkError, ValidationError
from .scenario import Point, Scenario

GEOM_EPS = 1e-9        # meters; endpoint tolerance for occlusion tests
GRAZING_EPS = 1e-9     # radians; discard incidence >= pi/2 - GRAZING_EPS
_CELLS = 1 << 15       # path points (candidates x (max_order + 2)) per chunk of links
_BLOCK = 1 << 16       # (leg, wall) pairs per occlusion block


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


# -- candidates ----------------------------------------------------------------
# A candidate is an ordered wall sequence with no immediate repeat; order k
# has S * (S - 1) ** (k - 1) of them per link for S walls. Walls are the
# columns (ax, ay, dx, dy) of their endpoint a and direction b - a.

def _image_tree(walls, tx: np.ndarray, max_order: int) -> list[tuple]:
    """Levels 0..max_order of the image tree over the links whose TX
    positions are the rows of tx. Level k holds (wall, x, y) columns, one row
    per link and wall sequence of order k: the sequence's last wall and the
    TX mirrored across the whole sequence. Row r of level k extends row
    r // fan_out of level k - 1, so each link's rows stay together and in
    lexicographic order; level 0 is the TX itself, with wall -1."""
    ax, ay, dx, dy = walls
    levels = [(np.full(len(tx), -1), tx[:, 0], tx[:, 1])]
    for k in range(1, max_order + 1):
        fan_out = len(ax) - (k > 1)  # no wall follows itself
        prev, px, py = (np.repeat(a, fan_out) for a in levels[-1])
        if len(prev) == 0:
            break
        c = np.tile(np.arange(fan_out), len(levels[-1][0]))
        w = c + (c >= prev) if k > 1 else c
        wx, wy, ex, ey = ax[w], ay[w], dx[w], dy[w]
        t = ((px - wx) * ex + (py - wy) * ey) / (ex * ex + ey * ey)
        fx, fy = wx + t * ex, wy + t * ey  # a + t * d
        levels.append((w, 2.0 * fx - px, 2.0 * fy - py))
    return levels


def _walk_back(walls, u_eps: np.ndarray, levels, rx: np.ndarray):
    """(link, x, y, seq, image) of every candidate, of any order, whose walk
    back from its link's RX (a row of rx) bounces inside every finite
    segment. Rows of x and y are the paths TX -> bounces -> RX, padded with
    the RX to max_order bounces; seq holds the wall of each point (-1 at TX,
    RX and padding) and image the TX mirrored across the whole sequence.
    The rows come by order, and in lexicographic order within an order.

    Order-m sequences are the rows of level m. They enter the walk at level
    m, with the RX as the next point, beside the survivors of the higher
    orders. The bounce on a level-m wall is where the line from the level-m
    image to the next point crosses that wall: strictly between the two, at
    least u_eps[wall] of the wall from either end, and not on a
    (near-)parallel line."""
    ax, ay, dx, dy = walls
    width = len(levels) + 1
    anc = np.zeros(0, dtype=np.intp)  # each row's ancestor in the current level
    x, y = np.empty((width, 0)), np.empty((width, 0))  # column-major: x[j] is point j
    seq = np.full((width, 0), -1)
    image = np.empty((2, 0))
    for m in range(len(levels) - 1, -1, -1):
        w_m, x_m, y_m = levels[m]
        n = len(w_m)  # this level's own rows come first, with the RX as next point
        link = np.arange(n) // (n // len(rx))
        anc = np.concatenate([np.arange(n), anc])
        qx, qy = np.concatenate([rx[link, 0], x[m + 1]]), np.concatenate([rx[link, 1], y[m + 1]])
        w, px, py = w_m[anc], x_m[anc], y_m[anc]
        if m:
            wx, wy, ex, ey, lo = ax[w], ay[w], dx[w], dy[w], u_eps[w]
            vx, vy = qx - px, qy - py
            denom = vx * ey - vy * ex
            apx, apy = wx - px, wy - py
            t = (apx * ey - apy * ex) / denom
            u = (apx * vy - apy * vx) / denom
            px, py = px + t * vx, py + t * vy
            keep = np.flatnonzero(~(np.abs(denom) < 1e-15) & (0.0 < t) & (t < 1.0)
                                  & (lo <= u) & (u <= 1.0 - lo))
        else:  # level 0: the TX
            keep = np.arange(len(anc))
        new, old = keep[keep < n], keep[keep >= n] - n
        x = np.concatenate([np.empty((width, len(new))), x.take(old, axis=1)], axis=1)
        y = np.concatenate([np.empty((width, len(new))), y.take(old, axis=1)], axis=1)
        seq = np.concatenate([np.full((width, len(new)), -1), seq.take(old, axis=1)], axis=1)
        x[m + 1:, :len(new)], y[m + 1:, :len(new)] = qx[new], qy[new]
        x[m], y[m], seq[m] = px[keep], py[keep], w[keep]
        image = np.concatenate([np.stack([x_m[new], y_m[new]]), image.take(old, axis=1)], axis=1)
        anc = anc[keep] // (n // len(levels[m - 1][0]) if m else 1)  # to the parent level
    return anc, x.T, y.T, seq.T, image.T


def _blocked(walls, px, py, vx, vy, leg, before, after) -> np.ndarray:
    """Per leg from (px, py) along (vx, vy), of length leg: True where a wall
    other than before and after crosses it more than GEOM_EPS from either
    end. A leg of GEOM_EPS or less is never blocked, as its t_eps is >= 1."""
    ax, ay, dx, dy = walls
    wall_ids = np.arange(len(ax))
    blocked = np.zeros(len(px), dtype=bool)
    step = max(1, _BLOCK // max(1, len(ax)))
    for s in range(0, len(px), step):
        b = slice(s, s + step)
        vx_, vy_ = vx[b, None], vy[b, None]
        denom = vx_ * dy - vy_ * dx
        apx, apy = ax - px[b, None], ay - py[b, None]
        t = (apx * dy - apy * dx) / denom
        u = (apx * vy_ - apy * vx_) / denom
        t_eps = GEOM_EPS / leg[b, None]
        hit = (~(np.abs(denom) < 1e-15) & (t_eps < t) & (t < 1.0 - t_eps)
               & (0.0 <= u) & (u <= 1.0)
               & (wall_ids != before[b, None]) & (wall_ids != after[b, None]))
        blocked[b] = hit.any(axis=1)
    return blocked


# -- tracing -----------------------------------------------------------------

def _trace_links(scenario: Scenario, links) -> list[list[Ray]]:
    """Rays of each of the given links, sorted by length (LOS first)."""
    ends = np.array([(*s.endpoint_a, *s.endpoint_b) for s in scenario.surfaces],
                    dtype=float).reshape(-1, 4)
    walls = (ends[:, 0], ends[:, 1], ends[:, 2] - ends[:, 0], ends[:, 3] - ends[:, 1])
    u_eps, normals = [], []
    for ex, ey in zip(walls[2].tolist(), walls[3].tolist()):
        length = math.hypot(ex, ey)
        u_eps.append(GEOM_EPS / length)
        normals.append((-ey / length, ex / length))
    u_eps, normals = np.array(u_eps), np.array(normals).reshape(-1, 2)
    materials = [s.material_index for s in scenario.surfaces]
    n_walls, max_order = len(ends), scenario.max_reflections
    per_link = 1 + sum(n_walls * (n_walls - 1) ** (k - 1) for k in range(1, max_order + 1))
    step = max(1, _CELLS // (per_link * (max_order + 2)))  # links per chunk
    out: list[list[Ray]] = []
    with np.errstate(all="ignore"):  # an inf or NaN fails every bound
        for s in range(0, len(links), step):
            chunk = [scenario.links[n] for n in links[s:s + step]]
            tx = np.array([link.tx_pos for link in chunk], dtype=float)
            rx = np.array([link.rx_pos for link in chunk], dtype=float)
            rays: list[list[Ray]] = [[] for _ in chunk]
            candidates = _walk_back(walls, u_eps, _image_tree(walls, tx, max_order), rx)
            _collect_rays(rays, *candidates, walls, normals, materials)
            for link_rays in rays:
                link_rays.sort(key=lambda r: (
                    r.total_length_m, r.n_bounces, tuple(ref.material_index for ref in r.reflections)
                ))
            out += rays
    return out


def _collect_rays(rays, link, x, y, seq, image, walls, normals, materials) -> None:
    """Append to rays[link] the ray of each walked-back candidate whose legs
    are unblocked and whose bounces neither end a leg of GEOM_EPS or less
    nor graze their wall.

    Leg j runs from point j to point j + 1 of a path, and its incident walls
    are seq[:, j] and seq[:, j + 1]; padding legs have length 0 and so are
    never blocked. A bounce's incidence angle is acos |(v / |v|) . n| for its
    incoming leg v and its wall's unit normal n."""
    vx, vy = np.diff(x, axis=1), np.diff(y, axis=1)
    leg = np.array(list(map(math.hypot, vx.ravel().tolist(), vy.ravel().tolist())))
    blocked = _blocked(walls, x[:, :-1].ravel(), y[:, :-1].ravel(), vx.ravel(), vy.ravel(),
                       leg, seq[:, :-1].ravel(), seq[:, 1:].ravel())
    leg, w = leg.reshape(vx.shape)[:, :-1], seq[:, 1:-1]
    bounce = w >= 0
    ok = ~blocked.reshape(vx.shape).any(axis=1) & ~((leg <= GEOM_EPS) & bounce).any(axis=1)
    vx, vy, leg, w, bounce = vx[ok, :-1], vy[ok, :-1], leg[ok], w[ok], bounce[ok]
    cos = np.abs(vx / leg * normals[w, 0] + vy / leg * normals[w, 1])
    theta = np.zeros(w.shape)
    theta[bounce] = list(map(math.acos, np.minimum(cos[bounce], 1.0).tolist()))
    keep = ~(theta >= math.pi / 2.0 - GRAZING_EPS).any(axis=1)
    total = map(math.hypot, (x[ok, -1] - image[ok, 0]).tolist(), (y[ok, -1] - image[ok, 1]).tolist())
    for n, kept, k, length, ws, angles, xs, ys in zip(
        link[ok].tolist(), keep.tolist(), bounce.sum(axis=1).tolist(), total, w.tolist(),
        theta.tolist(), x[ok, 1:-1].tolist(), y[ok, 1:-1].tolist(),
    ):
        if kept:
            rays[n].append(Ray(
                total_length_m=length,  # image-method length law
                reflections=tuple(map(Reflection, map(materials.__getitem__, ws[:k]), angles[:k])),
                points=tuple(zip(xs[:k], ys[:k])),
            ))


def trace_link(scenario: Scenario, link_index: int) -> list[Ray]:
    """All unblocked rays for one link, sorted by length (LOS first).

    Raises UnusableLinkError when no ray survives; the solver cannot use
    such a link and callers are expected to drop it.
    """
    if not 0 <= link_index < scenario.n_links:
        raise ValidationError(f"link_index={link_index} outside [0, {scenario.n_links})")
    rays = _trace_links(scenario, [link_index])[0]
    if not rays:
        raise UnusableLinkError(f"link {link_index}: no unblocked ray")
    return rays


def trace_scenario(scenario: Scenario) -> list[list[Ray]]:
    """Ray lists for every link, in one pass; [] for a link without an
    unblocked ray."""
    return _trace_links(scenario, range(scenario.n_links))


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
