"""Image-method ray enumeration over 2D segment geometry.

For every link the tracer returns the line-of-sight ray (when unobstructed)
plus every specular reflection path of order <= max_reflections. A k-bounce
candidate for the ordered surface sequence (s1..sk) is built by mirroring
the TX image across s1..sk (the image method of Allen & Berkley, JASA 1979);
the path exists iff walking back from the RX through the image chain yields
bounce points inside each finite segment, no leg of the resulting polyline
is blocked by another surface, and no bounce grazes its surface.

All candidates of a chunk of links are tested at once, exactly, in arrays,
with plain real formulas and math.hypot; only the incidence angles of
unblocked bounces are taken one by one, with math.acos. The tests check the
rays bit for bit against a scalar reference that tests one sequence at a
time. The rays leave the tracer as the columns of one Rays value, from which
forward_model builds its ray table; Ray objects are built only for a caller
that indexes or iterates it.

- The tree. The line of sight is the order-0 candidate. The images form a
  tree with one level per order: each row holds its parent row, its wall
  and the TX mirrored across its whole sequence.
- The prune. A walk back crosses wall k-1's line between the order-(k-1)
  image and the bounce on wall k, so wall k must reach the line's far side
  from that image. A child wall that lies wholly on the image's side, more
  than a margin from the line, is dropped with its subtree (the beam test
  of Funkhouser et al., SIGGRAPH 1998, cut down to one side test per row).
  The sign of the image's side is the walk back's own numerator, and the
  margin stands far above its rounding; when unsure, the child stays. The
  walk back still decides every kept candidate.
- The walk. Every order walks back at once, from the deepest level up. A
  level records only its survivors' bounce points, each pointing to the
  record of the next point on its path, so no path is copied per level.
- The occlusion. Legs are tested in path order on the candidates whose
  earlier legs passed, so no padding leg and few legs of blocked paths are
  tested at all.
- The bound. A chunk holds as many links as fit in _ROWS tree rows before
  pruning, which bounds a trace's memory.

Grazing hits (incidence within 1e-9 rad of pi/2) and bounce points outside
the finite segments are discarded; there is no diffraction model.
"""

from __future__ import annotations

import csv
import math
from collections.abc import Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import UnusableLinkError, ValidationError
from .scenario import Point, Scenario

GEOM_EPS = 1e-9        # meters; endpoint tolerance for occlusion tests
GRAZING_EPS = 1e-9     # radians; discard incidence >= pi/2 - GRAZING_EPS
_ROWS = 1 << 14        # image-tree rows (candidates before pruning) per chunk of links
_BLOCK = 1 << 16       # (leg, wall) pairs per occlusion block
_SIDE_REL = 1e-5       # prune margin from a wall's line, as a fraction of the reach
_SIDE_FLOOR = 1e-200   # m^2; keeps the margin above subnormal rounding


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


@dataclass(frozen=True, eq=False)
class Rays(Sequence):
    """The rays of every link of a traced scenario as columns, one row per
    ray: by link, then by length, bounce count and materials. The bounce
    columns are padded to max_reflections, with material -1 past a ray's
    last bounce. As a sequence it holds one list of Ray per link, LOS first,
    built only when asked for."""

    n_links: int
    link: np.ndarray       # (R,) ascending
    length: np.ndarray     # (R,) m
    materials: np.ndarray  # (R, K) material index of each bounce, -1 past the last
    angles: np.ndarray     # (R, K) incidence angles, radians
    points: np.ndarray     # (R, K, 2) bounce points

    def __len__(self) -> int:
        return self.n_links

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[n] for n in range(self.n_links)[index]]
        n = range(self.n_links)[index]
        a, b = np.searchsorted(self.link, [n, n + 1])
        return [
            Ray(total, tuple(map(Reflection, ms[:k], angles[:k])), tuple(map(tuple, pts[:k])))
            for total, ms, angles, pts, k in zip(
                self.length[a:b].tolist(), self.materials[a:b].tolist(),
                self.angles[a:b].tolist(), self.points[a:b].tolist(),
                np.count_nonzero(self.materials[a:b] >= 0, axis=1).tolist(),
            )
        ]

    def take(self, links) -> "Rays":
        """The rays of the given links, in ascending order, numbered from 0
        in that order."""
        number = np.full(self.n_links, -1)
        number[links] = np.arange(len(links))
        rows = np.flatnonzero(number[self.link] >= 0)
        return Rays(len(links), number[self.link[rows]], self.length[rows],
                    self.materials[rows], self.angles[rows], self.points[rows])


# -- candidates ----------------------------------------------------------------
# A candidate is an ordered wall sequence with no immediate repeat; order k
# has S * (S - 1) ** (k - 1) of them per link for S walls. Walls are the
# columns (ax, ay, dx, dy) of their endpoint a and direction b - a.

def _child_table(ends: np.ndarray, walls, lengths: np.ndarray, reach: float) -> np.ndarray:
    """Which walls may follow a tree row: a (S + 1, 3, S) mask over the child
    wall, indexed by the row's wall (-1, the last entry, for the TX) and by
    the side of that wall's line its image is on (0 below, 1 on it or NaN,
    2 above). No wall follows itself, nor does one whose endpoints (rows of
    ends) both lie on the image's side, farther from the line than
    _SIDE_REL * reach, for reach a bound on every distance the walk back
    meets; _SIDE_FLOOR keeps subnormal side values unsure."""
    n = len(ends)
    # side of each wall's endpoints a and b from the line of wall p (row p),
    # the same cross product as the walk back's numerator; NaN fails both tests
    ax, ay, dx, dy = (c[:, None] for c in walls)
    sa = dx * (ends[:, 1] - ay) - dy * (ends[:, 0] - ax)
    sb = dx * (ends[:, 3] - ay) - dy * (ends[:, 2] - ax)
    margin = (_SIDE_REL * reach * lengths + _SIDE_FLOOR)[:, None]
    children = np.ones((n + 1, 3, n), dtype=bool)
    children[:n, 0] = ~(np.maximum(sa, sb) < -margin)
    children[:n, 2] = ~(np.minimum(sa, sb) > margin)
    children[np.arange(n), :, np.arange(n)] = False
    return children


def _image_tree(walls, children: np.ndarray, tx: np.ndarray, max_order: int) -> list[tuple]:
    """Levels 0..max_order of the pruned image tree over the links whose TX
    positions are the rows of tx. Level k holds (parent, wall, x, y, link)
    columns, one row per kept wall sequence of order k: row r extends row
    parent[r] of level k - 1 by wall[r], and (x, y) is the TX mirrored
    across the whole sequence. Level 0 is the TX itself, with wall -1. A
    parent's children come by wall, so each level lists its link's
    sequences together and in lexicographic order."""
    ax, ay, dx, dy = walls
    links = np.arange(len(tx))
    levels = [(links, np.full(len(tx), -1), tx[:, 0], tx[:, 1], links)]
    side = np.ones(len(tx), dtype=np.intp)  # the TX has no wall: any wall may follow
    for k in range(1, max_order + 1):
        _, _, x, y, link = levels[-1]
        if k > 1:  # the side of each parent's image from its wall's line
            num = (wx - x) * ey - (wy - y) * ex
            side = 1 + (num > 0) - (num < 0)
        parent, w = np.nonzero(children[levels[-1][1], side])
        px, py = x[parent], y[parent]
        wx, wy, ex, ey = ax[w], ay[w], dx[w], dy[w]
        t = ((px - wx) * ex + (py - wy) * ey) / (ex * ex + ey * ey)
        fx, fy = wx + t * ex, wy + t * ey  # a + t * d
        levels.append((parent, w, 2.0 * fx - px, 2.0 * fy - py, link[parent]))
    return levels


def _walk_back(walls, u_eps: np.ndarray, levels, rx: np.ndarray):
    """Walk every candidate of the tree back from its link's RX (a row of
    rx), keeping those that bounce inside every finite segment. Returns the
    columns (x, y, wall, next, image x, image y) of a table of path points
    and the number of candidates, which are its last rows.

    The table's first rows are the RXs, one per link, with wall -1. Then
    come the records of each level, from the deepest up: a record is a
    survivor's bounce point on its wall, next is the row of the next point
    on its path, and the image is the one the point was walked back from.
    Level 0's records are the candidates, at their TX (wall -1): by order,
    and in lexicographic order within an order.

    Order-m sequences are the rows of level m. They enter the walk at level
    m, with the RX as the next point, beside the survivors of the higher
    orders. The bounce on a level-m wall is where the line from the level-m
    image to the next point crosses that wall: strictly between the two, at
    least u_eps[wall] of the wall from either end, and not on a
    (near-)parallel line."""
    ax, ay, dx, dy = walls
    no_wall = np.full(len(rx), -1)
    table = [(rx[:, 0], rx[:, 1], no_wall, no_wall, rx[:, 0], rx[:, 1])]
    size = len(rx)
    anc = np.zeros(0, dtype=np.intp)  # each survivor's ancestor in the current level
    nxt, qx, qy = anc, np.empty(0), np.empty(0)  # each survivor's last record: row, point
    for m in range(len(levels) - 1, -1, -1):
        parent, w_m, x_m, y_m, link = levels[m]
        anc = np.concatenate([np.arange(len(w_m)), anc])
        nxt = np.concatenate([link, nxt])  # this level's own rows come first, to their RX
        qx, qy = np.concatenate([rx[link, 0], qx]), np.concatenate([rx[link, 1], qy])
        w, px, py = w_m[anc], x_m[anc], y_m[anc]
        bx, by = px, py  # level 0: the TX
        if m:
            wx, wy, ex, ey, lo = ax[w], ay[w], dx[w], dy[w], u_eps[w]
            vx, vy = qx - px, qy - py
            denom = vx * ey - vy * ex
            apx, apy = wx - px, wy - py
            t = (apx * ey - apy * ex) / denom
            u = (apx * vy - apy * vx) / denom
            # a NaN denominator makes t NaN, which fails 0 < t
            keep = np.flatnonzero((np.abs(denom) >= 1e-15) & (0.0 < t) & (t < 1.0)
                                  & (lo <= u) & (u <= 1.0 - lo))
            w, nxt, anc, px, py, t = w[keep], nxt[keep], anc[keep], px[keep], py[keep], t[keep]
            bx, by = px + t * vx[keep], py + t * vy[keep]
        table.append((bx, by, w, nxt, px, py))
        qx, qy, nxt = bx, by, np.arange(size, size + len(w))
        size += len(w)
        anc = parent[anc]  # to the parent level
    return tuple(map(np.concatenate, zip(*table))), len(w)


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
        hit = ((np.abs(denom) >= 1e-15) & (t_eps < t) & (t < 1.0 - t_eps)  # NaN t fails
               & (0.0 <= u) & (u <= 1.0)
               & (wall_ids != before[b, None]) & (wall_ids != after[b, None]))
        blocked[b] = hit.any(axis=1)
    return blocked


# -- tracing -----------------------------------------------------------------

def trace_scenario(scenario: Scenario) -> Rays:
    """The rays of every link, in one pass, each link's sorted by length
    (LOS first); a link without an unblocked ray has none."""
    ends = np.array([(*s.endpoint_a, *s.endpoint_b) for s in scenario.surfaces],
                    dtype=float).reshape(-1, 4)
    walls = (ends[:, 0], ends[:, 1], ends[:, 2] - ends[:, 0], ends[:, 3] - ends[:, 1])
    lengths = np.array(list(map(math.hypot, walls[2].tolist(), walls[3].tolist())))
    u_eps = GEOM_EPS / lengths
    normals = (-walls[3] / lengths, walls[2] / lengths)
    materials = [s.material_index for s in scenario.surfaces]
    n_walls, max_order = len(ends), scenario.max_reflections
    pos = np.array([(*link.tx_pos, *link.rx_pos) for link in scenario.links],
                   dtype=float).reshape(-1, 4)
    # for R the largest coordinate, walls, TXs and RXs lie within sqrt(2) R
    # of the origin and images within (2 max_order + 1) sqrt(2) R
    reach = 4.0 * (max_order + 1) * max(np.abs(ends).max(initial=0.0),
                                        np.abs(pos).max(initial=0.0))
    per_link = 1 + sum(n_walls * (n_walls - 1) ** (k - 1) for k in range(1, max_order + 1))
    step = max(1, _ROWS // per_link)  # links per chunk
    chunks = []
    with np.errstate(all="ignore"):  # an inf or NaN fails every bound
        children = _child_table(ends, walls, lengths, reach)
        for s in range(0, len(pos), step):
            tx, rx = pos[s:s + step, :2], pos[s:s + step, 2:]
            levels = _image_tree(walls, children, tx, max_order)
            link, *columns = _collect_rays(*_walk_back(walls, u_eps, levels, rx), walls,
                                           normals, materials, max_order)
            chunks.append((link + s, *columns))
    return Rays(len(pos), *map(np.concatenate, zip(*chunks)))


def _collect_rays(table, n_candidates, walls, normals, materials, max_order):
    """The Rays columns (link, length, materials, angles, points) of the
    rays among the walked-back candidates (the last n_candidates rows of the
    point table; see _walk_back), sorted by link, length, bounces and
    materials, ties in candidate order.

    Leg j runs from point j to point j + 1 of a path, and its incident walls
    are those of its two points. Leg j is tested for occlusion only on the
    candidates whose legs before it passed; a candidate whose leg ends at an
    RX (a table row below n_links: the link) is unblocked. Its path is then
    padded with the RX to max_order bounces. It is a ray unless a bounce ends
    a leg of GEOM_EPS or less or grazes its wall. A bounce's incidence angle
    is acos |(v / |v|) . n| for its incoming leg v and its wall's unit normal
    n, and the ray's length is |RX - image| by the image-method length law."""
    x, y, wall, nxt, ix, iy = table
    path = np.full((n_candidates, max_order + 2), -1)  # table rows; -1 past a blocked leg
    cand = np.arange(n_candidates)
    cur = path[:, 0] = np.arange(len(x) - n_candidates, len(x))
    for j in range(1, max_order + 2):  # the leg into point j
        q = nxt[cur]
        px, py = x[cur], y[cur]
        vx, vy = x[q] - px, y[q] - py
        leg = np.array(list(map(math.hypot, vx.tolist(), vy.tolist())))
        after = wall[q]
        ok = ~_blocked(walls, px, py, vx, vy, leg, wall[cur], after)
        end = ok & (after < 0)
        path[cand[end], j:] = q[end, None]  # the RX, which also pads the path
        go = ok ^ end
        cand, cur = cand[go], q[go]
        if not len(cand):
            break
        path[cand, j] = cur
    path = path[path[:, -1] >= 0]  # the unblocked candidates
    xs, ys, w = x[path], y[path], wall[path[:, 1:-1]]
    bounce = w >= 0
    vx, vy = np.diff(xs[:, :-1])[bounce], np.diff(ys[:, :-1])[bounce]  # into each bounce
    leg = np.array(list(map(math.hypot, vx.tolist(), vy.tolist())))
    cos = np.abs(vx / leg * normals[0][w[bounce]] + vy / leg * normals[1][w[bounce]])
    theta = np.zeros(w.shape)
    theta[bounce] = list(map(math.acos, np.minimum(cos, 1.0).tolist()))
    bad = (leg <= GEOM_EPS) | (theta[bounce] >= math.pi / 2.0 - GRAZING_EPS)
    ok = np.ones(len(path), dtype=bool)
    ok[np.nonzero(bounce)[0][bad]] = False
    k = np.count_nonzero(bounce, axis=1)
    image = path[np.arange(len(path)), k]  # the last bounce, or the TX
    length = np.array(list(map(math.hypot, (xs[:, -1] - ix[image]).tolist(),
                               (ys[:, -1] - iy[image]).tolist())))
    mats = np.array([*materials, -1])[w]  # -1 past the last bounce
    link = path[:, -1]
    order = np.lexsort((*mats.T[::-1], k, length, link))
    order = order[ok[order]]
    return (link[order], length[order], mats[order], theta[order],
            np.stack((xs[order, 1:-1], ys[order, 1:-1]), axis=-1))


def trace_link(scenario: Scenario, link_index: int) -> list[Ray]:
    """All unblocked rays for one link, sorted by length (LOS first).

    Raises UnusableLinkError when no ray survives; the solver cannot use
    such a link and callers are expected to drop it.
    """
    if not 0 <= link_index < scenario.n_links:
        raise ValidationError(f"link_index={link_index} outside [0, {scenario.n_links})")
    rays = trace_scenario(replace(scenario, links=(scenario.links[link_index],)))[0]
    if not rays:
        raise UnusableLinkError(f"link {link_index}: no unblocked ray")
    return rays


def rays_to_csv(ray_cache: Sequence[list[Ray]], fh) -> None:
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
