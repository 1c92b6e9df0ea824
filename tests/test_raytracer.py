"""Image-method tracer against exact geometry and a Fermat-principle oracle."""

import dataclasses
import hashlib
import io
import math
import tracemalloc
from itertools import product
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from permgamp import (
    Link,
    Material,
    Scenario,
    Surface,
    UnusableLinkError,
    make_canyon_scenario,
    trace_link,
    trace_scenario,
)
from permgamp import experiment, raytracer
from permgamp.errors import ValidationError
from permgamp.forward_model import ray_table
from permgamp.raytracer import Ray, Reflection, rays_to_csv
from permgamp.scenario import _los_friis_overflows

import scalar_forward
import scalar_tracer

MAT = (Material(1, 1.5, 10.0, 4.0), Material(2, 1.5, 10.0, 6.0))

# SHA-256 of rays_to_csv for the bundled canyon, for _room_12_walls() and for
# _canyon_3_bounces().
CANYON_RAYS_SHA256 = "b97f6d384cf5c80c3b10748b3ea5ce51237e071158b7fd4a307326d370f2fdb1"
ROOM_RAYS_SHA256 = "78a8d0821b5b4a9e257dc6811f6d40817d1e75583058450843b75ddcb002de16"
CANYON_3_RAYS_SHA256 = "558cef3ff6fe58e76d2fc8303279ee2fb729b84415c9f678adc371298834b655"
# SHA-256 of every ray's bounce points (_points_sha256), which neither
# rays_to_csv nor Ray.__eq__ looks at, for the same three scenarios.
CANYON_POINTS_SHA256 = "3ca543967081c4691650653cfa827312041dd713f9b6feb7c06770612617c5f0"
ROOM_POINTS_SHA256 = "d95ba3ffa3ae86d81e1913c4e09cae4a893a248ed9307bee006237a214b562e6"
CANYON_3_POINTS_SHA256 = "46d182a208a4f1037861befe8bf841ed2295528ae9c87152ef2a6d70f3330bfd"


def _scenario(surfaces, links, max_reflections=2):
    return Scenario(
        surfaces=tuple(surfaces),
        materials=MAT,
        links=tuple(links),
        wavelength_m=0.1,
        max_reflections=max_reflections,
    )


def test_free_space_single_los():
    sc = _scenario([], [Link((0.0, 0.0), (3.0, 4.0), 30, 2, 2)])
    rays = trace_link(sc, 0)
    assert len(rays) == 1
    assert rays[0].reflections == ()
    assert abs(rays[0].total_length_m - 5.0) <= 1e-12


def test_single_wall_mirror_geometry():
    # Wall on y=0, TX and RX at height h, separation d: LOS of length d plus
    # one bounce of length sqrt(d^2 + 4h^2) at atan(d / 2h) from the normal.
    d, h = 4.0, 1.0
    sc = _scenario(
        [Surface((-100.0, 0.0), (100.0, 0.0), 1)],
        [Link((0.0, h), (d, h), 30, 2, 2)],
    )
    rays = trace_link(sc, 0)
    assert len(rays) == 2
    los, bounce = rays
    assert abs(los.total_length_m - d) <= 1e-12
    assert abs(bounce.total_length_m - math.sqrt(d * d + 4 * h * h)) <= 1e-12
    assert len(bounce.reflections) == 1
    ref = bounce.reflections[0]
    assert ref.material_index == 1
    assert abs(ref.incidence_angle - math.atan(d / (2 * h))) <= 1e-12


# ---------------------------------------------------------------------------
# Independent oracle: for a fixed surface sequence, the specular path is the
# length minimizer over bounce positions (Fermat). Minimize numerically and
# validate occlusion by brute-force segment intersection.
# ---------------------------------------------------------------------------

def _seg_point(s, u):
    ax, ay = s.endpoint_a
    bx, by = s.endpoint_b
    return np.array([ax + u * (bx - ax), ay + u * (by - ay)])

def _path_points(tx, rx, seq, surfaces, u):
    return [np.asarray(tx)] + [_seg_point(surfaces[s], u[j]) for j, s in enumerate(seq)] + [np.asarray(rx)]

def _path_len(pts):
    return sum(float(np.linalg.norm(pts[i + 1] - pts[i])) for i in range(len(pts) - 1))

def _crosses(p, q, s, eps=1e-9):
    # open-segment intersection with endpoint tolerance, written from scratch
    p, q = np.asarray(p, float), np.asarray(q, float)
    a, b = np.asarray(s.endpoint_a, float), np.asarray(s.endpoint_b, float)
    r, d = q - p, b - a
    denom = r[0] * d[1] - r[1] * d[0]
    if abs(denom) < 1e-15:
        return False
    ap = a - p
    t = (ap[0] * d[1] - ap[1] * d[0]) / denom
    u = (ap[0] * r[1] - ap[1] * r[0]) / denom
    leg = float(np.linalg.norm(r))
    return eps / leg < t < 1 - eps / leg and 0.0 <= u <= 1.0

def _side(p, s):
    a, b = np.asarray(s.endpoint_a, float), np.asarray(s.endpoint_b, float)
    d = b - a
    v = np.asarray(p, float) - a
    return d[0] * v[1] - d[1] * v[0]


def fermat_rays(scenario, link_index):
    """All unblocked paths up to max_reflections via length minimization.

    A length-stationary polyline through a surface sequence is either a
    specular reflection or a straight pass-through; only candidates whose
    adjacent legs stay on one side of each mirror count as reflections.
    """
    link = scenario.links[link_index]
    tx, rx = link.tx_pos, link.rx_pos
    surfaces = scenario.surfaces
    found = []
    if not any(_crosses(tx, rx, s) for s in surfaces):
        found.append((math.dist(tx, rx), ()))
    for order in range(1, scenario.max_reflections + 1):
        for seq in product(range(len(surfaces)), repeat=order):
            if any(seq[i] == seq[i + 1] for i in range(order - 1)):
                continue
            res = minimize(
                lambda u: _path_len(_path_points(tx, rx, seq, surfaces, u)),
                x0=np.full(order, 0.5),
                method="Nelder-Mead",
                options={"xatol": 1e-12, "fatol": 1e-13, "maxiter": 20000},
            )
            u = res.x
            if np.any(u < 1e-7) or np.any(u > 1 - 1e-7):
                continue  # bounce slid off the segment: no specular path
            pts = _path_points(tx, rx, seq, surfaces, u)
            if any(np.linalg.norm(pts[i + 1] - pts[i]) < 1e-9 for i in range(len(pts) - 1)):
                continue
            if any(
                _side(pts[i], surfaces[si]) * _side(pts[i + 2], surfaces[si]) <= 0.0
                for i, si in enumerate(seq)
            ):
                continue  # pass-through, not a reflection
            blocked = False
            for i in range(len(pts) - 1):
                incident = {seq[i - 1]} if i > 0 else set()
                if i < len(seq):
                    incident.add(seq[i])
                if any(
                    _crosses(pts[i], pts[i + 1], s)
                    for j, s in enumerate(surfaces)
                    if j not in incident
                ):
                    blocked = True
                    break
            if not blocked:
                found.append((res.fun, tuple(surfaces[s].material_index for s in seq)))
    found.sort()
    return found


def test_canyon_matches_fermat_oracle():
    sc = _scenario(
        [Surface((-20.0, 3.0), (40.0, 3.0), 1), Surface((-20.0, -3.0), (40.0, -3.0), 2)],
        [
            Link((0.0, 1.0), (10.0, -1.5), 30, 2, 2),
            Link((2.0, 2.2), (7.0, 2.0), 30, 2, 2),
            Link((0.0, -2.0), (3.0, 2.5), 30, 2, 2),
        ],
        max_reflections=2,
    )
    for n in range(sc.n_links):
        rays = trace_link(sc, n)
        oracle = fermat_rays(sc, n)
        assert len(rays) == len(oracle)
        for ray, (length, mats) in zip(rays, oracle):
            assert abs(ray.total_length_m - length) <= 1e-6
            assert tuple(r.material_index for r in ray.reflections) == mats


def test_random_scenes_match_fermat_oracle():
    # Arbitrary segment clutter, not just parallel walls: every enumerated
    # reflection path must coincide with a length-stationary specular
    # polyline, and nothing may be missed.
    rng = np.random.Generator(np.random.PCG64(2718))
    mats = MAT
    checked = 0
    for scene in range(8):
        surfaces = []
        for _ in range(int(rng.integers(1, 5))):
            a = (float(rng.uniform(-15, 15)), float(rng.uniform(-15, 15)))
            b = (a[0] + float(rng.uniform(-20, 20)), a[1] + float(rng.uniform(-20, 20)))
            if abs(b[0] - a[0]) + abs(b[1] - a[1]) < 1.0:
                b = (a[0] + 5.0, a[1] + 1.0)
            surfaces.append(Surface(a, b, int(rng.integers(1, 3))))
        links = []
        for _ in range(2):
            tx = (float(rng.uniform(-12, 12)), float(rng.uniform(-12, 12)))
            rx = (tx[0] + float(rng.uniform(2, 15)), tx[1] + float(rng.uniform(-8, 8)))
            links.append(Link(tx, rx, 30, 2, 2))
        sc = Scenario(
            surfaces=tuple(surfaces), materials=mats, links=tuple(links),
            wavelength_m=0.1, max_reflections=2,
        )
        for n in range(sc.n_links):
            try:
                rays = trace_link(sc, n)
            except UnusableLinkError:
                rays = []
            got = sorted(
                (round(r.total_length_m, 6), tuple(ref.material_index for ref in r.reflections))
                for r in rays
            )
            want = sorted((round(float(l), 6), m) for l, m in fermat_rays(sc, n))
            assert got == want, f"scene {scene} link {n}: {got} != {want}"
            checked += 1
    assert checked == 16


def test_image_length_law_and_specularity(canyon):
    # Path length equals the sum of the legs, and the reconstructed in/out
    # angles agree at every bounce.
    for n in range(0, canyon.n_links, 7):
        link = canyon.links[n]
        for ray in trace_link(canyon, n):
            pts = [np.array(link.tx_pos), *map(np.array, ray.points), np.array(link.rx_pos)]
            legs = sum(float(np.linalg.norm(pts[i + 1] - pts[i])) for i in range(len(pts) - 1))
            assert abs(legs - ray.total_length_m) <= 1e-9 * max(1.0, ray.total_length_m)
            for j, ref in enumerate(ray.reflections):
                d_in = pts[j + 1] - pts[j]
                d_out = pts[j + 2] - pts[j + 1]
                d_in = d_in / np.linalg.norm(d_in)
                d_out = d_out / np.linalg.norm(d_out)
                # both canyon walls are horizontal: normal is the y axis
                theta_in = math.acos(min(1.0, abs(d_in[1])))
                theta_out = math.acos(min(1.0, abs(d_out[1])))
                assert abs(theta_in - theta_out) <= 1e-9
                assert abs(ref.incidence_angle - theta_in) <= 1e-9


def test_tx_rx_symmetry(canyon):
    for n in range(0, canyon.n_links, 11):
        fwd = trace_link(canyon, n)
        link = canyon.links[n]
        swapped = Scenario(
            surfaces=canyon.surfaces,
            materials=canyon.materials,
            links=(Link(link.rx_pos, link.tx_pos, 30, 2, 2),),
            wavelength_m=canyon.wavelength_m,
            max_reflections=canyon.max_reflections,
        )
        rev = trace_link(swapped, 0)
        key = lambda rays: sorted(
            (round(r.total_length_m, 9), tuple(sorted(ref.material_index for ref in r.reflections)))
            for r in rays
        )
        assert key(fwd) == key(rev)


def test_more_reflections_never_removes_rays():
    surfaces = [Surface((-20.0, 3.0), (40.0, 3.0), 1), Surface((-20.0, -3.0), (40.0, -3.0), 2)]
    links = [Link((0.0, 1.0), (12.0, -1.0), 30, 2, 2)]
    seen = set()
    # two parallel walls admit exactly two new sequences per order
    expected_counts = {0: 1, 1: 3, 2: 5, 3: 7}
    for k in range(4):
        sc = _scenario(surfaces, links, max_reflections=k)
        rays = trace_link(sc, 0)
        keys = {
            (round(r.total_length_m, 9), tuple(ref.material_index for ref in r.reflections))
            for r in rays
        }
        assert seen <= keys
        assert len(keys) == expected_counts[k]
        seen = keys


def test_sorted_by_length(canyon):
    for n in range(0, canyon.n_links, 13):
        lengths = [r.total_length_m for r in trace_link(canyon, n)]
        assert lengths == sorted(lengths)
        assert lengths[0] == min(lengths)


def test_ray_length_at_least_euclidean_distance(canyon):
    import math as _math

    for n in range(canyon.n_links):
        link = canyon.links[n]
        d = _math.dist(link.tx_pos, link.rx_pos)
        for r in trace_link(canyon, n):
            assert r.total_length_m >= d - 1e-12
            assert len(r.reflections) <= canyon.max_reflections


def test_blocked_los_and_unusable_link():
    # A wall square across the direct segment kills the LOS; with no other
    # surface there is no ray at all.
    sc = _scenario(
        [Surface((2.0, -5.0), (2.0, 5.0), 1)],
        [Link((0.0, 0.0), (4.0, 0.0), 30, 2, 2)],
    )
    with pytest.raises(UnusableLinkError):
        trace_link(sc, 0)
    assert list(trace_scenario(sc)) == [[]]


def test_blocked_los_with_detour():
    # Same blocking wall, but a long side wall offers a reflected detour.
    sc = _scenario(
        [
            Surface((2.0, -5.0), (2.0, 1.0), 1),
            Surface((-20.0, 4.0), (20.0, 4.0), 2),
        ],
        [Link((0.0, 0.0), (4.0, 0.0), 30, 2, 2)],
    )
    rays = trace_link(sc, 0)
    assert all(r.reflections for r in rays)  # no LOS survives
    assert any(r.reflections[0].material_index == 2 for r in rays)


def test_grazing_incidence_discarded():
    # TX and RX exactly on the wall line: the bounce would be at 90 degrees.
    sc = _scenario(
        [Surface((-100.0, 0.0), (100.0, 0.0), 1)],
        [Link((0.0, 0.0), (10.0, 0.0), 30, 2, 2)],
    )
    rays = trace_link(sc, 0)
    assert all(not r.reflections for r in rays)


def test_bounce_outside_finite_segment_discarded():
    # Short wall far to the left: the mirror point for this link falls off
    # the segment, so only the LOS remains.
    sc = _scenario(
        [Surface((-30.0, 2.0), (-20.0, 2.0), 1)],
        [Link((0.0, 0.0), (10.0, 0.0), 30, 2, 2)],
    )
    rays = trace_link(sc, 0)
    assert len(rays) == 1
    assert rays[0].reflections == ()


def test_path_ending_on_a_wall_does_not_reflect_there():
    # The RX lies on the wall: the mirror path meets the wall at the RX
    # itself (t = 1 on the walk back), which is no reflection.
    sc = _scenario(
        [Surface((-10.0, 0.0), (10.0, 0.0), 1)],
        [Link((0.0, 1.0), (3.0, 0.0), 30, 2, 2)],
    )
    assert [r.n_bounces for r in trace_link(sc, 0)] == [0]
    assert _reprs(trace_scenario(sc)) == _reference(sc)


def test_wall_parallel_to_within_the_cutoff_does_not_block():
    # The LOS crosses this wall mid-way, but their cross product is 2e-16,
    # under the 1e-15 parallel-line cutoff: the wall does not count as a hit.
    sc = _scenario(
        [Surface((0.0, 0.0), (10.0, 1e-17), 1)],
        [Link((0.0, 1e-17), (10.0, 0.0), 30, 2, 2)],
        max_reflections=0,
    )
    assert [r.n_bounces for r in trace_link(sc, 0)] == [0]
    assert _reprs(trace_scenario(sc)) == _reference(sc)


def test_trace_scenario_shape(canyon):
    cache = trace_scenario(canyon)
    assert len(cache) == canyon.n_links
    assert all(len(rays) >= 1 for rays in cache)


def test_rays_csv_dump(canyon_rays):
    buf = io.StringIO()
    rays_to_csv(canyon_rays[:3], buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "link,ray,length_m,n_bounces,materials,angles_rad"
    assert len(lines) == 1 + sum(len(r) for r in canyon_rays[:3])
    first = lines[1].split(",")
    assert first[0] == "0" and first[3] == "0"  # LOS row: zero bounces


# ---------------------------------------------------------------------------
# Pinned outputs and the image-chain walk.
# ---------------------------------------------------------------------------

def _room_12_walls():
    """20 x 15 m floor: four outer walls (material 1) and eight partition
    segments (material 2) with door gaps, traced at 3 bounces."""
    walls = [
        ((0.0, 0.0), (20.0, 0.0), 1), ((20.0, 0.0), (20.0, 15.0), 1),
        ((20.0, 15.0), (0.0, 15.0), 1), ((0.0, 15.0), (0.0, 0.0), 1),
        ((7.0, 0.0), (7.0, 6.0), 2), ((7.0, 7.2), (7.0, 15.0), 2),
        ((13.0, 0.0), (13.0, 8.0), 2), ((13.0, 9.2), (13.0, 15.0), 2),
        ((0.0, 7.5), (3.0, 7.5), 2), ((4.2, 7.5), (7.0, 7.5), 2),
        ((13.0, 6.0), (16.0, 6.0), 2), ((17.2, 6.0), (20.0, 6.0), 2),
    ]
    links = [
        ((1.5, 2.0), (5.5, 12.5)), ((9.0, 3.0), (11.5, 13.0)), ((2.5, 10.0), (5.5, 3.0)),
        ((15.0, 2.5), (18.5, 4.0)), ((10.0, 7.0), (16.5, 9.5)), ((4.0, 4.0), (9.5, 8.5)),
    ]
    return _scenario(
        [Surface(a, b, m) for a, b, m in walls],
        [Link(tx, rx, 30, 2, 2) for tx, rx in links],
        max_reflections=3,
    )


def _canyon_3_bounces():
    return make_canyon_scenario(n_links=10, max_reflections=3)


def _csv_sha256(ray_cache):
    buf = io.StringIO()
    rays_to_csv(ray_cache, buf)
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


def _points_sha256(ray_cache):
    """One line per ray: link, ray and its bounce points as repr floats."""
    lines = (
        f"{n},{j}," + ";".join(f"{x!r} {y!r}" for x, y in ray.points)
        for n, rays in enumerate(ray_cache)
        for j, ray in enumerate(rays)
    )
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_ray_csv_digests_are_pinned(canyon):
    # Every length and incidence angle is pinned bit for bit.
    assert _csv_sha256(trace_scenario(canyon)) == CANYON_RAYS_SHA256
    assert _csv_sha256(trace_scenario(_room_12_walls())) == ROOM_RAYS_SHA256
    assert _csv_sha256(trace_scenario(_canyon_3_bounces())) == CANYON_3_RAYS_SHA256


def test_bounce_point_digests_are_pinned(canyon):
    assert _points_sha256(trace_scenario(canyon)) == CANYON_POINTS_SHA256
    assert _points_sha256(trace_scenario(_room_12_walls())) == ROOM_POINTS_SHA256
    assert _points_sha256(trace_scenario(_canyon_3_bounces())) == CANYON_3_POINTS_SHA256


def _reprs(ray_cache):
    """repr of every (ray, ray.points): it tells -0.0 from 0.0 and shows a NaN."""
    return [repr([(r, r.points) for r in rays]) for rays in ray_cache]


def _reference(sc):
    return _reprs([scalar_tracer.trace_link(sc, n) for n in range(sc.n_links)])


def test_room_matches_the_scalar_reference():
    # 6 links x 1,596 wall sequences, most of them dropped by the walk back
    sc = _room_12_walls()
    assert _reprs(trace_scenario(sc)) == _reference(sc)


def test_links_across_chunks_match_the_single_link_trace_and_the_reference():
    # 2 walls: 1 + 2 + 2 + 2 tree rows per link
    per_chunk = raytracer._ROWS // 7
    sc = make_canyon_scenario(n_links=2 * per_chunk + 7, max_reflections=3)  # 3 chunks
    got = _reprs(trace_scenario(sc))
    assert got == _reprs(trace_link(sc, n) for n in range(sc.n_links))
    assert got == _reference(sc)


def test_trace_link_rejects_an_index_outside_the_links(canyon):
    for n in (-1, canyon.n_links, canyon.n_links + 7):
        with pytest.raises(ValidationError, match=rf"link_index={n} outside \[0, 100\)"):
            trace_link(canyon, n)


def _mirror_xy(p, a, b):
    """p mirrored across the line through a and b, on (x, y) tuples."""
    d = (b[0] - a[0], b[1] - a[1])
    t = ((p[0] - a[0]) * d[0] + (p[1] - a[1]) * d[1]) / (d[0] * d[0] + d[1] * d[1])
    return (2.0 * (a[0] + t * d[0]) - p[0], 2.0 * (a[1] + t * d[1]) - p[1])


def _tree_chains(levels, k):
    """(link, seq, images) of every row of level k, read back through its
    parents; level 0's parent column is the link."""
    chains = []
    for r in range(len(levels[k][0])):
        seq, images = [], []
        for m in range(k, 0, -1):
            parent, w, x, y, _ = levels[m]
            seq.append(int(w[r]))
            images.append((float(x[r]), float(y[r])))
            r = int(parent[r])
        images.append((float(levels[0][2][r]), float(levels[0][3][r])))
        chains.append((int(levels[0][0][r]), tuple(reversed(seq)), images[::-1]))
    return chains


def _wall_columns(ends):
    """The tracer's wall columns (ax, ay, dx, dy) and lengths of the rows
    (ax, ay, bx, by) of ends."""
    walls = (ends[:, 0], ends[:, 1], ends[:, 2] - ends[:, 0], ends[:, 3] - ends[:, 1])
    return walls, np.array(list(map(math.hypot, walls[2].tolist(), walls[3].tolist())))


@pytest.mark.parametrize("max_order", [0, 1, 2, 3])
@pytest.mark.parametrize("n_walls", [1, 2, 3, 4])
def test_image_chains_visit_each_sequence_once_and_mirror_directly(n_walls, max_order):
    # The image tree over two links against the reference's wall sequences
    # (itertools.product), _mirror_xy and the scalar image chain. At an
    # infinite reach nothing is pruned and the tree holds every sequence;
    # at a reach like the tracer's it holds a subset, in the same order.
    rng = np.random.Generator(np.random.PCG64(n_walls))
    ends = [tuple(map(float, rng.uniform(-10.0, 10.0, 2))) for _ in range(2 * n_walls)]
    walls = [(complex(*ends[2 * i]), complex(*ends[2 * i + 1])) for i in range(n_walls)]
    columns = np.array([(*ends[2 * i], *ends[2 * i + 1]) for i in range(n_walls)]).reshape(-1, 4)
    tx = [(0.3, -1.7), (4.1, 2.6)]
    wall_columns, lengths = _wall_columns(columns)
    want = scalar_tracer.wall_sequences(n_walls, max_order)  # a prefix before its extensions
    for reach in (math.inf, 4.0 * (max_order + 1) * 10.0):
        children = raytracer._child_table(columns, wall_columns, lengths, reach)
        levels = raytracer._image_tree(wall_columns, children, np.array(tx), max_order)
        assert len(levels) == max_order + 1
        for link in range(len(tx)):
            got = [(seq, images) for k in range(1, len(levels))
                   for n, seq, images in _tree_chains(levels, k) if n == link]
            seqs = [seq for seq, _ in got]
            # once each, lexicographic within an order
            assert seqs == sorted(set(seqs) & set(want), key=lambda seq: (len(seq), seq))
            if reach == math.inf:
                assert seqs == sorted(want, key=len)
            for seq, images in got:
                direct = [tx[link]]
                for si in seq:
                    direct.append(_mirror_xy(direct[-1], ends[2 * si], ends[2 * si + 1]))
                assert images == direct
                assert [(z.real, z.imag) for z in scalar_tracer.image_chain(
                    walls, complex(*tx[link]), seq)] == direct


def _walked_back(sc):
    """(link, seq, bounce points) of every candidate that the array walk
    back keeps, in its order, and the number of tree rows it walked."""
    got, rows = [], []
    walk_back = raytracer._walk_back

    def record(walls, u_eps, levels, rx):
        table, n_candidates = walk_back(walls, u_eps, levels, rx)
        x, y, wall, nxt = (c.tolist() for c in table[:4])
        for r in range(len(x) - n_candidates, len(x)):
            seq, points = [], []
            r = nxt[r]
            while r >= len(rx):  # a bounce record; rows below are the RXs
                seq.append(wall[r])
                points.append((x[r], y[r]))
                r = nxt[r]
            got.append((r, tuple(seq), repr(points)))
        rows.append(sum(len(level[0]) for level in levels))
        return table, n_candidates

    with mock.patch.object(raytracer, "_walk_back", record):
        trace_scenario(sc)
    assert len(rows) == 1  # one chunk: its candidates come by order, then link
    return got, rows[0]


def _scalar_walked_back(sc):
    """(link, seq, bounce points) of every wall sequence, the LOS included,
    that scalar_tracer.walk_back keeps, by order, link and sequence."""
    walls = [(complex(*s.endpoint_a), complex(*s.endpoint_b)) for s in sc.surfaces]
    seqs = [(), *scalar_tracer.wall_sequences(len(walls), sc.max_reflections)]
    out = []
    for k in range(sc.max_reflections + 1):
        for n, link in enumerate(sc.links):
            for seq in (seq for seq in seqs if len(seq) == k):
                images = scalar_tracer.image_chain(walls, complex(*link.tx_pos), seq)
                points = scalar_tracer.walk_back(walls, complex(*link.rx_pos), seq, images)
                if points is not None:
                    out.append((n, seq, repr([(z.real, z.imag) for z in points])))
    return out


def test_the_pruned_room_walks_back_every_survivor_of_the_full_tree():
    # 6 links x 1,597 candidates: the prune drops 2,988 of 9,582 rows, and
    # the walk back keeps the same 386 candidates; 80 of them become rays
    sc = _room_12_walls()
    got, rows = _walked_back(sc)
    assert rows == 6594
    assert got == _scalar_walked_back(sc)
    assert len(got) == 386
    assert sum(map(len, trace_scenario(sc))) == 80


def test_trace_memory_stays_within_the_chunk_bound():
    # 12 walls at 4 bounces: 17,569 candidates per link, more than one
    # chunk's _ROWS. The tracer before the prune peaked at 3.96 MB here.
    sc = _room_12_walls()
    sc = _scenario(sc.surfaces, sc.links, max_reflections=4)
    trace_scenario(sc)
    tracemalloc.start()
    try:
        trace_scenario(sc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4e6


_COORD = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)
_SNAPPED = st.integers(-4, 4).map(float)  # collinear, parallel and touching walls
_SIGNED_ZERO = st.sampled_from([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0, 3.0])


def _spans_a_line(a, b):
    """Whether a surface from a to b passes the boundary: a squared length
    that underflows to 0, as between (0, 0) and (0, 2.2e-309), spans none."""
    dx, dy = b[0] - a[0], b[1] - a[1]
    return dx * dx + dy * dy > 0.0


@st.composite
def _random_scenes(draw):
    coord = draw(st.sampled_from([_SNAPPED, _SIGNED_ZERO, _COORD, _COORD, None]))
    if coord is None:  # one power of ten per scene: products and sums overflow
        scale = 10.0 ** draw(st.integers(154, 300))
        coord = _COORD.map(lambda v: v * scale)
    point = st.tuples(coord, coord)
    surfaces = []
    for _ in range(draw(st.integers(2, 8))):
        a = draw(point)
        b = draw(point.filter(lambda b, a=a: _spans_a_line(a, b)))
        surfaces.append(Surface(a, b, draw(st.integers(1, 2))))
    links = []
    for _ in range(draw(st.integers(1, 4))):
        tx = draw(point)
        rx = draw(point.filter(
            lambda rx, tx=tx: rx != tx and not _los_friis_overflows(0.1, math.dist(tx, rx))))
        links.append(Link(tx, rx, 30, 2, 2))
    return _scenario(surfaces, links, max_reflections=draw(st.integers(0, 3)))


@settings(max_examples=400)  # the array tracer's exactness guard: ~1 s per 100
@given(_random_scenes())
def test_random_scenes_match_the_scalar_reference(sc):
    want = _reference(sc)
    assert _reprs(trace_scenario(sc)) == want
    for n in range(sc.n_links):
        try:
            rays = trace_link(sc, n)
        except UnusableLinkError:
            rays = []
        assert _reprs([rays]) == want[n:n + 1]


# ---------------------------------------------------------------------------
# The ray table, from the tracer's columns.
# ---------------------------------------------------------------------------

def _assert_reference_table(table, ray_cache, wavelength_m):
    """table (from columns) equals the per-ray reference of ray_cache (per-link
    Ray lists) bit for bit: friis, n_bounces, and each group's slots and cos."""
    friis, n_bounces, groups = scalar_forward.table_reference(ray_cache, wavelength_m)
    assert table.friis.shape == friis.shape and table.friis.tobytes() == friis.tobytes()
    assert type(table.n_bounces) is int and table.n_bounces == n_bounces
    assert [m for m, _, _ in table.groups] == [m for m, _, _ in groups]
    for (_, slots, cos), (_, want_slots, want_cos) in zip(table.groups, groups):
        assert slots.dtype == want_slots.dtype and slots.tolist() == want_slots.tolist()
        assert cos.dtype == want_cos.dtype and cos.tobytes() == want_cos.tobytes()


def _traced_table(sc):
    rays = trace_scenario(sc)
    _assert_reference_table(ray_table(rays), list(rays), sc.wavelength_m)
    return rays


def test_the_table_from_columns_equals_the_per_ray_reference(canyon):
    room = _room_12_walls()
    assert sum(map(len, _traced_table(canyon))) == 500
    assert max(r.n_bounces for link in _traced_table(room) for r in link) == 3
    flat = _traced_table(_scenario(room.surfaces, room.links, max_reflections=0))
    assert {r.n_bounces for link in flat for r in link} == {0}
    # every LOS blocked and no other wall: no link has a ray
    blocked = _scenario([Surface((2.0, -5.0), (2.0, 5.0), 1)],
                        [Link((0.0, 0.0), (4.0, 0.0), 30, 2, 2),
                         Link((0.0, 1.0), (4.0, 1.0), 30, 2, 2)])
    assert list(_traced_table(blocked)) == [[], []]


def test_the_kept_links_table_equals_the_per_ray_reference(canyon):
    # the canyon plus a link (index 100) sealed inside a box, which the
    # prepared problem drops: its table covers the other 100 links' rows
    box = [Surface(a, b, 1) for a, b in (((-0.5, -0.5), (0.5, -0.5)), ((0.5, -0.5), (0.5, 0.5)),
                                         ((0.5, 0.5), (-0.5, 0.5)), ((-0.5, 0.5), (-0.5, -0.5)))]
    sc = Scenario(surfaces=canyon.surfaces + tuple(box), materials=canyon.materials,
                  links=canyon.links + (Link((0.0, 0.0), (30.0, 0.0), 30, 2, 2),),
                  wavelength_m=canyon.wavelength_m, max_reflections=canyon.max_reflections)
    rays = trace_scenario(sc)
    prob = experiment._split_links(sc, rays, np.zeros(sc.n_links))
    assert prob.dropped == [100]
    kept = [rays[n] for n in prob.kept]
    assert _reprs(prob.ray_cache) == _reprs(kept)
    _assert_reference_table(prob.ray_cache.table, kept, sc.wavelength_m)


def test_friis_is_libm_pow_as_pythons_float_power_is():
    # a numpy array's ** 2 squares, and a square differs from libm pow in
    # the last bit on ~0.08 % of doubles: a few dozen of these 40,000 rays
    rng = np.random.Generator(np.random.PCG64(28))
    lengths, angles = rng.uniform(1.0, 500.0, (2, 200, 100)), rng.uniform(0.0, 1.5, (200, 100))
    cache = [[Ray(float(length), (Reflection(1 + j % 2, float(angle)),) * (j % 3))
              for j, (length, angle) in enumerate(zip(ls, a))]
             for ls, a in zip(lengths[0], angles)]
    cache += [[Ray(float(length))] for length in lengths[1].ravel()]
    rays = scalar_forward.as_rays(cache, 0.1, "TE")
    assert [list(rays[n]) for n in (0, 150, 299)] == [cache[n] for n in (0, 150, 299)]
    _assert_reference_table(ray_table(rays), cache, 0.1)
    friis = np.float_power(0.1 / (4.0 * math.pi * rays.length), 2)
    assert np.count_nonzero(friis != (0.1 / (4.0 * math.pi * rays.length)) ** 2) > 0


@given(_random_scenes())
def test_random_scenes_build_the_reference_table(sc):
    _traced_table(sc)


@settings(max_examples=400)
@given(_random_scenes())
def test_random_scenes_walk_back_like_the_scalar_reference(sc):
    # the prune may drop only candidates that the walk back would reject
    assert _walked_back(sc)[0] == _scalar_walked_back(sc)


# ---------------------------------------------------------------------------
# Traced rays as one handle: their wavelength, polarization and table.
# ---------------------------------------------------------------------------

def _table_bits(table):
    return (table.friis.shape, table.friis.tobytes(), table.n_bounces, table.polarization,
            [(m, slots.tolist(), cos.tobytes()) for m, slots, cos in table.groups])


def test_traced_rays_carry_the_wavelength_and_polarization_their_table_is_built_at(canyon):
    tm = dataclasses.replace(canyon, wavelength_m=0.3, polarization="TM")
    for sc in (canyon, tm):
        rays = trace_scenario(sc)
        kept = rays.take([1, 3])
        for r in (rays, kept):
            assert (r.wavelength_m, r.polarization) == (sc.wavelength_m, sc.polarization)
        assert rays.table is rays.table  # built once
        assert _table_bits(rays.table) == _table_bits(ray_table(rays))
    # the rays' polarization, not the scenario's, decides the table
    as_tm = dataclasses.replace(trace_scenario(canyon), polarization="TM")
    want = trace_scenario(dataclasses.replace(canyon, polarization="TM")).table
    assert _table_bits(as_tm.table) == _table_bits(want)


@pytest.mark.parametrize("links", [[3, 1], [1, 1], [200], [-1], [True], [[1, 2]], 3])
def test_take_refuses_links_that_are_not_strictly_ascending_link_indices(canyon_rays, links):
    # [3, 1] would number its rows out of order (link 0 holding both links'
    # rays), [1, 1] would report 2 links all on one, [200] is out of range
    with pytest.raises(ValueError, match=r"^links=.* must be strictly ascending link indices "
                                         r"in \[0, 100\)$"):
        canyon_rays.take(links)


def test_take_keeps_the_given_links_in_order(canyon_rays):
    kept = canyon_rays.take([1, 3])
    assert len(kept) == 2 and kept.link.tolist() == [0] * 5 + [1] * 5
    assert [list(kept[0]), list(kept[1])] == [list(canyon_rays[1]), list(canyon_rays[3])]
    assert len(canyon_rays.take([])) == 0
