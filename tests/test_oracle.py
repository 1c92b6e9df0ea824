"""Grid MAP, log posterior, and quadrature moments."""

import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

import per_node_grid
import permgamp
from permgamp import (
    GridSpec,
    Interval,
    Link,
    Material,
    Scenario,
    Surface,
    UnusableLinkError,
    ValidationError,
    forward,
    forward_model,
    grid_map,
    log_posterior,
    oracle,
    trace_scenario,
)
from permgamp.forward_model import ray_table
from permgamp.oracle import _grid_ssr, grid_axes
from permgamp.raytracer import Ray, Reflection
from quadrature import quadrature_moments
from scalar_forward import as_rays


RUN_PATH_SCRIPT = """
import contextlib, io, sys
sys.modules["scipy"] = None  # from here on, any scipy import raises
import permgamp, permgamp.cli
canyon = permgamp.bundled_scenario_path("canyon")
problem = ["--scenario", canyon, "--sigma", "0.5", "--seed", "1"]
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    codes = [permgamp.cli.main(["estimate", *problem]),
             permgamp.cli.main(["sweep", "--scenario", canyon, "--sigmas", "0.5,1",
                                "--seeds", "2", "--out-dir", sys.argv[1]]),
             permgamp.cli.main(["oracle", *problem])]
print(codes, sys.modules["scipy"], sorted(m for m in sys.modules if m.startswith("scipy.")))
"""


def test_the_run_path_loads_no_scipy(tmp_path):
    # the moment kernel takes erf and erfcx from libm, and only the test
    # references integrate: importing the package and its CLI, and running
    # each command, must not import scipy, which the subprocess blocks
    proc = subprocess.run(
        [sys.executable, "-c", RUN_PATH_SCRIPT, str(tmp_path / "sweep")],
        stdin=subprocess.DEVNULL, capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(Path(permgamp.__file__).parents[1])),
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[0, 0, 0] None []\n", "")


def test_quadrature_symmetric_mean_zero():
    mean, var = quadrature_moments(0.0, 1.0, Interval(-1.0, 1.0))
    assert abs(mean) <= 1e-12
    assert 0.0 < var < 1.0 / 3.0


def test_quadrature_untruncated_limit():
    mean, var = quadrature_moments(5.0, 1e-8, Interval(0.0, 10.0))
    assert abs(mean - 5.0) <= 1e-11
    assert abs(var - 1e-8) <= 1e-11


def test_quadrature_flat_limit():
    mean, var = quadrature_moments(0.0, 1e9, Interval(-1.0, 1.0))
    assert abs(mean) <= 1e-9
    assert abs(var - 1.0 / 3.0) <= 1e-6


def test_quadrature_rejects_bad_tau():
    with pytest.raises(ValueError):
        quadrature_moments(0.0, -1.0, Interval(0.0, 1.0))


def _line_scenario(true_eps=4.0, prior=(1.5, 10.0), n=12):
    mats = (Material(1, prior[0], prior[1], true_eps),)
    surf = (Surface((-10.0, 4.0), (60.0, 4.0), 1), Surface((-10.0, -4.0), (60.0, -4.0), 1))
    rng = np.random.Generator(np.random.PCG64(3))
    links = []
    for _ in range(n):
        x0 = float(rng.uniform(0.0, 40.0))
        links.append(Link((x0, 3.0), (x0 + 5.0, 3.1), 30.0, 2.0, 2.0))
    return Scenario(surfaces=surf, materials=mats, links=tuple(links), wavelength_m=0.1)


def test_log_posterior_outside_prior_is_minus_inf(canyon, canyon_rays):
    y = np.zeros(canyon.n_links)
    lo, hi = canyon.prior_bounds()
    assert log_posterior(canyon, canyon_rays, y, lo - 0.5, 0.5) == -math.inf
    assert log_posterior(canyon, canyon_rays, y, hi + 0.5, 0.5) == -math.inf
    assert log_posterior(canyon, canyon_rays, y, np.array([math.inf, hi[1]]), 0.5) == -math.inf


def test_log_posterior_perfect_fit_is_zero(canyon, canyon_rays):
    eps = canyon.true_eps_vector()
    y = forward(canyon, canyon_rays, eps)
    assert log_posterior(canyon, canyon_rays, y, eps, 0.5) == 0.0


def test_log_posterior_matches_recomputed_residuals(canyon, canyon_rays):
    eps_a = np.array([2.5, 5.0])
    eps_b = np.array([4.0, 8.0])
    y = forward(canyon, canyon_rays, canyon.true_eps_vector())
    sigma = 0.7
    for eps in (eps_a, eps_b):
        resid = y - forward(canyon, canyon_rays, eps)
        expect = -float(resid @ resid) / (2.0 * sigma**2)
        assert abs(log_posterior(canyon, canyon_rays, y, eps, sigma) - expect) <= 1e-12 * abs(expect)
    # ordering: the better-fitting point wins
    lp_a = log_posterior(canyon, canyon_rays, y, eps_a, sigma)
    lp_b = log_posterior(canyon, canyon_rays, y, eps_b, sigma)
    ra = np.sum((y - forward(canyon, canyon_rays, eps_a)) ** 2)
    rb = np.sum((y - forward(canyon, canyon_rays, eps_b)) ** 2)
    assert (lp_a > lp_b) == (ra < rb)


def test_log_posterior_link_permutation_invariant(canyon, canyon_rays):
    eps = np.array([2.5, 7.0])
    y = forward(canyon, canyon_rays, canyon.true_eps_vector())
    perm = np.random.Generator(np.random.PCG64(5)).permutation(canyon.n_links)
    lp = log_posterior(canyon, canyon_rays, y, eps, 0.5)
    lp_perm = log_posterior(
        canyon, as_rays([canyon_rays[i] for i in perm], canyon.wavelength_m, canyon.polarization),
        y[perm], eps, 0.5
    )
    assert abs(lp - lp_perm) <= 1e-9 * abs(lp)


@pytest.mark.parametrize("run", [
    lambda sc, rays, y, sigma_z: log_posterior(sc, rays, y, sc.true_eps_vector(), sigma_z),
    lambda sc, rays, y, sigma_z: grid_map(sc, rays, y, sigma_z, GridSpec(0.25)),
], ids=["log_posterior", "grid_map"])
@pytest.mark.parametrize("level, sigma_z, named", [
    (math.nan, 0.5, r"y\[7\]=nan"),
    (math.inf, 0.5, r"y\[7\]=inf"),
    (0.0, math.nan, "sigma_z=nan"),
    (0.0, math.inf, "sigma_z=inf"),
    (0.0, -1.0, "sigma_z=-1.0"),
], ids=["nan_level", "inf_level", "nan_sigma", "inf_sigma", "negative_sigma"])
def test_the_oracle_refuses_non_finite_levels_and_noise(canyon, canyon_rays, run, level,
                                                        sigma_z, named):
    # unchecked, a NaN level steers grid_map to the prior corner (1.5, 3.0)
    # and makes log_posterior NaN, and an infinite sigma_z scores every eps -0.0
    y = forward(canyon, canyon_rays, canyon.true_eps_vector())
    y[7] += level
    with pytest.raises(ValidationError, match=named):
        run(canyon, canyon_rays, y, sigma_z)


def _grid_map_at(sc, rays, y, eps):
    return grid_map(sc, rays, y, 0.5, GridSpec(0.25))


def _log_posterior_at(sc, rays, y, eps):
    return log_posterior(sc, rays, y, eps, 0.5)


@pytest.mark.parametrize("run, n_levels, n_eps, named", [
    (_grid_map_at, 1, 2, r"y has shape \(1,\) for 100 links"),
    (_grid_map_at, 3, 2, r"y has shape \(3,\) for 100 links"),
    (_log_posterior_at, 1, 2, r"y has shape \(1,\) for 100 links"),
    (_log_posterior_at, 3, 2, r"y has shape \(3,\) for 100 links"),
    (_log_posterior_at, 100, 1, r"eps has shape \(1,\) for 2 materials"),
    (_log_posterior_at, 100, 3, r"eps has shape \(3,\) for 2 materials"),
], ids=["grid_map-y1", "grid_map-y3", "log_posterior-y1", "log_posterior-y3",
        "log_posterior-eps1", "log_posterior-eps3"])
def test_the_oracle_refuses_levels_or_permittivities_of_the_wrong_length(
    canyon, canyon_rays, run, n_levels, n_eps, named
):
    # unchecked, one level broadcasts against every link (grid_map returns
    # the prior corner, log_posterior a finite score), and three levels or a
    # wrong-length eps stop in a bare numpy error
    y = forward(canyon, canyon_rays, canyon.true_eps_vector())[:n_levels]
    eps = np.resize(canyon.true_eps_vector(), n_eps)
    with pytest.raises(ValidationError, match=named):
        run(canyon, canyon_rays, y, eps)


def test_grid_map_noiseless_truth_on_node():
    sc = _line_scenario(true_eps=4.0)  # 4.0 = 1.5 + 50 * 0.05, on the grid
    rays = trace_scenario(sc)
    y = forward(sc, rays, sc.true_eps_vector())
    got = grid_map(sc, rays, y, 0.0, GridSpec(0.05))
    assert got.shape == (1,)
    assert abs(got[0] - 4.0) <= 1e-12


def test_grid_map_matches_independent_1d_scan():
    sc = _line_scenario(true_eps=4.3)
    rays = trace_scenario(sc)
    rng = np.random.Generator(np.random.PCG64(11))
    y = forward(sc, rays, sc.true_eps_vector()) + 0.3 * rng.standard_normal(sc.n_links)
    step = 0.05
    got = grid_map(sc, rays, y, 0.3, GridSpec(step))
    # plain loop over the axis, no vectorization tricks
    lo, hi = sc.prior_bounds()
    best_eps, best_ssr = None, math.inf
    k = 0
    while lo[0] + k * step <= hi[0] + 1e-12:
        eps = lo[0] + k * step
        ssr = float(np.sum((y - forward(sc, rays, np.array([eps]))) ** 2))
        if ssr < best_ssr:
            best_eps, best_ssr = eps, ssr
        k += 1
    assert abs(got[0] - best_eps) <= 1e-12


def test_grid_map_consistent_with_log_posterior(canyon, canyon_rays, rng):
    y = forward(canyon, canyon_rays, canyon.true_eps_vector())
    y = y + 0.5 * rng.standard_normal(len(y))
    got = grid_map(canyon, canyon_rays, y, 0.5, GridSpec(0.25))
    lp_best = log_posterior(canyon, canyon_rays, y, got, 0.5)
    axes = grid_axes(canyon, GridSpec(0.25))
    for _ in range(200):
        node = np.array([ax[rng.integers(len(ax))] for ax in axes])
        assert log_posterior(canyon, canyon_rays, y, node, 0.5) <= lp_best + 1e-9


def test_grid_map_never_outside_priors(canyon, canyon_rays, rng):
    y = forward(canyon, canyon_rays, canyon.true_eps_vector())
    y = y + 4.0 * rng.standard_normal(len(y))
    got = grid_map(canyon, canyon_rays, y, 4.0, GridSpec(0.1))
    lo, hi = canyon.prior_bounds()
    assert np.all(got >= lo) and np.all(got <= hi)


def test_grid_guard(canyon, canyon_rays):
    with pytest.raises(ValidationError, match="grid_step=0.0001: grid has"):
        grid_map(canyon, canyon_rays, np.zeros(canyon.n_links), 0.5, GridSpec(1e-4))


def test_grid_map_tie_break_is_lexicographic():
    # Free space: the gain does not depend on eps at all, so every grid node
    # ties and the lexicographically smallest one must win.
    sc = Scenario(
        surfaces=(),
        materials=(Material(1, 2.0, 5.0, 3.0), Material(2, 1.5, 4.0, 2.0)),
        links=(Link((0.0, 0.0), (10.0, 0.0), 30, 2, 2),),
        wavelength_m=0.1,
    )
    rays = trace_scenario(sc)
    y = forward(sc, rays, np.array([3.0, 2.0]))
    got = grid_map(sc, rays, y, 0.5, GridSpec(0.5))
    assert got.tolist() == [2.0, 1.5]


def test_grid_axes_cover_bounds(canyon):
    axes = grid_axes(canyon, GridSpec(0.05))
    lo, hi = canyon.prior_bounds()
    for m, ax in enumerate(axes):
        assert ax[0] == lo[m]
        assert ax[-1] <= hi[m] + 1e-12
        assert hi[m] - ax[-1] < 0.05


# ---------------------------------------------------------------------------
# The per-axis Fresnel tables against the per-node scan.
# ---------------------------------------------------------------------------

def _bits(a):
    return np.asarray(a, dtype=float).tobytes()


@st.composite
def _grid_problems(draw):
    """A ray table over 1 to 3 materials (the last one sometimes hit by no
    ray), rays of 0 to 3 bounces on mixed materials, a small grid whose
    axes may start at vacuum, and measurements for every link."""
    n_mat = draw(st.integers(1, 3))
    hit = n_mat - 1 if n_mat > 1 and draw(st.booleans()) else n_mat
    bounce = st.builds(Reflection, st.integers(1, hit),
                       st.sampled_from([0.0, 0.3, 0.9]) | st.floats(0.0, 1.5))
    ray = st.builds(Ray, st.floats(1.0, 80.0), st.lists(bounce, max_size=3).map(tuple))
    ray_cache = draw(st.lists(st.lists(ray, min_size=1, max_size=4), min_size=1, max_size=3))
    axes = []
    for _ in range(n_mat):
        lo = draw(st.sampled_from([1.0, 1.5]) | st.floats(1.0, 9.0))
        axes.append(lo + draw(st.sampled_from([0.25, 0.05])) * np.arange(draw(st.integers(1, 5))))
    y = draw(st.lists(st.floats(-160.0, -40.0), min_size=len(ray_cache),
                      max_size=len(ray_cache)))
    pol = draw(st.sampled_from(["TE", "TM"]))
    return ray_table(as_rays(ray_cache, 0.1, pol)), axes, np.array(y)


@given(_grid_problems())
def test_grid_ssr_matches_the_per_node_scan_bit_for_bit(problem):
    table, axes, y = problem
    want = _bits(per_node_grid.grid_ssr(table, axes, y))
    for segment in (1, 7, oracle.GRID_SEGMENT_ELEMENTS):
        for table_elements in (0, oracle.GRID_TABLE_ELEMENTS):  # per row, tabulated
            with mock.patch.object(oracle, "GRID_SEGMENT_ELEMENTS", segment), \
                 mock.patch.object(oracle, "GRID_TABLE_ELEMENTS", table_elements):
                assert _bits(_grid_ssr(table, axes, y)) == want


def test_grid_ssr_matches_the_per_node_scan_on_the_canyon(canyon, canyon_rays, canyon_table, rng):
    y = forward(canyon, canyon_rays, canyon.true_eps_vector())
    y = y + rng.standard_normal(len(y))
    axes = grid_axes(canyon, GridSpec(0.25))
    want = per_node_grid.grid_ssr(canyon_table, axes, y)
    assert _bits(_grid_ssr(canyon_table, axes, y)) == _bits(want)


def _hand_table(pol, *links):
    """A ray table under pol of links given as lists of rays, each ray a
    list of (material, incidence angle) bounces; [] is line of sight. The
    wavelength puts the Friis factors near 1, so link gains lie near 0 dB,
    where a one-ulp change of a ray's gain still changes the SSR's bits."""
    cache = [
        [Ray(21.0 + 7.0 * j, tuple(Reflection(m, a) for m, a in ray)) for j, ray in enumerate(rays)]
        for rays in links
    ]
    return ray_table(as_rays(cache, 4.0 * math.pi * 20.0, pol))


@pytest.mark.parametrize("pol", ["TE", "TM"])
def test_grid_ssr_folds_each_ray_over_its_bounces_in_order(pol):
    # a ray that bounces off the last (vectorized) material and then a row
    # material, and one the reverse, each alone on its link at grazing
    # incidence, so the order of their products shows in the SSR; a later
    # link holds line of sight, and links with fewer rays are padded
    two = _hand_table(
        pol,
        [[(2, 1.45), (1, 1.5)]],
        [[(1, 1.4), (2, 1.5)]],
        [[], [(2, 0.2)], [(1, 0.9)]],
    )
    three = _hand_table(
        pol,
        [[(3, 1.45), (1, 1.5)]],
        [[(1, 1.4), (3, 1.5)]],
        [[(2, 1.35), (3, 1.5), (1, 1.45)]],
        [[], [(3, 0.9), (2, 0.1)]],
    )
    one = _hand_table(
        pol,
        [[(1, 1.45), (1, 1.5)]],
        [[], [(1, 0.3)]],
    )
    beyond_a_segment = oracle.GRID_SEGMENT_ELEMENTS // one.friis.size + 3
    cases = [
        (two, [1.5 + 0.37 * np.arange(6), 1.5 + 0.29 * np.arange(40)]),
        (three, [1.5 + 0.37 * np.arange(4), 2.0 + 0.61 * np.arange(3), 1.5 + 0.29 * np.arange(30)]),
        (one, [1.5 + 0.0007 * np.arange(beyond_a_segment)]),
    ]
    for table, axes in cases:
        y = np.linspace(-3.0, -1.0, table.friis.shape[1])
        want = per_node_grid.grid_ssr(table, axes, y)
        assert _bits(_grid_ssr(table, axes, y)) == _bits(want)


def test_grid_map_evaluates_fresnel_once_per_axis_node(canyon, canyon_rays, monkeypatch):
    evaluated = []
    fresnel = forward_model._fresnel

    def counted(eps, c, *args, **kwargs):
        evaluated.append(np.broadcast(eps, c).size)
        return fresnel(eps, c, *args, **kwargs)

    monkeypatch.setattr(forward_model, "_fresnel", counted)
    y = forward(canyon, canyon_rays, canyon.true_eps_vector())
    evaluated.clear()
    grid_map(canyon, canyon_rays, y, 0.5, GridSpec(0.05))
    axes = grid_axes(canyon, GridSpec(0.05))
    groups = ray_table(canyon_rays).groups
    distinct = sum(len(axes[m]) * len(slots) for m, slots, _ in groups)
    assert distinct == 171 * 300 + 181 * 300  # 18,570,600 at one call per node
    assert 0 < sum(evaluated) <= distinct


def test_grid_map_memory_does_not_grow_past_the_ssr_vector(canyon, canyon_rays):
    # 1,196,938 nodes: the SSR vector is 9.6 MB; a grid of node vectors
    # (eps, meshgrid) would add 38 MB more
    y = forward(canyon, canyon_rays, canyon.true_eps_vector())
    tracemalloc.start()
    try:
        grid_map(canyon, canyon_rays, y, 0.5, GridSpec(0.008))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 20e6


def _vacuum_canyon(canyon, prior_hi=None):
    """The canyon with vacuum lower bounds, a 2 m material-1 blocker at
    x = 5 and a link (0, 0) -> (10, 0) behind it, which only reflected rays
    reach: at eps = (1, 1) that link's gain is exactly 0."""
    materials = tuple(
        replace(m, prior_lo=1.0) if prior_hi is None
        else replace(m, prior_lo=1.0, prior_hi=prior_hi, true_eps=None)
        for m in canyon.materials
    )
    return replace(
        canyon,
        materials=materials,
        surfaces=canyon.surfaces + (Surface((5.0, -1.0), (5.0, 1.0), 1),),
        links=canyon.links + (Link((0.0, 0.0), (10.0, 0.0), 30.0, 2.0, 2.0),),
    )


def test_grid_map_excludes_a_node_that_leaves_a_link_below_the_gain_floor(canyon, rng):
    sc = _vacuum_canyon(canyon)
    rays = trace_scenario(sc)
    assert all(ray.reflections for ray in rays[-1])
    y = forward(sc, rays, sc.true_eps_vector()) + 0.5 * rng.standard_normal(sc.n_links)
    axes = grid_axes(sc, GridSpec(0.25))
    ssr = _grid_ssr(ray_table(rays), axes, y)
    assert ssr[0, 0] == math.inf  # eps = (1, 1), no warning either
    assert np.isfinite(ssr.ravel()[1:]).all()
    got = grid_map(sc, rays, y, 0.5, GridSpec(0.25))
    best = np.unravel_index(np.argmin(ssr), ssr.shape)
    assert got.tolist() == [ax[i] for ax, i in zip(axes, best)]


def test_grid_map_refuses_a_grid_whose_every_node_is_excluded(canyon):
    # at step 0.25 both axes hold only eps = 1
    sc = _vacuum_canyon(canyon, prior_hi=1.2)
    rays = trace_scenario(sc)
    with pytest.raises(UnusableLinkError, match="every grid node"):
        grid_map(sc, rays, np.zeros(sc.n_links), 0.5, GridSpec(0.25))
