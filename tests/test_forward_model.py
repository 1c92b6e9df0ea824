"""Fresnel coefficients, ray/link gains, forward map, and linearization."""

import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from permgamp import (
    Dataset,
    Link,
    Material,
    Scenario,
    Surface,
    UnusableLinkError,
    default_config,
    forward,
    make_canyon_scenario,
    normalize_measurements,
    prepare_problem,
    run_estimate,
    solve,
    synthesize_dataset,
    trace_link,
    trace_scenario,
)
from permgamp import forward_model, raytracer
from permgamp.forward_model import (
    Linearization,
    _fresnel,
    _fresnel_slope,
    gains_db,
    jacobian,
    link_totals,
    ray_table,
)
from permgamp.raytracer import Ray, Reflection
from scalar_forward import as_rays, fd_jacobian, fresnel_power_coeff, ray_gain_linear

# mpmath (50 digits) evaluation of the stated TM formula at eps=4, theta=pi/3
REF_TM_4_PI3 = 0.002689798300996443631259099
FRIIS_03_1 = 0.000569931657988149964371822  # (0.3 / 4 pi)^2


def _hp_fresnel(eps, theta, polarization):
    mp.mp.dps = 50
    eps = mp.mpf(eps)
    c = mp.cos(mp.mpf(theta))
    s = mp.sqrt(eps - mp.sin(mp.mpf(theta)) ** 2)
    if polarization == "TE":
        g = (c - s) / (c + s)
    else:
        g = (eps * c - s) / (eps * c + s)
    return g * g


def test_vacuum_reflects_nothing():
    for theta in (0.0, 0.3, 1.0, 1.5):
        assert fresnel_power_coeff(1.0, theta, "TE") == 0.0
        assert fresnel_power_coeff(1.0, theta, "TM") == 0.0


def test_normal_incidence_closed_form():
    # eps=4: Gamma = (1-2)/(1+2) = -1/3 either polarization
    assert abs(fresnel_power_coeff(4.0, 0.0, "TE") - 1.0 / 9.0) <= 1e-15
    assert abs(fresnel_power_coeff(4.0, 0.0, "TM") - 1.0 / 9.0) <= 1e-15


def test_tm_against_high_precision_reference():
    got = fresnel_power_coeff(4.0, math.pi / 3.0, "TM")
    assert abs(got - REF_TM_4_PI3) <= 1e-15
    assert abs(got - float(_hp_fresnel(4.0, math.pi / 3.0, "TM"))) <= 1e-15


def test_te_tm_agree_at_normal_incidence(rng):
    for _ in range(50):
        eps = rng.uniform(1.0, 15.0)
        te = fresnel_power_coeff(eps, 0.0, "TE")
        tm = fresnel_power_coeff(eps, 0.0, "TM")
        assert abs(te - tm) <= 1e-15


def test_power_coeff_in_unit_interval_and_te_monotone():
    eps_grid = np.linspace(1.0, 15.0, 57)
    theta_grid = np.linspace(0.0, 1.4, 29)
    for theta in theta_grid:
        te = fresnel_power_coeff(eps_grid, theta, "TE")
        tm = fresnel_power_coeff(eps_grid, theta, "TM")
        assert np.all((te >= 0.0) & (te <= 1.0))
        assert np.all((tm >= 0.0) & (tm <= 1.0))
        assert np.all(np.diff(te) >= -1e-15)  # TE increases with eps


def test_tm_brewster_zero():
    eps = 4.0
    theta_b = math.atan(math.sqrt(eps))
    assert fresnel_power_coeff(eps, theta_b, "TM") <= 1e-28


def test_domain_errors():
    with pytest.raises(ValueError):
        fresnel_power_coeff(0.5, 0.3)
    with pytest.raises(ValueError):
        fresnel_power_coeff(4.0, math.pi / 2.0)
    with pytest.raises(ValueError):
        fresnel_power_coeff(4.0, 0.3, "XX")


def test_fresnel_deriv_against_mpmath(rng):
    mp.mp.dps = 50
    for pol in ("TE", "TM"):
        for _ in range(30):
            eps = rng.uniform(1.01, 14.0)
            theta = rng.uniform(0.0, 1.45)
            h = mp.mpf("1e-20")
            hi = _hp_fresnel(mp.mpf(eps) + h, theta, pol)
            lo = _hp_fresnel(mp.mpf(eps) - h, theta, pol)
            ref = float((hi - lo) / (2 * h))
            c = math.cos(theta)
            got = _fresnel_slope(eps, c, pol, *_fresnel(eps, c, pol))
            assert abs(got - ref) <= 1e-9 * max(1.0, abs(ref))


def _link_gain_db(rays, eps, wavelength_m):  # one link, TE: the kernel on its table
    return float(gains_db(ray_table(as_rays([rays]), wavelength_m, "TE"), eps)[0])


def _los(length):
    return Ray(total_length_m=length)


def _bounce(length, material, angle):
    return Ray(total_length_m=length, reflections=(Reflection(material, angle),))


def test_ray_gain_friis():
    g = ray_gain_linear(_los(1.0), np.array([4.0]), wavelength_m=0.3)
    assert abs(g - FRIIS_03_1) <= 1e-18
    assert abs(g - 5.6993e-4) <= 1e-7


def test_ray_gain_vacuum_bounce_is_zero():
    for angle in (0.0, 0.4, 1.2, 1.5):
        g = ray_gain_linear(_bounce(1.0, 1, angle), np.array([1.0]), wavelength_m=0.3)
        assert g == 0.0


def test_ray_gain_bounce_product():
    g = ray_gain_linear(_bounce(1.0, 1, 0.0), np.array([4.0]), wavelength_m=0.3)
    assert abs(g - FRIIS_03_1 / 9.0) <= 1e-18


def test_link_gain_single_ray():
    g = ray_gain_linear(_los(2.0), np.array([4.0]), 0.3)
    assert abs(_link_gain_db([_los(2.0)], np.array([4.0]), 0.3) - 10 * math.log10(g)) <= 1e-12


def test_link_gain_doubling_adds_3db():
    one = _link_gain_db([_los(2.0)], np.array([4.0]), 0.3)
    two = _link_gain_db([_los(2.0), _los(2.0)], np.array([4.0]), 0.3)
    assert abs(two - one - 10 * math.log10(2.0)) <= 1e-12


def test_link_gain_permutation_invariant(canyon, canyon_rays, rng):
    eps = np.array([2.5, 7.0])
    for n in (0, 5, 17):
        rays = list(canyon_rays[n])
        base = _link_gain_db(rays, eps, canyon.wavelength_m)
        perm = list(rays)
        rng.shuffle(perm)
        assert _link_gain_db(perm, eps, canyon.wavelength_m) == base


def test_link_gain_all_annihilated_raises():
    rays = [_bounce(5.0, 1, 0.2), _bounce(7.0, 1, 0.5)]
    with pytest.raises(UnusableLinkError):
        _link_gain_db(rays, np.array([1.0]), 0.3)


def _canyon3():
    """10-link canyon at 3 bounces: mixed-material rays with up to 3 bounces."""
    sc = make_canyon_scenario(n_links=10, max_reflections=3)
    rays = trace_scenario(sc)
    assert any(
        r.n_bounces == 3 and len({b.material_index for b in r.reflections}) == 2
        for link in rays for r in link
    )
    return sc, rays


def test_canyon_link_gain_matches_direct_recomputation(canyon, canyon_rays):
    eps = np.array([4.0, 7.0])
    sc3, rays3 = _canyon3()
    cases = [(canyon, canyon_rays, n) for n in (0, 33, 99)]
    cases += [(sc3, rays3, n) for n in range(sc3.n_links)]
    for sc, rays, n in cases:
        total = 0.0
        for ray in rays[n]:
            g = (sc.wavelength_m / (4 * math.pi * ray.total_length_m)) ** 2
            for ref in ray.reflections:
                e = eps[ref.material_index - 1]
                c = math.cos(ref.incidence_angle)
                s = math.sqrt(e - math.sin(ref.incidence_angle) ** 2)
                g *= ((c - s) / (c + s)) ** 2
            total += g
        expect = 10 * math.log10(total)
        got = _link_gain_db(rays[n], eps, sc.wavelength_m)
        assert abs(got - expect) <= 1e-12
    # the array kernel reproduces the scalar per-ray reference bit for bit
    out = forward(sc3, rays3, eps)
    for n in range(sc3.n_links):
        ref = sum(ray_gain_linear(r, eps, sc3.wavelength_m) for r in rays3[n])
        assert out[n] == 10 * math.log10(ref)
    single = [[r] for link in rays3 for r in link]
    per_ray = link_totals(ray_table(as_rays(single), sc3.wavelength_m, "TE"), eps[None])[0]
    assert per_ray.tolist() == [
        ray_gain_linear(r, eps, sc3.wavelength_m) for (r,) in single
    ]


def test_forward_is_per_link_composition(canyon, canyon_rays):
    eps = np.array([3.3, 6.1])
    for sc, rays, stride in ((canyon, canyon_rays, 9), (*_canyon3(), 1)):
        out = forward(sc, rays, eps)
        assert out.shape == (sc.n_links,)
        for n in range(0, sc.n_links, stride):
            assert out[n] == _link_gain_db(rays[n], eps, sc.wavelength_m)


def test_forward_error_names_the_link():
    rays = [[_los(5.0)], [_bounce(5.0, 1, 0.2)]]  # second link dies at eps=1
    sc = Scenario(
        surfaces=(),
        materials=(Material(1, 1.0, 13.0),),
        links=(Link((0, 0), (5, 0), 30, 2, 2), Link((0, 1), (5, 1), 30, 2, 2)),
        wavelength_m=0.1,
    )
    with pytest.raises(UnusableLinkError, match="link 1"):
        forward(sc, as_rays(rays), np.array([1.0]))


def test_prepare_problem_keeps_the_links_above_the_floor(monkeypatch):
    # link 0 LOS, link 1 a single bounce annihilated at eps = 1, link 2 no
    # ray; the prior midpoint is eps = 1 (the upper bound 1 + ulp rounds the
    # midpoint to 1) or eps = 4
    rays = [[_los(5.0)], [_bounce(5.0, 1, 0.2)], []]
    monkeypatch.setattr(raytracer, "trace_scenario", lambda sc: as_rays(rays))
    kept = {}
    for mid, upper in ((1.0, math.nextafter(1.0, 2.0)), (4.0, 7.0)):
        sc = Scenario(
            surfaces=(),
            materials=(Material(1, 1.0, upper),),
            links=tuple(Link((0, n), (5, n), 30, 2, 2) for n in range(3)),
            wavelength_m=0.1,
        )
        lo, hi = sc.prior_bounds()
        assert (0.5 * (lo + hi)).tolist() == [mid]
        prob = prepare_problem(sc, Dataset(measured_db=[-1.0, -2.0, -3.0], noise_var=0.25))
        kept[mid] = prob.kept
        assert prob.dropped == [n for n in range(3) if n not in prob.kept]
        assert list(prob.ray_cache) == [rays[n] for n in prob.kept]
        assert prob.y.tolist() == (np.array([-1.0, -2.0, -3.0]) - sc.link_offsets())[prob.kept].tolist()
        # the kept links' table gives the gains forward gives on their rays
        eps = np.array([mid])
        assert np.array_equal(gains_db(prob.table, eps), forward(sc, prob.ray_cache, eps))
    assert kept == {1.0: [0], 4.0: [0, 1]}
    with pytest.raises(UnusableLinkError, match="link 2"):
        forward(sc, as_rays(rays), np.array([4.0]))


def test_forward_single_link_reduces_to_link_gain():
    sc = Scenario(
        surfaces=(),
        materials=(Material(1, 1.5, 10.0, 4.0),),
        links=(Link((0, 0), (10, 0), 30, 2, 2),),
        wavelength_m=0.1,
    )
    rays = trace_scenario(sc)
    out = forward(sc, rays, np.array([4.0]))
    assert out.shape == (1,)
    assert out[0] == _link_gain_db(rays[0], np.array([4.0]), 0.1)


# ---------------------------------------------------------------------------
# Linearization.
# ---------------------------------------------------------------------------

def _linearize(sc, rays, eps):
    """The linearization at one point: a batch of one, unwrapped."""
    lin = jacobian(ray_table(rays, sc.wavelength_m, sc.polarization), eps[None])
    return Linearization(a_matrix=lin.a_matrix[0], mu=lin.mu[0], gains=lin.gains[0])


def test_jacobian_zero_for_los_only():
    sc = Scenario(
        surfaces=(),
        materials=(Material(1, 1.5, 10.0, 4.0), Material(2, 1.5, 10.0, 6.0)),
        links=(Link((0, 0), (10, 0), 30, 2, 2), Link((0, 1), (5, 7), 30, 2, 2)),
        wavelength_m=0.1,
    )
    rays = trace_scenario(sc)
    lin = _linearize(sc, rays, np.array([4.0, 6.0]))
    assert np.all(lin.a_matrix == 0.0)


def test_jacobian_single_bounce_closed_form():
    # One normal-incidence bounce, TE: d gain_db / d eps = (10/ln10) * 2 / (sqrt(eps) (eps-1))
    sc = Scenario(
        surfaces=(Surface((-50.0, 0.0), (50.0, 0.0), 1),),
        materials=(Material(1, 1.5, 10.0, 4.0),),
        links=(Link((0.0, 1.0), (0.0, 3.0), 30, 2, 2),),
        wavelength_m=0.3,
    )
    bounce_only = as_rays([[r for r in trace_link(sc, 0) if r.reflections]])
    for eps in (2.0, 4.0, 9.0):
        lin = _linearize(sc, bounce_only, np.array([eps]))
        expect = (10 / math.log(10)) * 2.0 / (math.sqrt(eps) * (eps - 1.0))
        assert abs(lin.a_matrix[0, 0] - expect) <= 1e-10 * expect
    # the quoted value at eps=4
    lin = _linearize(sc, bounce_only, np.array([4.0]))
    assert abs(lin.a_matrix[0, 0] - 1.4476) <= 1e-4


def test_analytic_matches_central_fd(canyon, canyon_rays):
    # Zero reflection coefficients: material 1 at eps = 1 (vacuum), and a
    # TM canyon with material 1 at the Brewster permittivity of one bounce.
    vac = make_canyon_scenario(n_links=10, priors=((1.0, 10.0), (3.0, 12.0)))
    tm = Scenario(
        surfaces=canyon.surfaces,
        materials=canyon.materials,
        links=canyon.links,
        wavelength_m=canyon.wavelength_m,
        max_reflections=canyon.max_reflections,
        polarization="TM",
    )
    tm_rays = trace_scenario(tm)
    theta = min(
        (b.incidence_angle for link in tm_rays for r in link for b in r.reflections
         if b.material_index == 1),
        key=lambda t: abs(math.tan(t) ** 2 - 7.0),
    )
    eps_b = math.tan(theta) ** 2
    assert fresnel_power_coeff(eps_b, theta, "TM") <= 1e-28
    cases = [
        (canyon, canyon_rays, np.array([3.7, 6.2])),
        (vac, trace_scenario(vac), np.array([1.0, 6.2])),
        (tm, tm_rays, np.array([eps_b, 6.2])),
    ]
    for sc, rays, eps in cases:
        la = _linearize(sc, rays, eps)
        fd, _ = fd_jacobian(ray_table(rays, sc.wavelength_m, sc.polarization), eps)
        assert np.all(np.isfinite(la.a_matrix))
        # At eps = 1 the FD step is one-sided, with an O(step) error that a
        # relative check cannot absorb; there d|Gamma|^2/d eps is exactly 0.
        central = eps > 1.0
        assert np.all(la.a_matrix[:, ~central] == 0.0)
        assert np.all(np.abs(fd[:, ~central]) <= 1e-4)
        a, f = la.a_matrix[:, central], fd[:, central]
        scale = np.maximum(np.abs(a), 1e-9)
        assert np.max(np.abs(a - f) / scale) <= 1e-5
        fd_mu = forward(sc, rays, eps) - fd @ eps
        assert np.allclose(la.mu, fd_mu, rtol=0, atol=1e-4)


def test_linearization_exact_at_expansion_point(canyon, canyon_rays):
    for eps in (np.array([2.0, 4.0]), np.array([4.5, 9.0])):
        lin = _linearize(canyon, canyon_rays, eps)
        g = forward(canyon, canyon_rays, eps)
        recon = lin.a_matrix @ eps + lin.mu
        assert np.max(np.abs(recon - g)) <= 1e-10 * np.max(np.abs(g))


def test_first_order_remainder_ratio(canyon, canyon_rays, rng):
    # Halving the perturbation must shrink the Taylor remainder ~4x.
    eps = np.array([3.0, 6.0])
    lin = _linearize(canyon, canyon_rays, eps)

    def remainder(delta):
        g = forward(canyon, canyon_rays, eps + delta)
        return np.linalg.norm(g - (lin.a_matrix @ (eps + delta) + lin.mu))

    checked = 0
    for _ in range(20):
        d = rng.uniform(-1.0, 1.0, 2)
        d *= 0.2 / np.linalg.norm(d)
        r1, r2 = remainder(d), remainder(d / 2.0)
        if r1 < 1e-8:
            continue  # nearly linear direction: ratio is noise
        checked += 1
        assert 3.5 <= r1 / r2 <= 4.5
    assert checked >= 10


def test_fd_one_sided_at_boundary():
    # eps exactly 1: a central step would cross the physical boundary
    sc = make_canyon_scenario(n_links=10, priors=((1.0, 10.0), (1.0, 12.0)))
    table = ray_table(trace_scenario(sc), sc.wavelength_m, sc.polarization)
    _, warns = fd_jacobian(table, np.array([1.0, 5.0]))
    assert any("one-sided" in w and "material 1" in w for w in warns)
    _, warns = fd_jacobian(table, np.array([3.0, 5.0]))
    assert warns == []


def test_solve_builds_ray_tables_once(canyon, canyon_table, ray_table_calls):
    # a solve and its 20 linearizations run on the caller's table, and an
    # estimate builds the one table of its prepared problem (the oracle one more)
    dataset = synthesize_dataset(canyon, 0.5, 3)  # through forward: one table
    y = normalize_measurements(canyon, dataset)
    ray_table_calls.clear()
    jacobian(canyon_table, np.array([[3.0, 6.0]]))
    solve(canyon, canyon_table, y, default_config(canyon, 0.0))
    assert ray_table_calls == []
    run_estimate(canyon, dataset)
    assert len(ray_table_calls) == 1
    ray_table_calls.clear()
    run_estimate(canyon, dataset, with_oracle=True, grid_step=0.5)
    assert len(ray_table_calls) == 2


def test_fresnel_evaluations_per_estimate_and_linearization(canyon, canyon_table, monkeypatch):
    # a linearization takes its gains, A's denominator and the derivative
    # terms from one coefficient array: one reflection core per material,
    # whose results the slopes reuse; an estimate adds the prior midpoint
    # and the end residual to its 20 linearizations, the first of which
    # gives the start residual
    calls = {"_fresnel": 0, "_fresnel_slope": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    dataset = synthesize_dataset(canyon, 0.5, 3)
    for name in calls:
        monkeypatch.setattr(forward_model, name, counted(name, getattr(forward_model, name)))
    jacobian(canyon_table, np.array([[3.0, 6.0]]))
    assert calls == {"_fresnel": 2, "_fresnel_slope": 2}
    calls.update(dict.fromkeys(calls, 0))
    run_estimate(canyon, dataset)
    assert calls == {"_fresnel": 44, "_fresnel_slope": 40}


@pytest.mark.parametrize("eps", [[math.nan, 4.0], [3.0, math.inf]], ids=["nan", "inf"])
@pytest.mark.parametrize("entry", [
    lambda sc, rays, table, eps: forward(sc, rays, eps),
    lambda sc, rays, table, eps: gains_db(table, eps),
    lambda sc, rays, table, eps: link_totals(table, [eps]),
    lambda sc, rays, table, eps: jacobian(table, [eps]),
    lambda sc, rays, table, eps: _link_gain_db(rays[0], eps, sc.wavelength_m),
    lambda sc, rays, table, eps: fresnel_power_coeff(eps, 0.3),
], ids=["forward", "gains_db", "link_totals", "jacobian", "link_gain_db", "fresnel_power_coeff"])
def test_a_non_finite_permittivity_is_refused(canyon, canyon_rays, canyon_table, entry, eps):
    # unchecked, NaN comes out as NaN gains, and inf warns in a divide first
    with pytest.raises(ValueError, match=r"eps=.* must be finite and >= 1"):
        entry(canyon, canyon_rays, canyon_table, np.array(eps))


PER_MATERIAL = "one permittivity per material, 2"
NO_COLUMN = "no permittivity for material 2"


@pytest.mark.parametrize("entry, eps, message", [
    (lambda sc, rays, table, eps: forward(sc, rays, eps), [3.0, 6.0, 99.0], PER_MATERIAL),
    (lambda sc, rays, table, eps: forward(sc, rays, eps), [3.0], PER_MATERIAL),
    (lambda sc, rays, table, eps: forward(sc, rays, eps), [[3.0, 6.0, 99.0]], PER_MATERIAL),
    (lambda sc, rays, table, eps: gains_db(table, eps), [3.0], NO_COLUMN),
    (lambda sc, rays, table, eps: link_totals(table, eps), [[3.0]], NO_COLUMN),
    (lambda sc, rays, table, eps: jacobian(table, eps), [[3.0]], NO_COLUMN),
], ids=["forward-3", "forward-1", "forward-batch-3", "gains_db-1", "link_totals-1", "jacobian-1"])
def test_an_eps_of_the_wrong_length_is_refused(canyon, canyon_rays, canyon_table, entry, eps,
                                               message):
    # unchecked, a third entry was ignored and a missing one raised a bare IndexError
    with pytest.raises(ValueError, match=rf"eps=.* {message}"):
        entry(canyon, canyon_rays, canyon_table, np.array(eps))


DISPATCH_SCRIPT = """
import hashlib
import numpy as np
import permgamp
from permgamp.forward_model import gains_db, jacobian, ray_table
canyon = permgamp.load_scenario(permgamp.bundled_scenario_path("canyon"))
table = ray_table(permgamp.trace_scenario(canyon), canyon.wavelength_m, canyon.polarization)
lo, hi = canyon.prior_bounds()
eps = lo + (hi - lo) * np.random.Generator(np.random.PCG64(0)).random((40, 2))
lin = jacobian(table, eps)
for out in (gains_db(table, eps), lin.a_matrix, lin.mu):
    print(hashlib.sha256(out.tobytes()).hexdigest())
"""
AVX512_TARGETS = ("X86_V4", "AVX512_ICL", "AVX512_SPR")


def numpy_dispatches_avx512():
    """True if numpy dispatches to an AVX-512 target on this host, False if
    not (also when NPY_DISABLE_CPU_FEATURES switched them off), None if this
    numpy does not say."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:
        return None
    return any(umath.__cpu_features__.get(t) for t in AVX512_TARGETS
               if t in umath.__cpu_dispatch__)


def test_the_forward_map_bits_do_not_depend_on_numpy_simd_dispatch():
    # gains_db, A and mu over 40 fixture permittivity pairs, with numpy's
    # AVX-512 code paths on and off
    if not numpy_dispatches_avx512():
        pytest.skip("numpy dispatches to no AVX-512 target on this host")

    def digests(disabled):
        proc = subprocess.run(
            [sys.executable, "-c", DISPATCH_SCRIPT], stdin=subprocess.DEVNULL,
            capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=str(Path(forward_model.__file__).parents[1]),
                     NPY_DISABLE_CPU_FEATURES=disabled),
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        return proc.stdout.split()

    on = digests("")
    assert len(on) == 3
    assert digests(" ".join(AVX512_TARGETS)) == on
