"""Solver steps against straight-line reimplementations, fixed points, and
end-to-end recovery."""

import json
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from permgamp import (
    Interval,
    SolverError,
    ValidationError,
    default_config,
    forward,
    make_canyon_scenario,
    normalize_measurements,
    report_to_json,
    solve,
    synthesize_dataset,
    trace_scenario,
    truncated_moments,
)
from permgamp import gamp
from permgamp.forward_model import Linearization, ray_table
from permgamp.gamp import GampConfig, GampState, init_state, input_step, output_step
from quadrature import quadrature_moments
from scalar_forward import fd_jacobian
from test_oracle import _vacuum_canyon


def _state(x0, tau_x, n):
    """A one-problem batch: every array has a leading axis of length 1."""
    x0 = np.asarray(x0, float)[None]
    return GampState(
        xt=np.array((np.asarray(tau_x, float)[None], x0)),
        ts=np.zeros((2, 1, n)),
        p_hat=np.zeros((1, n)),
        tau_p=np.zeros((1, n)),
        c_hat=x0.copy(),
        tau_c=np.ones_like(x0),
        warnings=[[]],
    )


def _lin(a, mu):
    """The linearization (A, mu) expanded at x = 0, where the gains are mu."""
    mu = np.asarray(mu, float)[None]
    return Linearization(a_matrix=np.asarray(a, float)[None], mu=mu, gains=mu)


def _sq(lin):
    """A squared elementwise, as solve_batch builds it once per linearization."""
    return lin.a_matrix * lin.a_matrix


def _affine(lin, y=None, support=None, prior_var=None):
    """lin as the steps take it, built by gamp.linearized as solve_batch does.
    Left out, y is zeros, the box [0, 1] and the prior variance 1: stand-ins
    for what the step under test does not read."""
    n, m = lin.a_matrix.shape[1:]
    support = support or Interval(np.zeros((1, m)), np.ones((1, m)))
    return gamp.linearized(lin, _sq(lin), np.zeros((1, n)) if y is None else y, support,
                           np.ones(m) if prior_var is None else np.asarray(prior_var))


def _solver_errstate():
    """The floating-point error state solve_batch runs the steps in: they
    name a non-finite value themselves."""
    return np.errstate(invalid="ignore", over="ignore")


# ---------------------------------------------------------------------------
# init_state
# ---------------------------------------------------------------------------

def test_init_state_uniform_variance():
    sc = make_canyon_scenario(n_links=5, n_materials=1, priors=((1.0, 13.0),))
    cfg = default_config(sc, 0.25, x0=np.array([7.0]))
    st = init_state(sc, [cfg], sc.n_links)
    assert st.x_hat.tolist() == [[7.0]]
    assert st.tau_x.tolist() == [[12.0]]  # (13-1)^2 / 12
    assert np.all(st.s_hat == 0.0)


def test_init_state_mixed_ranges():
    sc = make_canyon_scenario(n_links=5, priors=((1.0, 7.0), (2.0, 14.0)))
    cfg = default_config(sc, 0.25)
    st = init_state(sc, [cfg], sc.n_links)
    assert np.allclose(st.tau_x, [36.0 / 12.0, 144.0 / 12.0], rtol=0, atol=1e-15)
    assert cfg.x0.tolist() == [4.0, 8.0]


def test_init_state_rejects_x0_outside_priors():
    sc = make_canyon_scenario(n_links=5)
    cfg = default_config(sc, 0.25, x0=np.array([0.5, 5.0]))
    with pytest.raises(ValidationError, match="x0"):
        init_state(sc, [cfg], sc.n_links)


def test_check_prior_scale_passes_a_zero_column_and_names_an_overflowing_tau_p(canyon):
    wide = replace(canyon, materials=tuple(replace(m, prior_hi=1e154) for m in canyon.materials))
    tau_w = np.array([[0.25]])
    held = _lin([[0.0, 1e-3]] * 3, [0.0] * 3)  # material 1 unobserved: no tau_c to carry
    gamp.check_prior_scale(wide, held, _sq(held), tau_w)
    lin = _lin([[1e-3, 10.0], [1e-3, 1e-3]], [0.0, 0.0])  # A^2 prior_var overflows on row 0
    with pytest.raises(ValidationError, match=r"^material 2: prior_hi=1e\+154 is too wide .* "
                       r"tau_p = sum_m A_im\^2 prior_var_m overflows on row 0$"):
        gamp.check_prior_scale(wide, lin, _sq(lin), tau_w)


# ---------------------------------------------------------------------------
# output_step
# ---------------------------------------------------------------------------

def test_output_step_scalar_substitution():
    # a=1, tau_x=1, x=0, s_prev=0, y-mu=1, tau_w=1
    st = _state([0.0], [1.0], 1)
    lin = _lin([[1.0]], [0.0])
    output_step(st, _affine(lin, np.array([1.0])), tau_w=1.0)
    assert st.tau_p.tolist() == [[1.0]]
    assert st.p_hat.tolist() == [[0.0]]
    assert st.s_hat.tolist() == [[0.5]]
    assert st.tau_s.tolist() == [[0.5]]


def test_output_step_zero_matrix():
    st = _state([2.0, 3.0], [1.0, 1.0], 4)
    y = np.array([1.0, -2.0, 0.5, 3.0])
    lin = _lin(np.zeros((4, 2)), np.zeros(4))
    output_step(st, _affine(lin, y), tau_w=0.5)
    assert np.all(st.tau_p == 0.0)
    assert np.allclose(st.s_hat, y / 0.5, rtol=0, atol=0)


def test_output_step_matches_plain_loops(rng):
    n, m = 5, 2
    a = rng.uniform(-2, 2, (n, m))
    mu = rng.uniform(-1, 1, n)
    y = rng.uniform(-3, 3, n)
    x = rng.uniform(-1, 1, m)
    tau_x = rng.uniform(0.1, 2.0, m)
    s_prev = rng.uniform(-1, 1, n)
    tau_w = 0.7

    st = _state(x, tau_x, n)
    st.s_hat = s_prev[None].copy()
    lin = _lin(a, mu)
    output_step(st, _affine(lin, y[None]), tau_w=tau_w)

    # independent elementwise transcription of the four update formulas
    for i in range(n):
        tau_p = sum(a[i, k] ** 2 * tau_x[k] for k in range(m))
        z = sum(a[i, k] * x[k] for k in range(m))
        p = z - tau_p * s_prev[i]
        s = (y[i] - mu[i] - p) / (tau_w + tau_p)
        tau_s = 1.0 / (tau_p + tau_w)
        assert abs(st.tau_p[0, i] - tau_p) <= 1e-12 * max(1, tau_p)
        assert abs(st.p_hat[0, i] - p) <= 1e-12
        assert abs(st.s_hat[0, i] - s) <= 1e-12
        assert abs(st.tau_s[0, i] - tau_s) <= 1e-12


def test_output_step_damping_blends():
    st = _state([0.0], [1.0], 1)
    st.s_hat = np.array([[1.0]])
    lin = _lin([[1.0]], [0.0])
    y = np.array([[1.0]])
    # undamped s would be (1 - (0 - 1*1)) / 2 = 1.0; damped with rho=0.5:
    # 0.5 * 1.0 + 0.5 * 1.0 = 1.0 -- pick numbers where they differ
    st2 = _state([0.0], [1.0], 1)
    st2.s_hat = np.array([[0.0]])
    output_step(st2, _affine(lin, y), tau_w=1.0, damping=0.5)
    assert st2.s_hat.tolist() == [[0.25]]  # 0.5 * 0.5 + 0.5 * 0


def test_output_step_aborts_on_nonfinite():
    st = _state([0.0], [1.0], 2)
    lin = _lin([[np.inf], [1.0]], [0.0, 0.0])
    with _solver_errstate(), pytest.raises(SolverError, match="non-finite tau_p at link 0"):
        output_step(st, _affine(lin, np.array([[1.0, 1.0]])), 1.0)


@pytest.mark.parametrize(
    "x, y, named",
    [(np.inf, [1.0, 1.0], "non-finite p_hat at link 0"),
     (0.0, [1.0, np.nan], "non-finite s_hat at link 1")],
    ids=["infinite_x", "nan_y"],
)
def test_output_step_names_the_nonfinite_array(x, y, named):
    st = _state([x], [1.0], 2)
    lin = _lin([[1.0], [1.0]], [0.0, 0.0])
    with _solver_errstate(), pytest.raises(SolverError, match=named):
        output_step(st, _affine(lin, np.array([y])), 1.0)


def test_steps_pass_finite_values_whose_sum_overflows():
    # finite terms whose sum overflows must pass each step's fused
    # finiteness test (the input step's is a sum), without a warning
    n = 2
    lin = _lin(np.eye(n), np.zeros(n))
    st = _state([1e308, 1e308], [1.0, 1.0], n)  # p_hat sums past the float range
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        output_step(st, _affine(lin), 1.0)
    assert st.p_hat.tolist() == [[1e308, 1e308]]
    st = _state([1e308, 1e308], [1.0, 1.0], n)  # c_hat sums past the float range
    st.tau_s = np.full((1, n), 0.5)
    support = Interval(np.ones((1, n)), np.full((1, n), 2.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        input_step(st, _affine(lin, support=support, prior_var=[1.0, 1.0]))
    assert st.c_hat.tolist() == [[1e308, 1e308]]
    assert np.all((support.lo < st.x_hat) & (st.x_hat < support.hi))


# ---------------------------------------------------------------------------
# input_step
# ---------------------------------------------------------------------------

def test_input_step_zero_column_holds_estimate():
    n, m = 3, 2
    st = _state([4.0, 6.0], [1.0, 1.0], n)
    a = np.array([[1.0, 0.0], [0.5, 0.0], [-1.0, 0.0]])
    st.tau_s = np.full((1, n), 0.5)
    st.s_hat = np.array([[0.1, -0.2, 0.3]])
    lo, hi = np.array([[3.0, 5.0]]), np.array([[5.0, 7.0]])  # trust inside [1, 13]
    lin = _lin(a, np.zeros(n))
    input_step(st, _affine(lin, support=Interval(lo, hi), prior_var=[12.0, 12.0]))
    assert st.x_hat[0, 1] == 6.0  # unobserved: held
    assert st.tau_x[0, 1] == 12.0  # reset to the prior variance
    assert any("unobserved" in w for w in st.warnings[0])
    assert 3.0 < st.x_hat[0, 0] < 5.0  # observed component moved inside trust


def test_a_zero_column_of_one_problem_holds_only_that_problem():
    # a batch of two whose second problem alone has a zero column: only its
    # warnings name it, and the first runs as it would alone, bit for bit
    n = 3
    a = np.array([[[1.0, 0.5], [0.5, -1.0], [-1.0, 2.0]],
                  [[1.0, 0.0], [0.5, 0.0], [-1.0, 0.0]]])
    y = np.array([[0.3, -0.1, 0.2], [0.1, 0.2, -0.3]])
    lo, hi = np.array([[3.0, 5.0]] * 2), np.array([[5.0, 7.0]] * 2)

    def run(members):
        st = init_state(make_canyon_scenario(n_links=5, priors=((1.0, 13.0), (1.0, 13.0))),
                        [GampConfig(x0=[4.0, 6.0], tau_w=0.5, delta_tr=2.0)] * len(members), n)
        lin = Linearization(a_matrix=a[members], mu=np.zeros((len(members), n)),
                            gains=np.zeros((len(members), n)))
        affine = gamp.linearized(lin, a[members] ** 2, y[members],
                                 Interval(lo[members], hi[members]), np.array([12.0, 12.0]))
        for _ in range(3):
            output_step(st, affine, 0.5)
            input_step(st, affine)
        return st

    both, first, second = run([0, 1]), run([0]), run([1])
    held = "input step: material 2 unobserved (zero column), estimate held"
    assert both.warnings == [[], [held]]
    assert both.x_hat[0].tobytes() == first.x_hat[0].tobytes()
    assert both.x_hat[1].tobytes() == second.x_hat[0].tobytes()
    assert both.x_hat[1, 1] == 6.0 and both.tau_x[1, 1] == 12.0  # held, prior variance
    assert 3.0 < both.x_hat[0, 1] < 5.0 or 5.0 < both.x_hat[0, 1] < 7.0


def test_input_step_untruncated_limit_returns_c_hat():
    n = 40
    st = _state([5.0], [1.0], n)
    a = np.full((n, 1), 3.0)
    st.tau_s = np.full((1, n), 100.0)  # tau_c = 1 / (9 * 100 * 40): tiny
    st.s_hat = np.full((1, n), 0.01)
    lin = _lin(a, np.zeros(n))
    input_step(st, _affine(lin, support=Interval(np.array([[0.0]]), np.array([[10.0]])),
                           prior_var=[100.0 / 12.0]))
    tau_c = 1.0 / (9.0 * 100.0 * n)
    c_expect = 5.0 + tau_c * 3.0 * 0.01 * n
    assert abs(st.x_hat[0, 0] - c_expect) <= 1e-9
    assert abs(st.tau_c[0, 0] - tau_c) <= 1e-15


def test_input_step_names_the_material_of_a_nonfinite_pseudo_observation():
    n = 3
    st = _state([4.0, np.inf], [1.0, 1.0], n)
    st.tau_s = np.full((1, n), 0.5)
    lin = _lin(np.ones((n, 2)), np.zeros(n))
    support = Interval(np.array([[3.0, 5.0]]), np.array([[5.0, 7.0]]))
    with _solver_errstate(), pytest.raises(
            SolverError, match="non-finite pseudo-observation for material 2"):
        input_step(st, _affine(lin, support=support, prior_var=[12.0, 12.0]))


def test_composed_step_matches_quadrature(rng):
    n, m = 6, 2
    a = rng.uniform(-1, 1, (n, m))
    mu = rng.uniform(-1, 1, n)
    y = rng.uniform(-2, 2, n)
    x = np.array([4.0, 6.0])
    st = _state(x, np.array([2.0, 3.0]), n)
    lin = _lin(a, mu)
    lo, hi = np.array([[3.0, 5.0]]), np.array([[5.0, 7.0]])  # trust inside [1, 13]
    affine = _affine(lin, y[None], Interval(lo, hi), [12.0, 12.0])
    output_step(st, affine, tau_w=0.5)
    input_step(st, affine)
    for k in range(m):
        box = Interval(lo[0, k], hi[0, k])
        qm, qv = quadrature_moments(st.c_hat[0, k], st.tau_c[0, k], box)
        assert abs(st.x_hat[0, k] - qm) <= 1e-9
        assert abs(st.tau_x[0, k] - qv) <= 1e-9


# ---------------------------------------------------------------------------
# Reduction to plain message passing with a frozen affine map.
# ---------------------------------------------------------------------------

def _run_frozen(a, mu, y, tau_w, prior, iters=400):
    n, m = a.shape
    st = _state([0.5 * (prior.lo + prior.hi)], [prior.width**2 / 12.0], n)
    lin = _lin(a, mu)
    support = Interval(np.array([[prior.lo]]), np.array([[prior.hi]]))
    affine = _affine(lin, y[None], support, [prior.width**2 / 12.0])
    for _ in range(iters):
        output_step(st, affine, tau_w=tau_w)
        input_step(st, affine)
    return st


def test_frozen_map_fixed_point_matches_exact_posterior(rng):
    # Affine measurements, uniform prior wide enough that the truncation is
    # inactive: the exact posterior is the truncated Gaussian at the least-
    # squares center, and the iteration must land on it.
    n = 30
    a = rng.uniform(0.5, 1.5, (n, 1))
    mu = rng.uniform(-1.0, 1.0, n)
    x_true = 0.3
    tau_w = 0.01
    y = a[:, 0] * x_true + mu
    prior = Interval(0.0, 1.0)
    st = _run_frozen(a, mu, y, tau_w, prior)

    x_star = float(np.sum(a[:, 0] * (y - mu)) / np.sum(a[:, 0] ** 2))
    tau_star = tau_w / float(np.sum(a[:, 0] ** 2))
    exact_mean, _ = truncated_moments(x_star, tau_star, prior)
    assert abs(st.x_hat[0, 0] - exact_mean) <= 1e-6
    assert abs(st.x_hat[0, 0] - x_star) <= 1e-6


def test_frozen_map_fixed_point_is_self_consistent(rng):
    # With the truncation active the fixed point satisfies its own defining
    # equations (posterior moments of the final pseudo-observation).
    n = 30
    a = rng.uniform(0.5, 1.5, (n, 1))
    mu = rng.uniform(-1.0, 1.0, n)
    y = a[:, 0] * 1.4 + mu  # pseudo-truth outside the prior box
    prior = Interval(0.0, 1.0)
    st = _run_frozen(a, mu, y, 1.0, prior)
    mean, var = truncated_moments(st.c_hat[0, 0], st.tau_c[0, 0], prior)
    assert abs(st.x_hat[0, 0] - mean) <= 1e-9
    assert abs(st.tau_x[0, 0] - var) <= 1e-9
    assert prior.lo < st.x_hat[0, 0] < prior.hi


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def test_solve_noiseless_single_material():
    # true eps 6 in a [1, 13] prior, k_gamp 5, trust width 2
    sc = make_canyon_scenario(
        n_links=40, n_materials=1, seed=3, true_eps=(6.0,), priors=((1.0, 13.0),)
    )
    table = ray_table(trace_scenario(sc))
    ds = synthesize_dataset(sc, 0.0, seed=1)
    y = normalize_measurements(sc, ds)
    cfg = default_config(sc, ds.noise_var, k_iter=20, k_gamp=5, delta_tr=2.0)
    rep = solve(sc, table, y, cfg)
    assert abs(rep.eps_hat[0] - 6.0) <= 0.05
    assert rep.iterations_run == 100


def test_solve_fixed_point_at_truth(canyon, canyon_rays, canyon_table):
    truth = canyon.true_eps_vector()
    y = forward(canyon, canyon_rays, truth)
    cfg = default_config(canyon, 0.0, x0=truth)
    rep = solve(canyon, canyon_table, y, cfg)
    half = cfg.delta_tr / 2.0
    for x in rep.trajectory:
        assert np.all(np.abs(x - truth) <= half + 1e-12)
    assert np.max(np.abs(rep.eps_hat - truth)) <= 1e-3
    assert rep.residual_db <= 1e-3


def test_solve_matches_grid_oracle_one_seed(canyon, canyon_rays, canyon_table):
    from permgamp import GridSpec, grid_map

    ds = synthesize_dataset(canyon, 0.5, seed=104)
    y = normalize_measurements(canyon, ds)
    rep = solve(canyon, canyon_table, y, default_config(canyon, ds.noise_var))
    gm = grid_map(canyon, canyon_rays, y, 0.5, GridSpec(0.05))
    assert np.max(np.abs(rep.eps_hat - gm)) <= 0.05 + 1e-12


def test_solve_trajectory_deterministic(canyon, canyon_table):
    ds = synthesize_dataset(canyon, 1.0, seed=8)
    y = normalize_measurements(canyon, ds)
    cfg = default_config(canyon, ds.noise_var)
    r1 = solve(canyon, canyon_table, y, cfg)
    r2 = solve(canyon, canyon_table, y, cfg)
    assert len(r1.trajectory) == len(r2.trajectory)
    for a, b in zip(r1.trajectory, r2.trajectory):
        assert np.array_equal(a, b)
    assert np.array_equal(r1.eps_hat, r2.eps_hat)
    assert r1.residual_db == r2.residual_db


def test_solve_invariants_and_report(canyon, canyon_table):
    ds = synthesize_dataset(canyon, 0.5, seed=2)
    y = normalize_measurements(canyon, ds)
    cfg = default_config(canyon, ds.noise_var)
    rep = solve(canyon, canyon_table, y, cfg)
    lo, hi = canyon.prior_bounds()
    assert np.all(rep.eps_hat >= lo) and np.all(rep.eps_hat <= hi)
    assert len(rep.trajectory) == rep.iterations_run + 1
    assert rep.iterations_run == cfg.k_iter * cfg.k_gamp
    assert rep.wall_ms > 0.0


def test_solve_noiseless_residual_never_worse(canyon, canyon_table):
    ds = synthesize_dataset(canyon, 0.0, seed=6)
    y = normalize_measurements(canyon, ds)
    rep = solve(canyon, canyon_table, y, default_config(canyon, 0.0))
    assert not any("exceeds initial" in w for w in rep.warnings)


@pytest.mark.parametrize(
    "broken,named",
    [
        (lambda mean, var, box: ([math.nextafter(hi, math.inf) for hi in box.hi], var), r"x\[0\]"),
        (lambda mean, var, box: (mean, [math.nan] * len(var)), "tau_x"),
    ],
    ids=["mean_above_support", "nan_variance"],
)
def test_solve_invariant_check_fires(canyon, canyon_table, monkeypatch, broken, named):
    # a moment kernel that leaves the support box or loses its variance
    # must stop the solve with an error naming what broke
    def faulty(c_hat, tau_c, box):
        # one call per inner step, over the whole (problem, material) batch,
        # as flat lists of floats
        assert len(c_hat) == len(tau_c) == len(box.lo) == len(box.hi) == 2
        return broken(*truncated_moments(c_hat, tau_c, box), box)

    ds = synthesize_dataset(canyon, 0.5, seed=2)
    y = normalize_measurements(canyon, ds)
    monkeypatch.setattr(gamp, "truncated_moments", faulty)
    with pytest.raises(SolverError, match=named):
        solve(canyon, canyon_table, y, default_config(canyon, ds.noise_var))


def _sound_state():
    """A one-problem state that passes every invariant, its support box and
    its inactive rows: x inside [3, 5] x [5, 7], and three links of which
    the last is a zero row of A (tau_p exactly 0)."""
    st = _state([4.0, 6.0], [1.0, 2.0], 3)
    st.tau_c = np.array([[0.5, 0.25]])
    st.tau_s = np.array([[0.5, 0.5, 0.5]])
    st.tau_p = np.array([[1.0, 2.0, 0.0]])
    support = Interval(np.array([[3.0, 5.0]]), np.array([[5.0, 7.0]]))
    return st, support, np.array([[0.0, 0.0, 1.0]])


def test_check_invariants_passes_a_sound_state():
    gamp._check_invariants(*_sound_state())


@pytest.mark.parametrize("value", [math.nan, 0.0, -1.0, math.inf], ids=["nan", "zero", "neg", "inf"])
@pytest.mark.parametrize("name", ["tau_x", "tau_c", "tau_s", "tau_p"])
def test_check_invariants_names_a_variance_that_is_not_finite_positive(name, value):
    st, support, inactive = _sound_state()
    getattr(st, name)[0, 1] = value  # entry 1 of tau_p is on an active row
    what = "tau_p not finite-positive on active rows" if name == "tau_p" else f"{name} not finite-positive"
    with pytest.raises(SolverError, match=f"^invariant: {what}$"):
        gamp._check_invariants(st, support, inactive)


def test_check_invariants_asks_only_finite_tau_p_on_a_zero_row():
    st, support, inactive = _sound_state()
    st.tau_p[0, 2] = -0.5  # only finiteness is asked of a zero row
    gamp._check_invariants(st, support, inactive)
    for value in (math.nan, math.inf):
        st.tau_p[0, 2] = value
        with pytest.raises(SolverError, match="tau_p not finite-positive on active rows"):
            gamp._check_invariants(st, support, inactive)


@pytest.mark.parametrize("m", [0, 1])
@pytest.mark.parametrize("edge, outward", [("lo", -np.inf), ("hi", np.inf)])
def test_check_invariants_box_edge_is_inside_and_one_ulp_past_it_is_not(m, edge, outward):
    st, support, inactive = _sound_state()
    bound = getattr(support, edge)[0, m]
    st.x_hat[0, m] = bound
    gamp._check_invariants(st, support, inactive)
    st.x_hat[0, m] = np.nextafter(bound, outward)
    with pytest.raises(SolverError, match=rf"^invariant: x\[{m}\]=.* outside support"):
        gamp._check_invariants(st, support, inactive)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_check_invariants_names_a_nonfinite_x(value):
    st, support, inactive = _sound_state()
    st.x_hat[0, 1] = value
    with pytest.raises(SolverError, match=r"^invariant: x\[1\]="):
        gamp._check_invariants(st, support, inactive)


def test_check_invariants_passes_finite_values_whose_sum_overflows():
    st, support, inactive = _sound_state()
    st.tau_s[0, :2] = 1e308
    st.tau_p[0, :2] = 1e308
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        gamp._check_invariants(st, support, inactive)


def test_report_json_deterministic_and_complete(canyon, canyon_table):
    ds = synthesize_dataset(canyon, 0.5, seed=2)
    y = normalize_measurements(canyon, ds)
    cfg = default_config(canyon, ds.noise_var)
    r1 = solve(canyon, canyon_table, y, cfg)
    r2 = solve(canyon, canyon_table, y, cfg)
    assert report_to_json(r1) == report_to_json(r2)
    payload = json.loads(report_to_json(r1))
    assert set(payload) == {
        "eps_hat", "trajectory", "residual_db", "iterations_run",
        "warnings", "config", "wall_ms",
    }
    assert payload["wall_ms"] == 0.0
    timed = json.loads(report_to_json(r1, include_timing=True))
    assert timed["wall_ms"] > 0.0


def test_default_config_values(canyon):
    cfg = default_config(canyon, 0.25)
    lo, hi = canyon.prior_bounds()
    assert np.array_equal(cfg.x0, 0.5 * (lo + hi))
    assert np.allclose(cfg.delta_tr, np.min(hi - lo) / 5.0, rtol=0, atol=0)
    assert cfg.tau_w == 0.25
    assert cfg.k_iter == 20 and cfg.k_gamp == 10
    assert cfg.damping == 1.0
    floored = default_config(canyon, 0.0)
    assert floored.tau_w == 1e-6


def test_config_validation(canyon):
    with pytest.raises(ValidationError):
        default_config(canyon, 0.25, k_iter=0)
    with pytest.raises(ValidationError):
        default_config(canyon, 0.25, damping=0.0)
    with pytest.raises(ValidationError):
        default_config(canyon, 0.25, delta_tr=-1.0)
    cfg = default_config(canyon, 0.25, delta_tr=np.array([1.0, 2.0]))
    assert cfg.delta_tr.tolist() == [1.0, 2.0]  # per-component widths


def test_solve_rejects_mismatched_lengths(canyon, canyon_table):
    with pytest.raises(ValidationError):
        solve(canyon, canyon_table, np.zeros(3), default_config(canyon, 0.25))


def test_solve_refuses_a_non_finite_measurement(canyon, canyon_table):
    # the boundary names the first non-finite level, before any step runs
    y = normalize_measurements(canyon, synthesize_dataset(canyon, 0.5, 1))
    y[5] = np.nan
    with pytest.raises(ValidationError, match=r"^Y\[0, 5\]=nan must be finite$"):
        solve(canyon, canyon_table, y, default_config(canyon, 0.25))
    Y = np.array([y, y])
    Y[0, 5], Y[1, 2] = 1.0, -np.inf
    with pytest.raises(ValidationError, match=r"^Y\[1, 2\]=-inf must be finite$"):
        gamp.solve_batch(canyon, canyon_table, Y, [default_config(canyon, 0.25)] * 2)


def test_solve_with_damping_still_recovers(canyon, canyon_table):
    ds = synthesize_dataset(canyon, 0.0, seed=4)
    y = normalize_measurements(canyon, ds)
    cfg = default_config(canyon, ds.noise_var, damping=0.7)
    rep = solve(canyon, canyon_table, y, cfg)
    assert np.max(np.abs(rep.eps_hat - canyon.true_eps_vector())) <= 0.05


def test_solve_with_fd_jacobian_matches_analytic(canyon, canyon_rays, canyon_table, monkeypatch):
    ds = synthesize_dataset(canyon, 0.5, seed=5)
    y = normalize_measurements(canyon, ds)
    cfg = default_config(canyon, ds.noise_var)
    ra = solve(canyon, canyon_table, y, cfg)

    def fd_linearization(table, eps):
        a, _ = fd_jacobian(table, eps[0])
        gains = forward(canyon, canyon_rays, eps[0])
        return Linearization(a_matrix=a[None], mu=(gains - a @ eps[0])[None], gains=gains[None])

    monkeypatch.setattr(gamp, "jacobian", fd_linearization)
    rf = solve(canyon, canyon_table, y, cfg)
    assert np.max(np.abs(ra.eps_hat - rf.eps_hat)) <= 1e-3


def test_solve_tm_polarization(canyon):
    from permgamp import Scenario, trace_scenario

    tm = Scenario(
        surfaces=canyon.surfaces,
        materials=canyon.materials,
        links=canyon.links,
        wavelength_m=canyon.wavelength_m,
        max_reflections=canyon.max_reflections,
        polarization="TM",
    )
    table = ray_table(trace_scenario(tm))
    ds = synthesize_dataset(tm, 0.0, seed=1)
    y = normalize_measurements(tm, ds)
    rep = solve(tm, table, y, default_config(tm, ds.noise_var))
    assert np.max(np.abs(rep.eps_hat - tm.true_eps_vector())) <= 0.05


def test_a_start_point_that_leaves_a_link_below_the_floor_is_named(canyon):
    # the first linearization gives the start residual's gains, so its
    # unusable link is reported at the initial point
    sc = _vacuum_canyon(canyon)
    table = ray_table(trace_scenario(sc))
    with pytest.raises(SolverError, match="forward model failed at the initial point: link 100:"):
        solve(sc, table, np.zeros(sc.n_links), default_config(sc, 0.25, x0=[1.0, 1.0]))


def test_solve_survives_huge_noise(canyon, canyon_table):
    # sigma = 50 dB: the estimate is prior-dominated but must stay finite,
    # inside the box, and invariant-clean.
    ds = synthesize_dataset(canyon, 50.0, seed=0)
    y = normalize_measurements(canyon, ds)
    rep = solve(canyon, canyon_table, y, default_config(canyon, ds.noise_var))
    lo, hi = canyon.prior_bounds()
    assert np.all(np.isfinite(rep.eps_hat))
    assert np.all(rep.eps_hat >= lo) and np.all(rep.eps_hat <= hi)


# ---------------------------------------------------------------------------
# solve_batch
# ---------------------------------------------------------------------------

def _variant(canyon, kind):
    """The canyon as is, in TM, or with a third material on no surface."""
    from permgamp import Material, Scenario

    extra = (Material(3, 2.0, 8.0, 4.0),) if kind == "unobserved" else ()
    return Scenario(
        surfaces=canyon.surfaces,
        materials=canyon.materials + extra,
        links=canyon.links,
        wavelength_m=canyon.wavelength_m,
        max_reflections=canyon.max_reflections,
        polarization="TM" if kind == "TM" else "TE",
    )


@pytest.mark.parametrize("kind", ["TE", "TM", "unobserved"])
def test_solve_batch_equals_each_point_solved_alone(canyon, kind):
    sc = _variant(canyon, kind)
    table = ray_table(trace_scenario(sc))
    x0 = [2.0, 9.0, 5.0][: sc.n_materials]
    ys, configs = [], []
    for sigma, seed, overrides in [
        (0.0, 1, {}), (0.5, 2, {}), (4.0, 3, {}), (0.5, 4, {"delta_tr": 0.8, "x0": x0}),
    ]:
        ds = synthesize_dataset(sc, sigma, seed)
        ys.append(normalize_measurements(sc, ds))
        configs.append(default_config(sc, ds.noise_var, **overrides))
    batch = gamp.solve_batch(sc, table, np.array(ys), configs)
    assert len(batch) == len(configs)
    for got, y, cfg in zip(batch, ys, configs):
        alone = solve(sc, table, y, cfg)
        assert np.array_equal(got.eps_hat, alone.eps_hat)  # bit for bit
        assert len(got.trajectory) == len(alone.trajectory)
        assert all(np.array_equal(a, b) for a, b in zip(got.trajectory, alone.trajectory))
        assert got.residual_db == alone.residual_db
        assert got.warnings == alone.warnings
        assert got.iterations_run == alone.iterations_run
        assert got.config is cfg
    if kind == "unobserved":
        assert all("material 3 unobserved" in r.warnings[-1] for r in batch)


def test_solve_batch_rejects_configs_that_differ_in_loop_shape(canyon, canyon_rays, canyon_table):
    y = forward(canyon, canyon_rays, canyon.true_eps_vector())
    configs = [default_config(canyon, 0.25), default_config(canyon, 0.25, k_iter=3)]
    with pytest.raises(ValidationError, match="k_iter"):
        gamp.solve_batch(canyon, canyon_table, np.array([y, y]), configs)
    with pytest.raises(ValidationError, match="shape"):
        gamp.solve_batch(canyon, canyon_table, np.array([y, y]), configs[:1])
