"""The solver's lean inner steps against the array reference, step by step.

solve_batch runs as it is, while wrappers around its steps run the array
form of tests/reference_steps.py beside them, on a state of its own: after
every step both states and their warnings must be equal bit for bit, and
where one side raises, the other must raise the same error.
"""

import copy
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import reference_steps
from permgamp import (
    Interval,
    SolverError,
    default_config,
    normalize_measurements,
    synthesize_dataset,
    trace_scenario,
)
from permgamp import gamp
from permgamp.forward_model import Linearization, ray_table
from permgamp.gamp import TAU_W_FLOOR, GampState
from test_gamp import _variant
from test_raytracer import _room_12_walls

FIELDS = ("x_hat", "tau_x", "s_hat", "p_hat", "tau_p", "tau_s", "c_hat", "tau_c")


def _assert_same(state: GampState, ref: GampState, fields=FIELDS):
    for name in fields:
        got, want = getattr(state, name), getattr(ref, name)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), name
    assert state.warnings == ref.warnings


def _outcome(call):
    """What call() raised, as (type, message), or None."""
    try:
        call()
    except Exception as exc:  # compared with what the other side raised
        return type(exc), str(exc)
    return None


def _side_by_side(monkeypatch, scenario, table, Y, configs):
    """solve_batch(scenario, table, Y, configs) with the reference beside it;
    returns its reports, or what it raised, and the number of steps run."""
    lo, hi = scenario.prior_bounds()
    prior_var = (hi - lo) ** 2 / 12.0
    tau_w = np.array([[c.tau_w] for c in configs])
    half = np.array([c.delta_tr for c in configs]) / 2.0
    ref = gamp.init_state(scenario, configs, Y.shape[1])
    now = {"expected": None, "steps": 0}
    jacobian, output_step, input_step = gamp.jacobian, gamp.output_step, gamp.input_step

    def side_jacobian(table_, expansion):
        assert expansion.tobytes() == ref.x_hat.tobytes()
        lin = jacobian(table_, expansion)
        now.update(lin=lin, a_sq=lin.a_matrix * lin.a_matrix,
                   support=Interval(np.maximum(lo, expansion - half),
                                    np.minimum(hi, expansion + half)),
                   inactive=np.all(lin.a_matrix == 0.0, axis=-1).astype(float))
        return lin

    def side_output_step(state, affine, tau_w_, damping):
        assert now["expected"] is None  # the reference failed a step the solve passed
        ref.k = state.k
        want = _outcome(lambda: reference_steps.output_step(
            ref, now["lin"], now["a_sq"], Y, tau_w, damping))
        assert _outcome(lambda: now.update(sound=output_step(state, affine, tau_w_, damping))) \
            == want
        if want:
            raise want[0](want[1])
        _assert_same(state, ref, ("tau_p", "p_hat", "s_hat", "tau_s"))
        return now["sound"]

    def side_input_step(state, affine):
        want = _outcome(lambda: reference_steps.input_step(
            ref, now["lin"], now["a_sq"], prior_var, now["support"]))
        assert _outcome(lambda: now.update(sound=input_step(state, affine))) == want
        if want:
            raise want[0](want[1])
        _assert_same(state, ref)
        now["steps"] += 1
        # solve_batch runs its exact test only where a fused one failed
        now["expected"] = _outcome(lambda: reference_steps._check_invariants(
            ref, now["support"], now["inactive"]))
        return now["sound"]

    monkeypatch.setattr(gamp, "jacobian", side_jacobian)
    monkeypatch.setattr(gamp, "output_step", side_output_step)
    monkeypatch.setattr(gamp, "input_step", side_input_step)
    with np.errstate(all="ignore"):  # the reference's input step warns of overflow
        got = _outcome(lambda: now.update(reports=gamp.solve_batch(scenario, table, Y, configs)))
    assert got == now["expected"]
    return got or now["reports"], now["steps"]


def _problems(scenario, points, **overrides):
    """(Y, configs) of the scenario's datasets at each (sigma, seed)."""
    datasets = [synthesize_dataset(scenario, sigma, seed) for sigma, seed in points]
    Y = np.array([normalize_measurements(scenario, ds) for ds in datasets])
    return Y, [default_config(scenario, ds.noise_var, **overrides) for ds in datasets]


SWEEP_PANEL = [(sigma, seed) for sigma in (0.1, 1.0, 2.0, 4.0) for seed in range(5)]


@pytest.mark.parametrize("case", [
    "canyon-0.1", "canyon-1", "canyon-4", "room", "sweep-panel", "damped", "zero-column",
])
def test_the_lean_steps_equal_the_array_reference_bit_for_bit(case, canyon, canyon_table,
                                                             monkeypatch):
    scenario, table, overrides = canyon, canyon_table, {}
    points = [(float(case.split("-")[1]), 3)] if case.startswith("canyon") else [(1.0, 1)]
    if case == "room":
        scenario = _room_12_walls()
    elif case == "sweep-panel":
        points = SWEEP_PANEL
    elif case == "damped":
        overrides = {"damping": 0.5, "k_iter": 5}
    elif case == "zero-column":
        scenario = _variant(canyon, "unobserved")
    if scenario is not canyon:
        table = ray_table(trace_scenario(scenario), scenario.wavelength_m, scenario.polarization)
    Y, configs = _problems(scenario, points, **overrides)
    reports, steps = _side_by_side(monkeypatch, scenario, table, Y, configs)
    assert steps == configs[0].k_iter * configs[0].k_gamp
    assert len(reports) == len(points)
    if case == "zero-column":
        assert all("material 3 unobserved" in r.warnings[-1] for r in reports)


def test_a_wide_prior_with_x0_far_below_its_midpoint_fails_on_tau_p_as_before(canyon,
                                                                              canyon_table,
                                                                              monkeypatch):
    # every prior_hi at 1.3e154 and x0 = (3, 6), as a sweep's x0 override
    # gives: the first steps leap to eps ~1e153, where A^2 underflows at a
    # later linearization, and both recursions stop on the same invariant
    wide = replace(canyon, materials=tuple(replace(m, prior_hi=1.3e154)
                                           for m in canyon.materials))
    Y, configs = _problems(wide, [(0.5, 0)], x0=[3.0, 6.0])
    got, steps = _side_by_side(monkeypatch, wide, canyon_table, Y, configs)
    assert got == (SolverError, "invariant: tau_p not finite-positive on active rows")
    assert 0 < steps < configs[0].k_iter * configs[0].k_gamp


MAGNITUDES = st.sampled_from([0.0, 1e-300, 1e-200, 1e-150, 1e-3, 1.0, 1e3, 1e150, 1e200, 1e300])


@st.composite
def _random_problems(draw):
    """A (1, N, M) sensing matrix of entries 0 or +/-1e-300..1e300, with
    some rows and columns all zero, a start inside a box and measurements."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    a = np.array(draw(st.lists(MAGNITUDES, min_size=n * m, max_size=n * m)), float)
    a *= np.array(draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n * m,
                                max_size=n * m)))
    a = a.reshape(1, n, m)
    a[:, draw(st.lists(st.integers(0, n - 1), max_size=n)), :] = 0.0
    a[:, :, draw(st.lists(st.integers(0, m - 1), max_size=m))] = 0.0
    y = np.array(draw(st.lists(st.sampled_from([-1e3, -1.0, 0.0, 2.5, 1e3]),
                               min_size=n, max_size=n)))[None]
    return a, y


@given(_random_problems())
# A^2 overflows: the output step names tau_p
@example((np.array([[[1e300, 1e-300], [0.0, 0.0]]]), np.array([[1.0, -1.0]])))
# A^2 underflows on an active row: the invariant names tau_p
@example((np.array([[[1e-300], [1e-300]]]), np.array([[1.0, 1.0]])))
def test_the_steps_return_a_finite_state_or_raise_solver_error(problem):
    # never a ZeroDivisionError, OverflowError or bare ValueError from the
    # float side, and the same outcome as the array reference
    a, y = problem
    m = a.shape[-1]
    lin = Linearization(a_matrix=a, mu=np.zeros_like(y), gains=np.zeros_like(y))
    support = Interval(np.full((1, m), 2.0), np.full((1, m), 4.0))
    prior_var = np.full(m, 12.0)
    state = GampState(
        xt=np.array((np.full((1, m), 12.0), np.full((1, m), 3.0))), ts=np.zeros((2,) + y.shape),
        p_hat=np.zeros_like(y), tau_p=np.zeros_like(y), c_hat=np.full((1, m), 3.0),
        tau_c=np.full((1, m), 12.0), warnings=[[]],
    )
    ref = copy.deepcopy(state)
    inactive = np.all(a == 0.0, axis=-1).astype(float)
    with np.errstate(all="ignore"):  # as solve_batch runs the steps, and the reference
        a_sq = a * a
        affine = gamp.linearized(lin, a_sq, y, support, prior_var)
        for _ in range(4):
            want = _outcome(lambda: (
                reference_steps.output_step(ref, lin, a_sq, y, TAU_W_FLOOR),
                reference_steps.input_step(ref, lin, a_sq, prior_var, support),
                reference_steps._check_invariants(ref, support, inactive)))

            def step():
                sound = gamp.output_step(state, affine, TAU_W_FLOOR)
                if not gamp.input_step(state, affine) or not sound:
                    gamp._check_invariants(state, support, affine.inactive)
            got = _outcome(step)
            assert got == want
            if got:
                assert got[0] is SolverError
                return
            _assert_same(state, ref)
            assert all(np.isfinite(getattr(state, name)).all() for name in FIELDS)
            state.k += 1
            ref.k += 1
