"""The array form of the solver's inner steps: the reference the lean steps
of permgamp.gamp are checked against.

This is the code solve_batch ran, one numpy expression per update over
every (problem, link) or (problem, material), before the steps built their
constants once per linearization and took the per-material side on Python
floats. output_step and input_step take the linearization, A squared and y
as they come, and run the moment kernel on arrays; _check_invariants runs
its fused one-pass test first. The lean steps must leave every field of the
state, and the warnings, equal to these bit for bit.
"""

import math

import numpy as np

from permgamp.errors import SolverError
from permgamp.forward_model import Linearization
from permgamp.gamp import VARIANCE_FLOOR, GampState, _mv
from permgamp.trunc_gauss import Interval, truncated_moments


def output_step(
    state: GampState,
    linearization: Linearization,
    a_sq: np.ndarray,
    y: np.ndarray,
    tau_w,
    damping: float = 1.0,
) -> GampState:
    """Per-measurement update of every problem: tau_p, p, s, tau_s (mutates
    state). a_sq is the linearization's A squared elementwise; y is (B, N);
    tau_w is a scalar or one value per problem (B, 1)."""
    with np.errstate(invalid="ignore", over="ignore"):  # checked just below
        tau_p = _mv(a_sq, state.tau_x)
        p_hat = _mv(linearization.a_matrix, state.x_hat) - tau_p * state.s_hat
        s_new = (np.asarray(y) - linearization.mu - p_hat) / (tau_w + tau_p)
        if damping < 1.0:
            s_new = damping * s_new + (1.0 - damping) * state.s_hat
        tau_s = 1.0 / (tau_p + tau_w)
        # a sum is finite if every term is, unless it overflows: then the exact test
        finite = math.isfinite(np.add.reduce((tau_p, p_hat, s_new), axis=None))
    if not finite:
        for name, arr in (("tau_p", tau_p), ("p_hat", p_hat), ("s_hat", s_new)):
            bad = ~np.isfinite(arr)
            if bad.any():
                raise SolverError(
                    f"output step: non-finite {name} at link {bad.nonzero()[-1][0]} "
                    f"(iteration {state.k})"
                )
    state.tau_p, state.p_hat = tau_p, p_hat
    state.s_hat, state.tau_s = s_new, tau_s
    return state


def input_step(
    state: GampState,
    linearization: Linearization,
    a_sq: np.ndarray,
    prior_var: np.ndarray,
    support: Interval,
) -> GampState:
    """Per-parameter update of every problem: tau_c, c, then truncated-
    Gaussian moments on the support box (B, M), prior ∩ trust region
    (mutates state). a_sq is the linearization's A squared elementwise.

    A parameter whose sensing column is all zero is unobservable this
    round: its estimate is held, its variance reset to the prior variance,
    and a warning recorded.
    """
    denom = _mv(a_sq.swapaxes(-1, -2), state.tau_s)
    corr = _mv(linearization.a_matrix.swapaxes(-1, -2), state.s_hat)
    held = denom <= 0.0  # a zero column: that parameter is unobserved
    tau_c = 1.0 / np.where(held, 1.0, denom)
    c_hat = state.x_hat + tau_c * corr
    # also when tau_c is not finite; Python floats overflow without a warning
    if not math.isfinite(sum(c_hat.ravel().tolist())) and not np.isfinite(c_hat).all():
        raise SolverError(
            f"input step: non-finite pseudo-observation for material "
            f"{(~np.isfinite(c_hat)).nonzero()[-1][0] + 1} (iteration {state.k})"
        )
    mean, var = truncated_moments(c_hat, tau_c, support)
    var = np.maximum(var, VARIANCE_FLOOR)
    if held.any():
        mean, var = np.where(held, state.x_hat, mean), np.where(held, prior_var, var)
        c_hat, tau_c = np.where(held, state.x_hat, c_hat), np.where(held, prior_var, tau_c)
        for b, m in zip(*held.nonzero()):
            msg = f"input step: material {m + 1} unobserved (zero column), estimate held"
            if msg not in state.warnings[b]:
                state.warnings[b].append(msg)
    state.c_hat, state.tau_c, state.x_hat, state.tau_x = c_hat, tau_c, mean, var
    return state


def _check_invariants(state: GampState, support: Interval, inactive: np.ndarray) -> None:
    """x inside its support box, finite-positive variances, tau_p > 0 on
    the active rows of A; inactive is 1.0 on A's zero rows, else 0.0."""
    x, lo, hi = state.x_hat, support.lo, support.hi
    # one pass, all positive and finite when sound (a passed box test joins as
    # 1.0, a zero row's tau_p of 0 is lifted to 1); the exact tests name a fault
    fused = np.concatenate((lo <= x, x <= hi, state.tau_x, state.tau_c, state.tau_s,
                            state.tau_p + inactive), axis=-1)
    if fused.min() > 0.0 and fused.max() < math.inf:
        return
    outside = ~((lo <= x) & (x <= hi))
    if outside.any():
        b, m = np.argwhere(outside)[0]
        raise SolverError(
            f"invariant: x[{m}]={x[b, m]} outside support [{lo[b, m]}, {hi[b, m]}]"
        )
    for name in ("tau_x", "tau_c", "tau_s"):
        v = getattr(state, name)
        if not (np.isfinite(v).all() and (v > 0).all()):
            raise SolverError(f"invariant: {name} not finite-positive")
    if not np.isfinite(state.tau_p).all() or (state.tau_p[inactive == 0.0] <= 0).any():
        raise SolverError("invariant: tau_p not finite-positive on active rows")
