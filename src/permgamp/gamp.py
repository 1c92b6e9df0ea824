"""Trust-region GAMP estimator for the nonlinear permittivity problem.

The solver alternates an outer linearization loop with an inner multi-step
Gaussian message-passing loop:

  for k1 in 0..k_iter-1:
      (A, mu) <- linearize the forward map at the current estimate
      support_m <- [max(a_m, x_m - d/2), min(b_m, x_m + d/2)]
      repeat k_gamp times:
          output step   tau_p_i = sum_m a_im^2 tau_x_m
                        p_i     = sum_m a_im x_m - tau_p_i s_i
                        s_i     = (y_i - mu_i - p_i) / (tau_w + tau_p_i)
                        tau_s_i = 1 / (tau_p_i + tau_w)
          input step    tau_c_m = 1 / sum_i a_im^2 tau_s_i
                        c_m     = x_m + tau_c_m sum_i a_im s_i
                        (x_m, tau_x_m) <- truncated-Gaussian moments of
                                          N(c_m, tau_c_m) on support_m

The support box, prior ∩ trust region, pins every iterate within half a
step width of the expansion point, which is what keeps the affine
surrogate honest; s_i carries across re-linearizations (the iteration
index runs continuously).
The pseudo-residual state s may optionally be damped (s <- rho * s_new +
(1 - rho) * s_old) for configurations where the small, dense sensing
matrix makes the undamped recursion ring.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import SolverError, UnusableLinkError, ValidationError
from .forward_model import Linearization, forward, jacobian, ray_table
from .scenario import Scenario
from .trunc_gauss import Interval, truncated_moments

TAU_W_FLOOR = 1e-6  # dB^2; output step divides by tau_w + tau_p
VARIANCE_FLOOR = 1e-12  # least tau_x the input step hands on


@dataclass(frozen=True)
class GampConfig:
    x0: np.ndarray                 # initial estimate, one entry per material
    tau_w: float                   # output-channel noise variance, dB^2
    delta_tr: np.ndarray           # trust-region width per material
    k_iter: int = 20               # linearization (outer) iterations
    k_gamp: int = 10               # message-passing steps per linearization
    damping: float = 1.0           # 1.0 = undamped

    def __post_init__(self):
        object.__setattr__(self, "x0", np.asarray(self.x0, dtype=float))
        object.__setattr__(
            self,
            "delta_tr",
            np.broadcast_to(
                np.asarray(self.delta_tr, dtype=float), self.x0.shape
            ).copy(),
        )
        if self.k_iter < 1 or self.k_gamp < 1:
            raise ValidationError("k_iter and k_gamp must be >= 1")
        if np.any(self.delta_tr <= 0):
            raise ValidationError(f"delta_tr={self.delta_tr} must be > 0")
        if not self.tau_w > 0:
            raise ValidationError(f"tau_w={self.tau_w} must be > 0")
        if not 0.0 < self.damping <= 1.0:
            raise ValidationError(f"damping={self.damping} must be in (0, 1]")

    def to_dict(self) -> dict:
        return {
            "x0": [float(v) for v in self.x0],
            "tau_w": self.tau_w,
            "delta_tr": [float(v) for v in self.delta_tr],
            "k_iter": self.k_iter,
            "k_gamp": self.k_gamp,
            "damping": self.damping,
        }


def default_config(scenario: Scenario, noise_var: float, **overrides) -> GampConfig:
    """Documented defaults: x0 at the prior midpoints, trust width a fifth
    of the narrowest prior, tau_w the dataset noise variance (floored so a
    noiseless dataset still divides cleanly)."""
    lo, hi = scenario.prior_bounds()
    base = dict(
        x0=0.5 * (lo + hi),
        tau_w=max(float(noise_var), TAU_W_FLOOR),
        delta_tr=np.min(hi - lo) / 5.0,
    )
    base.update(overrides)
    return GampConfig(**base)


@dataclass
class GampState:
    x_hat: np.ndarray              # current estimate (M,)
    tau_x: np.ndarray              # its variance (M,)
    s_hat: np.ndarray              # output-channel pseudo-residual (N,)
    p_hat: np.ndarray              # Onsager-corrected prediction (N,)
    tau_p: np.ndarray
    tau_s: np.ndarray
    c_hat: np.ndarray              # input-channel pseudo-observation (M,)
    tau_c: np.ndarray
    k: int = 0
    warnings: list[str] = field(default_factory=list)


def init_state(scenario: Scenario, config: GampConfig, n_links: int) -> GampState:
    """Start at x0 with the uniform-prior variances (b-a)^2/12 and s = 0 on
    each of the n_links measurements."""
    lo, hi = scenario.prior_bounds()
    if len(config.x0) != scenario.n_materials:
        raise ValidationError(
            f"x0 has {len(config.x0)} entries for {scenario.n_materials} materials"
        )
    if np.any(config.x0 < lo) or np.any(config.x0 > hi):
        raise ValidationError(f"x0={config.x0} outside the prior box")
    return GampState(
        x_hat=config.x0.copy(),
        tau_x=(hi - lo) ** 2 / 12.0,
        s_hat=np.zeros(n_links),
        p_hat=np.zeros(n_links),
        tau_p=np.zeros(n_links),
        tau_s=np.zeros(n_links),
        c_hat=config.x0.copy(),
        tau_c=(hi - lo) ** 2 / 12.0,
    )


def output_step(
    state: GampState,
    linearization: Linearization,
    y: np.ndarray,
    tau_w: float,
    damping: float = 1.0,
) -> GampState:
    """Per-measurement update: tau_p, p, s, tau_s (mutates state)."""
    a = linearization.a_matrix
    with np.errstate(invalid="ignore", over="ignore"):  # checked just below
        a_sq = a * a
        tau_p = a_sq @ state.tau_x
        p_hat = a @ state.x_hat - tau_p * state.s_hat
        s_new = (np.asarray(y) - linearization.mu - p_hat) / (tau_w + tau_p)
        if damping < 1.0:
            s_new = damping * s_new + (1.0 - damping) * state.s_hat
        tau_s = 1.0 / (tau_p + tau_w)
    for name, vec in (("tau_p", tau_p), ("p_hat", p_hat), ("s_hat", s_new)):
        bad = np.flatnonzero(~np.isfinite(vec))
        if bad.size:
            raise SolverError(
                f"output step: non-finite {name} at link {int(bad[0])} "
                f"(iteration {state.k})"
            )
    state.tau_p, state.p_hat = tau_p, p_hat
    state.s_hat, state.tau_s = s_new, tau_s
    return state


def input_step(
    state: GampState,
    linearization: Linearization,
    prior_var: np.ndarray,
    support: Sequence[Interval],
) -> GampState:
    """Per-parameter update: tau_c, c, then truncated-Gaussian moments on
    the support box, prior ∩ trust region (mutates state).

    A parameter whose sensing column is all zero is unobservable this
    round: its estimate is held, its variance reset to the prior variance,
    and a warning recorded.
    """
    a = linearization.a_matrix
    a_sq = a * a
    denom = a_sq.T @ state.tau_s
    corr = a.T @ state.s_hat
    for m in range(len(state.x_hat)):
        if denom[m] <= 0.0:
            state.tau_x[m] = prior_var[m]
            state.tau_c[m] = state.tau_x[m]
            state.c_hat[m] = state.x_hat[m]
            msg = f"input step: material {m + 1} unobserved (zero column), estimate held"
            if msg not in state.warnings:
                state.warnings.append(msg)
            continue
        tau_c = 1.0 / denom[m]
        c_hat = state.x_hat[m] + tau_c * corr[m]
        if not np.isfinite(c_hat) or not np.isfinite(tau_c):
            raise SolverError(
                f"input step: non-finite pseudo-observation for material "
                f"{m + 1} (iteration {state.k})"
            )
        mean, var = truncated_moments(c_hat, tau_c, support[m])
        state.c_hat[m], state.tau_c[m] = c_hat, tau_c
        state.x_hat[m] = mean
        state.tau_x[m] = max(var, VARIANCE_FLOOR)
    return state


@dataclass
class EstimateReport:
    eps_hat: np.ndarray
    trajectory: list[np.ndarray]       # x after every inner step, x0 first
    residual_db: float                 # final per-link RMS of y - gain(eps_hat)
    iterations_run: int                # inner steps executed
    warnings: list[str]
    config: GampConfig
    wall_ms: float = 0.0


def report_to_dict(report: EstimateReport, include_timing: bool = False) -> dict:
    """JSON-ready report; wall_ms is zeroed unless asked for, so re-runs of
    the same estimation serialize byte-identically."""
    return {
        "eps_hat": [float(v) for v in report.eps_hat],
        "trajectory": [[float(v) for v in x] for x in report.trajectory],
        "residual_db": float(report.residual_db),
        "iterations_run": report.iterations_run,
        "warnings": list(report.warnings),
        "config": report.config.to_dict(),
        "wall_ms": float(report.wall_ms) if include_timing else 0.0,
    }


def report_to_json(report: EstimateReport, include_timing: bool = False) -> str:
    return json.dumps(report_to_dict(report, include_timing), indent=2, sort_keys=True) + "\n"


def _rms(v: np.ndarray) -> float:
    return float(np.sqrt(np.mean(v * v)))


def _check_invariants(
    state: GampState, support: Sequence[Interval], a: np.ndarray
) -> None:
    x = state.x_hat
    for m, box in enumerate(support):
        if not (box.lo <= x[m] <= box.hi):
            raise SolverError(
                f"invariant: x[{m}]={x[m]} outside support [{box.lo}, {box.hi}]"
            )
    if not (np.all(np.isfinite(state.tau_x)) and np.all(state.tau_x > 0)):
        raise SolverError("invariant: tau_x not finite-positive")
    if not (np.all(np.isfinite(state.tau_c)) and np.all(state.tau_c > 0)):
        raise SolverError("invariant: tau_c not finite-positive")
    if not (np.all(np.isfinite(state.tau_s)) and np.all(state.tau_s > 0)):
        raise SolverError("invariant: tau_s not finite-positive")
    row_nonzero = np.any(a != 0.0, axis=1)
    if not np.all(np.isfinite(state.tau_p)) or np.any(state.tau_p[row_nonzero] <= 0):
        raise SolverError("invariant: tau_p not finite-positive on active rows")


def solve(
    scenario: Scenario,
    ray_cache,
    y: np.ndarray,
    config: GampConfig,
) -> EstimateReport:
    """Run the full outer/inner recursion and report the estimate.

    y must already be normalized (power and antenna gains removed) and any
    unusable links dropped from both y and ray_cache.
    """
    t0 = time.perf_counter()
    y = np.asarray(y, dtype=float)
    if len(y) != len(ray_cache):
        raise ValidationError(
            f"y has {len(y)} entries for {len(ray_cache)} ray lists"
        )
    lo, hi = scenario.prior_bounds()
    prior_var = (hi - lo) ** 2 / 12.0
    state = init_state(scenario, config, len(y))
    table = ray_table(ray_cache, scenario.wavelength_m)  # one per solve
    warnings: list[str] = []

    def _forward_or_abort(eps, where):
        try:
            return forward(scenario, ray_cache, eps)
        except UnusableLinkError as exc:
            raise SolverError(f"forward model failed at {where}: {exc}") from exc

    resid0 = _rms(y - _forward_or_abort(state.x_hat, "the initial point"))
    trajectory = [state.x_hat.copy()]
    half = config.delta_tr / 2.0

    for k1 in range(config.k_iter):
        expansion = state.x_hat.copy()
        try:
            lin = jacobian(scenario, table, expansion)
        except UnusableLinkError as exc:
            raise SolverError(
                f"linearization failed at outer iteration {k1}: {exc}"
            ) from exc
        t_lo, t_hi = np.maximum(lo, expansion - half), np.minimum(hi, expansion + half)
        support = [Interval(a, b) for a, b in zip(t_lo, t_hi)]

        for _ in range(config.k_gamp):
            output_step(state, lin, y, config.tau_w, config.damping)
            input_step(state, lin, prior_var, support)
            state.k += 1
            trajectory.append(state.x_hat.copy())
            _check_invariants(state, support, lin.a_matrix)

    eps_hat = state.x_hat.copy()
    resid = _rms(y - _forward_or_abort(eps_hat, "the final point"))
    if resid > resid0:
        warnings.append(
            f"final residual {resid:.6f} dB exceeds initial {resid0:.6f} dB"
        )
    warnings.extend(w for w in state.warnings if w not in warnings)
    return EstimateReport(
        eps_hat=eps_hat,
        trajectory=trajectory,
        residual_db=resid,
        iterations_run=state.k,
        warnings=warnings,
        config=config,
        wall_ms=(time.perf_counter() - t0) * 1e3,
    )
