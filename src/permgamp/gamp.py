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

solve_batch runs B problems on one ray table as this same recursion with a
leading batch axis: their messages never mix, and every product is a stacked
matmul, so each result equals the problem's own solve bit for bit. What a
linearization fixes is built once (linearized): A^2 stacked on A, whose one
matmul gives tau_p and A x, and its transpose (A^2)^T tau_s and A^T s; y - mu;
the support box as flat lists. The per-material side of a step (tau_c, c, one
moment-kernel call over every (problem, material), the floor, held columns)
is one pass over Python floats, which round + - * / as numpy does. A fused
test ends each step; the exact _check_invariants runs only where it fails.
Batched problems share k_iter, k_gamp and damping; x0, tau_w and delta_tr are
per problem. solve is solve_batch at B = 1; a batched report's wall_ms is the
batch's wall time divided by B.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass
from typing import ClassVar, Sequence

import numpy as np

from .errors import SolverError, UnusableLinkError, ValidationError
# forward is unused here: bench/tracing.py wraps it at this module
from .forward_model import Linearization, RayTable, forward, gains_db, jacobian
from .scenario import Row, Scenario, _integer, _list_of, _number, dump_json, write_record
from .trunc_gauss import Interval, truncated_moments

TAU_W_FLOOR = 1e-6  # dB^2; output step divides by tau_w + tau_p
VARIANCE_FLOOR = 1e-12  # least tau_x the input step hands on


def _widths(raw, path: str):
    """delta_tr: one width for every material, or a list of them."""
    return (_list_of(_number) if isinstance(raw, list) else _number)(raw, path)


@dataclass(frozen=True)
class GampConfig:
    x0: np.ndarray                 # initial estimate, one entry per material
    tau_w: float                   # output-channel noise variance, dB^2
    delta_tr: np.ndarray           # trust-region width per material
    k_iter: int = 20               # linearization (outer) iterations
    k_gamp: int = 10               # message-passing steps per linearization
    damping: float = 1.0           # 1.0 = undamped
    # the report's config echo, and the overrides a sweep config may give
    ROWS: ClassVar = (
        Row("x0", "x0", _list_of(_number), required=False),
        Row("tau_w", "tau_w", _number, required=False),
        Row("delta_tr", "delta_tr", _widths, required=False),
        Row("k_iter", "k_iter", _integer, required=False),
        Row("k_gamp", "k_gamp", _integer, required=False),
        Row("damping", "damping", _number, required=False),
    )

    def __post_init__(self):
        object.__setattr__(self, "x0", np.asarray(self.x0, dtype=float))
        delta_tr = np.broadcast_to(np.asarray(self.delta_tr, dtype=float), self.x0.shape)
        object.__setattr__(self, "delta_tr", delta_tr.copy())
        for name in ("k_iter", "k_gamp"):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Integral) and value >= 1):
                raise ValidationError(f"{name}={value!r} must be an integer >= 1")
        if not np.all(np.isfinite(self.x0)):
            raise ValidationError(f"x0={self.x0} must be finite")
        if not np.all(self.delta_tr > 0):
            raise ValidationError(f"delta_tr={self.delta_tr} must be > 0")
        if not (math.isfinite(self.tau_w) and self.tau_w > 0):
            raise ValidationError(f"tau_w={self.tau_w} must be finite and > 0")
        if not 0.0 < self.damping <= 1.0:
            raise ValidationError(f"damping={self.damping} must be in (0, 1]")


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
    """Recursion state of B problems; every array has a leading batch axis."""

    xt: np.ndarray                 # (2, B, M): tau_x, then the estimates x_hat
    ts: np.ndarray                 # (2, B, N): tau_s, then the pseudo-residuals s_hat
    p_hat: np.ndarray              # Onsager-corrected predictions (B, N)
    tau_p: np.ndarray
    c_hat: np.ndarray              # input-channel pseudo-observations (B, M)
    tau_c: np.ndarray
    warnings: list[list[str]]      # per problem, in order of first occurrence
    k: int = 0
    tau_x = property(lambda self: self.xt[0], lambda self, v: self.xt.__setitem__(0, v))
    x_hat = property(lambda self: self.xt[1], lambda self, v: self.xt.__setitem__(1, v))
    tau_s = property(lambda self: self.ts[0], lambda self, v: self.ts.__setitem__(0, v))
    s_hat = property(lambda self: self.ts[1], lambda self, v: self.ts.__setitem__(1, v))


def check_x0(scenario: Scenario, config: GampConfig) -> None:
    """ValidationError unless x0 has one entry per material, inside the prior
    box, and delta_tr leaves every iterate a support box: delta_tr/2 at least
    the float spacing at the largest prior bound, so that x +/- delta_tr/2
    never rounds back to x."""
    lo, hi = scenario.prior_bounds()
    if config.x0.shape != lo.shape:
        raise ValidationError(
            f"x0 has {config.x0.size} entries for {scenario.n_materials} materials"
        )
    if np.any(config.x0 < lo) or np.any(config.x0 > hi):
        raise ValidationError(f"x0={config.x0} outside the prior box")
    bound = np.maximum(np.abs(lo), np.abs(hi))
    if np.any(config.delta_tr / 2.0 < np.spacing(bound)):
        raise ValidationError(
            f"delta_tr={config.delta_tr} collapses the support box: x +/- delta_tr/2 "
            f"rounds back to x at the prior bounds {bound}"
        )


def init_state(scenario: Scenario, configs: Sequence[GampConfig], n_links: int) -> GampState:
    """Start each problem at its x0 with the uniform-prior variances
    (b-a)^2/12 and s = 0 on each of the n_links measurements."""
    lo, hi = scenario.prior_bounds()
    for config in configs:
        check_x0(scenario, config)
    x0 = np.array([config.x0 for config in configs])
    prior_var = np.broadcast_to((hi - lo) ** 2 / 12.0, x0.shape)
    return GampState(
        xt=np.array((prior_var, x0)),
        ts=np.zeros((2, len(x0), n_links)),
        p_hat=np.zeros((len(x0), n_links)),
        tau_p=np.zeros((len(x0), n_links)),
        c_hat=x0.copy(),
        tau_c=prior_var.copy(),
        warnings=[[] for _ in configs],
    )


def _mv(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """a[b] @ x[b] for every b as one stacked matmul, which rounds each
    product as a lone a[b] @ x[b] does (einsum does not)."""
    return (a @ x[..., None])[..., 0]


def check_prior_scale(
    scenario: Scenario, linearization: Linearization, a_sq: np.ndarray, tau_w
) -> None:
    """ValidationError naming a material's prior_hi unless the first
    linearization carries the prior variance: the first step's
    tau_p = A^2 prior_var finite, and the tau_c = 1 / (A^2)^T tau_s that
    follows finite on every column of A that is not all zero.

    The scenario cannot know this limit, which depends on A: a prior box so
    wide that its midpoint makes A tiny and its variance huge would
    otherwise end the solve in an overflow.
    """
    lo, hi = scenario.prior_bounds()
    prior_var = (hi - lo) ** 2 / 12.0
    with np.errstate(over="ignore", divide="ignore"):
        terms = a_sq * prior_var  # (B, N, M): tau_p's terms
        tau_p = terms.sum(axis=-1)
        tau_c = 1.0 / _mv(a_sq.swapaxes(-1, -2), 1.0 / (tau_p + tau_w))
    bad_c = ~np.isfinite(tau_c) & np.any(linearization.a_matrix != 0.0, axis=-2)
    if bad_c.any():
        m = bad_c.nonzero()[-1][0]
        what = "its tau_c = 1 / sum_i A_im^2 tau_s_i is not finite"
    elif not np.isfinite(tau_p).all():
        b, i = np.argwhere(~np.isfinite(tau_p))[0]
        m = np.argmax(terms[b, i])
        what = f"tau_p = sum_m A_im^2 prior_var_m overflows on row {i}"
    else:
        return
    material = scenario.materials[m]
    raise ValidationError(
        f"material {material.index}: prior_hi={material.prior_hi} is too wide for the "
        f"solver: at the first linearization {what}"
    )


@dataclass(frozen=True)
class Affine:
    """One linearization as its k_gamp inner steps use it (see linearized)."""

    stacked: np.ndarray            # (2, B, N, M): A squared elementwise, then A
    resid: np.ndarray              # (B, N): y - mu
    inactive: np.ndarray           # (B, N): 1.0 on A's zero rows, else 0.0
    box: Interval                  # the support box (B, M) as flat lists
    prior_var: list                # prior variance of each (problem, material), flat


def linearized(lin: Linearization, a_sq, y, support: Interval, prior_var) -> Affine:
    """lin, with a_sq its A squared elementwise, the measurements y (B, N),
    the support box (B, M) and the prior variances (M,)."""
    return Affine(
        stacked=np.array((a_sq, lin.a_matrix)),
        resid=np.asarray(y) - lin.mu,
        inactive=np.all(lin.a_matrix == 0.0, axis=-1).astype(float),
        box=Interval(support.lo.ravel().tolist(), support.hi.ravel().tolist()),
        prior_var=prior_var.tolist() * len(a_sq),
    )


def output_step(state: GampState, affine: Affine, tau_w, damping: float = 1.0) -> bool:
    """Per-measurement update of every problem: tau_p, p, s, tau_s (mutates
    state); tau_w broadcasts to (B, N). False when the fused test of tau_s and
    tau_p fails. Runs in the solver's np.errstate, naming what is not finite."""
    # one product gives both A^2 tau_x and A x
    prod = affine.stacked @ state.xt[..., None]
    tau_p = prod[0, ..., 0]
    out = np.empty((4,) + tau_p.shape)  # tau_p + inactive, tau_s, s_hat, p_hat
    np.subtract(prod[1, ..., 0], tau_p * state.s_hat, out=out[3])
    denom = tau_p + tau_w
    np.divide(affine.resid - out[3], denom, out=out[2])
    if damping < 1.0:
        np.add(damping * out[2], (1.0 - damping) * state.s_hat, out=out[2])
    np.divide(1.0, denom, out=out[1])
    np.add(tau_p, affine.inactive, out=out[0])
    # a finite s_hat needs a finite p_hat, and that a finite tau_p
    finite = bool(np.isfinite(out[1:3]).all())
    if not finite:
        for name, arr in (("tau_p", tau_p), ("p_hat", out[3]), ("s_hat", out[2])):
            bad = ~np.isfinite(arr)
            if bad.any():
                raise SolverError(
                    f"output step: non-finite {name} at link {bad.nonzero()[-1][0]} "
                    f"(iteration {state.k})"
                )
    state.tau_p, state.ts, state.p_hat = tau_p, out[1:3], out[3]
    return finite and out[:2].min() > 0.0


def input_step(state: GampState, affine: Affine) -> bool:
    """Per-parameter update of every problem: tau_c, c, then truncated-
    Gaussian moments on the support box, prior ∩ trust region (mutates
    state); False when the fused test of x, tau_x and tau_c fails.

    A parameter whose sensing column is all zero is unobservable this
    round: its estimate is held, its variance reset to the prior variance,
    and a warning recorded.
    """
    n_problems, n_materials = state.x_hat.shape
    # one product gives both (A^2)^T tau_s and A^T s; the rest is on floats
    back = (affine.stacked.swapaxes(-1, -2) @ state.ts[..., None]).ravel().tolist()
    denom, corr = back[:len(back) // 2], back[len(back) // 2:]
    x = state.x_hat.ravel().tolist()
    tau_c = [1.0 if d <= 0.0 else 1.0 / d for d in denom]  # d <= 0: a zero column
    c_hat = [xj + t * g for xj, t, g in zip(x, tau_c, corr)]
    # a sum of floats is finite only if every term is, unless it overflows
    if not math.isfinite(sum(c_hat)) and not all(map(math.isfinite, c_hat)):
        j = next(j for j, c in enumerate(c_hat) if not math.isfinite(c))
        raise SolverError(
            f"input step: non-finite pseudo-observation for material "
            f"{j % n_materials + 1} (iteration {state.k})"
        )
    mean, var = truncated_moments(c_hat, tau_c, affine.box)
    sound = True
    for j, (d, lo, hi) in enumerate(zip(denom, affine.box.lo, affine.box.hi)):
        if d <= 0.0:  # unobserved: hold it
            mean[j] = c_hat[j] = x[j]
            var[j] = tau_c[j] = affine.prior_var[j]
            b, m = divmod(j, n_materials)
            msg = f"input step: material {m + 1} unobserved (zero column), estimate held"
            if msg not in state.warnings[b]:
                state.warnings[b].append(msg)
        elif var[j] < VARIANCE_FLOOR:  # not when nan: the test below fails
            var[j] = VARIANCE_FLOOR
        sound = (sound and lo <= mean[j] <= hi and 0.0 < var[j] < math.inf
                 and 0.0 < tau_c[j] < math.inf)
    new = np.array((var, mean, tau_c, c_hat)).reshape(4, n_problems, n_materials)
    state.xt, state.tau_c, state.c_hat = new[:2], new[2], new[3]
    return sound


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
        "config": write_record(report.config),
        "wall_ms": float(report.wall_ms) if include_timing else 0.0,
    }


def report_to_json(report: EstimateReport, include_timing: bool = False) -> str:
    return dump_json(report_to_dict(report, include_timing))


def _rms(v: np.ndarray) -> float:
    return float(np.sqrt(np.mean(v * v)))


def _check_invariants(state: GampState, support: Interval, inactive: np.ndarray) -> None:
    """x inside its support box, finite-positive variances, tau_p > 0 on the
    active rows of A (inactive is 1.0 on A's zero rows): names the first fault."""
    x, lo, hi = state.x_hat, support.lo, support.hi
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


def solve_batch(
    scenario: Scenario, table: RayTable, Y: np.ndarray, configs: Sequence[GampConfig]
) -> list[EstimateReport]:
    """Run the full outer/inner recursion for B problems, one row of Y
    (B, N) and one config each, and report each estimate (see solve)."""
    t0 = time.perf_counter()
    Y = np.asarray(Y, dtype=float)
    if Y.shape != (len(configs), table.friis.shape[1]):
        raise ValidationError(
            f"Y has shape {Y.shape} for {len(configs)} configs and "
            f"{table.friis.shape[1]} links"
        )
    shared = {(c.k_iter, c.k_gamp, c.damping) for c in configs}
    if len(shared) != 1:
        raise ValidationError(f"batch configs must share k_iter, k_gamp, damping: {shared}")
    [(k_iter, k_gamp, damping)] = shared
    lo, hi = scenario.prior_bounds()
    prior_var = (hi - lo) ** 2 / 12.0
    state = init_state(scenario, configs, Y.shape[1])
    tau_w = np.repeat([[c.tau_w] for c in configs], Y.shape[1], axis=1)  # (B, N)
    half = np.array([c.delta_tr for c in configs]) / 2.0

    trajectory = [state.x_hat.copy()]
    where = "the initial point"
    try:  # an unusable link anywhere in the recursion stops it, naming where
        for k1 in range(k_iter):
            if k1:
                where = f"the linearization of outer iteration {k1}"
            expansion = state.x_hat.copy()
            lin = jacobian(table, expansion)
            support = Interval(np.maximum(lo, expansion - half), np.minimum(hi, expansion + half))
            with np.errstate(invalid="ignore", over="ignore"):  # the steps name non-finite values
                a_sq = lin.a_matrix * lin.a_matrix
                if k1 == 0:
                    g_start = lin.gains  # the forward map at x0
                    check_prior_scale(scenario, lin, a_sq, tau_w)
                affine = linearized(lin, a_sq, Y, support, prior_var)
                for _ in range(k_gamp):
                    sound = output_step(state, affine, tau_w, damping)
                    sound = input_step(state, affine) and sound
                    state.k += 1
                    trajectory.append(state.x_hat.copy())
                    if not sound:
                        _check_invariants(state, support, affine.inactive)
        where = "the final point"
        g_end = gains_db(table, state.x_hat)
    except UnusableLinkError as exc:
        raise SolverError(f"forward model failed at {where}: {exc}") from exc
    wall_ms = (time.perf_counter() - t0) * 1e3 / len(configs)
    steps = np.stack(trajectory, axis=1)  # (B, k + 1, M)
    reports = []
    for b, config in enumerate(configs):
        resid0, resid = _rms(Y[b] - g_start[b]), _rms(Y[b] - g_end[b])
        warnings = []
        if resid > resid0:
            warnings.append(f"final residual {resid:.6f} dB exceeds initial {resid0:.6f} dB")
        warnings.extend(w for w in state.warnings[b] if w not in warnings)
        reports.append(EstimateReport(
            eps_hat=state.x_hat[b].copy(),
            trajectory=list(steps[b]),
            residual_db=resid,
            iterations_run=state.k,
            warnings=warnings,
            config=config,
            wall_ms=wall_ms,
        ))
    return reports


def solve(scenario: Scenario, table: RayTable, y: np.ndarray, config: GampConfig) -> EstimateReport:
    """Run the full outer/inner recursion and report the estimate.

    y must already be normalized (power and antenna gains removed) and any
    unusable links dropped from both y and the ray table (prepare_problem).
    """
    return solve_batch(scenario, table, np.asarray(y, dtype=float)[None], [config])[0]
