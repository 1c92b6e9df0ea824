"""Harness plumbing: problem preparation, single estimations, noise sweeps.

A sweep traces its scenario once and builds every (sigma, seed) point's
solver config before any solve, then solves all points in this process as
one gamp.solve_batch call, bit for bit each point's own solve; a point's
wall_ms is the batch's wall time over the number of points. If the batch
fails, each point is solved alone, so only a failed point gets error rows
(the status column carries the error tag). Rows come out in (sigma, seed,
material) order, so the emitted CSVs are byte-stable.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, field, fields
from typing import Optional, Sequence

import numpy as np

from .errors import ParseError, UnusableLinkError, ValidationError
from .forward_model import forward, usable_links
from .gamp import EstimateReport, GampConfig, check_x0, default_config, solve, solve_batch
from .oracle import GridSpec, grid_map
from .raytracer import Ray, trace_link
from .scenario import (
    Dataset,
    Scenario,
    _integer,
    _number,
    load_scenario,
    measurement_noise,
    normalize_measurements,
    read_json,
    scenario_from_dict,  # unused here: bench/tracing.py wraps both names here
    synthesize_dataset,
)


@dataclass
class PreparedProblem:
    """Normalized measurements and rays for the solvable subset of links."""

    y: np.ndarray
    ray_cache: list[list[Ray]]
    kept: list[int]              # original link indices
    dropped: list[int]


def _trace_all(scenario: Scenario) -> list[list[Ray]]:
    """Rays of every link; a link without an unblocked ray gets []."""
    ray_cache = []
    for n in range(scenario.n_links):
        try:
            ray_cache.append(trace_link(scenario, n))
        except UnusableLinkError:
            ray_cache.append([])
    return ray_cache


def _split_links(scenario: Scenario, ray_cache, y_all) -> PreparedProblem:
    """Keep the links usable at the prior midpoint (one kernel pass): a
    link without rays or with zero gain there is dropped."""
    lo, hi = scenario.prior_bounds()
    usable = usable_links(scenario, ray_cache, 0.5 * (lo + hi))
    kept = np.flatnonzero(usable).tolist()
    if not kept:
        raise UnusableLinkError("every link is unusable")
    rays = [ray_cache[n] for n in kept]
    return PreparedProblem(y_all[kept], rays, kept, np.flatnonzero(~usable).tolist())


def prepare_problem(scenario: Scenario, dataset: Dataset) -> PreparedProblem:
    """Trace all links and drop the unusable ones (no ray, or zero gain at
    the prior midpoint) from both the measurements and the ray cache."""
    y_all = normalize_measurements(scenario, dataset)
    return _split_links(scenario, _trace_all(scenario), y_all)


def run_estimate(
    scenario: Scenario,
    dataset: Dataset,
    overrides: Optional[dict] = None,
    with_oracle: bool = False,
    grid_step: float = 0.05,
) -> tuple[EstimateReport, dict]:
    """Prepare, solve, and (optionally) compare against the grid oracle."""
    prob = prepare_problem(scenario, dataset)
    config = default_config(scenario, dataset.noise_var, **(overrides or {}))
    report = solve(scenario, prob.ray_cache, prob.y, config)
    info: dict = {"dropped_links": prob.dropped, "n_used": len(prob.kept)}
    if with_oracle:
        sigma_z = float(np.sqrt(dataset.noise_var))
        eps_map = grid_map(
            scenario, prob.ray_cache, prob.y, sigma_z, GridSpec(grid_step)
        )
        info["oracle"] = {
            "eps_map": [float(v) for v in eps_map],
            "grid_step": grid_step,
            "max_abs_diff": float(np.max(np.abs(eps_map - report.eps_hat))),
        }
    return report, info


# ---------------------------------------------------------------------------
# Sweeps.
# ---------------------------------------------------------------------------

RUN_FIELDS = [
    "sigma_z",
    "seed",
    "material",
    "eps_true",
    "eps_hat",
    "abs_err",
    "iterations",
    "wall_ms",
    "status",
]
SUMMARY_FIELDS = [
    "sigma_z",
    "material",
    "n_ok",
    "mean_abs_err",
    "std_abs_err",
    "stderr_abs_err",
]


@dataclass(frozen=True)
class ExperimentConfig:
    scenario_path: str
    sigmas: Sequence[float]
    n_seeds: int
    overrides: dict = field(default_factory=dict)
    out_dir: Optional[str] = None
    include_timing: bool = False

    def __post_init__(self):
        if len(self.sigmas) < 1 or not all(math.isfinite(s) and s >= 0 for s in self.sigmas):
            raise ValidationError(f"sigmas={list(self.sigmas)}: need one or more finite values >= 0")
        if self.n_seeds < 1:
            raise ValidationError(f"n_seeds={self.n_seeds} must be >= 1")
        known = [f.name for f in fields(GampConfig)]
        for key in self.overrides:
            if key not in known:
                raise ValidationError(f"overrides: unknown solver key {key!r}; known: {known}")

    @classmethod
    def from_dict(cls, raw, source: str) -> "ExperimentConfig":
        """The config in a JSON object (other keys ignored); errors name source and key."""
        if not isinstance(raw, dict):
            raise ParseError(f"{source}: expected a JSON object, got {raw!r}")
        for key in ("scenario_path", "sigmas", "n_seeds"):
            if key not in raw:
                raise ParseError(f"{source}: missing key {key!r}")
        for key, kind, name in (("scenario_path", str, "a string"), ("sigmas", list, "a list"),
                                ("overrides", dict, "an object"), ("out_dir", str, "a string"),
                                ("include_timing", bool, "true or false")):
            if key in raw and not isinstance(raw[key], kind):
                raise ParseError(f"{source}: {key}: expected {name}, got {raw[key]!r}")
        kwargs = {f.name: raw[f.name] for f in fields(cls) if f.name in raw}
        kwargs["sigmas"] = [_number(sigma, f"{source}: sigmas[{i}]")
                            for i, sigma in enumerate(raw["sigmas"])]
        kwargs["n_seeds"] = _integer(raw["n_seeds"], f"{source}: n_seeds")
        return cls(**kwargs)

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        return cls.from_dict(read_json(path), str(path))


def _run_rows(scenario: Scenario, sigma, seed, outcome, include_timing: bool) -> list[dict]:
    """The M rows of one point; outcome is its report or the exception
    that stopped it, which leaves the estimate cells empty."""
    failed = isinstance(outcome, Exception)
    status = f"error:{type(outcome).__name__}" if failed else "ok"
    rows = []
    for m, truth in enumerate(scenario.true_eps_vector().tolist()):
        row = dict.fromkeys(RUN_FIELDS, "")
        row.update(sigma_z=sigma, seed=seed, material=m + 1, eps_true=truth, status=status)
        if not failed:
            eps_hat = float(outcome.eps_hat[m])
            row.update(eps_hat=eps_hat, abs_err=abs(eps_hat - truth),
                       iterations=outcome.iterations_run,
                       wall_ms=outcome.wall_ms if include_timing else 0.0)
        rows.append(row)
    return rows


def run_sweep(
    config: ExperimentConfig, workers: Optional[int] = None
) -> tuple[list[dict], list[dict]]:
    """All (sigma, seed) points of the experiment; returns (rows, summary).

    workers has no effect: every point is solved in this process, in one
    batch. The keyword remains only for callers that still pass it.
    """
    scenario = load_scenario(config.scenario_path)
    eps_true = scenario.true_eps_vector()  # sweeps synthesize: fail fast without truths
    points = [(float(sigma), seed) for sigma in config.sigmas for seed in range(config.n_seeds)]
    try:
        configs = [default_config(scenario, sigma**2, **config.overrides) for sigma, _ in points]
        for point_config in configs:
            check_x0(scenario, point_config)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"overrides {config.overrides}: {exc}") from exc
    try:  # the problem every point shares: kept links, gains at the true eps
        prob = _split_links(scenario, _trace_all(scenario), np.zeros(scenario.n_links))
        gains = forward(scenario, prob.ray_cache, eps_true)
    except Exception as exc:  # e.g. a link without rays: every point reports it
        outcomes = [exc] * len(points)
    else:
        # adding and removing the offsets rounds y exactly as
        # synthesize_dataset + prepare_problem do
        offsets = scenario.link_offsets()[prob.kept]
        Y = np.array([
            offsets + gains + measurement_noise(sigma, seed, scenario.n_links)[prob.kept] - offsets
            for sigma, seed in points
        ])
        try:
            outcomes = solve_batch(scenario, prob.ray_cache, Y, configs)
        except Exception:  # solve alone, so only the failing points get error rows
            outcomes = []
            for y, point_config in zip(Y, configs):
                try:
                    outcomes.append(solve(scenario, prob.ray_cache, y, point_config))
                except Exception as exc:  # one failure must not kill the sweep
                    outcomes.append(exc)
    rows = [
        row
        for (sigma, seed), outcome in zip(points, outcomes)
        for row in _run_rows(scenario, sigma, seed, outcome, config.include_timing)
    ]
    rows.sort(key=lambda r: (r["sigma_z"], r["seed"], r["material"]))

    summary = []
    for sigma in config.sigmas:
        for m in range(1, scenario.n_materials + 1):
            errs = [
                r["abs_err"]
                for r in rows
                if r["sigma_z"] == sigma and r["material"] == m and r["status"] == "ok"
            ]
            n_ok = len(errs)
            mean = float(np.mean(errs)) if n_ok else ""
            std = float(np.std(errs, ddof=1)) if n_ok > 1 else ""
            sem = std / float(np.sqrt(n_ok)) if n_ok > 1 else ""
            summary.append(
                {
                    "sigma_z": float(sigma),
                    "material": m,
                    "n_ok": n_ok,
                    "mean_abs_err": mean,
                    "std_abs_err": std,
                    "stderr_abs_err": sem,
                }
            )
    return rows, summary


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_csv(rows: list[dict], fields: list[str], fh) -> None:
    """Deterministic CSV: repr floats, unix newlines, fixed column order."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(fields)
    for row in rows:
        writer.writerow([_fmt(row[f]) for f in fields])


def write_sweep_outputs(rows: list[dict], summary: list[dict], out_dir) -> tuple[str, str]:
    os.makedirs(out_dir, exist_ok=True)
    runs_path = os.path.join(out_dir, "runs.csv")
    summary_path = os.path.join(out_dir, "summary.csv")
    with open(runs_path, "w") as fh:
        write_csv(rows, RUN_FIELDS, fh)
    with open(summary_path, "w") as fh:
        write_csv(summary, SUMMARY_FIELDS, fh)
    return runs_path, summary_path
