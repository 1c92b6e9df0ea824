"""Harness plumbing: problem preparation, single estimations, noise sweeps.

A sweep traces its scenario once and builds every (sigma, seed) point's
solver config before any solve, then solves all points in this process as
one gamp.solve_batch call, bit for bit each point's own solve; a point's
wall_ms is the batch's wall time over the number of points. If the batch
fails, each point is solved alone, so only a failed point gets error rows
(the status column carries the error tag). Sigmas must not repeat. Run rows
come out in (sigma, seed, material) order and summary rows in (sigma,
material) order, ascending, so the emitted CSVs are byte-stable.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass, field
from typing import ClassVar, Optional, Sequence

import numpy as np

from .errors import ParseError, ValidationError
# unused here: forward, scenario_from_dict, synthesize_dataset and trace_link,
# which bench/ calls or wraps here
from .forward_model import GAIN_FLOOR, forward, gains_db, link_totals
from .gamp import EstimateReport, GampConfig, check_x0, default_config, solve, solve_batch
from .oracle import GridSpec, grid_map
from . import raytracer
from .raytracer import Rays, trace_link
from .scenario import (
    Dataset,
    Row,
    Scenario,
    _boolean,
    _integer,
    _list_of,
    _number,
    _record,
    _string,
    check_noise_std,
    load_scenario,
    measurement_noise,
    normalize_measurements,
    read_record,
    scenario_from_dict,
    synthesize_dataset,
)


@dataclass
class PreparedProblem:
    """Normalized measurements and rays for the solvable links; the solver
    and the oracle read the rays' one table."""

    y: np.ndarray
    ray_cache: Rays
    kept: list[int]              # original link indices
    dropped: list[int]


def _split_links(scenario: Scenario, ray_cache: Rays, y_all) -> PreparedProblem:
    """Keep the links usable at the prior midpoint (one kernel pass over the
    rays' table): a link without rays or with a total gain below GAIN_FLOOR
    there is dropped, and the kept links' rays build their own table on
    first use. ValidationError names links when no link is kept."""
    lo, hi = scenario.prior_bounds()
    usable = ~(link_totals(ray_cache.table, [0.5 * (lo + hi)])[0] < GAIN_FLOOR)
    kept, dropped = np.flatnonzero(usable).tolist(), np.flatnonzero(~usable).tolist()
    if not kept:
        raise ValidationError("links: every link is unusable (no unblocked ray, or a "
                              "total gain below the floor at the prior midpoint)")
    if dropped:
        ray_cache = ray_cache.take(kept)
    return PreparedProblem(y_all[kept], ray_cache, kept, dropped)


def prepare_problem(scenario: Scenario, dataset: Dataset) -> PreparedProblem:
    """Trace all links and drop the unusable ones (no ray, or zero gain at
    the prior midpoint) from both the measurements and the ray cache."""
    y_all = normalize_measurements(scenario, dataset)
    return _split_links(scenario, raytracer.trace_scenario(scenario), y_all)


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
    report = solve(scenario, prob.ray_cache.table, prob.y, config)
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
    ROWS: ClassVar = (
        Row("scenario_path", "scenario_path", _string),
        Row("sigmas", "sigmas", _list_of(_number)),
        Row("n_seeds", "n_seeds", _integer),
        Row("overrides", "overrides", _record(dict, GampConfig.ROWS), required=False),
        Row("out_dir", "out_dir", _string, required=False),
        Row("include_timing", "include_timing", _boolean, required=False),
    )

    def __post_init__(self):
        if len(self.sigmas) < 1:
            raise ValidationError("sigmas: need one or more values")
        for i, sigma in enumerate(self.sigmas):
            check_noise_std(sigma, f"sigmas[{i}]")
            if sigma in self.sigmas[:i]:
                raise ValidationError(f"sigmas[{i}]={sigma} repeats an earlier sigma")
        if self.n_seeds < 1:
            raise ValidationError(f"n_seeds={self.n_seeds} must be >= 1")

    @classmethod
    def from_dict(cls, raw, source: str) -> "ExperimentConfig":
        """The config in a JSON object laid out by ROWS; a ParseError names
        source and key path."""
        try:
            return cls(**read_record(raw, cls.ROWS))
        except ParseError as exc:
            raise ParseError(f"{source}: {exc}") from exc


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
    sigmas = sorted(map(float, config.sigmas))
    points = [(sigma, seed) for sigma in sigmas for seed in range(config.n_seeds)]
    try:
        configs = [default_config(scenario, sigma**2, **config.overrides) for sigma, _ in points]
        for point_config in configs:
            check_x0(scenario, point_config)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"overrides {config.overrides}: {exc}") from exc
    # the problem every point shares: the kept links (ValidationError names
    # links when none is usable), then the gains at the true eps
    prob = _split_links(scenario, raytracer.trace_scenario(scenario), np.zeros(scenario.n_links))
    try:
        gains = gains_db(prob.ray_cache.table, eps_true)
    except Exception as exc:  # e.g. a kept link below the floor: every point reports it
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
            outcomes = solve_batch(scenario, prob.ray_cache.table, Y, configs)
        except Exception:  # solve alone, so only the failing points get error rows
            outcomes = []
            for y, point_config in zip(Y, configs):
                try:
                    outcomes.append(solve(scenario, prob.ray_cache.table, y, point_config))
                except Exception as exc:  # one failure must not kill the sweep
                    outcomes.append(exc)
    rows = [
        row
        for (sigma, seed), outcome in zip(points, outcomes)
        for row in _run_rows(scenario, sigma, seed, outcome, config.include_timing)
    ]

    summary = []
    for sigma in sigmas:
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
            summary.append(dict(zip(SUMMARY_FIELDS, (sigma, m, n_ok, mean, std, sem))))
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
