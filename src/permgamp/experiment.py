"""Harness plumbing: problem preparation, single estimations, noise sweeps.

A sweep fans (sigma, seed) points out over a process pool (worker count
from the PERMGAMP_WORKERS environment variable, default: all cores) and
merges the per-run rows back in deterministic (sigma, seed, material)
order, so the emitted CSVs are byte-stable no matter how the pool
schedules. A failed run keeps its rows (status column carries the error
tag) and the sweep continues.
"""

from __future__ import annotations

import csv
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import UnusableLinkError, ValidationError
from .forward_model import forward
from .gamp import EstimateReport, default_config, solve
from .oracle import GridSpec, grid_map
from .raytracer import Ray, trace_link
from .scenario import (
    Dataset,
    Scenario,
    load_scenario,
    normalize_measurements,
    scenario_from_dict,
    scenario_to_dict,
    synthesize_dataset,
)


@dataclass
class PreparedProblem:
    """Normalized measurements and rays for the solvable subset of links."""

    y: np.ndarray
    ray_cache: list[list[Ray]]
    kept: list[int]              # original link indices
    dropped: list[int]


def prepare_problem(scenario: Scenario, dataset: Dataset) -> PreparedProblem:
    """Trace all links and drop the unusable ones (no ray, or zero gain at
    the prior midpoint) from both the measurements and the ray cache."""
    y_all = normalize_measurements(scenario, dataset)
    lo, hi = scenario.prior_bounds()
    x0 = 0.5 * (lo + hi)
    kept, dropped, rays_kept = [], [], []
    for n in range(scenario.n_links):
        try:
            rays = trace_link(scenario, n)
            forward(scenario, [rays], x0)
        except UnusableLinkError:
            dropped.append(n)
            continue
        kept.append(n)
        rays_kept.append(rays)
    if not kept:
        raise UnusableLinkError("every link is unusable")
    return PreparedProblem(
        y=y_all[kept], ray_cache=rays_kept, kept=kept, dropped=dropped
    )


def run_estimate(
    scenario: Scenario,
    dataset: Dataset,
    overrides: Optional[dict] = None,
    jacobian_method: str = "analytic",
    with_oracle: bool = False,
    grid_step: float = 0.05,
) -> tuple[EstimateReport, dict]:
    """Prepare, solve, and (optionally) compare against the grid oracle."""
    prob = prepare_problem(scenario, dataset)
    config = default_config(scenario, dataset.noise_var, **(overrides or {}))
    report = solve(
        scenario,
        prob.ray_cache,
        prob.y,
        config,
        jacobian_method=jacobian_method,
    )
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

WORKERS_ENV = "PERMGAMP_WORKERS"


@dataclass
class ExperimentConfig:
    scenario_path: str
    sigmas: Sequence[float]
    n_seeds: int
    overrides: dict = field(default_factory=dict)
    out_dir: Optional[str] = None
    include_timing: bool = False

    def __post_init__(self):
        if len(self.sigmas) < 1:
            raise ValidationError("sigmas: need at least one value")
        if self.n_seeds < 1:
            raise ValidationError(f"n_seeds={self.n_seeds} must be >= 1")

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        with open(path) as fh:
            raw = json.load(fh)
        return cls(
            scenario_path=raw["scenario_path"],
            sigmas=[float(s) for s in raw["sigmas"]],
            n_seeds=int(raw["n_seeds"]),
            overrides=raw.get("overrides", {}),
            out_dir=raw.get("out_dir"),
            include_timing=bool(raw.get("include_timing", False)),
        )


def _sweep_point(args) -> list[dict]:
    """One (sigma, seed) run; returns M rows. Top-level so pools can pickle."""
    scenario_dict, sigma, seed, overrides = args
    scenario = scenario_from_dict(scenario_dict)
    eps_true = scenario.true_eps_vector()
    base = {"sigma_z": sigma, "seed": seed}
    try:
        dataset = synthesize_dataset(scenario, sigma, seed)
        report, _ = run_estimate(scenario, dataset, overrides=overrides)
        return [
            {
                **base,
                "material": m + 1,
                "eps_true": float(eps_true[m]),
                "eps_hat": float(report.eps_hat[m]),
                "abs_err": float(abs(report.eps_hat[m] - eps_true[m])),
                "iterations": report.iterations_run,
                "wall_ms": report.wall_ms,
                "status": "ok",
            }
            for m in range(scenario.n_materials)
        ]
    except Exception as exc:  # single-run failure must not kill the sweep
        return [
            {
                **base,
                "material": m + 1,
                "eps_true": float(eps_true[m]),
                "eps_hat": "",
                "abs_err": "",
                "iterations": "",
                "wall_ms": "",
                "status": f"error:{type(exc).__name__}",
            }
            for m in range(scenario.n_materials)
        ]


def _worker_count(workers: Optional[int]) -> int:
    if workers is not None:
        return max(1, workers)
    env = os.environ.get(WORKERS_ENV)
    if env:
        return max(1, int(env))
    return os.cpu_count() or 1


def run_sweep(
    config: ExperimentConfig,
    scenario: Optional[Scenario] = None,
    workers: Optional[int] = None,
) -> tuple[list[dict], list[dict]]:
    """All (sigma, seed) points of the experiment; returns (rows, summary)."""
    if scenario is None:
        scenario = load_scenario(config.scenario_path)
    scenario.true_eps_vector()  # sweeps synthesize: fail fast without truths
    scenario_dict = scenario_to_dict(scenario)
    tasks = [
        (scenario_dict, float(sigma), seed, dict(config.overrides))
        for sigma in config.sigmas
        for seed in range(config.n_seeds)
    ]
    n_workers = _worker_count(workers)
    if n_workers == 1 or len(tasks) == 1:
        results = [_sweep_point(t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            results = list(pool.map(_sweep_point, tasks, chunksize=1))
    rows = [row for batch in results for row in batch]
    rows.sort(key=lambda r: (r["sigma_z"], r["seed"], r["material"]))
    if not config.include_timing:
        for r in rows:
            if r["status"] == "ok":
                r["wall_ms"] = 0.0

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
