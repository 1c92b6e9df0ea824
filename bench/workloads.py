"""The benchmark's workloads: inputs from a seed, one timed op, output checks.

Every workload drives the public permgamp API in-process. ``setup`` builds
the inputs (scenario and datasets), ``op`` is the call the benchmark times,
and ``check`` validates one op's output and returns its canonical bytes
(wall-clock fields zeroed), from which the run's digest is taken.

Datasets of the estimate and oracle workloads come in two groups: a fixed
accuracy panel (the same seeds in every run, so ``mean_abs_err`` and
``residual_db_mean`` are comparable between runs and commits) followed by
datasets whose seeds are drawn from the workload seed. Ops cycle through
all of them.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from permgamp import experiment, oracle, raytracer, scenario as scenario_mod
from permgamp.gamp import report_to_dict

import room

GRID_STEP = 0.05
# Columns documented in the README for the sweep CSVs.
RUN_COLUMNS = [
    "sigma_z", "seed", "material", "eps_true", "eps_hat",
    "abs_err", "iterations", "wall_ms", "status",
]
SUMMARY_COLUMNS = [
    "sigma_z", "material", "n_ok", "mean_abs_err", "std_abs_err", "stderr_abs_err",
]


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def dataset_seeds(workload_seed: int, n_panel: int, n_drawn: int) -> list[int]:
    """Panel seeds 0..n_panel-1, then n_drawn seeds drawn from the workload seed."""
    rng = np.random.Generator(np.random.PCG64(workload_seed))
    drawn = rng.integers(1_000_000, 2**31 - 1, size=n_drawn)
    return list(range(n_panel)) + [int(s) for s in drawn]


@dataclass
class Checked:
    """One op's verdict: failed units, canonical output bytes, accuracy."""

    failed: int
    canonical: bytes
    abs_errs: list[float] = field(default_factory=list)
    residuals: list[float] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)


def _in_box(values, lo, hi) -> bool:
    v = np.asarray(values, dtype=float)
    return bool(np.all(np.isfinite(v)) and np.all(v >= lo) and np.all(v <= hi))


def ray_counts(sc, ray_cache) -> dict:
    """Exact structural counts of a traced scenario."""
    s = len(sc.surfaces)
    candidates = 1 + sum(s * (s - 1) ** (k - 1) for k in range(1, sc.max_reflections + 1))
    rays = sum(len(r) for r in ray_cache)
    return {
        "links": sc.n_links,
        "surfaces": s,
        "candidates_per_link": candidates,
        "rays": rays,
        "bounces": sum(ray.n_bounces for r in ray_cache for ray in r),
    }


class DatasetWorkload:
    """Shared set-up for the workloads whose op runs on one dataset."""

    sigma = 0.5
    n_panel = 8
    n_drawn = 8
    points_per_op = 1
    workers = 1
    min_traced_ops = 3

    def trace_plan(self):
        """(label, workers) of each op in one cycle of the traced run."""
        return (("plain", None), ("traced", None))

    def build_scenario(self):
        return scenario_mod.load_scenario(scenario_mod.bundled_scenario_path("canyon"))

    def setup(self, seed: int, out_dir: str) -> None:
        self.scenario = self.build_scenario()
        self.truth = self.scenario.true_eps_vector()
        self.lo, self.hi = self.scenario.prior_bounds()
        self.seeds = dataset_seeds(seed, self.n_panel, self.n_drawn)
        self.datasets = [
            scenario_mod.synthesize_dataset(self.scenario, self.sigma, s)
            for s in self.seeds
        ]

    @property
    def n_inputs(self) -> int:
        return len(self.datasets)

    min_ops = n_inputs

    def warm_up(self) -> None:
        self.op(0)

    def is_panel(self, i: int) -> bool:
        return i % len(self.datasets) < self.n_panel

    def counts(self) -> dict:
        prob = experiment.prepare_problem(self.scenario, self.datasets[0])
        return {**ray_counts(self.scenario, prob.ray_cache), "kept_links": len(prob.kept)}


class EstimateWorkload(DatasetWorkload):
    def op(self, i: int, workers=None):
        return experiment.run_estimate(self.scenario, self.datasets[i % len(self.datasets)])

    def check(self, i: int, out) -> Checked:
        report, info = out
        payload = {
            "report": report_to_dict(report),  # wall_ms zeroed
            "n_used": info["n_used"],
            "dropped_links": info["dropped_links"],
        }
        canonical = json.dumps(payload, sort_keys=True).encode()
        problems = []
        if not _in_box(report.eps_hat, self.lo, self.hi):
            problems.append(f"eps_hat {list(report.eps_hat)} not finite or outside the prior box")
        if not math.isfinite(report.residual_db):
            problems.append(f"residual_db {report.residual_db} not finite")
        err = [float(v) for v in np.abs(report.eps_hat - self.truth)]
        return Checked(
            failed=1 if problems else 0,
            canonical=canonical,
            abs_errs=err if self.is_panel(i) else [],
            residuals=[float(report.residual_db)] if self.is_panel(i) else [],
            problems=problems,
        )


class CanyonEstimate(EstimateWorkload):
    name = "canyon-estimate"


class RoomEstimate(EstimateWorkload):
    name = "room-estimate"
    sigma = room.SIGMA_DB
    n_panel = 3
    n_drawn = 2

    def build_scenario(self):
        return room.make_room_scenario(room.LAYOUT_SEED)


class CanyonOracle(DatasetWorkload):
    name = "canyon-oracle"

    def setup(self, seed: int, out_dir: str) -> None:
        super().setup(seed, out_dir)
        self.grid = oracle.GridSpec(GRID_STEP)
        self.axes = oracle.grid_axes(self.scenario, self.grid)

    def op(self, i: int, workers=None):
        ds = self.datasets[i % len(self.datasets)]
        prob = experiment.prepare_problem(self.scenario, ds)
        sigma_z = float(np.sqrt(ds.noise_var))
        eps_map = oracle.grid_map(self.scenario, prob.ray_cache, prob.y, sigma_z, self.grid)
        lp = oracle.log_posterior(self.scenario, prob.ray_cache, prob.y, eps_map, sigma_z)
        return eps_map, lp, len(prob.kept), sigma_z

    def check(self, i: int, out) -> Checked:
        eps_map, lp, n_used, sigma_z = out
        payload = {
            "eps_map": [float(v) for v in eps_map],
            "grid_step": GRID_STEP,
            "log_posterior": lp,
            "n_links_used": n_used,
        }
        canonical = json.dumps(payload, sort_keys=True).encode()
        problems = []
        if not all(np.any(ax == v) for ax, v in zip(self.axes, eps_map)):
            problems.append(f"eps_map {list(eps_map)} is not a grid node")
        if not _in_box(eps_map, self.lo, self.hi):
            problems.append(f"eps_map {list(eps_map)} outside the prior box")
        if not (math.isfinite(lp) and lp <= 0.0):
            problems.append(f"log_posterior {lp} not finite and <= 0")
        panel = self.is_panel(i) and not problems
        # log_posterior = -SSR / (2 sigma^2), so the RMS residual follows.
        resid = math.sqrt(-2.0 * lp * sigma_z**2 / n_used) if panel else 0.0
        return Checked(
            failed=1 if problems else 0,
            canonical=canonical,
            abs_errs=[float(v) for v in np.abs(eps_map - self.truth)] if panel else [],
            residuals=[resid] if panel else [],
            problems=problems,
        )

    def counts(self) -> dict:
        nodes = math.prod(len(ax) for ax in self.axes)
        c = super().counts()
        return {**c, "grid_nodes": nodes, "gains_bytes": nodes * c["kept_links"] * 8}


class CanyonSweep:
    """One run_sweep + write_sweep_outputs call: 4 sigmas x 5 seeds."""

    name = "canyon-sweep"
    sigmas = (0.1, 1.0, 2.0, 4.0)
    n_seeds = 5
    min_ops = 2
    min_traced_ops = 1  # one traced cycle is three sweeps, ~30 s on 2 cores
    n_inputs = 1

    @property
    def points_per_op(self) -> int:
        return len(self.sigmas) * self.n_seeds

    def setup(self, seed: int, out_dir: str) -> None:
        # run_sweep draws its dataset seeds as range(n_seeds), so the
        # workload seed does not change this workload's inputs.
        self.path = scenario_mod.bundled_scenario_path("canyon")
        self.scenario = scenario_mod.load_scenario(self.path)
        self.lo, self.hi = self.scenario.prior_bounds()
        self.out_dir = out_dir
        self.workers = nproc()

    def trace_plan(self):
        # Spans from pool workers are not collected, so the traced op runs
        # at one worker; "plain1" is its untraced twin and the baseline of
        # the scaling efficiency.
        return (("plain", self.workers), ("plain1", 1), ("traced", 1))

    def config(self, sigmas=None, n_seeds=None):
        return experiment.ExperimentConfig(
            scenario_path=self.path,
            sigmas=list(sigmas or self.sigmas),
            n_seeds=n_seeds or self.n_seeds,
            out_dir=self.out_dir,
            include_timing=True,
        )

    def warm_up(self) -> None:
        """A sweep of nproc points: starts a pool and runs the whole op path."""
        rows, summary = experiment.run_sweep(
            self.config(sigmas=self.sigmas[:1], n_seeds=self.workers), workers=self.workers
        )
        experiment.write_sweep_outputs(rows, summary, self.out_dir)

    def op(self, i: int, workers: int | None = None):
        rows, summary = experiment.run_sweep(self.config(), workers=workers or self.workers)
        return rows, experiment.write_sweep_outputs(rows, summary, self.out_dir)

    def check(self, i: int, out) -> Checked:
        rows, (runs_path, summary_path) = out
        n_mat = self.scenario.n_materials
        problems = []
        with open(runs_path, newline="") as fh:
            runs = list(csv.reader(fh))
        with open(summary_path, newline="") as fh:
            summary = list(csv.reader(fh))
        if not runs or runs[0] != RUN_COLUMNS:
            problems.append(f"runs.csv header {runs[:1]} != {RUN_COLUMNS}")
        if not summary or summary[0] != SUMMARY_COLUMNS:
            problems.append(f"summary.csv header {summary[:1]} != {SUMMARY_COLUMNS}")
        if problems:
            return Checked(failed=self.points_per_op, canonical=b"", problems=problems)
        body = [dict(zip(RUN_COLUMNS, r)) for r in runs[1:]]
        if len(body) != self.points_per_op * n_mat:
            problems.append(f"runs.csv has {len(body)} rows")
        if len(summary) - 1 != len(self.sigmas) * n_mat:
            problems.append(f"summary.csv has {len(summary) - 1} rows")
        malformed = bool(problems)  # then every point of the op fails
        bad_points = set()
        for r in body:
            m = int(r["material"]) - 1
            ok = r["status"] == "ok" and _in_box(
                float(r["eps_hat"]), self.lo[m], self.hi[m]
            )
            if not ok:
                bad_points.add((r["sigma_z"], r["seed"]))
                problems.append(f"row {r} failed its check")
            r["wall_ms"] = "0.0"
        for s in summary[1:]:
            if int(s[2]) != self.n_seeds:
                problems.append(f"summary row {s} has n_ok != {self.n_seeds}")
        canonical = "\n".join(
            [",".join(RUN_COLUMNS)]
            + [",".join(r[c] for c in RUN_COLUMNS) for r in body]
            + [",".join(s) for s in summary]
        ).encode()
        failed = self.points_per_op if malformed else len(bad_points)
        first = i == 0 and not problems
        return Checked(
            failed=failed,
            canonical=canonical,
            abs_errs=[float(r["abs_err"]) for r in body] if first else [],
            residuals=self.residuals(rows) if first else [],
            problems=problems,
        )

    def solve_ms(self, out) -> float:
        """Sum of the per-point solve times the rows report."""
        rows = out[0]
        return sum(r["wall_ms"] for r in rows[:: self.scenario.n_materials])

    def residuals(self, rows) -> list[float]:
        """RMS residual of each point's estimate on its own dataset."""
        n_mat = self.scenario.n_materials
        out = []
        for k in range(0, len(rows), n_mat):
            point = rows[k:k + n_mat]
            ds = scenario_mod.synthesize_dataset(
                self.scenario, point[0]["sigma_z"], point[0]["seed"]
            )
            prob = experiment.prepare_problem(self.scenario, ds)
            eps_hat = np.array([r["eps_hat"] for r in point], dtype=float)
            resid = prob.y - experiment.forward(self.scenario, prob.ray_cache, eps_hat)
            out.append(float(np.sqrt(np.mean(resid * resid))))
        return out

    def counts(self) -> dict:
        ray_cache = raytracer.trace_scenario(self.scenario)
        return {**ray_counts(self.scenario, ray_cache), "kept_links": self.scenario.n_links}


WORKLOADS = {w.name: w for w in (CanyonEstimate, RoomEstimate, CanyonOracle, CanyonSweep)}
