"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the seven lines. Every
tolerance and runtime bound is asserted here; the seeds are fixed so all
numbers are reproducible.
"""

import json
import math
import time

import numpy as np

from permgamp import (
    ExperimentConfig,
    GridSpec,
    Interval,
    bundled_scenario_path,
    default_config,
    forward,
    grid_map,
    load_scenario,
    make_canyon_scenario,
    normalize_measurements,
    run_sweep,
    solve,
    synthesize_dataset,
    trace_scenario,
    truncated_moments,
)
from permgamp.cli import main as cli_main
from permgamp.forward_model import jacobian, ray_table
from quadrature import quadrature_moments
from scalar_forward import fd_jacobian


def _verdict(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'} -- {detail}")
    assert ok, f"criterion {num} failed: {detail}"


# ---------------------------------------------------------------------------
# 1. Moment kernel vs quadrature.
# ---------------------------------------------------------------------------

def test_criterion_1_moment_kernel():
    t0 = time.perf_counter()
    rng = np.random.Generator(np.random.PCG64(12345))
    worst_mean = worst_var = 0.0
    for _ in range(1000):
        lo = rng.uniform(-10.0, 10.0)
        width = 10.0 ** rng.uniform(-2, 1)
        hi = lo + width
        tau = 10.0 ** rng.uniform(-5, 4)
        s = math.sqrt(tau)
        c = rng.uniform(lo - width - 4 * s, hi + width + 4 * s)
        iv = Interval(lo, hi)
        m1, v1 = truncated_moments(c, tau, iv)
        m2, v2 = quadrature_moments(c, tau, iv)
        worst_mean = max(worst_mean, abs(m1 - m2))
        worst_var = max(worst_var, abs(v1 - v2))

    tails_ok = True
    for k in range(50):
        tau = 10.0 ** rng.uniform(-6, 4)
        s = math.sqrt(tau)
        lo = rng.uniform(-5.0, 5.0)
        hi = lo + 10.0 ** rng.uniform(-1, 1)
        side = 1 if k % 2 == 0 else -1
        c = (hi if side > 0 else lo) + side * (40.0 + rng.uniform(0, 60)) * s
        mean, var = truncated_moments(c, tau, Interval(lo, hi))
        tails_ok &= math.isfinite(mean) and math.isfinite(var)
        tails_ok &= lo < mean < hi and var > 0.0

    elapsed = time.perf_counter() - t0
    ok = worst_mean <= 1e-9 and worst_var <= 1e-9 and tails_ok and elapsed < 10.0
    _verdict(
        1,
        "moment kernel",
        ok,
        f"mean err {worst_mean:.2e}, var err {worst_var:.2e}, "
        f"far tails {'ok' if tails_ok else 'BAD'}, {elapsed:.1f}s (<10s)",
    )


# ---------------------------------------------------------------------------
# 2. Jacobian: analytic vs finite differences plus Taylor remainder.
# ---------------------------------------------------------------------------

def test_criterion_2_jacobian():
    t0 = time.perf_counter()
    rng = np.random.Generator(np.random.PCG64(777))
    worst_rel = 0.0
    for k in range(50):
        sc = make_canyon_scenario(
            n_links=20,
            seed=5000 + k,
            width_m=float(rng.uniform(6.0, 12.0)),
            length_m=float(rng.uniform(30.0, 60.0)),
        )
        rays = trace_scenario(sc)
        lo, hi = sc.prior_bounds()
        eps = np.array([rng.uniform(lo[m] + 0.3, hi[m] - 0.3) for m in range(2)])
        table = ray_table(rays, sc.wavelength_m, sc.polarization)
        a = jacobian(table, eps[None]).a_matrix[0]
        fd, _ = fd_jacobian(table, eps)
        scale = np.maximum(np.abs(a), 1e-9)
        worst_rel = max(worst_rel, float(np.max(np.abs(a - fd) / scale)))

    # remainder ratio on the bundled fixture
    sc = load_scenario(bundled_scenario_path("canyon"))
    rays = trace_scenario(sc)
    eps = np.array([3.0, 6.0])
    lin = jacobian(ray_table(rays, sc.wavelength_m, sc.polarization), eps[None])

    def remainder(d):
        g = forward(sc, rays, eps + d)
        return float(np.linalg.norm(g - (lin.a_matrix[0] @ (eps + d) + lin.mu[0])))

    ratios = []
    for _ in range(40):
        d = rng.uniform(-1.0, 1.0, 2)
        d *= 0.2 / np.linalg.norm(d)
        r1, r2 = remainder(d), remainder(d / 2.0)
        if r1 > 1e-8:
            ratios.append(r1 / r2)
    ratio_ok = len(ratios) >= 20 and all(3.5 <= r <= 4.5 for r in ratios)

    elapsed = time.perf_counter() - t0
    ok = worst_rel <= 1e-5 and ratio_ok and elapsed < 30.0
    span = f"[{min(ratios):.2f}, {max(ratios):.2f}]" if ratios else "[]"
    _verdict(
        2,
        "jacobian",
        ok,
        f"max rel err {worst_rel:.2e} (<=1e-5), {len(ratios)} remainder ratios in "
        f"{span}, {elapsed:.1f}s (<30s)",
    )


# ---------------------------------------------------------------------------
# 3/4/5 share their solve runs.
# ---------------------------------------------------------------------------

def _criterion3_runs():
    sc = load_scenario(bundled_scenario_path("canyon"))
    rays = trace_scenario(sc)
    table = ray_table(rays, sc.wavelength_m, sc.polarization)
    out = []
    for seed in range(100, 110):
        ds = synthesize_dataset(sc, 0.5, seed=seed)
        y = normalize_measurements(sc, ds)
        rep = solve(sc, table, y, default_config(sc, ds.noise_var))
        out.append((sc, rays, y, rep))
    return out


def _criterion4_runs():
    reports = []
    for n_mat in (1, 2):
        for seed in range(10):
            sc = make_canyon_scenario(n_links=40, seed=1000 + seed, n_materials=n_mat)
            rays = trace_scenario(sc)
            ds = synthesize_dataset(sc, 0.0, seed=seed)
            y = normalize_measurements(sc, ds)
            rep = solve(sc, ray_table(rays, sc.wavelength_m, sc.polarization), y,
                        default_config(sc, ds.noise_var))
            reports.append((n_mat, seed, float(np.max(np.abs(rep.eps_hat - sc.true_eps_vector())))))
    return reports


def test_criterion_3_oracle_equivalence():
    t0 = time.perf_counter()
    hits = 0
    worst = 0.0
    for sc, rays, y, rep in _criterion3_runs():
        eps_map = grid_map(sc, rays, y, 0.5, GridSpec(0.05))
        gap = float(np.max(np.abs(rep.eps_hat - eps_map)))
        worst = max(worst, gap)
        hits += gap <= 0.05 + 1e-12
    elapsed = time.perf_counter() - t0
    ok = hits >= 8 and elapsed < 180.0
    _verdict(
        3,
        "oracle equivalence",
        ok,
        f"{hits}/10 seeds within one 0.05 grid cell (worst gap {worst:.3f}), "
        f"{elapsed:.1f}s (<180s)",
    )


def test_criterion_4_noiseless_recovery():
    t0 = time.perf_counter()
    runs = _criterion4_runs()
    worst = max(err for _, _, err in runs)
    ok_runs = sum(err <= 0.05 for _, _, err in runs)
    elapsed = time.perf_counter() - t0
    ok = ok_runs == 20 and elapsed < 60.0
    _verdict(
        4,
        "noiseless recovery",
        ok,
        f"{ok_runs}/20 runs (M=1 and M=2, 10 seeds each) within 0.05 "
        f"(worst {worst:.2e}), {elapsed:.1f}s (<60s)",
    )


def test_criterion_5_trust_region_invariants():
    # Every solve checks containment and positivity after each inner step
    # and raises on a violation, so completing every criterion-3/4 run
    # means zero violations across all of their iterations.
    t0 = time.perf_counter()
    n_solves = 0
    for _ in _criterion3_runs():
        n_solves += 1
    for _ in _criterion4_runs():
        n_solves += 1
    elapsed = time.perf_counter() - t0
    _verdict(
        5,
        "trust-region invariants",
        True,
        f"0 violations across {n_solves} instrumented solves, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 6. Error grows with noise.
# ---------------------------------------------------------------------------

def test_criterion_6_noise_trend():
    t0 = time.perf_counter()
    config = ExperimentConfig(
        scenario_path=bundled_scenario_path("canyon"),
        sigmas=[0.1, 1.0, 2.0, 4.0],
        n_seeds=20,
    )
    rows, summary = run_sweep(config)
    assert len(rows) == 4 * 20 * 2
    ok = True
    details = []
    for m in (1, 2):
        chain = [r for r in summary if r["material"] == m]
        chain.sort(key=lambda r: r["sigma_z"])
        means = [r["mean_abs_err"] for r in chain]
        ses = [r["stderr_abs_err"] for r in chain]
        inversions = [i for i in range(len(means) - 1) if means[i + 1] < means[i]]
        mat_ok = len(inversions) <= 1 and all(
            means[i + 1] + ses[i + 1] >= means[i] - ses[i] for i in inversions
        )
        ok &= mat_ok
        details.append(
            f"m{m} means {['%.3f' % v for v in means]} inversions {inversions}"
        )
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 300.0
    _verdict(6, "noise trend", ok, "; ".join(details) + f", {elapsed:.1f}s (<300s)")


# ---------------------------------------------------------------------------
# 7. Byte determinism of the criterion-3 artifacts.
# ---------------------------------------------------------------------------

def test_criterion_7_determinism(tmp_path, capsys):
    t0 = time.perf_counter()
    scenario = bundled_scenario_path("canyon")
    reports = []
    for k in (1, 2):
        out = tmp_path / f"report{k}.json"
        code = cli_main([
            "estimate", "--scenario", scenario, "--sigma", "0.5", "--seed", "104",
            "--oracle", "--out", str(out),
        ])
        assert code == 0
        reports.append(out.read_bytes())
    capsys.readouterr()

    csvs = []
    for k in (1, 2):
        out_dir = tmp_path / f"sweep{k}"
        code = cli_main([
            "sweep", "--scenario", scenario, "--sigmas", "0.5", "--seeds", "10",
            "--out-dir", str(out_dir),
        ])
        assert code == 0
        csvs.append(
            (out_dir / "runs.csv").read_bytes() + (out_dir / "summary.csv").read_bytes()
        )
    capsys.readouterr()

    elapsed = time.perf_counter() - t0
    ok = reports[0] == reports[1] and csvs[0] == csvs[1]
    payload = json.loads(reports[0])
    ok = ok and payload["wall_ms"] == 0.0
    _verdict(
        7,
        "determinism",
        ok,
        f"report JSON and sweep CSVs byte-identical across reruns, {elapsed:.1f}s",
    )
