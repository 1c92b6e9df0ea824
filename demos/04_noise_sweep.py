"""Estimation error versus measurement noise on the bundled canyon.

Runs 4 noise levels x 8 seeds as one batched solve and prints the
per-material error summary (the CSV-producing equivalent is
`permgamp sweep --scenario ... --sigmas 0.1,1,2,4 --seeds 20 --out-dir out`).

Run from the repository root:  python demos/04_noise_sweep.py
"""

from permgamp import ExperimentConfig, bundled_scenario_path, run_sweep

config = ExperimentConfig(
    scenario_path=bundled_scenario_path("canyon"),
    sigmas=[0.1, 1.0, 2.0, 4.0],
    n_seeds=8,
)
rows, summary = run_sweep(config)

print(f"{len(rows)} runs ({sum(r['status'] != 'ok' for r in rows)} failures)\n")
print(f"{'sigma_z':>8} {'material':>9} {'mean |err|':>11} {'std':>8} {'stderr':>8}")
for row in summary:
    print(
        f"{row['sigma_z']:8.1f} {row['material']:9d} "
        f"{row['mean_abs_err']:11.3f} {row['std_abs_err']:8.3f} "
        f"{row['stderr_abs_err']:8.3f}"
    )

print("\nper-material error grows with the noise level; at large sigma the")
print("uniform prior takes over and the error saturates near the distance")
print("from the truth to the prior center.")
