"""Command line harness: generate | estimate | sweep | oracle.

Data goes to stdout (or --out / --out-dir files), logs go to stderr, so
the commands compose in pipelines. Exit codes: 0 success, 1 solver or
runtime failure, 2 bad usage, unreadable or invalid input files, or an
output path that cannot be written.

Outputs are byte-deterministic for fixed inputs; pass --timing to include
measured wall-clock times instead of zeros.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .errors import ParseError, ValidationError
from .experiment import (
    ExperimentConfig,
    prepare_problem,
    run_estimate,
    run_sweep,
    write_sweep_outputs,
)
from .gamp import report_to_dict
from .oracle import GridSpec, check_scorable, grid_map, log_posterior
from .scenario import (
    dump_json,
    load_dataset,
    load_scenario,
    make_canyon_scenario,
    make_free_space_scenario,
    read_json,
    save_dataset,
    scenario_to_dict,
    synthesize_dataset,
)

USAGE_ERROR = 2
RUNTIME_ERROR = 1


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def _emit(payload: dict, out_path) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(dump_json(payload))
    else:
        sys.stdout.write(dump_json(payload))


# solver key -> (type, help) of its flag: k_iter is --k-iter
SOLVER_FLAGS = {
    "k_iter": (int, "outer iterations"),
    "k_gamp": (int, "inner steps per outer"),
    "delta_tr": (float, "trust-region width"),
    "tau_w": (float, "output noise variance"),
    "damping": (float, "pseudo-residual damping"),
}


def _solver_overrides(args) -> dict:
    return {key: getattr(args, key) for key in SOLVER_FLAGS if getattr(args, key) is not None}


def _seed(text: str) -> int:
    """--seed value: PCG64 takes only integers >= 0."""
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"seed={seed} must be >= 0")
    return seed


def _sigmas(text: str) -> list[float]:
    """--sigmas value: comma-separated numbers, a bad one named sigmas[i]."""
    sigmas = []
    for i, item in enumerate(text.split(",")):
        try:
            sigmas.append(float(item))
        except ValueError:
            raise argparse.ArgumentTypeError(f"sigmas[{i}]: expected a number, got {item!r}")
    return sigmas


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    for key, (kind, text) in SOLVER_FLAGS.items():
        p.add_argument("--" + key.replace("_", "-"), type=kind, default=None, help=text)


def _add_problem_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scenario", required=True)
    p.add_argument("--dataset", default=None)
    p.add_argument("--sigma", type=float, default=None, help="synthesize with this noise")
    p.add_argument("--seed", type=_seed, default=None, help="noise seed of --sigma (default 0)")
    p.add_argument("--out", default=None)


def _load_problem(args):
    scenario = load_scenario(args.scenario)
    if not args.dataset:
        if args.sigma is None:
            raise ValidationError("need --dataset or --sigma to obtain measurements")
        return scenario, synthesize_dataset(scenario, args.sigma, args.seed or 0)
    for flag, value in (("--sigma", args.sigma), ("--seed", args.seed)):
        if value is not None:  # refused, not ignored
            raise ValidationError(f"{flag} is a synthesis flag and cannot go with --dataset")
    return scenario, load_dataset(args.dataset)


def cmd_generate(args) -> int:
    if args.dataset_out is not None and args.sigma is None:
        raise ValidationError("--dataset-out needs --sigma")
    if args.sigma is not None and args.dataset_out is None:  # refused, not ignored
        raise ValidationError("--sigma needs --dataset-out")
    if args.template == "canyon":
        scenario = make_canyon_scenario(
            n_materials=args.materials,
            n_links=args.links,
            seed=args.seed,
            length_m=args.length,
            width_m=args.width,
            wavelength_m=args.wavelength,
        )
    else:
        scenario = make_free_space_scenario(
            n_links=args.links, seed=args.seed, wavelength_m=args.wavelength
        )
    dataset = None  # drawn first, so that a bad --sigma writes no file
    if args.dataset_out is not None:
        dataset = synthesize_dataset(scenario, args.sigma, args.seed)
    _emit(scenario_to_dict(scenario), args.out)
    if dataset is not None:
        save_dataset(dataset, args.dataset_out)
        _log(f"dataset written to {args.dataset_out}")
    return 0


def cmd_estimate(args) -> int:
    if args.grid_step is None:
        args.grid_step = GridSpec.step
    elif not args.oracle:  # refused, not ignored
        raise ValidationError("--grid-step is an oracle flag and needs --oracle")
    scenario, dataset = _load_problem(args)
    report, info = run_estimate(
        scenario,
        dataset,
        overrides=_solver_overrides(args),
        with_oracle=args.oracle,
        grid_step=args.grid_step,
    )
    if info["dropped_links"]:
        _log(f"dropped {len(info['dropped_links'])} unusable link(s): "
             f"{info['dropped_links']}")
    payload = report_to_dict(report, include_timing=args.timing)
    payload["n_links_used"] = info["n_used"]
    payload["dropped_links"] = info["dropped_links"]
    if args.oracle:
        payload["oracle"] = info["oracle"]
    _emit(payload, args.out)
    return 0


def _check_out_dir(out_dir: str) -> None:
    """Refuse, before any solve and without creating anything, an out_dir
    that is, or lies under, an existing path that is not a directory."""
    existing = os.path.abspath(out_dir)
    while not os.path.exists(existing):
        existing = os.path.dirname(existing)
    if not os.path.isdir(existing):
        raise ValidationError(f"out_dir={out_dir}: {existing} exists and is not a directory")


def cmd_sweep(args) -> int:
    if not (args.config or args.scenario_path and args.sigmas):
        raise ValidationError("sweep needs --config, or --scenario and --sigmas")
    raw = read_json(args.config) if args.config else {"n_seeds": 20}
    if isinstance(raw, dict):  # else from_dict says what is wrong
        given = {row.key: getattr(args, row.key, None) for row in ExperimentConfig.ROWS}
        raw.update((key, value) for key, value in given.items() if value is not None)
        if isinstance(raw.get("overrides", {}), dict):
            raw["overrides"] = {**raw.get("overrides", {}), **_solver_overrides(args)}
    config = ExperimentConfig.from_dict(raw, args.config or "sweep flags")
    if not config.out_dir:
        raise ValidationError("sweep needs --out-dir (or out_dir in the config)")
    _check_out_dir(config.out_dir)
    rows, summary = run_sweep(config)
    runs_path, summary_path = write_sweep_outputs(rows, summary, config.out_dir)
    n_err = sum(1 for r in rows if r["status"] != "ok")
    _log(f"sweep: {len(rows)} rows ({n_err} failed) -> {runs_path}, {summary_path}")
    return 0


def cmd_oracle(args) -> int:
    scenario, dataset = _load_problem(args)
    check_scorable(scenario, dataset)
    prob = prepare_problem(scenario, dataset)
    if prob.dropped:
        _log(f"dropped {len(prob.dropped)} unusable link(s): {prob.dropped}")
    sigma_z = float(np.sqrt(dataset.noise_var))
    eps_map = grid_map(scenario, prob.ray_cache, prob.y, sigma_z, GridSpec(args.grid_step))
    payload = {
        "eps_map": [float(v) for v in eps_map],
        "grid_step": args.grid_step,
        "log_posterior": log_posterior(scenario, prob.ray_cache, prob.y, eps_map, sigma_z),
        "n_links_used": len(prob.kept),
    }
    _emit(payload, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="permgamp",
        description="Estimate material permittivities from path-loss data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a template scenario file")
    g.add_argument("--template", choices=("canyon", "free-space"), default="canyon")
    g.add_argument("--materials", type=int, default=2)
    g.add_argument("--links", type=int, default=100)
    g.add_argument("--seed", type=_seed, default=7)
    g.add_argument("--length", type=float, default=50.0)
    g.add_argument("--width", type=float, default=10.0)
    g.add_argument("--wavelength", type=float, default=0.1)
    g.add_argument("--sigma", type=float, default=None)
    g.add_argument("--dataset-out", default=None, help="also synthesize a dataset")
    g.add_argument("--out", default=None)
    g.set_defaults(func=cmd_generate)

    e = sub.add_parser("estimate", help="run the solver on one dataset")
    _add_problem_flags(e)
    e.add_argument("--oracle", action="store_true", help="append grid-search comparison")
    e.add_argument("--grid-step", type=float, default=None,
                   help="oracle grid step (needs --oracle; default 0.05)")
    e.add_argument("--timing", action="store_true", help="report measured wall time")
    _add_solver_flags(e)
    e.set_defaults(func=cmd_estimate)

    s = sub.add_parser("sweep", help="noise sweep emitting runs.csv and summary.csv")
    s.add_argument("--config", default=None, help="JSON experiment config; flags override it")
    # each dest is the config key the flag overrides
    s.add_argument("--scenario", dest="scenario_path")
    s.add_argument("--sigmas", type=_sigmas, help="comma-separated noise stds (dB)")
    s.add_argument("--seeds", dest="n_seeds", type=int, help="seeds per sigma (default 20)")
    s.add_argument("--out-dir", default=None)
    s.add_argument("--timing", dest="include_timing", action="store_const", const=True)
    _add_solver_flags(s)
    s.set_defaults(func=cmd_sweep)

    o = sub.add_parser("oracle", help="brute-force grid MAP for a dataset")
    _add_problem_flags(o)
    o.add_argument("--grid-step", type=float, default=GridSpec.step, help="grid step")
    o.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, ValidationError, OSError) as exc:
        _log(f"error: {exc}")
        return USAGE_ERROR
    except RuntimeError as exc:  # SolverError and UnusableLinkError among them
        _log(f"error: {exc}")
        return RUNTIME_ERROR


if __name__ == "__main__":
    sys.exit(main())
