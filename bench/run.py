"""Benchmark runner for permgamp.

Run one workload (from the repository root):

    python3 bench/run.py --workload canyon-estimate --seed 1 --seconds 25 --trace 0

or every workload, each in its own process, untraced and traced:

    python3 bench/run.py --workload all --seed 1 --seconds 25

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer metrics. The
lines before it give the environment, the output digest and the exact
counts. Everything the run writes goes under ``.bench_out/`` at the root.
See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

# Matrices are at most 100 x 2; one BLAS thread per process keeps the
# sweep's pool from oversubscribing the cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
WORKLOAD_NAMES = ("canyon-estimate", "room-estimate", "canyon-oracle", "canyon-sweep")
SETUP_REPEATS = 3


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def environment(load_at_start) -> dict:
    import numpy
    import scipy

    env = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": platform.processor() or platform.machine(),
        "loadavg_at_start": list(load_at_start),
    }
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    env["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    cache_dir = "/sys/devices/system/cpu/cpu0/cache"
    for entry in sorted(os.listdir(cache_dir)) if os.path.isdir(cache_dir) else []:
        try:
            with open(os.path.join(cache_dir, entry, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(cache_dir, entry, "size")) as fh:
                size = fh.read().strip()
        except OSError:
            continue
        if level in ("2", "3"):
            env[f"l{level}_size"] = size
    return env


def _metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def _p75(values) -> float:
    return statistics.quantiles(values, n=4)[2] if len(values) > 1 else values[0]


class Run:
    """Closed loop with one client: each op starts when the last returns."""

    def __init__(self, wl, seconds: float):
        self.wl = wl
        self.seconds = seconds
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first: dict[int, bytes] = {}
        self.abs_errs: list[float] = []
        self.residuals: list[float] = []
        self.n_ops = 0

    def one(self, workers=None, span=contextlib.nullcontext):
        """Time op number n_ops inside span(), then check its output.

        Returns (ms, output); output is None when the op raised.
        """
        from workloads import Checked

        i = self.n_ops
        self.n_ops += 1
        t0 = time.perf_counter()
        try:
            with span():
                out = self.wl.op(i, workers=workers)
            ms = (time.perf_counter() - t0) * 1e3
            chk = self.wl.check(i, out)
        except Exception as exc:  # a failing op is counted, the run goes on
            ms = (time.perf_counter() - t0) * 1e3
            out = None
            chk = Checked(failed=self.wl.points_per_op, canonical=b"",
                          problems=[f"op {i} raised {type(exc).__name__}: {exc}"])
        key = i % self.wl.n_inputs
        if key not in self.first:
            self.first[key] = chk.canonical
            self.abs_errs += chk.abs_errs
            self.residuals += chk.residuals
        elif chk.canonical != self.first[key] and not chk.failed:
            chk.failed = self.wl.points_per_op
            chk.problems.append(f"op {i}: output differs from op {key} on the same input")
        self.attempted += self.wl.points_per_op
        self.failed += chk.failed
        self.problems += chk.problems
        return ms, out

    def digest(self) -> str:
        h = hashlib.sha256()
        for key in sorted(self.first):
            h.update(self.first[key])
        return h.hexdigest()


def run_untraced(wl, run: Run, import_s: float, seed: int, out_dir: str) -> dict:
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        wl.setup(seed, out_dir)
        wl.warm_up()
        setups.append(time.perf_counter() - t0)
    lat = []
    start = time.perf_counter()
    while run.n_ops < wl.min_ops or time.perf_counter() - start < run.seconds:
        lat.append(run.one()[0])
    self_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    points = wl.points_per_op * len(lat)
    print(f"ops: {len(lat)} ({points} points), setup repeats: "
          f"{[round(s, 3) for s in setups]}, import_s: {import_s:.3f}")
    return {
        "op_ms_p50": _metric(statistics.median(lat), "ms"),
        "op_ms_p75": _metric(_p75(lat), "ms"),
        "ops_per_s": _metric(points / (sum(lat) / 1e3), "1/s"),
        "setup_s": _metric(import_s + statistics.median(setups), "s"),
        "peak_rss_mb": _metric(max(self_rss, child_rss) / 1024.0, "MB"),
        "success_rate": _metric(1.0 - run.failed / run.attempted, "ratio"),
        # Empty only when the panel ops failed, and then the run is incorrect.
        "mean_abs_err": _metric(statistics.fmean(run.abs_errs or [0.0]), "eps"),
        "residual_db_mean": _metric(statistics.fmean(run.residuals or [0.0]), "dB"),
    }


def run_traced(wl, run: Run, seed: int, out_dir: str):
    """Alternate untraced and traced ops; per-layer metrics from the traced."""
    import tracing

    wl.setup(seed, out_dir)
    wl.warm_up()
    counts = wl.counts()
    tracer = tracing.Tracer()
    plan = wl.trace_plan()
    lat: dict[str, list[float]] = {label: [] for label, _ in plan}
    solve_ms = []
    start = time.perf_counter()
    while len(lat["traced"]) < wl.min_traced_ops or time.perf_counter() - start < run.seconds:
        for label, workers in plan:
            if label == "traced":
                op_id = len(lat["traced"]) + 1
                ms, _ = run.one(workers, span=lambda: tracer.traced_op(op_id))
            else:
                ms, out = run.one(workers)
                if label == "plain" and wl.workers > 1 and out is not None:
                    solve_ms.append(wl.solve_ms(out) / (ms * wl.workers))
            lat[label].append(ms)
    ops = tracer.per_op()
    n = len(ops)
    for rec in ops.values():
        spent = sum(v for k, v in rec["self_ns"].items() if k != tracing.ROOT)
        if spent > rec["wall_ns"]:
            run.problems.append(f"self times sum to {spent} ns > op wall {rec['wall_ns']} ns")
    call_sets = {json.dumps(rec["calls"], sort_keys=True) for rec in ops.values()}
    if len(call_sets) != 1:
        run.problems.append(f"calls per op differ between traced ops: {call_sets}")
    calls = next(iter(ops.values()))["calls"]
    wall_ns = sum(rec["wall_ns"] for rec in ops.values())
    self_ns: dict[str, int] = {}
    for rec in ops.values():
        for k, v in rec["self_ns"].items():
            self_ns[k] = self_ns.get(k, 0) + v
    m = {}
    for fn in tracing.traced_functions():
        m[f"{fn}.calls"] = _metric(calls.get(fn, 0), "count")
        m[f"{fn}.ms"] = _metric(self_ns.get(fn, 0) / n / 1e6, "ms")
    shares = {}
    for layer in tracing.LAYERS:
        ns = sum(v for k, v in self_ns.items() if k.split(".")[0] == layer)
        shares[layer] = ns / wall_ns
        m[f"{layer}.share"] = _metric(shares[layer], "ratio")
    solves = calls.get("gamp.solve", 0)
    links = counts["links"]
    m.update({
        "forward_model.fresnel_evals_per_forward": _metric(counts["bounces"], "count"),
        "raytracer.candidates_per_link": _metric(counts["candidates_per_link"], "count"),
        "raytracer.rays_per_link": _metric(counts["rays"] / links, "count"),
        "raytracer.ray_yield": _metric(counts["rays"] / links / counts["candidates_per_link"], "ratio"),
        "gamp.linearizations_per_solve": _metric(
            calls.get("forward_model.jacobian", 0) / solves if solves else 0, "count"),
        "gamp.inner_steps_per_solve": _metric(
            calls.get("gamp.output_step", 0) / solves if solves else 0, "count"),
        "oracle.grid_nodes": _metric(counts.get("grid_nodes", 0), "count"),
        "oracle.gains_bytes_computed": _metric(counts.get("gains_bytes", 0), "B"),
        "experiment.traces_per_point": _metric(
            calls.get("raytracer.trace_link", 0) / (links * wl.points_per_op), "count"),
        "experiment.solve_share": _metric(statistics.median(solve_ms) if solve_ms else 0.0, "ratio"),
    })
    if "plain1" in lat:
        rate = {k: wl.points_per_op / (statistics.median(v) / 1e3) for k, v in lat.items()}
        eff = rate["plain"] / (wl.workers * rate["plain1"])
        base = "plain1"
    else:
        eff, base = 0.0, "plain"
    m["experiment.scaling_efficiency"] = _metric(eff, "ratio")
    traced_p50 = statistics.median(lat["traced"])
    plain_p50 = statistics.median(lat[base])
    m.update({
        "trace.op_ms_p50": _metric(traced_p50, "ms"),
        "trace.untraced_op_ms_p50": _metric(plain_p50, "ms"),
        "trace.overhead_ms": _metric(traced_p50 - plain_p50, "ms"),
        "trace.spans_per_op": _metric(len(tracer.spans) / n, "count"),
        "trace.ops": _metric(n, "count"),
    })
    top = max(shares, key=shares.get)
    print(f"traced ops: {n}, largest self-time layer: {top} ({shares[top]:.3f}), "
          f"layer shares: { {k: round(v, 4) for k, v in shares.items()} }")
    for fn in sorted(calls):
        if fn != tracing.ROOT:
            print(f"  {fn:34s} calls/op {calls[fn]:6d}  self ms/op {self_ns.get(fn, 0) / n / 1e6:9.3f}")
    return m, tracer, {**counts, "calls_per_op": calls}


def source_hash() -> str:
    """SHA-256 over the paths and bytes of the files under src/."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, SRC).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def check_counts(path: str, counts: dict, run: Run) -> None:
    """Exact counts must repeat between runs of the same code, workload and seed."""
    if os.path.exists(path):
        with open(path) as fh:
            before = json.load(fh)
        if before != counts:
            run.problems.append(f"exact counts differ from the previous run: {before} != {counts}")
    else:
        with open(path, "w") as fh:
            json.dump(counts, fh, sort_keys=True)


def run_one(args) -> int:
    if not os.path.isfile(os.path.join(SRC, "permgamp", "__init__.py")):
        print(f"error: no permgamp sources under {SRC}", file=sys.stderr)
        return 2
    load_at_start = os.getloadavg()
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import permgamp
    import workloads
    import_s = time.perf_counter() - t0
    if not os.path.abspath(permgamp.__file__).startswith(SRC + os.sep):
        print(f"error: imported permgamp from {permgamp.__file__}", file=sys.stderr)
        return 2

    env = environment(load_at_start)
    print("env:", json.dumps(env, sort_keys=True))
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir = os.path.join(OUT, tag)
    # Counts are compared only between runs of the same sources: a change
    # to src/ may change them on purpose.
    counts_dir = os.path.join(OUT, "counts", source_hash()[:16])
    os.makedirs(counts_dir, exist_ok=True)
    os.makedirs(out_dir, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload]()
    run = Run(wl, args.seconds)
    if args.trace:
        metrics, tracer, counts = run_traced(wl, run, args.seed, out_dir)
        tracer.write_jsonl(os.path.join(OUT, f"{tag}-spans.jsonl"))
    else:
        metrics = run_untraced(wl, run, import_s, args.seed, out_dir)
        counts = wl.counts()
    check_counts(os.path.join(counts_dir, f"{tag}.json"), counts, run)
    digest = run.digest()
    print("counts:", json.dumps(counts, sort_keys=True))
    print(f"digest: sha256:{digest} over {len(run.first)} distinct input(s)")
    print(f"error_rate: {run.failed / run.attempted} ({run.failed}/{run.attempted})")
    for p in run.problems[:20]:
        print("problem:", p)
    correct = run.failed == 0 and not run.problems
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    with open(os.path.join(OUT, f"{tag}.json"), "w") as fh:
        json.dump({**result, "env": env, "counts": counts, "digest": digest,
                   "problems": run.problems}, fh, indent=2, sort_keys=True)
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process, untraced then traced."""
    results = {}
    status = 0
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
                status = 1
                if not lines:
                    continue
            res = json.loads(lines[-1])
            results[f"{name}/trace{trace}"] = res
            print(f"== {name} (trace {trace}): correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']}")
            for line in lines[:-1]:
                if line.startswith(("digest", "traced ops")):
                    print("  " + line)
            for key, val in res["metrics"].items():
                print(f"  {key:44s} {val['value']:>14.6g} {val['unit']}")
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
