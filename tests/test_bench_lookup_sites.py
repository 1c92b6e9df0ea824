"""The benchmark's calls into the package: the names its traced run wraps
must exist, and every workload must run one op that passes its own check."""

import importlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
WORKLOAD_NAMES = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def _load(name, monkeypatch):
    """bench/<name>.py as a module, registered until the test ends."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_every_benchmark_lookup_site_resolves_to_a_callable(monkeypatch):
    # bench/tracing.py wraps each (module, attribute) pair at the module that
    # calls through it; a name removed from that module breaks the traced run
    points = _load("tracing", monkeypatch).TRACE_POINTS
    assert points
    for mod_name, attr in points:
        fn = getattr(importlib.import_module(mod_name), attr, None)
        assert callable(fn), f"{mod_name}.{attr}"


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_every_benchmark_workload_runs_an_op_that_passes_its_check(name, tmp_path, monkeypatch):
    # the benchmark calls the package as bench/workloads.py does; a changed
    # name or signature there fails here as well as in the benchmark run
    monkeypatch.syspath_prepend(str(BENCH))  # workloads.py imports bench/room.py
    workload = _load("workloads", monkeypatch).WORKLOADS[name]()
    workload.setup(11, str(tmp_path))
    checked = workload.check(0, workload.op(0))
    assert checked.failed == 0, checked.problems
