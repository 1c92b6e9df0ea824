"""The benchmark's calls into the package: the names its traced run wraps
must exist, and every workload must run one op that passes its own check.
The package imports no name it never uses, apart from names imported only
for the benchmark to wrap, and the solver and the oracle import nothing
from each other. The forward-model kernels read the polarization from the
ray table they are given."""

import ast
import importlib
import importlib.util
import inspect
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from permgamp import (
    default_config,
    forward_model,
    gamp,
    normalize_measurements,
    oracle,
    synthesize_dataset,
)

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
WORKLOAD_NAMES = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
PACKAGE = ROOT / "src" / "permgamp"
# imported where bench/tracing.py wraps them, and used there by nothing else
BENCH_ONLY_IMPORTS = {
    "gamp": {"forward"},
    "experiment": {"forward", "trace_link", "scenario_from_dict", "synthesize_dataset"},
}


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


@pytest.mark.parametrize("n_problems", [1, 2])
def test_a_fixture_solve_calls_the_traced_steps_through_the_solver_module(
    n_problems, canyon, canyon_table, monkeypatch
):
    # bench/tracing.py books each layer's time by wrapping these attributes
    # of permgamp.gamp: one linearization per outer iteration, whose first
    # gains are the start residual's, one call of each step and of the moment
    # kernel per inner step, over (B, M), and the final point's gains
    calls = {name: [] for name in ("gains_db", "jacobian", "output_step", "input_step",
                                   "truncated_moments")}
    for name, seen in calls.items():
        def counted(*args, _fn=getattr(gamp, name), _seen=seen, **kwargs):
            _seen.append(args)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(gamp, name, counted)
    datasets = [synthesize_dataset(canyon, 0.5, seed) for seed in range(n_problems)]
    Y = np.array([normalize_measurements(canyon, ds) for ds in datasets])
    configs = [default_config(canyon, ds.noise_var) for ds in datasets]
    gamp.solve_batch(canyon, canyon_table, Y, configs)
    assert {name: len(seen) for name, seen in calls.items()} == {
        "gains_db": 1, "jacobian": 20, "output_step": 200, "input_step": 200,
        "truncated_moments": 200,
    }
    shape = (n_problems, canyon.n_materials)
    for c_hat, tau_c, box in calls["truncated_moments"]:
        assert c_hat.shape == tau_c.shape == shape
        assert isinstance(box.lo, np.ndarray) and isinstance(box.hi, np.ndarray)
        assert box.lo.shape == box.hi.shape == shape


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_every_benchmark_workload_runs_an_op_that_passes_its_check(name, tmp_path, monkeypatch):
    # the benchmark calls the package as bench/workloads.py does; a changed
    # name or signature there fails here as well as in the benchmark run
    monkeypatch.syspath_prepend(str(BENCH))  # workloads.py imports bench/room.py
    workload = _load("workloads", monkeypatch).WORKLOADS[name]()
    workload.setup(11, str(tmp_path))
    checked = workload.check(0, workload.op(0))
    assert checked.failed == 0, checked.problems


def _imports(tree):
    """The import statements of a parsed module, __future__ ones aside."""
    return [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        or isinstance(node, ast.ImportFrom) and node.module != "__future__"
    ]


def _unused_imports(path):
    """The names path's module imports and never reads; a name that appears
    only in docstrings or comments is unused."""
    tree = ast.parse(path.read_text())
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in _imports(tree) for alias in node.names
    }
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - read


def test_the_package_imports_no_name_it_never_uses(monkeypatch):
    unused = {
        path.stem: _unused_imports(path)
        for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"
    }
    assert {mod: names for mod, names in unused.items() if names} == BENCH_ONLY_IMPORTS
    points = set(_load("tracing", monkeypatch).TRACE_POINTS)
    for mod, names in BENCH_ONLY_IMPORTS.items():
        assert {(f"permgamp.{mod}", name) for name in names} <= points, mod


def _imported_modules(path):
    """Every module path's module imports from, and every name it imports,
    each split into its dotted parts."""
    parts = set()
    for node in _imports(ast.parse(path.read_text())):
        base = getattr(node, "module", None) or ""
        for alias in node.names:
            parts.update(f"{base}.{alias.name}".strip(".").split("."))
    return parts


@pytest.mark.parametrize("module, other", [("gamp", "oracle"), ("oracle", "gamp")])
def test_the_solver_and_the_oracle_import_nothing_from_each_other(module, other):
    # the oracle checks the solver's answers, so neither side may reuse
    # the other's code
    assert other not in _imported_modules(PACKAGE / f"{module}.py")


# the table builders and the scalar references, which have no table to read
TAKE_A_POLARIZATION = {"ray_table", "_fresnel", "_fresnel_slope", "fresnel_power_coeff",
                       "ray_gain_linear", "link_gain_db"}


def test_only_table_builders_and_scalar_references_take_a_polarization():
    # a ray table carries its polarization, so a kernel given one needs no other
    takers = {
        name
        for module in (forward_model, oracle, gamp)
        for name, fn in inspect.getmembers(module, inspect.isfunction)
        if fn.__module__ == module.__name__ and "polarization" in inspect.signature(fn).parameters
    }
    assert takers == TAKE_A_POLARIZATION
    assert list(inspect.signature(forward_model.jacobian).parameters) == ["table", "eps"]
    assert list(inspect.signature(oracle.fd_jacobian).parameters) == ["table", "eps", "step"]
    assert "polarization" not in (PACKAGE / "gamp.py").read_text()
