"""The package names that the benchmark's traced run wraps must exist."""

import importlib
import importlib.util
from pathlib import Path

BENCH_TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _trace_points():
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH_TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACE_POINTS


def test_every_benchmark_lookup_site_resolves_to_a_callable():
    # bench/tracing.py wraps each (module, attribute) pair at the module that
    # calls through it; a name removed from that module breaks the traced run
    points = _trace_points()
    assert points
    for mod_name, attr in points:
        fn = getattr(importlib.import_module(mod_name), attr, None)
        assert callable(fn), f"{mod_name}.{attr}"
