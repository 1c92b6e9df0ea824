"""Tests of the benchmark itself: inputs, tracing and the runner's guard.

Run from the repository root with ``python3 -m pytest bench/tests -q``.
"""

import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from permgamp import gamp, trace_scenario
from permgamp.scenario import scenario_to_dict

import room
import tracing
import workloads

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)


@pytest.mark.parametrize("seed", [room.LAYOUT_SEED, 3])
def test_room_is_deterministic_and_every_link_has_a_ray(seed):
    a = room.make_room_scenario(seed)
    b = room.make_room_scenario(seed)
    assert scenario_to_dict(a) == scenario_to_dict(b)
    assert a.n_links == room.N_LINKS
    assert len(a.surfaces) == 12
    rays = trace_scenario(a)  # raises UnusableLinkError on a link with no ray
    assert all(len(r) >= 1 for r in rays)
    for link in a.links:
        assert np.hypot(*np.subtract(link.tx_pos, link.rx_pos)) >= room.MIN_LINK_DIST_M


def test_room_seeds_draw_different_links():
    a = room.make_room_scenario(1)
    b = room.make_room_scenario(2)
    assert scenario_to_dict(a)["links"] != scenario_to_dict(b)["links"]


@pytest.mark.parametrize("cls", [workloads.CanyonEstimate, workloads.CanyonOracle])
def test_workload_seed_changes_datasets_not_sizes(cls, tmp_path):
    one, two = cls(), cls()
    one.setup(1, str(tmp_path))
    two.setup(2, str(tmp_path))
    assert len(one.datasets) == len(two.datasets) == cls.n_panel + cls.n_drawn
    for d1, d2 in zip(one.datasets, two.datasets):
        assert d1.measured_db.shape == d2.measured_db.shape == (one.scenario.n_links,)
    panel = slice(0, cls.n_panel)
    for d1, d2 in zip(one.datasets[panel], two.datasets[panel]):
        assert np.array_equal(d1.measured_db, d2.measured_db)
    for d1, d2 in zip(one.datasets[cls.n_panel:], two.datasets[cls.n_panel:]):
        assert not np.array_equal(d1.measured_db, d2.measured_db)
    again = cls()
    again.setup(1, str(tmp_path))
    assert all(
        np.array_equal(d1.measured_db, d2.measured_db)
        for d1, d2 in zip(one.datasets, again.datasets)
    )


def test_exact_counts_repeat(tmp_path):
    wl = workloads.CanyonOracle()
    wl.setup(5, str(tmp_path))
    first = wl.counts()
    wl.setup(5, str(tmp_path))
    assert wl.counts() == first
    assert first["rays"] == 500 and first["grid_nodes"] == 30951


def test_traced_self_times_fit_in_the_op(tmp_path):
    wl = workloads.CanyonEstimate()
    wl.setup(1, str(tmp_path))
    tracer = tracing.Tracer()
    originals = {attr: getattr(gamp, attr) for attr in ("jacobian", "output_step")}
    with tracer.traced_op(1):
        wl.op(0)
    for attr, fn in originals.items():
        assert getattr(gamp, attr) is fn, "wrappers must be removed after the op"
    rec = tracer.per_op()[1]
    spent = sum(v for k, v in rec["self_ns"].items() if k != tracing.ROOT)
    assert 0 < spent <= rec["wall_ns"]
    assert all(v >= 0 for v in tracer.self_times().values())
    calls = rec["calls"]
    assert calls["forward_model.jacobian"] == 20
    assert calls["gamp.output_step"] == calls["gamp.input_step"] == 200
    assert calls["raytracer.trace_link"] == 100
    parents = {s[0] for s in tracer.spans}
    assert all(s[1] == 0 or s[1] in parents for s in tracer.spans)


def test_every_trace_point_is_a_public_function():
    for mod_name, attr in tracing.TRACE_POINTS:
        mod = sys.modules.get(mod_name) or __import__(mod_name, fromlist=[attr])
        assert callable(getattr(mod, attr))
    layers = {name.split(".")[0] for name in tracing.traced_functions()}
    assert layers == set(tracing.LAYERS)


def test_runner_refuses_a_tree_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "canyon-estimate",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.mark.parametrize(
    "cls, top", [(workloads.CanyonEstimate, "forward_model"), (workloads.CanyonOracle, "oracle")]
)
def test_trace_confirms_the_workload_purpose(cls, top, tmp_path):
    wl = cls()
    wl.setup(1, str(tmp_path))
    tracer = tracing.Tracer()
    with tracer.traced_op(1):
        wl.op(0)
    rec = tracer.per_op()[1]
    by_layer = {}
    for name, ns in rec["self_ns"].items():
        if name != tracing.ROOT:
            layer = name.split(".")[0]
            by_layer[layer] = by_layer.get(layer, 0) + ns
    assert max(by_layer, key=by_layer.get) == top
    if cls is workloads.CanyonOracle:
        assert not any(n.startswith(("gamp.", "trunc_gauss.")) for n in rec["calls"])
