"""Spans around the calls into each permgamp module, for the traced run.

The tracer wraps public functions at the module attributes their callers
look up (``permgamp.gamp.jacobian`` is what ``solve`` calls, for example),
so the program itself is never edited. Every call through a wrapped
attribute records one span: id, parent span id, op id, name, start and end.
Spans stay in memory; the runner writes them out when the run ends.

A span's name is ``<module>.<function>`` of the function it wraps, where
``<module>`` is the module that defines it; that module is the span's
layer. Self time is a span's duration minus the durations of its direct
children (calls are single-threaded, so children never overlap).
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager

# (module holding the attribute, attribute name). Each pair is a lookup
# site: the module whose code calls the function through that attribute.
TRACE_POINTS = (
    ("permgamp.gamp", "jacobian"),
    ("permgamp.gamp", "forward"),
    ("permgamp.gamp", "output_step"),
    ("permgamp.gamp", "input_step"),
    ("permgamp.gamp", "truncated_moments"),
    ("permgamp.forward_model", "forward"),        # inside jacobian, synthesis
    ("permgamp.experiment", "run_estimate"),
    ("permgamp.experiment", "prepare_problem"),
    ("permgamp.experiment", "solve"),
    ("permgamp.experiment", "trace_link"),
    ("permgamp.experiment", "forward"),
    ("permgamp.experiment", "grid_map"),
    ("permgamp.experiment", "synthesize_dataset"),
    ("permgamp.experiment", "scenario_from_dict"),
    ("permgamp.experiment", "run_sweep"),
    ("permgamp.experiment", "write_sweep_outputs"),
    ("permgamp.raytracer", "trace_scenario"),     # reached from synthesis
    ("permgamp.raytracer", "trace_link"),         # inside trace_scenario
    ("permgamp.scenario", "scenario_from_dict"),  # inside load_scenario
    ("permgamp.oracle", "grid_map"),
    ("permgamp.oracle", "log_posterior"),
    ("permgamp.oracle", "forward"),
)

LAYERS = (
    "scenario",
    "raytracer",
    "forward_model",
    "trunc_gauss",
    "gamp",
    "oracle",
    "experiment",
)

ROOT = "bench.op"  # the benchmark's own span around each op


def span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


def traced_functions() -> list[str]:
    """Span names of every wrapped function, sorted, without duplicates."""
    names = {
        span_name(getattr(importlib.import_module(mod), attr))
        for mod, attr in TRACE_POINTS
    }
    return sorted(names)


class Tracer:
    """Records the spans of the ops run inside ``traced_op``."""

    def __init__(self):
        self.spans: list[tuple] = []   # (id, parent, op, name, t0_ns, t1_ns)
        self._stack: list[int] = []
        self._next_id = 1
        self._op = 0

    def _wrap(self, fn):
        name = span_name(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else 0
            self._stack.append(sid)
            t0 = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter_ns()
                self._stack.pop()
                self.spans.append((sid, parent, self._op, name, t0, t1))

        return traced

    @contextmanager
    def traced_op(self, op_id: int):
        """One traced op: wrappers are installed only for its duration, and
        a root span around it carries op_id to every span inside."""
        saved = []
        self._op = op_id
        sid = self._next_id
        self._next_id += 1
        self._stack.append(sid)
        try:
            for mod_name, attr in TRACE_POINTS:
                mod = importlib.import_module(mod_name)
                original = getattr(mod, attr)
                saved.append((mod, attr, original))
                setattr(mod, attr, self._wrap(original))
            t0 = time.perf_counter_ns()
            try:
                yield
            finally:
                t1 = time.perf_counter_ns()
                self.spans.append((sid, 0, op_id, ROOT, t0, t1))
        finally:
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)
            self._stack.pop()
            self._op = 0

    def self_times(self) -> dict[int, int]:
        """Self time in ns for every span id."""
        child = defaultdict(int)
        for sid, parent, _op, _name, t0, t1 in self.spans:
            if parent:
                child[parent] += t1 - t0
        return {s[0]: (s[5] - s[4]) - child[s[0]] for s in self.spans}

    def per_op(self) -> dict[int, dict]:
        """For each op: wall ns, and per span name the calls and self ns."""
        selfs = self.self_times()
        ops: dict[int, dict] = {}
        for sid, _parent, op_id, name, t0, t1 in self.spans:
            rec = ops.setdefault(op_id, {"wall_ns": 0, "calls": {}, "self_ns": {}})
            if name == ROOT:
                rec["wall_ns"] = t1 - t0
            rec["calls"][name] = rec["calls"].get(name, 0) + 1
            rec["self_ns"][name] = rec["self_ns"].get(name, 0) + selfs[sid]
        return ops

    def write_jsonl(self, path) -> None:
        selfs = self.self_times()
        base = min((s[4] for s in self.spans), default=0)
        with open(path, "w") as fh:
            for sid, parent, op_id, name, t0, t1 in sorted(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": sid,
                            "parent": parent,
                            "op": op_id,
                            "name": name,
                            "start_us": (t0 - base) / 1e3,
                            "dur_us": (t1 - t0) / 1e3,
                            "self_us": selfs[sid] / 1e3,
                        }
                    )
                    + "\n"
                )
