"""Property: one malformed field in a scenario or dataset file never
escapes the CLI as a traceback. The estimate either exits 0 with a finite
estimate inside the prior box or exits 2."""

import copy
import json
import math
import os
import tempfile

from hypothesis import given, strategies as st

from permgamp import bundled_scenario_path, load_scenario, synthesize_dataset
from permgamp.cli import main

with open(bundled_scenario_path("canyon")) as _fh:
    SCENARIO = json.load(_fh)
DATASET = {
    "measured_db": synthesize_dataset(
        load_scenario(bundled_scenario_path("canyon")), 0.5, 3
    ).measured_db.tolist(),
    "noise_var": 0.25,
    "seed": 3,
}

# (file, path to the field); a path ending in an index names a list entry
FIELDS = [
    ("scenario", (key,))
    for key in ("wavelength_m", "max_reflections", "polarization", "materials",
                "surfaces", "links")
] + [
    ("scenario", ("materials", m, key))
    for m in (0, 1) for key in ("index", "prior_lo", "prior_hi", "true_eps")
] + [
    ("scenario", ("surfaces", s, key)) for s in (0, 1) for key in ("a", "b", "material")
] + [
    ("scenario", ("surfaces", 0, "a", 1)),
] + [
    ("scenario", ("links", 17, key)) for key in ("tx", "rx", "p_dbm", "g_tx_db", "g_rx_db")
] + [
    ("scenario", ("links", 17, "rx", 0)),
] + [
    ("dataset", (key,)) for key in ("measured_db", "noise_var", "seed")
] + [
    ("dataset", ("measured_db", 42)),
]
REMOVE = object()
VALUES = ["abc", None, [1.0, 2.0], math.nan, math.inf, -math.inf, -1, 0, REMOVE]


def _mutate(doc, path, value):
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is REMOVE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


@given(st.sampled_from(FIELDS), st.sampled_from(VALUES))
def test_estimate_on_one_bad_field_exits_0_in_the_box_or_2(field, value):
    target, path = field
    scenario, dataset = SCENARIO, DATASET
    if target == "scenario":
        scenario = _mutate(SCENARIO, path, value)
    else:
        dataset = _mutate(DATASET, path, value)
    with tempfile.TemporaryDirectory() as tmp:
        sc_path, ds_path, out = (os.path.join(tmp, f) for f in ("sc.json", "ds.json", "out.json"))
        with open(sc_path, "w") as fh:
            json.dump(scenario, fh)
        with open(ds_path, "w") as fh:
            json.dump(dataset, fh)
        code = main(["estimate", "--scenario", sc_path, "--dataset", ds_path,
                     "--k-iter", "1", "--k-gamp", "1", "--out", out])
        assert code in (0, 2)
        if code == 0:
            with open(out) as fh:
                eps_hat = json.load(fh)["eps_hat"]
            lo, hi = load_scenario(sc_path).prior_bounds()
            assert all(math.isfinite(e) for e in eps_hat)
            assert all(l <= e <= h for l, e, h in zip(lo, eps_hat, hi))
