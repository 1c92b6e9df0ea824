"""Scenario/dataset types, file IO, synthesis, and normalization."""

import json
import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from permgamp import (
    Dataset,
    ExperimentConfig,
    Link,
    Material,
    ParseError,
    Scenario,
    Surface,
    ValidationError,
    forward,
    load_dataset,
    load_scenario,
    make_canyon_scenario,
    make_free_space_scenario,
    normalize_measurements,
    save_dataset,
    save_scenario,
    synthesize_dataset,
    trace_scenario,
)
from permgamp.scenario import gaussian_draws, measurement_noise, read_record, scenario_from_dict

MINIMAL = {
    "wavelength_m": 0.1,
    "max_reflections": 2,
    "materials": [{"index": 1, "prior_lo": 1.0, "prior_hi": 13.0}],
    "surfaces": [],
    "links": [{"tx": [0, 0], "rx": [1, 0], "p_dbm": 30, "g_tx_db": 2, "g_rx_db": 2}],
}

# PCG64(1) + Box-Muller stream contract: the first four draws are pinned so
# any change to the generator or transform shows up as a test failure.
NOISE_STREAM_SEED1 = [
    -0.45363460369738257,
    -2.17252353120349,
    0.2617234369082312,
    -2.0508904839014424,
]


def test_minimal_scenario_loads(tmp_path):
    p = tmp_path / "min.json"
    p.write_text(json.dumps(MINIMAL))
    sc = load_scenario(p)
    assert sc.n_materials == 1
    assert sc.n_links == 1
    assert sc.surfaces == ()
    assert sc.polarization == "TE"


def test_inverted_prior_rejected(tmp_path):
    bad = json.loads(json.dumps(MINIMAL))
    bad["materials"][0].update(prior_lo=5.0, prior_hi=3.0)
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(bad))
    with pytest.raises(ValidationError, match="prior_lo"):
        load_scenario(p)


def test_malformed_json_is_parse_error(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{this is not json")
    with pytest.raises(ParseError):
        load_scenario(p)
    p2 = tmp_path / "missing.json"
    p2.write_text(json.dumps({"wavelength_m": 0.1}))
    with pytest.raises(ParseError):
        load_scenario(p2)


@pytest.mark.parametrize(
    "mutate,field",
    [
        (lambda d: d["materials"][0].update(prior_lo=0.5), "prior_lo"),
        (lambda d: d["materials"][0].update(index=2), "indices"),
        (lambda d: d["links"][0].update(rx=[0, 0]), "tx_pos"),
        (lambda d: d.update(wavelength_m=-1.0), "wavelength_m"),
        (lambda d: d["surfaces"].append({"a": [0, 0], "b": [1, 0], "material": 9}), "material"),
        (lambda d: d["materials"][0].update(prior_hi=float("inf")), "prior_hi"),
        (lambda d: d["materials"][0].update(true_eps=float("nan")), "true_eps"),
        (lambda d: d["surfaces"].append({"a": [0, float("nan")], "b": [1, 0], "material": 1}),
         "endpoint_a"),
        (lambda d: d["surfaces"].append({"a": [1, 2], "b": [1, 2], "material": 1}),
         "endpoint_b"),
        (lambda d: d["surfaces"].append({"a": [0, 0], "b": [0, 1e-200], "material": 1}),
         "endpoint_b"),
        (lambda d: d["links"][0].update(rx=[float("nan"), 0]), "rx_pos"),
        (lambda d: d["links"][0].update(p_dbm=float("inf")), "tx_power_dbm"),
        (lambda d: d["links"][0].update(g_rx_db=float("nan")), "rx_gain_db"),
        (lambda d: d.update(wavelength_m=float("inf")), "wavelength_m=inf"),
    ],
)
def test_validation_errors_name_the_field(tmp_path, mutate, field):
    bad = json.loads(json.dumps(MINIMAL))
    mutate(bad)
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(bad))
    with pytest.raises(ValidationError, match=field):
        load_scenario(p)


@pytest.mark.parametrize(
    "raw,field",
    [
        ({"measured_db": [-60.0, float("nan")], "noise_var": 0.25}, "measured_db"),
        ({"measured_db": [-60.0, float("inf")], "noise_var": 0.25}, "measured_db"),
        ({"measured_db": [-60.0, -61.0], "noise_var": float("inf")}, "noise_var"),
        ({"measured_db": [-60.0, -61.0], "noise_var": float("nan")}, "noise_var"),
    ],
)
def test_dataset_rejects_non_finite_values(tmp_path, raw, field):
    p = tmp_path / "ds.json"
    p.write_text(json.dumps(raw))
    with pytest.raises(ValidationError, match=field):
        load_dataset(p)


def test_bundled_canyon_fixture(canyon):
    assert canyon.n_materials == 2
    assert canyon.n_links == 100
    assert len(canyon.surfaces) == 2
    assert canyon.wavelength_m == 0.1
    assert canyon.max_reflections == 2


def _tm_without_truths(canyon):
    materials = tuple(replace(m, true_eps=None) for m in canyon.materials)
    return replace(canyon, materials=materials, polarization="TM", max_reflections=1)


def test_scenario_round_trip(tmp_path, canyon):
    # the optional rows too: a TM scenario without true_eps
    for scenario in (canyon, _tm_without_truths(canyon)):
        p = tmp_path / "roundtrip.json"
        save_scenario(scenario, p)
        again = load_scenario(p)
        assert again == scenario
        # and byte-stable on a second save
        p2 = tmp_path / "roundtrip2.json"
        save_scenario(again, p2)
        assert p.read_bytes() == p2.read_bytes()


def test_bundled_fixture_regenerates_from_template(tmp_path, canyon):
    assert make_canyon_scenario() == canyon


def test_dataset_round_trip(tmp_path, canyon):
    synthesized = synthesize_dataset(canyon, 0.5, seed=3)
    # the optional seed too: a dataset without one
    for ds in (synthesized, Dataset(synthesized.measured_db, noise_var=0.25)):
        p = tmp_path / "ds.json"
        save_dataset(ds, p)
        again = load_dataset(p)
        assert again.noise_var == ds.noise_var
        assert again.seed == ds.seed
        assert np.array_equal(again.measured_db, ds.measured_db)
        assert ("seed" in json.loads(p.read_text())) == (ds.seed is not None)


def test_readme_file_format_examples_load():
    """The README's examples are read through the same tables as any file."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## File formats")[1].split("\n## ")[0]
    scenario, dataset, sweep = (json.loads(block) for block in
                                re.findall(r"```json\n(.*?)```", section, re.S))
    assert scenario_from_dict(scenario).polarization == scenario["polarization"]
    assert Dataset(**read_record(dataset, Dataset.ROWS)).seed == dataset["seed"]
    config = ExperimentConfig.from_dict(sweep, "README")
    assert config.overrides == sweep["overrides"]


def test_max_reflections_is_bounded_by_the_candidate_bounces_per_link():
    twelve = tuple(Surface((float(i), 0.0), (float(i), 1.0), 1) for i in range(12))
    room = replace(scenario_from_dict(MINIMAL), surfaces=twelve, max_reflections=4)
    assert room.max_reflections == 4  # 12 + 264 + 4,356 + 63,888 = 68,520 bounces
    with pytest.raises(ValidationError,
                       match=r"max_reflections=5 with 12 surfaces means at least 946980 "):
        replace(room, max_reflections=5)  # + 878,460 of order 5
    with pytest.raises(ValidationError, match="max_reflections=316 with 2 surfaces"):
        replace(room, surfaces=twelve[:2], max_reflections=316)  # 316 x 317 = 100,172
    assert replace(room, surfaces=twelve[:2], max_reflections=315).max_reflections == 315
    assert replace(room, surfaces=twelve[:1], max_reflections=10**9).max_reflections == 10**9


def test_dataset_validation():
    with pytest.raises(ValidationError, match="noise_var"):
        Dataset(measured_db=np.zeros(3), noise_var=-1.0)


@pytest.mark.parametrize("point", [[0.0, float("nan")], (float("inf"), 0.0),
                                   np.array([0.0, -np.inf])])
def test_constructors_check_points_given_as_lists_tuples_or_arrays(point):
    with pytest.raises(ValidationError, match="endpoint_a"):
        Surface(point, (1.0, 0.0), 1)
    with pytest.raises(ValidationError, match="rx_pos"):
        Link((1.0, 0.0), point, tx_power_dbm=30.0, tx_gain_db=2.0, rx_gain_db=2.0)
    with pytest.raises(ValidationError, match="prior_hi"):
        Material(1, 1.0, float(point[0] + point[1]))


def test_synthesize_zero_noise_equals_forward(canyon, canyon_rays):
    ds = synthesize_dataset(canyon, 0.0, seed=0)
    y = normalize_measurements(canyon, ds)
    g = forward(canyon, canyon_rays, canyon.true_eps_vector())
    assert np.array_equal(y, g)  # bit-for-bit


def test_synthesize_deterministic(canyon):
    a = synthesize_dataset(canyon, 1.3, seed=42)
    b = synthesize_dataset(canyon, 1.3, seed=42)
    assert np.array_equal(a.measured_db, b.measured_db)
    c = synthesize_dataset(canyon, 1.3, seed=43)
    assert not np.array_equal(a.measured_db, c.measured_db)


def test_synthesize_requires_truth():
    sc = Scenario(
        surfaces=(),
        materials=(Material(1, 1.0, 13.0),),
        links=(Link((0, 0), (1, 0), 30, 2, 2),),
        wavelength_m=0.1,
    )
    with pytest.raises(ValidationError, match="true_eps"):
        synthesize_dataset(sc, 0.5, seed=0)


def test_noise_stream_contract():
    rng = np.random.Generator(np.random.PCG64(1))
    z = gaussian_draws(rng, 4)
    assert np.allclose(z, NOISE_STREAM_SEED1, rtol=0, atol=0)


def test_noise_sample_variance_matches():
    # Law of large numbers on a 10^4-link free-space scenario.
    sc = make_free_space_scenario(n_links=10_000, seed=2)
    ds = synthesize_dataset(sc, 1.0, seed=5)
    rays = trace_scenario(sc)
    noiseless = forward(sc, rays, sc.true_eps_vector())
    z = normalize_measurements(sc, ds) - noiseless
    assert abs(np.var(z) - 1.0) <= 0.05
    assert abs(np.mean(z)) <= 0.05


def test_normalize_identity_when_no_offsets():
    sc = Scenario(
        surfaces=(),
        materials=(Material(1, 1.0, 13.0, 6.0),),
        links=(Link((0, 0), (1, 0), 0.0, 0.0, 0.0),),
        wavelength_m=0.1,
    )
    ds = Dataset(measured_db=np.array([-55.0]), noise_var=0.0)
    assert np.array_equal(normalize_measurements(sc, ds), ds.measured_db)


def test_normalize_arithmetic():
    sc = Scenario(
        surfaces=(),
        materials=(Material(1, 1.0, 13.0, 6.0),),
        links=(Link((0, 0), (1, 0), 30.0, 3.0, 3.0),),
        wavelength_m=0.1,
    )
    ds = Dataset(measured_db=np.array([-50.0]), noise_var=0.0)
    assert normalize_measurements(sc, ds)[0] == -86.0


def test_normalize_matches_recomputation(canyon):
    ds = synthesize_dataset(canyon, 0.7, seed=9)
    y = normalize_measurements(canyon, ds)
    for n in (0, 42, 99):
        link = canyon.links[n]
        expect = ds.measured_db[n] - link.tx_power_dbm - link.tx_gain_db - link.rx_gain_db
        assert y[n] == expect


@pytest.mark.parametrize("sigma", [-1.0, 1e300, np.float64(1e300), math.inf, math.nan])
def test_measurement_noise_needs_a_std_with_a_finite_square(sigma):
    # the square is the dataset's noise variance
    with pytest.raises(ValidationError, match=re.escape(f"sigma_z={sigma} must be >= 0")):
        measurement_noise(sigma, 0, 3)


def test_normalize_rejects_levels_whose_squares_overflow(canyon):
    measured = synthesize_dataset(canyon, 0.5, seed=3).measured_db.copy()
    measured[[4, 7]] = 1e300, -1e301
    with pytest.raises(ValidationError, match=re.escape("measured_db[7]=-1e+301: ")):
        normalize_measurements(canyon, Dataset(measured_db=measured, noise_var=0.25))
    measured[:] = 1.5e153  # each square is finite, their sum is not
    with pytest.raises(ValidationError, match=re.escape("measured_db[0]=1.5e+153: ")):
        normalize_measurements(canyon, Dataset(measured_db=measured, noise_var=0.25))
    measured[:] = 1e153
    y = normalize_measurements(canyon, Dataset(measured_db=measured, noise_var=0.25))
    assert np.array_equal(y, measured - canyon.link_offsets())


def test_normalize_length_mismatch(canyon):
    ds = Dataset(measured_db=np.zeros(3), noise_var=0.0)
    with pytest.raises(ValidationError, match="links"):
        normalize_measurements(canyon, ds)


def test_prior_bounds_and_truth_vector(canyon):
    lo, hi = canyon.prior_bounds()
    assert lo.tolist() == [1.5, 3.0]
    assert hi.tolist() == [10.0, 12.0]
    assert canyon.true_eps_vector().tolist() == [3.0, 6.0]


def test_canyon_template_validation():
    with pytest.raises(ValidationError, match="n_materials"):
        make_canyon_scenario(n_materials=0)
    with pytest.raises(ValidationError, match="n_links"):
        make_canyon_scenario(n_links=0)
    with pytest.raises(ValidationError, match="width_m"):
        make_canyon_scenario(width_m=1.0)


def test_polarization_persists(tmp_path, canyon):
    tm = Scenario(
        surfaces=canyon.surfaces,
        materials=canyon.materials,
        links=canyon.links,
        wavelength_m=canyon.wavelength_m,
        polarization="TM",
    )
    p = tmp_path / "tm.json"
    save_scenario(tm, p)
    assert load_scenario(p).polarization == "TM"
