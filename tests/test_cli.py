"""Command-line harness and experiment plumbing."""

import csv
import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import permgamp
from permgamp import (
    Dataset,
    ExperimentConfig,
    Link,
    Material,
    Scenario,
    Surface,
    UnusableLinkError,
    ValidationError,
    bundled_scenario_path,
    load_scenario,
    make_canyon_scenario,
    prepare_problem,
    run_estimate,
    run_sweep,
    save_dataset,
    save_scenario,
    synthesize_dataset,
    trace_scenario,
    write_sweep_outputs,
)
from permgamp import cli, experiment, raytracer
from permgamp.errors import ParseError, SolverError
from permgamp.cli import main
from permgamp.experiment import RUN_FIELDS, SUMMARY_FIELDS
from permgamp.oracle import GRID_GUARD
from permgamp.scenario import read_json


def _run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse rejected a flag
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def _edited_canyon(tmp_path, edit):
    """The path of sc.json: the fixture's JSON after edit(raw) changed it."""
    with open(bundled_scenario_path("canyon")) as fh:
        raw = json.load(fh)
    edit(raw)
    path = tmp_path / "sc.json"
    path.write_text(json.dumps(raw))
    return path


def _far_rx(raw):  # link 0's rays underflow to a total gain of 0 at any eps
    raw["links"][0]["rx"][0] = 1e200


OVERFLOWING_FREE_SPACE = [
    pytest.param(lambda raw: raw.update(wavelength_m=1e300), 1e300, id="wavelength"),
    pytest.param(lambda raw: raw["links"][0].update(tx=[0.0, 0.0], rx=[1e-300, 0.0]), 0.1,
                 id="short_link"),
]


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------

def test_generate_default_reproduces_bundled_fixture(tmp_path, capsys):
    out = tmp_path / "canyon.json"
    code, _, _ = _run(capsys, "generate", "--out", str(out))
    assert code == 0
    with open(bundled_scenario_path("canyon"), "rb") as fh:
        assert out.read_bytes() == fh.read()


def test_generate_minimal_single_link(tmp_path, capsys):
    out = tmp_path / "one.json"
    code, _, _ = _run(capsys, "generate", "--links", "1", "--out", str(out))
    assert code == 0
    sc = load_scenario(out)
    assert sc.n_links == 1 and sc.n_materials == 2


def test_generate_rejects_zero_materials(tmp_path, capsys):
    code, _, err = _run(capsys, "generate", "--materials", "0", "--out", str(tmp_path / "x.json"))
    assert code == 2
    assert "n_materials" in err


def test_generate_free_space(tmp_path, capsys):
    out = tmp_path / "fs.json"
    code, _, _ = _run(capsys, "generate", "--template", "free-space", "--links", "5", "--out", str(out))
    assert code == 0
    assert load_scenario(out).surfaces == ()


def test_generate_with_dataset(tmp_path, capsys):
    out = tmp_path / "sc.json"
    ds_out = tmp_path / "ds.json"
    code, _, _ = _run(
        capsys, "generate", "--out", str(out), "--sigma", "0.5",
        "--dataset-out", str(ds_out),
    )
    assert code == 0
    raw = json.loads(ds_out.read_text())
    assert raw["noise_var"] == 0.25
    assert len(raw["measured_db"]) == 100


def test_generate_without_sigma_writes_neither_file(tmp_path, capsys):
    out, ds_out = tmp_path / "sc.json", tmp_path / "ds.json"
    code, _, err = _run(capsys, "generate", "--out", str(out), "--dataset-out", str(ds_out))
    assert code == 2
    assert "--sigma" in err
    assert not out.exists() and not ds_out.exists()


def test_generate_refuses_a_sigma_without_a_dataset_out(tmp_path, capsys):
    # without a dataset to draw, --sigma would do nothing: refused, not ignored
    out = tmp_path / "sc.json"
    code, stdout, err = _run(capsys, "generate", "--out", str(out), "--sigma", "0.5")
    assert (code, stdout, err) == (2, "", "error: --sigma needs --dataset-out\n")
    assert not out.exists()


@pytest.mark.parametrize("sigma", ["1e300", "nan", "inf"])
@pytest.mark.parametrize("command", ["generate", "estimate", "oracle"])
def test_a_noise_std_without_a_finite_square_exits_2_naming_it(tmp_path, capsys, command, sigma):
    # the sweep's --sigmas: test_sweep_rejects_bad_sigmas
    where = ["--out", str(tmp_path / "sc.json"), "--dataset-out", str(tmp_path / "ds.json")]
    if command != "generate":
        where = ["--scenario", bundled_scenario_path("canyon")]
    code, out, err = _run(capsys, command, *where, "--sigma", sigma)
    assert code == 2
    assert out == ""
    assert err == f"error: sigma_z={float(sigma)} must be >= 0 with a finite square\n"
    assert list(tmp_path.iterdir()) == []  # no file written


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("flag, key, least", [
    ("--length", "length_m", 13), ("--width", "width_m", 3),
])
def test_a_canyon_size_that_is_not_finite_exits_2_naming_it(tmp_path, capsys, flag, key, least,
                                                             value):
    # unchecked, NaN passed the lower bounds and the error named a wall's endpoint
    message = f"{key}={float(value)} must be finite and >= {least}"
    with pytest.raises(ValidationError, match=re.escape(message)):
        make_canyon_scenario(**{key: float(value)})
    code, out, err = _run(capsys, "generate", flag, value, "--out", str(tmp_path / "sc.json"))
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert list(tmp_path.iterdir()) == []


def test_generate_rejects_a_wavelength_whose_free_space_factor_overflows(tmp_path, capsys):
    code, out, err = _run(capsys, "generate", "--wavelength", "1e300",
                          "--out", str(tmp_path / "sc.json"))
    assert code == 2
    assert out == ""
    assert err == ("error: links[0]: the line-of-sight free-space factor (wavelength_m / "
                   "(4 pi |tx - rx|))^2 overflows at wavelength_m=1e+300\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("edit, wavelength", OVERFLOWING_FREE_SPACE)
@pytest.mark.parametrize("command", ["estimate", "oracle", "sweep"])
def test_a_free_space_factor_that_overflows_exits_2_naming_the_link(tmp_path, capsys, command,
                                                                     edit, wavelength):
    # every ray is at least |tx - rx| long: the line of sight bounds the
    # free-space factor that the ray table computes
    path = _edited_canyon(tmp_path, edit)
    flags = ["--sigma", "0.5"]
    if command == "sweep":
        flags = ["--sigmas", "0.5", "--out-dir", str(tmp_path / "out")]
    code, out, err = _run(capsys, command, "--scenario", str(path), *flags)
    assert code == 2
    assert out == ""
    assert err == (f"error: {path}: links[0]: the line-of-sight free-space factor "
                   f"(wavelength_m / (4 pi |tx - rx|))^2 overflows at "
                   f"wavelength_m={wavelength}\n")
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------

def test_estimate_noiseless_recovers_truth(capsys):
    code, out, err = _run(
        capsys, "estimate", "--scenario", bundled_scenario_path("canyon"),
        "--sigma", "0", "--seed", "1",
    )
    assert code == 0
    payload = json.loads(out)
    truth = [3.0, 6.0]
    assert max(abs(e - t) for e, t in zip(payload["eps_hat"], truth)) <= 0.05
    assert payload["n_links_used"] == 100
    assert payload["dropped_links"] == []
    assert payload["wall_ms"] == 0.0


def test_estimate_oracle_flag_appends_comparison(tmp_path, capsys):
    out = tmp_path / "report.json"
    code, _, _ = _run(
        capsys, "estimate", "--scenario", bundled_scenario_path("canyon"),
        "--sigma", "0.5", "--seed", "3", "--oracle", "--grid-step", "0.1",
        "--out", str(out),
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert "oracle" in payload
    assert payload["oracle"]["grid_step"] == 0.1
    assert len(payload["oracle"]["eps_map"]) == 2
    assert payload["oracle"]["max_abs_diff"] < 0.2


def test_estimate_missing_file_exits_2(capsys):
    code, _, err = _run(capsys, "estimate", "--scenario", "no-such-file.json", "--sigma", "0")
    assert code == 2
    assert "error" in err


def test_estimate_needs_sigma_or_dataset(capsys):
    code, _, err = _run(capsys, "estimate", "--scenario", bundled_scenario_path("canyon"))
    assert code == 2
    assert "--dataset or --sigma" in err


@pytest.mark.parametrize("command", ["estimate", "oracle"])
@pytest.mark.parametrize("flag, value", [("--sigma", "4"), ("--seed", "9"), ("--seed", "0")])
def test_a_dataset_refuses_the_synthesis_flags(canyon, tmp_path, capsys, command, flag, value):
    # ignored, they would leave the output as if they had not been given
    path = tmp_path / "ds.json"
    save_dataset(synthesize_dataset(canyon, 0.5, seed=3), path)
    code, out, err = _run(capsys, command, "--scenario", bundled_scenario_path("canyon"),
                          "--dataset", str(path), flag, value)
    assert (code, out) == (2, "")
    assert err == f"error: {flag} is a synthesis flag and cannot go with --dataset\n"


@pytest.mark.parametrize("command", ["estimate", "oracle"])
def test_levels_whose_squares_overflow_exit_2(canyon, tmp_path, capsys, command):
    # no residual of such levels can be scored: not an Infinity in the
    # report, nor a gain-floor error from the oracle
    measured = synthesize_dataset(canyon, 0.5, seed=3).measured_db.copy()
    measured[0] = 1e300
    path = tmp_path / "ds.json"
    save_dataset(Dataset(measured_db=measured, noise_var=0.25), path)
    code, out, err = _run(capsys, command, "--scenario", bundled_scenario_path("canyon"),
                          "--dataset", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: measured_db[0]=1e+300: ")


def test_oracle_rejects_levels_whose_posterior_overflows(canyon, tmp_path, capsys):
    # 1e150 squares to a finite 1e300, but the log posterior divides that by
    # the noise variance floor of 1e-12: no -Infinity in the report
    measured = synthesize_dataset(canyon, 0.5, seed=3).measured_db.copy()
    measured[0] = 1e150
    path = tmp_path / "ds.json"
    save_dataset(Dataset(measured_db=measured, noise_var=0.0), path)
    code, out, err = _run(capsys, "oracle", "--scenario", bundled_scenario_path("canyon"),
                          "--dataset", str(path))
    assert code == 2
    assert out == ""
    assert err == ("error: measured_db[0]=1e+150: the squared levels over noise_var=0.0 "
                   "(floored at 1e-12) overflow, so no log posterior can be scored\n")


def test_estimate_has_no_jacobian_option(capsys):
    # the finite-difference Jacobian is a test reference (tests/scalar_forward.py)
    with pytest.raises(SystemExit) as exit_info:
        main(["estimate", "--scenario", bundled_scenario_path("canyon"), "--sigma", "0.5",
              "--jacobian", "central_fd"])
    assert exit_info.value.code == 2
    assert "--jacobian" in capsys.readouterr().err


def _nan_surface(sc, ds):
    sc["surfaces"][0]["a"][1] = float("nan")


def _nan_link(sc, ds):
    sc["links"][0]["tx"][0] = float("nan")


def _inf_wavelength(sc, ds):
    sc["wavelength_m"] = float("inf")


def _nan_measurement(sc, ds):
    ds["measured_db"][5] = float("nan")


def _inf_noise_var(sc, ds):
    ds["noise_var"] = float("inf")


@pytest.mark.parametrize(
    "corrupt,named",
    [
        (_nan_surface, "endpoint_a"),
        (_nan_link, "tx_pos"),
        (_inf_wavelength, "wavelength_m"),
        (_nan_measurement, "measured_db"),
        (_inf_noise_var, "noise_var"),
        # not a number, or a fraction where an integer belongs
        pytest.param(lambda sc, ds: sc["materials"][0].update(prior_lo="abc"), "prior_lo",
                     id="string_prior_lo"),
        pytest.param(lambda sc, ds: sc["links"][4].update(p_dbm="abc"), "p_dbm",
                     id="string_p_dbm"),
        pytest.param(lambda sc, ds: sc.update(wavelength_m="abc"), "wavelength_m",
                     id="string_wavelength_m"),
        pytest.param(lambda sc, ds: sc["materials"][1].update(index="abc"), "index",
                     id="string_index"),
        pytest.param(lambda sc, ds: sc.update(max_reflections="2.5"), "max_reflections",
                     id="string_max_reflections"),
        pytest.param(lambda sc, ds: sc.update(max_reflections=2.5), "max_reflections",
                     id="fraction_max_reflections"),
        pytest.param(lambda sc, ds: sc["surfaces"][1].update(material=1.5), "material",
                     id="fraction_material"),
        pytest.param(lambda sc, ds: ds.update(measured_db=["x"]), "measured_db",
                     id="string_measured_db"),
        pytest.param(lambda sc, ds: ds.update(noise_var="abc"), "noise_var",
                     id="string_noise_var"),
        pytest.param(lambda sc, ds: ds.update(seed="abc"), "seed", id="string_seed"),
        pytest.param(lambda sc, ds: ds.update(seed=2.5), "seed", id="fraction_seed"),
        # a JSON boolean is not a number
        pytest.param(lambda sc, ds: sc.update(max_reflections=True), "max_reflections",
                     id="bool_max_reflections"),
        pytest.param(lambda sc, ds: sc["materials"][0].update(prior_lo=True), "prior_lo",
                     id="bool_prior_lo"),
        pytest.param(lambda sc, ds: ds["measured_db"].__setitem__(0, True), "measured_db[0]",
                     id="bool_measured_db"),
        # a key the format does not name, or a value of another JSON type
        pytest.param(lambda sc, ds: sc.update(polarisation="TM"), "polarisation",
                     id="unknown_key_polarisation"),
        pytest.param(lambda sc, ds: sc.update(max_reflection=0), "max_reflection",
                     id="unknown_key_max_reflection"),
        pytest.param(lambda sc, ds: sc.update(wavelength_m="0.1"), "wavelength_m",
                     id="numeric_string_wavelength_m"),
        pytest.param(lambda sc, ds: sc["links"][4].update(p_dbm="30"), "links[4].p_dbm",
                     id="numeric_string_p_dbm"),
        pytest.param(lambda sc, ds: ds["measured_db"].__setitem__(0, "-60.5"), "measured_db[0]",
                     id="numeric_string_measured_db"),
        pytest.param(lambda sc, ds: sc["links"][3].update(p_dbm=10**400), "links[3].p_dbm",
                     id="int_beyond_float_p_dbm"),
        # the solver's prior variance (prior_hi - prior_lo)^2 / 12 would overflow
        pytest.param(lambda sc, ds: sc["materials"][1].update(prior_hi=1e160),
                     "materials[1]: material 2: prior_hi=1e+160", id="overflowing_prior_width"),
        pytest.param(lambda sc, ds: ([sc], ds), "sc.json: expected a JSON object",
                     id="list_scenario"),
        pytest.param(lambda sc, ds: (sc, [ds]), "ds.json: expected a JSON object",
                     id="list_dataset"),
        pytest.param(lambda sc, ds: sc.update(links=[[1, 2]]), "links[0]", id="list_link"),
    ],
)
def test_estimate_rejects_non_finite_inputs(canyon, tmp_path, capsys, corrupt, named):
    with open(bundled_scenario_path("canyon")) as fh:
        sc = json.load(fh)
    ds = {"measured_db": synthesize_dataset(canyon, 0.5, 3).measured_db.tolist(),
          "noise_var": 0.25}
    sc, ds = corrupt(sc, ds) or (sc, ds)  # a corruption may replace a whole file
    (tmp_path / "sc.json").write_text(json.dumps(sc))
    (tmp_path / "ds.json").write_text(json.dumps(ds))
    code, out, err = _run(capsys, "estimate", "--scenario", str(tmp_path / "sc.json"),
                          "--dataset", str(tmp_path / "ds.json"))
    assert code == 2
    assert named in err
    assert f"error: {tmp_path / 'sc.json'}: " in err or f"error: {tmp_path / 'ds.json'}: " in err
    assert out == ""


@pytest.mark.parametrize("prior_hi, code", [(1e103, 0), (1e105, 2), (1e110, 2), (1e154, 2)])
def test_a_prior_too_wide_for_the_solver_exits_2_naming_it(tmp_path, capsys, recwarn,
                                                           prior_hi, code):
    # every prior width squares inside the float range, but past ~1e105 the
    # first linearization's A is so small at the prior midpoint that
    # tau_c = 1 / sum A^2 tau_s overflows (1e105), or A^2 underflows (1e110)
    def widen(raw):
        for material in raw["materials"]:
            material["prior_hi"] = prior_hi
    scenario = _edited_canyon(tmp_path, widen)
    got, out, err = _run(capsys, "estimate", "--scenario", str(scenario), "--sigma", "0.5",
                         "--seed", "1")
    assert [w.message for w in recwarn if issubclass(w.category, RuntimeWarning)] == []
    if code == 0:
        assert (got, err) == (0, "")
    else:
        assert (got, out) == (2, "")
        assert err == (f"error: material 1: prior_hi={prior_hi!r} is too wide for the solver: "
                       "at the first linearization its tau_c = 1 / sum_i A_im^2 tau_s_i "
                       "is not finite\n")


@pytest.mark.parametrize("max_reflections", [400, 100000])
def test_estimate_rejects_a_max_reflections_past_the_tracer_bound(tmp_path, max_reflections):
    with open(bundled_scenario_path("canyon")) as fh:
        sc = json.load(fh)
    sc["max_reflections"] = max_reflections
    (tmp_path / "sc.json").write_text(json.dumps(sc))
    proc = subprocess.run(
        [sys.executable, "-m", "permgamp.cli", "estimate", "--scenario", "sc.json",
         "--sigma", "0.5", "--k-iter", "1"],
        cwd=tmp_path, stdin=subprocess.DEVNULL, capture_output=True, text=True, timeout=30,
        env=dict(os.environ, PYTHONPATH=str(Path(permgamp.__file__).parents[1])),
    )
    assert proc.returncode == 2
    assert f"sc.json: max_reflections={max_reflections} with 2 surfaces" in proc.stderr
    assert "candidate bounces" in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("case", ["directory", "non_utf8", "negative_seed", "long_integer"])
def test_estimate_rejects_unreadable_files_and_negative_seeds(tmp_path, capsys, case):
    scenario, extra, named = bundled_scenario_path("canyon"), [], "--seed"
    if case == "directory":
        scenario = named = str(tmp_path)
    elif case == "non_utf8":
        scenario = named = str(tmp_path / "latin1.json")
        (tmp_path / "latin1.json").write_bytes('{"polarization": "\u00c9"}'.encode("latin-1"))
    elif case == "long_integer":  # more digits than int() converts
        scenario = named = str(tmp_path / "long.json")
        (tmp_path / "long.json").write_text('{"max_reflections": ' + "1" * 5000 + "}")
    else:
        extra = ["--seed", "-3"]
    code, out, err = _run(capsys, "estimate", "--scenario", scenario, "--sigma", "0.5", *extra)
    assert code == 2
    assert named in err
    assert out == ""


@pytest.mark.parametrize(
    "flag,value,named",
    [
        ("--delta-tr", "nan", "delta_tr"),
        ("--delta-tr", "1e-300", "delta_tr"),  # x +/- delta_tr/2 rounds back to x
        ("--tau-w", "inf", "tau_w"),
    ],
)
def test_estimate_rejects_solver_settings_it_cannot_use(capsys, flag, value, named):
    code, out, err = _run(capsys, "estimate", "--scenario", bundled_scenario_path("canyon"),
                          "--sigma", "0.5", flag, value)
    assert code == 2
    assert named in err
    assert out == ""


def test_estimate_dataset_length_mismatch_exits_2(tmp_path, capsys):
    ds = tmp_path / "short.json"
    ds.write_text(json.dumps({"noise_var": 0.25, "measured_db": [-60.0, -55.0]}))
    code, _, err = _run(
        capsys, "estimate", "--scenario", bundled_scenario_path("canyon"),
        "--dataset", str(ds),
    )
    assert code == 2
    assert "links" in err


def test_oracle_missing_file_exits_2(capsys):
    code, _, err = _run(capsys, "oracle", "--scenario", "no-such.json", "--sigma", "0")
    assert code == 2
    assert "error" in err


def test_oracle_grid_over_the_guard_exits_2_before_building_an_axis(capsys, monkeypatch):
    arange = np.arange

    def guarded_arange(n, *args, **kwargs):
        assert n <= GRID_GUARD, "a grid axis was built before the size check"
        return arange(n, *args, **kwargs)

    monkeypatch.setattr(np, "arange", guarded_arange)
    code, out, err = _run(capsys, "oracle", "--scenario", bundled_scenario_path("canyon"),
                          "--sigma", "0", "--grid-step", "1e-9")
    assert code == 2
    assert "grid has" in err
    assert out == ""


def test_oracle_bad_grid_step_exits_2(capsys):
    for command, step in [("oracle", "-0.1"), ("oracle", "inf"), ("estimate", "inf")]:
        code, out, err = _run(
            capsys, command, "--scenario", bundled_scenario_path("canyon"),
            "--sigma", "0", "--oracle" if command == "estimate" else "--seed=0",
            "--grid-step", step,
        )
        assert code == 2
        assert "grid step" in err
        assert out == ""


def test_estimate_out_path_that_is_a_directory_exits_2(tmp_path, capsys):
    code, out, err = _run(capsys, "estimate", "--scenario", bundled_scenario_path("canyon"),
                          "--sigma", "0.5", "--k-iter", "1", "--out", str(tmp_path))
    assert code == 2
    assert str(tmp_path) in err
    assert "Traceback" not in err


def test_estimate_reports_are_byte_identical(tmp_path, capsys):
    args = [
        "estimate", "--scenario", bundled_scenario_path("canyon"),
        "--sigma", "0.5", "--seed", "3",
    ]
    c1, out1, _ = _run(capsys, *args)
    c2, out2, _ = _run(capsys, *args)
    assert c1 == c2 == 0
    assert out1 == out2


def test_estimate_solver_flags_reach_config(capsys):
    code, out, _ = _run(
        capsys, "estimate", "--scenario", bundled_scenario_path("canyon"),
        "--sigma", "0", "--k-iter", "3", "--k-gamp", "2", "--delta-tr", "0.9",
        "--damping", "0.8",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["config"]["k_iter"] == 3
    assert payload["config"]["k_gamp"] == 2
    assert payload["config"]["delta_tr"] == [0.9, 0.9]
    assert payload["config"]["damping"] == 0.8
    assert payload["iterations_run"] == 6


@pytest.mark.parametrize("kind", [SolverError, UnusableLinkError], ids=lambda kind: kind.__name__)
def test_a_solver_failure_exits_1_with_one_error_line(capsys, monkeypatch, kind):
    def fail(*args, **kwargs):
        raise kind("the solve failed")

    monkeypatch.setattr(experiment, "solve", fail)
    code, out, err = _run(capsys, "estimate", "--scenario", bundled_scenario_path("canyon"),
                          "--sigma", "0")
    assert (code, out, err) == (1, "", "error: the solve failed\n")


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_sweep_rows_schema_and_determinism(tmp_path, capsys):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    args = [
        "sweep", "--scenario", bundled_scenario_path("canyon"),
        "--sigmas", "0.2,0.8", "--seeds", "2",
        "--k-iter", "5",
    ]
    assert _run(capsys, *args, "--out-dir", str(out1))[0] == 0
    assert _run(capsys, *args, "--out-dir", str(out2))[0] == 0
    runs1 = (out1 / "runs.csv").read_bytes()
    assert runs1 == (out2 / "runs.csv").read_bytes()
    assert (out1 / "summary.csv").read_bytes() == (out2 / "summary.csv").read_bytes()

    lines = runs1.decode().strip().split("\n")
    assert lines[0] == ",".join(RUN_FIELDS)
    assert len(lines) == 1 + 2 * 2 * 2  # sigmas * seeds * materials
    summary = (out1 / "summary.csv").read_text().strip().split("\n")
    assert summary[0] == ",".join(SUMMARY_FIELDS)
    assert len(summary) == 1 + 2 * 2  # sigmas * materials


def test_sweep_outputs_follow_ascending_sigma(tmp_path, capsys):
    # the order the sigmas are given in changes neither file
    outs = []
    for sigmas in ("2,0.5", "0.5,2"):
        out = tmp_path / sigmas
        assert _run(capsys, "sweep", "--scenario", bundled_scenario_path("canyon"),
                    "--sigmas", sigmas, "--seeds", "1", "--k-iter", "1",
                    "--out-dir", str(out))[0] == 0
        outs.append([(out / name).read_text() for name in ("runs.csv", "summary.csv")])
    assert outs[0] == outs[1]
    for text in outs[0]:
        sigma_z = [line.split(",")[0] for line in text.strip().split("\n")[1:]]
        assert sigma_z == ["0.5", "0.5", "2.0", "2.0"]  # two materials per sigma


def test_sweep_config_file(tmp_path, capsys):
    cfg = {
        "scenario_path": bundled_scenario_path("canyon"),
        "sigmas": [0.3],
        "n_seeds": 2,
        "overrides": {"k_iter": 4},
        "out_dir": str(tmp_path / "out"),
    }
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(cfg))
    code, _, err = _run(capsys, "sweep", "--config", str(cfg_path))
    assert code == 0
    rows = (tmp_path / "out" / "runs.csv").read_text().strip().split("\n")
    assert len(rows) == 1 + 1 * 2 * 2


def test_sweep_requires_sigmas(capsys):
    code, _, err = _run(
        capsys, "sweep", "--scenario", bundled_scenario_path("canyon"),
        "--out-dir", "/tmp/nope",
    )
    assert code == 2
    assert "--sigmas" in err


def test_sweep_rejects_zero_seeds(tmp_path, capsys):
    code, _, err = _run(
        capsys, "sweep", "--scenario", bundled_scenario_path("canyon"),
        "--sigmas", "0.5", "--seeds", "0", "--out-dir", str(tmp_path),
    )
    assert code == 2
    assert "n_seeds" in err


@pytest.mark.parametrize("sigmas", ["-1", "0.5,nan", "inf", "0.5,1e300", "abc", "0.5,,1", "1,1"])
def test_sweep_rejects_bad_sigmas(tmp_path, capsys, sigmas):
    code, _, err = _run(
        capsys, "sweep", "--scenario", bundled_scenario_path("canyon"),
        f"--sigmas={sigmas}", "--seeds", "1", "--out-dir", str(tmp_path),
    )
    assert code == 2
    assert "sigmas" in err
    assert not (tmp_path / "runs.csv").exists()


@pytest.mark.parametrize("key", ["k_iterr", "early_stop_tol", "variance_floor"])
def test_sweep_rejects_unknown_override(tmp_path, capsys, key):
    cfg = {
        "scenario_path": bundled_scenario_path("canyon"),
        "sigmas": [0.3],
        "n_seeds": 1,
        "overrides": {key: 5},
        "out_dir": str(tmp_path / "out"),
    }
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(cfg))
    code, _, err = _run(capsys, "sweep", "--config", str(cfg_path))
    assert code == 2
    assert key in err
    assert not (tmp_path / "out").exists()


def _write_sweep_config(tmp_path, **changes):
    cfg = {
        "scenario_path": bundled_scenario_path("canyon"),
        "sigmas": [0.3],
        "n_seeds": 1,
        "out_dir": str(tmp_path / "out"),
        **changes,
    }
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(cfg))
    return path


def test_sweep_rejects_bad_override_values_before_solving(tmp_path, capsys, monkeypatch):
    def no_solve(*args):
        raise AssertionError("a point was solved")

    monkeypatch.setattr(experiment, "solve_batch", no_solve)
    cfg_path = _write_sweep_config(tmp_path, overrides={"k_iter": 0})
    code, _, err = _run(capsys, "sweep", "--config", str(cfg_path))
    assert code == 2
    assert "k_iter" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "overrides,named",
    [
        ({"k_iter": 2.5}, "k_iter"),
        ({"k_gamp": 1.5}, "k_gamp"),
        ({"x0": [float("nan"), 5.0]}, "x0"),
        ({"x0": [2.0, 5.0, 1.0]}, "x0"),
        ({"x0": [2.0, 20.0]}, "x0"),
        ({"delta_tr": float("nan")}, "delta_tr"),
        ({"delta_tr": 1e-300}, "delta_tr"),
        ({"tau_w": float("inf")}, "tau_w"),
        ({"k_iter": True}, "k_iter"),
        ({"tau_w": True}, "tau_w"),
    ],
    ids=["k_iter_fraction", "k_gamp_fraction", "x0_nan", "x0_length", "x0_outside_prior",
         "delta_tr_nan", "delta_tr_collapses_support", "tau_w_inf", "k_iter_bool",
         "tau_w_bool"],
)
def test_sweep_rejects_solver_settings_before_solving(tmp_path, capsys, monkeypatch,
                                                      overrides, named):
    def no_solve(*args):
        raise AssertionError("a point was solved")

    monkeypatch.setattr(experiment, "solve_batch", no_solve)
    monkeypatch.setattr(experiment, "solve", no_solve)
    cfg_path = _write_sweep_config(tmp_path, overrides=overrides)
    code, _, err = _run(capsys, "sweep", "--config", str(cfg_path))
    assert code == 2
    assert named in err
    assert not (tmp_path / "out").exists()


def test_sweep_config_takes_solver_flags(tmp_path, capsys):
    cfg_path = _write_sweep_config(tmp_path, overrides={"k_iter": 4, "k_gamp": 3})
    code, _, _ = _run(capsys, "sweep", "--config", str(cfg_path), "--k-iter", "1",
                      "--k-gamp", "2")
    assert code == 0
    with open(tmp_path / "out" / "runs.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["iterations"] for r in rows] == ["2", "2"]  # the flags win: 1 x 2


def _sweep_config_text(**changes):
    return json.dumps({"scenario_path": bundled_scenario_path("canyon"), "sigmas": [0.3],
                       "n_seeds": 1, **changes})


@pytest.mark.parametrize(
    "text,named",
    [
        ("{not json", "sweep.json"),
        (json.dumps({"scenario_path": "x", "sigmas": [1]}), "n_seeds"),
        # a value of the wrong JSON type is refused, not reinterpreted
        (_sweep_config_text(sigmas="14"), "sigmas"),
        (_sweep_config_text(sigmas=[0.3, True]), "sigmas"),
        (_sweep_config_text(n_seeds=2.5), "n_seeds"),
        (_sweep_config_text(include_timing="false"), "include_timing"),
        (_sweep_config_text(scenario_path=None), "scenario_path"),
        (_sweep_config_text(scenario_path=["canyon.json"]), "scenario_path"),
        (_sweep_config_text(overrides=[["k_iter", 1]]), "overrides"),
        (_sweep_config_text(out_dir=7), "out_dir"),
        ("[]", "JSON object"),
        (_sweep_config_text(include_timming=True), "include_timming"),
        (_sweep_config_text(overrides={"delta_tr": [True, 1]}), "overrides.delta_tr[0]"),
        (_sweep_config_text(sigmas=[0.3, "0.5"]), "sigmas[1]"),
    ],
    ids=["malformed_json", "missing_n_seeds", "string_sigmas", "bool_sigma",
         "fraction_n_seeds", "string_include_timing", "null_scenario_path",
         "list_scenario_path", "list_overrides", "number_out_dir", "not_an_object",
         "unknown_key_include_timming", "bool_delta_tr", "numeric_string_sigma"],
)
def test_sweep_config_file_errors_exit_2(tmp_path, capsys, text, named):
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(text)
    with pytest.raises(ParseError, match=re.escape(named)):
        ExperimentConfig.from_dict(read_json(cfg_path), str(cfg_path))
    code, _, err = _run(capsys, "sweep", "--config", str(cfg_path))
    assert code == 2
    assert named in err


def test_sweep_flags_override_the_config_file(tmp_path, capsys):
    cfg_path = _write_sweep_config(tmp_path, scenario_path="no-such-file.json",
                                   sigmas=[0.3, 0.4, 0.5], n_seeds=1, overrides={"k_iter": 1})
    code, _, _ = _run(capsys, "sweep", "--config", str(cfg_path),
                      "--scenario", bundled_scenario_path("canyon"), "--sigmas", "1,2",
                      "--seeds", "3", "--k-gamp", "1")
    assert code == 0
    with open(tmp_path / "out" / "runs.csv") as fh:
        points = sorted({(r["sigma_z"], r["seed"]) for r in csv.DictReader(fh)})
    assert points == [(s, str(seed)) for s in ("1.0", "2.0") for seed in range(3)]


def test_sweep_out_dir_that_is_a_file_exits_2(tmp_path, capsys):
    out_dir = tmp_path / "taken"
    out_dir.write_text("")
    code, _, err = _run(capsys, "sweep", "--scenario", bundled_scenario_path("canyon"),
                        "--sigmas", "0.5", "--seeds", "1", "--k-iter", "1",
                        "--out-dir", str(out_dir))
    assert code == 2
    assert str(out_dir) in err
    assert "Traceback" not in err
    assert out_dir.read_text() == ""


def test_sweep_checks_the_out_dir_before_solving(tmp_path, capsys, monkeypatch):
    def no_sweep(*args):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr(cli, "run_sweep", no_sweep)
    taken = tmp_path / "taken"
    taken.write_text("")
    for out_dir in (taken, taken / "sub"):
        code, _, err = _run(capsys, "sweep", "--scenario", bundled_scenario_path("canyon"),
                            "--sigmas", "0.5,1,2,4", "--out-dir", str(out_dir))
        assert code == 2
        assert str(out_dir) in err
    assert taken.read_text() == ""


def test_sweep_does_not_read_a_number_as_a_file_descriptor(tmp_path):
    cfg_path = _write_sweep_config(tmp_path, scenario_path=0)
    proc = subprocess.run(
        [sys.executable, "-m", "permgamp.cli", "sweep", "--config", str(cfg_path)],
        cwd=tmp_path, stdin=subprocess.DEVNULL, capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(Path(permgamp.__file__).parents[1])),
    )
    assert proc.returncode == 2
    assert "scenario_path" in proc.stderr
    assert not (tmp_path / "out").exists()


def test_sweep_has_no_workers_option(tmp_path, capsys):
    # sweeps run as one batch in one process
    with pytest.raises(SystemExit) as exit_info:
        main(["sweep", "--scenario", bundled_scenario_path("canyon"), "--sigmas", "0.5",
              "--out-dir", str(tmp_path), "--workers", "2"])
    assert exit_info.value.code == 2
    assert "--workers" in capsys.readouterr().err


def test_sweep_point_failure_leaves_other_points_unchanged(tmp_path, monkeypatch):
    config = ExperimentConfig(
        scenario_path=bundled_scenario_path("canyon"),
        sigmas=[0.5, 2.0],
        n_seeds=2,
        overrides={"k_iter": 3},
    )
    clean_rows, clean_summary = run_sweep(config)
    write_sweep_outputs(clean_rows, clean_summary, tmp_path / "clean")
    measurement_noise = experiment.measurement_noise

    def nan_at_one_point(sigma, seed, n):
        noise = measurement_noise(sigma, seed, n)
        return noise * np.nan if (sigma, seed) == (2.0, 0) else noise

    monkeypatch.setattr(experiment, "measurement_noise", nan_at_one_point)
    rows, summary = run_sweep(config)
    write_sweep_outputs(rows, summary, tmp_path / "nan")
    clean = (tmp_path / "clean" / "runs.csv").read_text().splitlines()
    got = (tmp_path / "nan" / "runs.csv").read_text().splitlines()
    failed = [i for i, r in enumerate(rows, start=1) if (r["sigma_z"], r["seed"]) == (2.0, 0)]
    assert len(failed) == 2
    assert all(rows[i - 1]["status"] == "error:SolverError" for i in failed)
    assert [line for i, line in enumerate(got) if i not in failed] == [
        line for i, line in enumerate(clean) if i not in failed
    ]
    assert [s["n_ok"] for s in summary] == [2, 2, 1, 1]


def test_sweep_builds_as_many_ray_tables_for_20_points_as_for_1(ray_table_calls):
    counts = []
    for sigmas, n_seeds in (([0.5], 1), ([0.1, 1.0, 2.0, 4.0], 5)):
        ray_table_calls.clear()
        rows, _ = run_sweep(ExperimentConfig(
            scenario_path=bundled_scenario_path("canyon"), sigmas=sigmas, n_seeds=n_seeds,
            overrides={"k_iter": 2},
        ))
        assert all(r["status"] == "ok" for r in rows)
        counts.append(len(ray_table_calls))
    assert counts == [1, 1]  # the prepared problem's one table


def test_sweep_points_equal_single_estimates_and_trace_once(monkeypatch):
    sc = load_scenario(bundled_scenario_path("canyon"))
    config = ExperimentConfig(
        scenario_path=bundled_scenario_path("canyon"),
        sigmas=[0.4, 1.5],
        n_seeds=2,
        overrides={"k_iter": 6},
    )
    expected = {}
    for sigma in config.sigmas:
        for seed in range(config.n_seeds):
            report, _ = run_estimate(
                sc, synthesize_dataset(sc, sigma, seed), overrides=config.overrides
            )
            for m in range(sc.n_materials):
                expected[sigma, seed, m + 1] = (
                    float(report.eps_hat[m]), report.iterations_run
                )
    for workers in (1, 2):
        rows, _ = run_sweep(config, workers=workers)
        assert len(rows) == len(expected)
        for r in rows:
            assert r["status"] == "ok"
            eps_hat, iterations = expected[r["sigma_z"], r["seed"], r["material"]]
            assert r["eps_hat"] == eps_hat  # float for float
            assert r["iterations"] == iterations
            assert r["abs_err"] == abs(eps_hat - r["eps_true"])

    calls = []

    def counted(scenario):
        calls.append(scenario)
        return trace_scenario(scenario)

    monkeypatch.setattr(raytracer, "trace_scenario", counted)
    run_sweep(config, workers=1)
    assert len(calls) == 1 and calls[0].links == sc.links  # the scenario traced once


def test_sweep_failure_rows_keep_schema(tmp_path):
    # with every prior_hi at 1.3e154 and x0 far below the midpoint, the first
    # steps leap to eps ~1e153, where A^2 underflows at a later linearization:
    # every point fails inside the solve and the sweep must still emit rows
    def widen(raw):
        for material in raw["materials"]:
            material["prior_hi"] = 1.3e154
    config = ExperimentConfig(
        scenario_path=str(_edited_canyon(tmp_path, widen)), sigmas=[0.5], n_seeds=2,
        overrides={"x0": [3.0, 6.0]}, out_dir=str(tmp_path / "o"),
    )
    rows, summary = run_sweep(config, workers=1)
    assert len(rows) == 4
    assert all(r["status"] == "error:SolverError" for r in rows)
    assert all(r["eps_hat"] == "" for r in rows)
    write_sweep_outputs(rows, summary, tmp_path / "o")
    lines = (tmp_path / "o" / "runs.csv").read_text().strip().split("\n")
    assert len(lines) == 5
    assert [s["n_ok"] for s in summary] == [0, 0]


def _sealed_scenario():
    """One link, its TX sealed inside a box: no ray reaches the RX."""
    box = [
        Surface((-1.0, -1.0), (1.0, -1.0), 1),
        Surface((1.0, -1.0), (1.0, 1.0), 1),
        Surface((1.0, 1.0), (-1.0, 1.0), 1),
        Surface((-1.0, 1.0), (-1.0, -1.0), 1),
    ]
    return Scenario(
        surfaces=tuple(box),
        materials=(Material(1, 1.5, 10.0, 4.0),),
        links=(Link((0.0, 0.0), (5.0, 5.0), 30, 2, 2),),
        wavelength_m=0.1,
    )


def test_a_sweep_with_no_usable_link_exits_2_naming_links(tmp_path, capsys):
    # the problem every point shares has no link: an input fault rather
    # than a failure of each point
    path = tmp_path / "sealed.json"
    save_scenario(_sealed_scenario(), path)
    code, out, err = _run(capsys, "sweep", "--scenario", str(path), "--sigmas", "0.5,1",
                          "--seeds", "2", "--out-dir", str(tmp_path / "o"))
    assert (code, out) == (2, "")
    assert err.startswith("error: links: every link is unusable") and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


def test_no_run_path_builds_a_ray_object(canyon, monkeypatch, capsys):
    # rays travel as columns from the tracer to the ray table; Ray and
    # Reflection objects are built only for a caller that asks for them
    made = []
    for cls in (raytracer.Ray, raytracer.Reflection):
        def counted(self, *args, _init=cls.__init__, **kwargs):
            made.append(type(self).__name__)
            _init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counted)
    raytracer.trace_link(canyon, 0)  # asks for link 0's Ray list
    assert made.count("Ray") == 5 and "Reflection" in made
    made.clear()
    run_estimate(canyon, synthesize_dataset(canyon, 0.5, 1))
    run_sweep(ExperimentConfig(scenario_path=bundled_scenario_path("canyon"), sigmas=[0.5, 1.0],
                               n_seeds=2, overrides={"k_iter": 2}))
    code, _, _ = _run(capsys, "oracle", "--scenario", bundled_scenario_path("canyon"),
                      "--sigma", "0.5", "--seed", "1", "--grid-step", "0.5")
    assert code == 0
    assert made == []


def test_sweep_without_truths_exits_2(tmp_path, capsys):
    sc = Scenario(
        surfaces=(),
        materials=(Material(1, 1.5, 10.0),),  # no true_eps
        links=(Link((0.0, 0.0), (5.0, 0.0), 30, 2, 2),),
        wavelength_m=0.1,
    )
    path = tmp_path / "no-truth.json"
    save_scenario(sc, path)
    code, _, err = _run(
        capsys, "sweep", "--scenario", str(path), "--sigmas", "0.5",
        "--seeds", "1", "--out-dir", str(tmp_path / "o"),
    )
    assert code == 2
    assert "true_eps" in err


def test_sweep_zero_noise_recovers_truth(tmp_path):
    config = ExperimentConfig(
        scenario_path=bundled_scenario_path("canyon"),
        sigmas=[0.0],
        n_seeds=2,
    )
    rows, summary = run_sweep(config, workers=1)
    assert all(r["status"] == "ok" for r in rows)
    assert all(r["abs_err"] <= 0.05 for r in rows)


# ---------------------------------------------------------------------------
# oracle subcommand
# ---------------------------------------------------------------------------

def test_oracle_subcommand(capsys):
    code, out, _ = _run(
        capsys, "oracle", "--scenario", bundled_scenario_path("canyon"),
        "--sigma", "0", "--seed", "1", "--grid-step", "0.5",
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["eps_map"]) == 2
    assert abs(payload["eps_map"][0] - 3.0) <= 0.5
    assert abs(payload["eps_map"][1] - 6.0) <= 0.5
    assert payload["log_posterior"] <= 0.0


# ---------------------------------------------------------------------------
# prepare_problem
# ---------------------------------------------------------------------------

def _canyon_plus_sealed_link(canyon):
    """The canyon with one extra link (index 100) sealed inside a small box."""
    box = [
        Surface((-0.5, -0.5), (0.5, -0.5), 1),
        Surface((0.5, -0.5), (0.5, 0.5), 1),
        Surface((0.5, 0.5), (-0.5, 0.5), 1),
        Surface((-0.5, 0.5), (-0.5, -0.5), 1),
    ]
    return Scenario(
        surfaces=canyon.surfaces + tuple(box),
        materials=canyon.materials,
        links=canyon.links + (Link((0.0, 0.0), (30.0, 0.0), 30, 2, 2),),
        wavelength_m=canyon.wavelength_m,
        max_reflections=canyon.max_reflections,
    )


def _sealed_link_dataset(canyon):
    base = synthesize_dataset(canyon, 0.0, seed=0)  # data for the sane links
    return Dataset(measured_db=np.concatenate([base.measured_db, [-120.0]]), noise_var=0.0)


def test_prepare_problem_drops_unusable_links(canyon):
    sc = _canyon_plus_sealed_link(canyon)
    prob = prepare_problem(sc, _sealed_link_dataset(canyon))
    assert prob.dropped == [100]
    assert len(prob.kept) == 100
    assert len(prob.y) == 100


def test_estimate_solves_without_the_dropped_link(canyon, tmp_path, capsys):
    scenario_path, dataset_path = tmp_path / "sc.json", tmp_path / "ds.json"
    save_scenario(_canyon_plus_sealed_link(canyon), scenario_path)
    save_dataset(_sealed_link_dataset(canyon), dataset_path)
    code, out, _ = _run(
        capsys, "estimate", "--scenario", str(scenario_path), "--dataset", str(dataset_path)
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["dropped_links"] == [100]
    assert payload["n_links_used"] == 100
    err = np.abs(np.array(payload["eps_hat"]) - canyon.true_eps_vector())
    assert np.max(err) <= 0.05


@pytest.mark.parametrize("command", ["estimate", "oracle"])
def test_synthesis_rejects_a_link_without_rays(canyon, tmp_path, capsys, command):
    # no level can be drawn for the sealed link, so the input is unusable:
    # exit 2 with the link named, not a solver failure
    path = tmp_path / "sc.json"
    save_scenario(_canyon_plus_sealed_link(canyon), path)
    code, out, err = _run(capsys, command, "--scenario", str(path), "--sigma", "0.5",
                          "--seed", "3")
    assert code == 2
    assert out == ""
    assert err == ("error: links[100]: no unblocked ray, so no level can be synthesized "
                   "for this link\n")


@pytest.mark.parametrize("command", ["estimate", "oracle"])
def test_synthesis_rejects_a_link_whose_gain_underflows(tmp_path, capsys, command):
    path = _edited_canyon(tmp_path, _far_rx)
    code, out, err = _run(capsys, command, "--scenario", str(path), "--sigma", "0.5",
                          "--seed", "3")
    assert code == 2
    assert out == ""
    assert err == ("error: links[0]: total gain below the floor at true_eps, so no level "
                   "can be synthesized for this link\n")


def test_dataset_and_sweep_drop_a_link_whose_gain_underflows(canyon, tmp_path, capsys):
    path = _edited_canyon(tmp_path, _far_rx)
    dataset_path = tmp_path / "ds.json"
    save_dataset(synthesize_dataset(canyon, 0.5, seed=3), dataset_path)
    code, out, _ = _run(capsys, "estimate", "--scenario", str(path), "--dataset",
                        str(dataset_path), "--k-iter", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["dropped_links"] == [0]
    assert payload["n_links_used"] == 99
    config = ExperimentConfig(scenario_path=str(path), sigmas=[0.5], n_seeds=2,
                              overrides={"k_iter": 1})
    rows, _ = run_sweep(config)
    assert len(rows) == 4
    assert all(r["status"] == "ok" for r in rows)


def test_sweep_drops_a_link_without_rays(canyon, tmp_path):
    path = tmp_path / "sc.json"
    save_scenario(_canyon_plus_sealed_link(canyon), path)
    config = ExperimentConfig(scenario_path=str(path), sigmas=[0.0, 0.5], n_seeds=2)
    rows, summary = run_sweep(config, workers=1)
    assert len(rows) == 8
    assert all(r["status"] == "ok" for r in rows)
    assert all(r["abs_err"] <= 0.05 for r in rows if r["sigma_z"] == 0.0)
    assert all(s["n_ok"] == 2 for s in summary)


def test_prepare_problem_all_unusable_raises(tmp_path):
    with pytest.raises(ValidationError, match="links: every link is unusable"):
        prepare_problem(_sealed_scenario(), Dataset(measured_db=np.zeros(1), noise_var=0.25))


@pytest.mark.parametrize("command", [["estimate"], ["estimate", "--oracle"], ["oracle"]],
                         ids=["estimate", "estimate_oracle", "oracle"])
def test_a_dataset_with_no_usable_link_exits_2_naming_links(canyon, tmp_path, capsys, command):
    # with --dataset nothing is synthesized, so it is dropping the unusable
    # links that finds none left: an input fault, not a solver failure
    sealed = _canyon_plus_sealed_link(canyon)
    scenario_path, dataset_path = tmp_path / "sc.json", tmp_path / "ds.json"
    save_scenario(replace(sealed, links=sealed.links[100:]), scenario_path)
    save_dataset(Dataset(measured_db=np.array([-120.0]), noise_var=0.25), dataset_path)
    code, out, err = _run(capsys, *command, "--scenario", str(scenario_path),
                          "--dataset", str(dataset_path))
    assert (code, out) == (2, "")
    assert err.startswith("error: links: every link is unusable") and err.count("\n") == 1


def test_oracle_drops_the_sealed_link_and_logs_it(canyon, tmp_path, capsys):
    scenario_path, dataset_path = tmp_path / "sc.json", tmp_path / "ds.json"
    save_scenario(_canyon_plus_sealed_link(canyon), scenario_path)
    save_dataset(_sealed_link_dataset(canyon), dataset_path)
    code, out, err = _run(capsys, "oracle", "--scenario", str(scenario_path),
                          "--dataset", str(dataset_path))
    assert (code, err) == (0, "dropped 1 unusable link(s): [100]\n")
    assert json.loads(out)["n_links_used"] == 100
