"""Byte pins on what the solver and the grid oracle write: estimate reports,
sweep CSVs and oracle reports.

The digests were taken with numpy 2.4 on glibc, x86-64 with AVX-512. They do
not depend on scipy: the noise draws and the moment kernel's one-sided and
straddle branches take exp, expm1, erf, erfc, log1p and cos from libm
through math. Another libm may round those differently in the last bit, and
so may another numpy build or SIMD level in the numpy code that remains (the
narrow rows' exp, the grid scan's log10); either moves digests here without
anything being wrong. Re-pin them then, from a tree whose outputs are
trusted.
"""

import hashlib

import pytest

import per_node_grid
import scalar_moments
from permgamp import bundled_scenario_path, gamp, oracle, save_dataset, save_scenario
from permgamp.cli import main
from test_cli import _canyon_plus_sealed_link, _sealed_link_dataset
from test_forward_model import numpy_dispatches_avx512

# SHA-256 of the default `estimate` report (stdout) on the bundled canyon,
# per (sigma, seed).
ESTIMATE_SHA256 = {
    (0.1, 0): "61cb95614fd9f31dae8e9804b8affd69ec5d91a2fc0e541ec4d3fdda876ffd52",
    (0.5, 3): "9b12ca7b83714c4c0da266d192451f36196ccad343899d8b0d8bbbe6372eb73c",
    (1.0, 1): "1176b067979445ba56d93e7160fdca33c5bb08ece0f48bd0c25401ab10b56da8",
    (2.0, 2): "9d884e9ed72875d17f92f97a01def92a1ed9d55ccd82dce8537bacd89d9579b7",
    (4.0, 4): "bc8c16416f828af18236c88378cfe44bb7219f0bbd80cc03937bbfa5c4722f68",
}
# SHA-256 of a damped `estimate` report (stdout) on the bundled canyon:
# --damping 0.5 --k-iter 5 --sigma 1 --seed 1.
DAMPED_ESTIMATE_SHA256 = "f933b747a7dfbf3b3355670354e6f296e89eec2fddae4c03bfdee1ac77dc3546"
# SHA-256 of the sweep's CSVs (no timing column) for sigma in {0.1, 1, 2, 4}
# x 5 seeds on the bundled canyon.
SWEEP_SHA256 = {
    "runs.csv": "850b343ad0c7d499ceb7bc3bdc38bdac69dd867453bfa334f95ed9f20a45af32",
    "summary.csv": "0199bbd778d4bcf66e392e52a022d5055f5c0f783666ed4302586a0b91ddd278",
}

# SHA-256 of the `oracle` report (stdout) on the bundled canyon, per
# (sigma, seed), and of the `estimate --oracle` report.
ORACLE_SHA256 = {
    (0.5, 3): "0ab5ba8e3dd59b8b3c30e4b4fb2f4293884776f51d1b9ef5e984b1080ab00476",
    (2.0, 1): "508f39bef0b7b9bb518585ace7c3b935c2dd093d00eb905c85cac7970c1a7c6d",
}
ESTIMATE_ORACLE_SHA256 = {
    (1.0, 2): "b6bf03fb64d7b112406c0f49c4d8c98e0d72058d65b0c5d21e7647844756328a",
}
# SHA-256 of the `estimate` report on the canyon plus one link sealed in a
# box, with noiseless levels: the sealed link is dropped, so the solve runs
# on a ray table of fewer links than were traced.
SEALED_LINK_ESTIMATE_SHA256 = "9b8ecd7dad4f604f5f940d3a83c3bb46177ce7f93a2ddd7df0d15153adb0badc"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _host_assumption() -> str:
    """A failing estimate or sweep pin's message: the pins assume AVX-512."""
    state = {True: "on", False: "off", None: "unknown"}[numpy_dispatches_avx512()]
    return (f"numpy's AVX-512 dispatch is {state} on this host; the digests were taken with "
            "it on, and without it the narrow rows' np.exp rounds differently (ROADMAP item 2)")


def _digests(tmp_path, capsys):
    """(estimate digests, sweep digests) of the pinned panel."""
    canyon = bundled_scenario_path("canyon")
    estimates = {}
    for sigma, seed in ESTIMATE_SHA256:
        assert main(["estimate", "--scenario", canyon, "--sigma", str(sigma),
                     "--seed", str(seed)]) == 0
        estimates[sigma, seed] = _sha256(capsys.readouterr().out.encode())
    out_dir = tmp_path / "sweep"
    assert main(["sweep", "--scenario", canyon, "--sigmas", "0.1,1,2,4", "--seeds", "5",
                 "--out-dir", str(out_dir)]) == 0
    sweep = {name: _sha256((out_dir / name).read_bytes()) for name in SWEEP_SHA256}
    return estimates, sweep


def test_estimate_and_sweep_outputs_are_pinned(tmp_path, capsys):
    assert _digests(tmp_path, capsys) == (ESTIMATE_SHA256, SWEEP_SHA256), _host_assumption()


def test_damped_estimate_is_pinned(capsys):
    # the only pin through output_step's damping < 1 branch
    assert main(["estimate", "--scenario", bundled_scenario_path("canyon"), "--damping", "0.5",
                 "--k-iter", "5", "--sigma", "1", "--seed", "1"]) == 0
    assert _sha256(capsys.readouterr().out.encode()) == DAMPED_ESTIMATE_SHA256


def test_scalar_moment_reference_reaches_every_branch_and_the_same_bytes(
    tmp_path, capsys, monkeypatch
):
    # the panel above, with the per-element reference in place of the kernel:
    # it must write the same bytes, through the narrow, one-sided and
    # straddle branches alike
    calls = dict.fromkeys(["_narrow_moments", "_one_sided_ratios", "_straddle_ratios"], 0)

    def counted(name):
        fn = getattr(scalar_moments, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(scalar_moments, name, counted(name))
    monkeypatch.setattr(gamp, "truncated_moments", scalar_moments.moments_loop)
    assert _digests(tmp_path, capsys) == (ESTIMATE_SHA256, SWEEP_SHA256), _host_assumption()
    assert all(calls.values()), calls


def _oracle_digests(capsys):
    """(oracle digests, estimate --oracle digests) of the pinned panels."""
    canyon = bundled_scenario_path("canyon")

    def digests(pins, command, *flags):
        out = {}
        for sigma, seed in pins:
            assert main([command, "--scenario", canyon, "--sigma", str(sigma),
                         "--seed", str(seed), *flags]) == 0
            out[sigma, seed] = _sha256(capsys.readouterr().out.encode())
        return out
    return digests(ORACLE_SHA256, "oracle"), digests(ESTIMATE_ORACLE_SHA256, "estimate", "--oracle")


def test_oracle_outputs_are_pinned(capsys, monkeypatch):
    assert _oracle_digests(capsys) == (ORACLE_SHA256, ESTIMATE_ORACLE_SHA256)
    # the per-node scan writes the same bytes
    monkeypatch.setattr(oracle, "_grid_ssr", lambda table, patterns, *problem:
                        per_node_grid.grid_ssr(table, *problem))
    assert _oracle_digests(capsys) == (ORACLE_SHA256, ESTIMATE_ORACLE_SHA256)


def test_estimate_with_a_dropped_link_is_pinned(canyon, tmp_path, capsys):
    scenario_path, dataset_path = tmp_path / "sc.json", tmp_path / "ds.json"
    save_scenario(_canyon_plus_sealed_link(canyon), scenario_path)
    save_dataset(_sealed_link_dataset(canyon), dataset_path)
    assert main(["estimate", "--scenario", str(scenario_path),
                 "--dataset", str(dataset_path)]) == 0
    assert _sha256(capsys.readouterr().out.encode()) == SEALED_LINK_ESTIMATE_SHA256
