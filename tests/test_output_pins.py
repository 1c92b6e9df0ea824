"""Byte pins on what the solver and the grid oracle write: estimate reports,
sweep CSVs and oracle reports.

The digests were taken with numpy 2.4 and scipy 1.17. Another numpy or scipy
build may round exp, erf or erfcx differently in the last bit, which moves
every digest here without anything being wrong; re-pin them then, from a
tree whose outputs are trusted.
"""

import hashlib

import pytest

import per_node_grid
import scalar_moments
from permgamp import bundled_scenario_path, gamp, oracle, save_dataset, save_scenario
from permgamp.cli import main
from test_cli import _canyon_plus_sealed_link, _sealed_link_dataset

# SHA-256 of the default `estimate` report (stdout) on the bundled canyon,
# per (sigma, seed).
ESTIMATE_SHA256 = {
    (0.1, 0): "3d34bf0f182fc7834f6524055c4e196fbfbe4bca0e7b064e6818d0355ac7a5db",
    (0.5, 3): "e617676e962508e72aa1f5a40e1975b2a70ebf23012ee4390e120786c561fefd",
    (1.0, 1): "858b5d6747afe79ef24e99202bb6f42f2fd01e6fbc1b477c09514e87711df1a2",
    (2.0, 2): "9d884e9ed72875d17f92f97a01def92a1ed9d55ccd82dce8537bacd89d9579b7",
    (4.0, 4): "bc8c16416f828af18236c88378cfe44bb7219f0bbd80cc03937bbfa5c4722f68",
}
# SHA-256 of the sweep's CSVs (no timing column) for sigma in {0.1, 1, 2, 4}
# x 5 seeds on the bundled canyon.
SWEEP_SHA256 = {
    "runs.csv": "7999d21edd014de23df20cbdadc76f9e755ac7c7ab689cafcac7ed5a86e4406b",
    "summary.csv": "ff020b2865b1afecd7ce1ad8a234ef8029bd43d67bb1b8980fdbe7bca6095dad",
}

# SHA-256 of the `oracle` report (stdout) on the bundled canyon, per
# (sigma, seed), and of the `estimate --oracle` report.
ORACLE_SHA256 = {
    (0.5, 3): "0ab5ba8e3dd59b8b3c30e4b4fb2f4293884776f51d1b9ef5e984b1080ab00476",
    (2.0, 1): "508f39bef0b7b9bb518585ace7c3b935c2dd093d00eb905c85cac7970c1a7c6d",
}
ESTIMATE_ORACLE_SHA256 = {
    (1.0, 2): "ca68498f236a2a5f7b41a93d0933418a5a77eb8131209f4f6683be2cd9bf166b",
}
# SHA-256 of the `estimate` report on the canyon plus one link sealed in a
# box, with noiseless levels: the sealed link is dropped, so the solve runs
# on a ray table of fewer links than were traced.
SEALED_LINK_ESTIMATE_SHA256 = "2579cbc11ac35a37ba3ea14624021acdd617ceed5878f99531ab45268a188e8c"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


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
    assert _digests(tmp_path, capsys) == (ESTIMATE_SHA256, SWEEP_SHA256)


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
    assert _digests(tmp_path, capsys) == (ESTIMATE_SHA256, SWEEP_SHA256)
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
    monkeypatch.setattr(oracle, "_grid_ssr", per_node_grid.grid_ssr)
    assert _oracle_digests(capsys) == (ORACLE_SHA256, ESTIMATE_ORACLE_SHA256)


def test_estimate_with_a_dropped_link_is_pinned(canyon, tmp_path, capsys):
    scenario_path, dataset_path = tmp_path / "sc.json", tmp_path / "ds.json"
    save_scenario(_canyon_plus_sealed_link(canyon), scenario_path)
    save_dataset(_sealed_link_dataset(canyon), dataset_path)
    assert main(["estimate", "--scenario", str(scenario_path),
                 "--dataset", str(dataset_path)]) == 0
    assert _sha256(capsys.readouterr().out.encode()) == SEALED_LINK_ESTIMATE_SHA256
