"""The demo scripts run end to end against the package in src/."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _repo_files():
    return {p for p in ROOT.rglob("*") if not {"__pycache__", ".git"} & set(p.parts)}


@pytest.mark.parametrize(
    "demo",
    ["01_rays_and_gains", "02_truncated_moments", "03_estimate_canyon", "04_noise_sweep"],
)
def test_demo_runs_and_writes_nothing(demo):
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    before = _repo_files()
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{demo}.py")],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
    assert _repo_files() == before
