"""Smoke tests: each experiment script runs end to end as its own process."""

import os
import subprocess
import sys
from pathlib import Path

import pytest


ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *argv, cwd):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *argv], cwd=cwd,
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": path})


@pytest.mark.parametrize("seeds", ["0", "00"])
def test_run_cmapss_synthetic(seeds, tmp_path):
    # "00" names the checkpoint train writes for seed 0, checkpoint_seed0.json
    proc = run_script("run_cmapss.py", "--subset", "synthetic", "--seeds", seeds, "--epochs", "1",
                      "--out", str(tmp_path / "out"), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "synthetic" / "report.json").is_file()


def test_run_pendulum(tmp_path):
    proc = run_script("run_pendulum.py", "--t-end", "30", "--out", str(tmp_path / "out"),
                      cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "escapes its first-20s bounding box" in proc.stdout
    for tag in ("drift", "no_drift"):
        assert (tmp_path / "out" / tag / "box_counting.json").is_file()
