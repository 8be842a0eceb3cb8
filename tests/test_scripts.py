"""Smoke tests: each experiment script runs end to end as its own process."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tdcae import dataio


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


def test_run_cmapss_reads_a_data_file(tmp_path):
    data = tmp_path / "engines.txt"
    dataio.write_cmapss(dataio.synthetic_runs(n_engines=8, mean_life=60, seed=4), data)
    proc = run_script("run_cmapss.py", "--data", str(data), "--seeds", "0", "--epochs", "1",
                      "--out", str(tmp_path / "out"), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "FD001" / "report.json").is_file()


def test_run_cmapss_missing_data_fails_naming_it(tmp_path):
    missing = tmp_path / "nowhere"
    proc = run_script("run_cmapss.py", "--data", str(missing), "--seeds", "0", "--epochs", "1",
                      "--out", str(tmp_path / "out"), cwd=tmp_path)
    assert proc.returncode != 0
    assert str(missing) in proc.stderr
    assert not (tmp_path / "out" / "synthetic").exists()
    assert not (tmp_path / "out" / "FD001").exists()


def test_run_pendulum(tmp_path):
    out = tmp_path / "out"
    proc = run_script("run_pendulum.py", "--t-end", "30", "--out", str(out), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "escapes its first-20s bounding box" in proc.stdout
    assert (out / "pendulum.ini").is_file()
    for tag in ("drift", "no_drift"):
        assert (out / tag / "box_counting.json").is_file()
        rows = (out / tag / "trajectory.csv").read_text().splitlines()[1:]
        assert len(rows) == 3001
    fit = json.loads((out / "drift" / "box_counting.json").read_text())
    assert f"slope {fit['slope']:.3f} (residual {fit['fit_residual']:.3f})" in proc.stdout
