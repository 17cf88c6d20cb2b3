"""The scripts under scripts/ run end to end on tiny inputs."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *argv):
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *argv],
        capture_output=True, text=True, timeout=300,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )


def test_calibrate_extremizers_runs():
    proc = run_script("calibrate_extremizers.py", "--n", "256", "--jmin", "2", "--jmax", "4")
    assert proc.returncode == 0, proc.stderr
    assert "annulus" in proc.stdout


def test_run_all_scaling_runs(tmp_path):
    cfg = {"family": "knapp", "p": "5/2", "q": "5", "j_min": 2, "j_max": 4, "n": 256,
           "time_L": 2.0, "label": "tiny"}
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "runs"
    proc = run_script("run_all_scaling.py", "--configs", str(path), "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert (out / "tiny.json").exists() and (out / "tiny.csv").exists()
