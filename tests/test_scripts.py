"""The scripts under scripts/ run end to end on tiny inputs."""

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

