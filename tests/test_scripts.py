"""The scripts under scripts/ run end to end on tiny inputs."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

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
    # each bound is named by the test that freezes it, and that test exists
    named = re.findall(r"tests/test_extremizers\.py::(\w+)", proc.stdout)
    assert len(named) == 7
    source = (ROOT / "tests" / "test_extremizers.py").read_text()
    assert all(f"def {name}(" in source for name in named)



def test_bench_refuses_an_existing_output_before_running(tmp_path):
    out = tmp_path / "BENCH.json"
    out.write_text("kept")
    proc = run_script("bench.py", str(out))
    assert proc.returncode == 2
    assert str(out) in proc.stderr and proc.stdout == ""
    assert out.read_text() == "kept"


@pytest.mark.parametrize("argv, message", [
    (("HEAD", "nope", "3"), "unknown workload"),
    (("HEAD", "certify", "0"), "N must be a positive integer"),
    (("no-such-rev", "certify", "1"), "is not a commit"),
    (("HEAD", "certify"), "expected PARENT_REV WORKLOAD N"),
    (("HEAD", "certify", "2", "40"), "expected PARENT_REV WORKLOAD N"),
])
def test_pairs_refuses_bad_arguments_before_running(tmp_path, argv, message):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "pairs.py"), *argv],
        capture_output=True, text=True, timeout=60, env=dict(os.environ, TMPDIR=str(tmp_path)),
    )
    assert proc.returncode == 2
    assert message in proc.stderr and proc.stdout == ""
    assert list(tmp_path.iterdir()) == []  # no parent tree was extracted
