"""The scripts under scripts/ run end to end on tiny inputs."""

import importlib.util
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


def run_bench(tmp_path, *argv):
    """bench.py with its temporary directory under tmp_path/tmp, which must stay empty."""
    tmp = tmp_path / "tmp"
    tmp.mkdir()
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench.py"), *argv],
        capture_output=True, text=True, timeout=60, env=dict(os.environ, TMPDIR=str(tmp)),
    )
    assert list(tmp.iterdir()) == []  # no parent tree was extracted
    return proc


def test_bench_refuses_an_existing_output_before_running(tmp_path):
    out = tmp_path / "BENCH.json"
    out.write_text("kept")
    proc = run_bench(tmp_path, str(out), "HEAD", "2")
    assert proc.returncode == 2
    assert str(out) in proc.stderr and proc.stdout == ""
    assert out.read_text() == "kept"


@pytest.mark.parametrize("argv, message", [
    pytest.param(("OUT", "HEAD"), "expected OUT PARENT_REV N", id="too-few"),
    pytest.param(("OUT", "HEAD", "2", "40"), "expected OUT PARENT_REV N", id="too-many"),
    pytest.param(("OUT", "HEAD", "0"), "N must be a positive integer", id="n-zero"),
    pytest.param(("OUT", "HEAD", "two"), "N must be a positive integer", id="n-not-a-number"),
    pytest.param(("OUT", "no-such-rev", "1"), "is not a commit", id="not-a-commit"),
    pytest.param(("missing/OUT", "HEAD", "1"), "has no parent directory", id="no-parent-directory"),
])
def test_bench_refuses_bad_arguments_before_running(tmp_path, argv, message):
    out, *rest = argv
    proc = run_bench(tmp_path, str(tmp_path / out), *rest)
    assert proc.returncode == 2
    assert message in proc.stderr and proc.stdout == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["tmp"]  # no OUT was written


def _run(workload, side, pair, trace=0, load=1.0, **values):
    result = {"correct": True, "attempted": 1, "failed": 0,
              "metrics": {k: {"value": v, "unit": "s"} for k, v in values.items()}}
    return {"workload": workload, "side": side, "pair": pair, "seed": pair or 1, "trace": trace,
            "loadavg": [load, 0.5, 0.25], "boundaries_not_found": [], "result": result}


def _bench_module():
    spec = importlib.util.spec_from_file_location("bench", ROOT / "scripts" / "bench.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench


def test_bench_src_lines_counts_as_wc_does(tmp_path):
    package = tmp_path / "src" / "fractalwave"
    package.mkdir(parents=True)
    (package / "a.py").write_text("x = 1\n\ny = 2\n")
    (package / "b.py").write_text("z = 3")  # no final newline: wc -l counts 0
    (package / "notes.txt").write_text("not a module\n")
    (tmp_path / "src" / "other.py").write_text("outside the package\n")
    assert _bench_module().src_lines(tmp_path) == 3
    wc = subprocess.run(["wc", "-l", *sorted(map(str, (ROOT / "src" / "fractalwave").glob("*.py")))],
                        capture_output=True, text=True, check=True).stdout
    assert _bench_module().src_lines(ROOT) == int(wc.split()[-2])  # the "total" line


def test_bench_summary_pairs_medians_and_wins():
    bench = _bench_module()
    metrics = [{"name": "wall_s", "better": "lower"}, {"name": "rate", "better": "higher"}]
    parent = [1.0, 2.0, 3.0, 4.0, 9.0]
    change = [0.5, 2.5, 2.0, 3.0, 0.1]
    runs = [_run("w", side, k + 1, load=k + (side == "change") * 10.0, wall_s=v, rate=v)
            for k, (p, c) in enumerate(zip(parent, change)) for side, v in (("parent", p), ("change", c))]
    runs[-1]["result"] = None  # pair 5's change run failed: the pair is left out
    runs.append(_run("w", "change", 6, wall_s=0.0, rate=0.0))  # a pair with one side is left out
    runs.append(_run("w", "parent", 7, wall_s=5.0, rate=5.0))
    runs[-1]["result"]["failed"] = 1  # so is a side that reports a failed operation
    runs.append(_run("w", "change", 7, wall_s=5.0, rate=5.0))
    runs.append(_run("w", "change", None, trace=1, wall_s=0.0, rate=0.0))  # traced runs are not pairs
    runs.append(_run("v", "parent", 1, wall_s=1.0, rate=1.0))
    runs.append(_run("v", "change", 1, wall_s=1.0, rate=1.0))
    summary = bench.summarize(runs, metrics)
    wall = summary["w"]["wall_s"]
    assert wall["pairs"] == 4
    assert wall["parent_median"] == 2.5 and wall["parent_iqr"] == 1.5  # quartiles 1.75, 3.25
    assert wall["change_median"] == 2.25 and wall["change_iqr"] == 1.0  # quartiles 1.625, 2.625
    assert wall["change_pct"] == -10.0
    assert wall["wins"] == 3  # lower is better: pairs 1, 3, 4
    assert wall["parent_load1"] == 1.5 and wall["change_load1"] == 11.5  # pairs 1-4 start at 0..3, +10
    assert not wall["claim_holds"]  # 3 wins of 4 < 0.9, and 0.25 is inside the IQR
    assert summary["w"]["rate"]["wins"] == 1  # higher is better: pair 2
    assert summary["v"]["wall_s"] == {"parent_median": 1.0, "parent_iqr": 0.0, "change_median": 1.0,
                                      "change_iqr": 0.0, "change_pct": 0.0, "wins": 0, "pairs": 1,
                                      "claim_holds": False, "parent_load1": 1.0, "change_load1": 1.0}


@pytest.mark.parametrize("parent, change, better, holds", [
    pytest.param([10.0, 11.0, 12.0, 13.0] * 5, [9.0, 9.5, 10.0, 10.5] * 5, "lower", True, id="lower-20-of-20"),
    pytest.param([10.0, 11.0, 12.0, 13.0] * 5, [9.0, 9.5, 10.0, 10.5] * 5, "higher", False, id="wrong-direction"),
    pytest.param([10.0, 11.0, 12.0, 13.0] * 5, [9.9, 10.9, 11.9, 12.9] * 5, "lower", False, id="inside-the-iqr"),
    pytest.param([10.0] * 9 + [20.0], [9.0] * 8 + [25.0, 25.0], "lower", False, id="8-of-10"),
    pytest.param([10.0] * 9 + [20.0], [9.0] * 9 + [25.0], "lower", True, id="9-of-10"),
])
def test_bench_claim_needs_nine_tenths_of_the_pairs_and_a_median_beyond_the_iqr(parent, change, better, holds):
    runs = [_run("w", side, k + 1, m=v) for k, (p, c) in enumerate(zip(parent, change))
            for side, v in (("parent", p), ("change", c))]
    got = _bench_module().summarize(runs, [{"name": "m", "better": better}])["w"]["m"]
    assert got["claim_holds"] is holds, got
