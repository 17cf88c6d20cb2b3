"""The scripts under scripts/ run end to end on tiny inputs."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy
import pytest

ROOT = Path(__file__).resolve().parent.parent


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


def _run(workload, side, pair, trace=0, load=1.0, steal=None, **values):
    result = {"correct": True, "attempted": 1, "failed": 0,
              "metrics": {k: {"value": v, "unit": "s"} for k, v in values.items()}}
    return {"workload": workload, "side": side, "pair": pair, "seed": pair or 1, "trace": trace,
            "loadavg": [load, 0.5, 0.25], "steal": steal, "boundaries_not_found": [], "result": result}


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
    (tmp_path / "scripts").mkdir()
    (tmp_path / "scripts" / "run.py").write_text("1\n2\n")
    (tmp_path / "scripts" / "run.json").write_text("{}\n")
    (tmp_path / "tests" / "data").mkdir(parents=True)
    (tmp_path / "tests" / "test_a.py").write_text("\n" * 5)
    (tmp_path / "tests" / "data" / "b.py").write_text("below tests\n")
    bench = _bench_module()
    assert bench.src_lines(tmp_path) == {"src/fractalwave/*.py": 3, "scripts/*.py": 2, "tests/*.py": 5}
    for pattern, lines in bench.src_lines(ROOT).items():
        wc = subprocess.run(["wc", "-l", *sorted(map(str, ROOT.glob(pattern)))],
                            capture_output=True, text=True, check=True).stdout
        assert lines == int(wc.split()[-2]), pattern  # the "total" line


def test_bench_summary_pairs_medians_and_wins():
    bench = _bench_module()
    metrics = [{"name": "wall_s", "better": "lower"}, {"name": "rate", "better": "higher"}]
    parent = [1.0, 2.0, 3.0, 4.0, 9.0]
    change = [0.5, 2.5, 2.0, 3.0, 0.1]
    runs = [_run("w", side, k + 1, load=k + (side == "change") * 10.0, steal=k / 100 if side == "parent" else None,
                 wall_s=v, rate=v)
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
    assert wall["parent_steal"] == 0.015 and wall["change_steal"] is None  # no change run read its steal
    assert not wall["claim_holds"]  # 3 wins of 4 < 0.9, and 0.25 is inside the IQR
    assert summary["w"]["rate"]["wins"] == 1  # higher is better: pair 2
    assert summary["v"]["wall_s"] == {"parent_median": 1.0, "parent_iqr": 0.0, "change_median": 1.0,
                                      "change_iqr": 0.0, "change_pct": 0.0, "wins": 0, "pairs": 1,
                                      "claim_holds": False, "parent_load1": 1.0, "change_load1": 1.0,
                                      "parent_steal": None, "change_steal": None}


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


def _stat(user, steal):
    """/proc/stat text whose ``cpu`` line has ``user`` and ``steal`` jiffies, 10 idle and 5 guest."""
    return (f"cpu  {user} 0 0 10 0 0 0 {steal} 5 0\n"
            f"cpu0 {user} 0 0 10 0 0 0 {steal} 5 0\nintr 1 2 3\n")


def test_bench_steal_share_reads_the_cpu_line():
    bench = _bench_module()
    assert bench.cpu_jiffies(lambda: _stat(100, 20)) == (20, 130)  # guest is inside user: not added
    assert bench.steal_share((20, 130), (50, 230)) == 0.3
    assert bench.steal_share((20, 130), (20, 130)) is None  # no time elapsed
    assert bench.steal_share(None, (50, 230)) is None

    def unreadable():
        raise FileNotFoundError("/proc/stat")
    assert bench.cpu_jiffies(unreadable) is None
    assert bench.cpu_jiffies(lambda: "intr 1 2 3\n") is None


def test_bench_run_records_the_steal_share_beside_loadavg(tmp_path):
    """``_run`` reads the cpu line as the run starts and as it ends, through the reader it
    is given, and records the share of steal between them."""
    (tmp_path / "benchmark").mkdir()
    result = {"correct": True, "attempted": 1, "failed": 0, "metrics": {}}
    (tmp_path / "benchmark" / "run.py").write_text(
        f"print({json.dumps(json.dumps({'env': {}}))})\nprint({json.dumps(json.dumps(result))})\n")
    readings = iter([_stat(100, 20), _stat(160, 60)])
    run = _bench_module()._run(tmp_path, "w", 1, 1, 0, read_stat=lambda: next(readings))
    assert run["result"] == result and run["returncode"] == 0
    assert run["steal"] == 0.4 and len(run["loadavg"]) == 3  # 40 of 100 jiffies
    assert list(run)[:2] == ["loadavg", "steal"]


def test_bench_records_the_blas_library_numpy_reports(tmp_path):
    """``blas_library`` reads numpy's BLAS name, version and OpenBLAS configuration in the
    tree it is given, as ``numpy.show_config`` reports them here; a tree where the probe
    fails reads None."""
    want = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    got = _bench_module().blas_library(ROOT)
    assert got == {"name": want["name"], "version": want["version"],
                   "openblas_configuration": want.get("openblas configuration")}
    (tmp_path / "numpy.py").write_text("raise ImportError('no numpy in this tree')\n")
    assert _bench_module().blas_library(tmp_path) is None
