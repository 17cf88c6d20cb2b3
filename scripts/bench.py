#!/usr/bin/env python3
"""Record one BENCH_*.json: this checkout against a parent revision, and tier-1.

Usage: python3 scripts/bench.py OUT PARENT_REV N

Extracts PARENT_REV with ``git archive`` into a temporary directory.  For each
workload of ``BENCHMARK.json`` it runs N pairs of ``benchmark/run.py --workload
W --seed K --seconds S --trace 0`` (S is ``run_seconds`` of ``BENCHMARK.json``,
K the pair's number from 1): one run of the parent's tree and one of this
checkout's working tree, the side that goes first switching from pair to pair.
Then one ``--seed 1 --trace 1`` run of each side gives both layer splits, and
the tier-1 suite runs on this checkout.  OUT records each run's result line
with its workload, side, pair, seed, trace, the 1, 5 and 15 minute load
averages taken as it started and its CPU steal share (the ``steal`` jiffies of
``/proc/stat``'s ``cpu`` line over all its elapsed jiffies, from the run's start
to its end: time the hypervisor gave this machine's vCPUs to someone else); for
each workload and end-to-end metric each side's median and interquartile range
over the pairs both sides ran without a failure, on how many of them the
checkout was better, whether that claims a gain (better on at least 0.9 of the
pairs, and in the median by more than the parent's IQR), and each side's median
1-minute load average and steal share; each tree's line
counts of ``src/fractalwave/*.py``, ``scripts/*.py`` and ``tests/*.py`` as
``wc -l`` gives them (``src_lines``); the BLAS library numpy reports in each
tree (``blas``: name, version and OpenBLAS configuration, as OpenBLAS's own
size rule decides which products start more than one thread); and tier-1's
wall time and summary line.
About (2N + 2) x 3 runs of S seconds.

Bad arguments exit 2 before anything runs.  The temporary directory is
removed at the end, also on SIGTERM.  The exit code is 1 if any run fails,
reports a failed operation or, traced, a boundary it did not find.
"""

import io
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COUNTED = ("src/fractalwave/*.py", "scripts/*.py", "tests/*.py")
BLAS_PROBE = ("import json, numpy; b = numpy.show_config(mode='dicts')['Build Dependencies']['blas']; "
              "print(json.dumps({'name': b['name'], 'version': b['version'], "
              "'openblas_configuration': b.get('openblas configuration')}))")
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"]


def _usage(message: str) -> int:
    print(f"bench: {message}; nothing was run", file=sys.stderr)
    print(__doc__.strip().splitlines()[2], file=sys.stderr)
    return 2


def _read_stat() -> str:
    return Path("/proc/stat").read_text()


def cpu_jiffies(read_stat=_read_stat) -> tuple[int, int] | None:
    """(steal, elapsed) jiffies of the ``cpu`` line of the /proc/stat text ``read_stat()``
    returns: its steal field, and the sum of user through steal (guest time is counted
    inside user and nice); None where it cannot be read."""
    try:
        line = next(line for line in read_stat().splitlines() if line.startswith("cpu "))
    except (OSError, StopIteration):
        return None
    fields = [int(x) for x in line.split()[1:9]]
    return fields[-1], sum(fields)


def steal_share(before, after) -> float | None:
    """The steal jiffies between two ``cpu_jiffies`` readings over the elapsed ones."""
    if before is None or after is None or after[1] <= before[1]:
        return None
    return round((after[0] - before[0]) / (after[1] - before[1]), 4)


def _run(tree: Path, workload: str, seed: int, seconds, trace: int, read_stat=_read_stat) -> dict:
    argv = [sys.executable, "benchmark/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    load, before = os.getloadavg(), cpu_jiffies(read_stat)
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    steal = steal_share(before, cpu_jiffies(read_stat))
    lines = proc.stdout.splitlines()
    ok = proc.returncode == 0 and len(lines) >= 2
    return {"loadavg": [round(x, 2) for x in load], "steal": steal, "returncode": proc.returncode,
            "boundaries_not_found": [line.split(": ", 1)[1] for line in lines
                                     if line.startswith("boundaries not found:")],
            "env": json.loads(lines[-2])["env"] if ok else None,
            "result": json.loads(lines[-1]) if ok else None}


def _failed(run: dict) -> bool:
    return run["result"] is None or run["result"]["failed"] > 0 or bool(run["boundaries_not_found"])


def _spread(values: list[float]) -> tuple[float, float]:
    """(median, interquartile range)."""
    if len(values) < 2:
        return values[0], 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q2, q3 - q1


def src_lines(tree: Path) -> dict[str, int]:
    """The lines of each ``COUNTED`` pattern's files under ``tree``, counted as ``wc -l`` does."""
    return {pattern: sum(path.read_bytes().count(b"\n") for path in tree.glob(pattern)) for pattern in COUNTED}


def blas_library(tree: Path) -> dict | None:
    """The name, version and OpenBLAS configuration of the BLAS library that numpy reports
    in ``tree``, under this interpreter; None where the probe fails."""
    proc = subprocess.run([sys.executable, "-c", BLAS_PROBE], cwd=tree, capture_output=True, text=True)
    return json.loads(proc.stdout) if proc.returncode == 0 else None


def _side_medians(side: str, runs) -> dict:
    steals = [run["steal"] for run in runs if run["steal"] is not None]
    return {f"{side}_load1": statistics.median(run["loadavg"][0] for run in runs),
            f"{side}_steal": round(statistics.median(steals), 4) if steals else None}


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    """Per workload and end-to-end metric, over the untraced pairs with no failed side:
    each side's median and IQR, the change of the median, the checkout's wins, whether
    a gain may be claimed (wins on at least 0.9 of the pairs and a median better by
    more than the parent's IQR), and each side's median 1-minute load average as its
    runs started and median steal share (None if no run read one)."""
    by_pair = {}
    for r in runs:
        if r["trace"] == 0:
            by_pair.setdefault(r["workload"], {}).setdefault(r["pair"], {})[r["side"]] = r
    summary = {}
    for workload, sides in by_pair.items():
        pairs = [(s["parent"], s["change"]) for s in sides.values()
                 if len(s) == 2 and not any(map(_failed, s.values()))]
        summary[workload] = {}
        for m in metrics if pairs else ():
            name, sign = m["name"], 1.0 if m["better"] == "lower" else -1.0
            old = [p["result"]["metrics"][name]["value"] for p, _ in pairs]
            new = [c["result"]["metrics"][name]["value"] for _, c in pairs]
            (om, oi), (nm, ni) = _spread(old), _spread(new)
            wins = sum(sign * (b - a) < 0 for a, b in zip(old, new))
            summary[workload][name] = {
                "parent_median": om, "parent_iqr": oi, "change_median": nm, "change_iqr": ni,
                "change_pct": 100.0 * (nm - om) / om if om else None,
                "wins": wins, "pairs": len(pairs),
                "claim_holds": wins >= 0.9 * len(pairs) and sign * (om - nm) > oi,
                **_side_medians("parent", [p for p, _ in pairs]), **_side_medians("change", [c for _, c in pairs])}
    return summary


def main(argv) -> int:
    if len(argv) != 3:
        return _usage("expected OUT PARENT_REV N")
    out, rev, n = Path(argv[0]), argv[1], argv[2]
    if not n.isdigit() or int(n) < 1:
        return _usage(f"N must be a positive integer, got {n!r}")
    if out.exists() or not out.parent.is_dir():
        return _usage(f"{out} exists or has no parent directory")
    commit = subprocess.run(["git", "rev-parse", "--verify", "--quiet", f"{rev}^{{commit}}"],
                            cwd=ROOT, capture_output=True, text=True)
    if commit.returncode != 0:
        return _usage(f"{rev!r} is not a commit of this repository")
    commit = commit.stdout.strip()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics, seconds = bench["end_to_end"], bench["run_seconds"]

    # a terminated script still stops its current run and removes the parent tree
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    tmp = Path(tempfile.mkdtemp(prefix="bench-"))
    runs = []
    try:
        archive = subprocess.run(["git", "archive", "--format=tar", commit],
                                 cwd=ROOT, capture_output=True, check=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp, filter="data")
        trees = {"parent": tmp, "change": ROOT}
        lines = {side: src_lines(tree) for side, tree in trees.items()}
        print(f"lines: parent {lines['parent']}, change {lines['change']}", flush=True)
        blas = {side: blas_library(tree) for side, tree in trees.items()}
        print(f"blas: parent {blas['parent']}, change {blas['change']}", flush=True)
        schedule = [(k + 1, side, 0) for k in range(int(n))
                    for side in (("parent", "change") if k % 2 == 0 else ("change", "parent"))]
        schedule += [(None, "parent", 1), (None, "change", 1)]
        for workload in (w["name"] for w in bench["workloads"]):
            for pair, side, trace in schedule:
                seed = pair or 1
                run = {"workload": workload, "side": side, "pair": pair, "seed": seed, "trace": trace,
                       **_run(trees[side], workload, seed, seconds, trace)}
                runs.append(run)
                result = run["result"]
                shown = [f"run failed (exit {run['returncode']})"] if result is None else (
                    [] if trace else [f"{m['name']} {result['metrics'][m['name']]['value']:.4g}" for m in metrics]
                ) + [f"failed {result['failed']}"] + [f"boundaries not found: {b}" for b in run["boundaries_not_found"]]
                print(f"{workload} {f'pair {pair}' if pair else 'traced'} {side}: {', '.join(shown)}", flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    start = time.perf_counter()
    tier1 = subprocess.run(TIER1, cwd=ROOT, capture_output=True, text=True, env=dict(
        os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))))
    wall = time.perf_counter() - start
    line = (tier1.stdout.strip().splitlines() or [""])[-1]
    print(f"tier-1: {line} ({wall:.1f} s wall)")

    summary = summarize(runs, metrics)
    for workload, by_metric in summary.items():
        for name, s in by_metric.items():
            change = f"{s['change_pct']:+.1f}%" if s["change_pct"] is not None else "n/a"
            print(f"{workload} {name}: parent {s['parent_median']:.4g} (IQR {s['parent_iqr']:.3g}), "
                  f"change {s['change_median']:.4g} (IQR {s['change_iqr']:.3g}), median {change}, "
                  f"better on {s['wins']}/{s['pairs']} pairs, claim {'holds' if s['claim_holds'] else 'fails'}, "
                  f"load {s['parent_load1']:.2f}/{s['change_load1']:.2f}, "
                  f"steal {s['parent_steal']}/{s['change_steal']}")
    env = next((r["env"] for r in runs if r["side"] == "change" and r["env"]), None)
    doc = {
        "git_describe": subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT,
                                       capture_output=True, text=True).stdout.strip(),
        "parent": {"rev": rev, "commit": commit},
        "run_seconds": seconds,
        "env": env,
        "src_lines": lines,
        "blas": blas,
        "runs": [{k: v for k, v in r.items() if k != "env"} for r in runs],
        "summary": summary,
        "tier1": {"wall_s": round(wall, 2), "returncode": tier1.returncode, "summary": line},
    }
    out.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {out}")
    return 1 if any(map(_failed, runs)) else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
