#!/usr/bin/env python3
"""Compare this checkout with a parent revision over alternating benchmark runs.

Usage: python3 scripts/pairs.py PARENT_REV WORKLOAD N

Extracts PARENT_REV with ``git archive`` into a temporary directory, then runs
N pairs of ``benchmark/run.py --workload WORKLOAD --seed K --seconds S
--trace 0`` (S is ``run_seconds`` of ``BENCHMARK.json``, K the pair's number
from 1): one run of the parent's tree and one of this checkout's working tree,
the side that goes first switching from pair to pair.  For each end-to-end
metric of ``BENCHMARK.json`` it prints each side's median and interquartile
range, the change of the median, and on how many pairs the checkout was
better.  The temporary directory is removed at the end.  Bad arguments exit 2 before
anything runs; the exit code is 1 if any run fails or reports a failed
operation.
"""

import io
import json
import shutil
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _usage(message: str) -> int:
    print(f"pairs: {message}; nothing was run", file=sys.stderr)
    print(__doc__.strip().splitlines()[2], file=sys.stderr)
    return 2


def _run(tree: Path, workload: str, seed: int, seconds) -> dict | None:
    argv = [sys.executable, "benchmark/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    return json.loads(lines[-1]) if proc.returncode == 0 and lines else None


def _spread(values: list[float]) -> tuple[float, float]:
    """(median, interquartile range)."""
    if len(values) < 2:
        return values[0], 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q2, q3 - q1


def main(argv) -> int:
    if len(argv) != 3:
        return _usage("expected PARENT_REV WORKLOAD N")
    rev, workload, n = argv
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    if workload not in workloads:
        return _usage(f"unknown workload {workload!r}, expected one of {', '.join(workloads)}")
    if not n.isdigit() or int(n) < 1:
        return _usage(f"N must be a positive integer, got {n!r}")
    commit = subprocess.run(["git", "rev-parse", "--verify", "--quiet", f"{rev}^{{commit}}"],
                            cwd=ROOT, capture_output=True, text=True)
    if commit.returncode != 0:
        return _usage(f"{rev!r} is not a commit of this repository")
    metrics, seconds = bench["end_to_end"], bench["run_seconds"]

    # a terminated script still stops its current run and removes the parent tree
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    tmp = Path(tempfile.mkdtemp(prefix="pairs-"))
    try:
        archive = subprocess.run(["git", "archive", "--format=tar", commit.stdout.strip()],
                                 cwd=ROOT, capture_output=True, check=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp, filter="data")
        trees = {"parent": tmp, "change": ROOT}
        results = {"parent": [], "change": []}
        failed = False
        for k in range(int(n)):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            for side in order:
                result = _run(trees[side], workload, k + 1, seconds)
                results[side].append(result)
                failed |= result is None or result["failed"] > 0
                print(f"pair {k + 1} {side}: " + (
                    "run failed" if result is None else
                    ", ".join(f"{m['name']} {result['metrics'][m['name']]['value']:.4g}" for m in metrics)
                    + f", failed {result['failed']}"), flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    pairs = [(p, c) for p, c in zip(results["parent"], results["change"]) if p and c]
    print(f"{workload}: {len(pairs)} of {n} pairs against {rev} ({commit.stdout.strip()[:12]})")
    for m in metrics if pairs else ():
        name, sign = m["name"], 1.0 if m["better"] == "lower" else -1.0
        old = [p["metrics"][name]["value"] for p, _ in pairs]
        new = [c["metrics"][name]["value"] for _, c in pairs]
        (om, oi), (nm, ni) = _spread(old), _spread(new)
        wins = sum(sign * (b - a) < 0 for a, b in zip(old, new))
        change = f"{100.0 * (nm - om) / om:+.1f}%" if om else "n/a"
        print(f"  {name}: parent {om:.4g} (IQR {oi:.3g}), change {nm:.4g} (IQR {ni:.3g}), "
              f"median {change}, better on {wins}/{len(pairs)} pairs")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
