#!/usr/bin/env python3
"""Record one BENCH_*.json: every benchmark workload, untraced and traced, and tier-1.

Usage: python3 scripts/bench.py OUT

Runs ``benchmark/run.py --workload W --seed 1 --seconds 40 --trace T`` for each
workload W and T in (0, 1), then the tier-1 test suite, all from the root of
this checkout, and writes OUT: the ``git describe --always --dirty`` of the
checkout, the benchmark's environment record, each run's result line tagged
with its workload and trace and with the 1, 5 and 15 minute load averages
(``os.getloadavg()``) taken as it started, and tier-1's wall time and summary
line.  About five minutes on a 2-core machine.  An existing OUT is refused
(exit 2) before anything runs; the exit code is 1 if any benchmark run fails.

A BENCH_*.json holds one unpaired run per workload and trace, so it records
where a tree stands, not a comparison: other tenants of the machine move a
single run by more than most changes do.  A speed claim rests on alternating
runs of the parent and the change, taken side by side.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("studies", "dense_times", "certify")
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"]


def _run(argv, **kwargs):
    return subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, **kwargs)


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    out = Path(argv[0])
    if out.exists() or not out.parent.is_dir():
        print(f"bench: {out} exists or has no parent directory; nothing was run", file=sys.stderr)
        return 2
    describe = _run(["git", "describe", "--always", "--dirty"]).stdout.strip()
    env = None
    runs = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, "benchmark/run.py", "--workload", workload, "--seed", "1",
                    "--seconds", "40", "--trace", str(trace)]
            load = os.getloadavg()
            proc = _run(argv)
            lines = proc.stdout.splitlines()
            ok = proc.returncode == 0 and len(lines) >= 2
            result = json.loads(lines[-1]) if ok else None
            env = env or (json.loads(lines[-2])["env"] if ok else None)
            missing = [line.split(": ", 1)[1] for line in lines if line.startswith("boundaries not found:")]
            runs.append({"workload": workload, "trace": trace, "loadavg": [round(x, 2) for x in load],
                         "returncode": proc.returncode, "boundaries_not_found": missing, "result": result})
            print(f"{workload} --trace {trace}: exit {proc.returncode}, "
                  f"failed {result['failed'] if result else '-'}", flush=True)
    start = time.perf_counter()
    tier1 = _run(TIER1, env=dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))))
    wall = time.perf_counter() - start
    summary = (tier1.stdout.strip().splitlines() or [""])[-1]
    print(f"tier-1: {summary} ({wall:.1f} s wall)")
    doc = {
        "git_describe": describe,
        "env": env,
        "runs": runs,
        "tier1": {"wall_s": round(wall, 2), "returncode": tier1.returncode, "summary": summary},
    }
    out.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {out}")
    failed = [r for r in runs if r["result"] is None or not r["result"]["correct"]]
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
