"""Self-test of the benchmark harness at tiny sizes (about ten seconds).

    python3 benchmark/selftest.py

Checks, on small versions of the studies and certify workloads:

* every metric named in BENCHMARK.json is emitted, with the unit named
  there, and no other; end-to-end values are positive;
* the tracer restores every patched module attribute, and traced passes give
  bit-identical results to untraced ones;
* per-layer self times plus ``trace.unattributed_s`` sum to ``trace.wall_s``;
* in a directory holding only BENCHMARK.json and the benchmark, ``run.py``
  exits non-zero without printing a result.

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run  # sets the BLAS thread cap before numpy is imported

sys.path.insert(0, str(run.SRC))

import workloads  # noqa: E402

TINY_STUDIES = [
    {"family": "radial_focusing", "p": "4", "q": "4", "set_kind": "single_time",
     "j_min": 2, "j_max": 4, "n": 256, "time_L": 4.0, "label": "tiny_s1"},
    {"family": "knapp", "p": "5/2", "q": "5", "set_kind": "cantor",
     "j_min": 2, "j_max": 4, "n": 256, "time_L": 2.0, "label": "tiny_s2"},
]


class TinyCertify(workloads.Certify):
    region_denominator = 4
    calculus_sets = ((0.5, 9, 2.0), (1.0, 6, 2.0))
    maximal_n = 128
    maximal_band_j = 3
    maximal_set = (1.0, 5, 2.0)

    def cli_commands(self, seed: int) -> list[list[str]]:
        s = str(seed)
        return [
            ["operators", "--n", "128", "--seed", s],
            ["verify", "marginal", "--alpha", "1/2", "--kmax", "4"],
            ["verify", "locally-constant", "--jmin", "3", "--jmax", "4"],
            ["verify", "whitney", "--numax", "3", "--seed", s],
            ["thresholds", "--alpha", "1/2"],
            ["sets", "--alpha", "1/2", "--j", "8", "--L", "4"],
        ]


failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'}  {what}")
    if not ok:
        failures.append(what)


def declared(kind: str) -> dict:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def check_workload(name: str, workload, setups: list[float]) -> None:
    inputs = workload.setup(7)
    before = run.module_bindings()

    e2e_run = run.Run(workload, inputs)
    e2e = run.end_to_end(e2e_run, 0.0, setups)
    expect(e2e.keys() == declared("end_to_end").keys(), f"{name}: end-to-end metric names")
    expect(all(v > 0 and math.isfinite(v) for v in e2e.values()), f"{name}: end-to-end values positive")
    expect(not e2e_run.failures, f"{name}: untraced checks pass {e2e_run.failures}")

    layer_run = run.Run(workload, inputs)
    layers = run.per_layer(layer_run, 0.0, run.TRACE_DIR / f"selftest-{name}.json")
    expect(layers.keys() == declared("per_layer").keys(), f"{name}: per-layer metric names")
    expect(not layer_run.failures, f"{name}: traced checks pass {layer_run.failures}")
    after = run.module_bindings()
    expect(before.keys() == after.keys() and all(after[k] is v for k, v in before.items()),
           f"{name}: module attributes identical after the traced run")

    self_total = sum(layers[m] for m in run.time_metrics())
    residual = self_total + layers["trace.unattributed_s"] - layers["trace.wall_s"]
    expect(abs(residual) < 1e-9, f"{name}: self times + unattributed = traced wall ({residual:.2e})")
    expect(layers["trace.unattributed_s"] >= 0, f"{name}: unattributed time non-negative")


def check_units() -> None:
    expect(run.END_TO_END_UNITS == declared("end_to_end"), "end-to-end units match BENCHMARK.json")
    expect(run.per_layer_units() == declared("per_layer"), "per-layer units match BENCHMARK.json")


def check_bare_directory() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    run.TRACE_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.TRACE_DIR) as tmp:
        bare = Path(tmp)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(run.ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [*spec["command"], "--workload", "certify", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
           f"bare directory: exit {proc.returncode}, no result printed")


def main() -> int:
    check_units()
    setups = run.time_setups("certify", 7)
    check_workload("tiny_studies", workloads.Studies(TINY_STUDIES, None), setups)
    check_workload("tiny_certify", TinyCertify(None), setups)
    check_bare_directory()
    print(f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
