"""Run one benchmark workload of ``fractalwave`` and print its metrics.

    python3 benchmark/run.py --workload studies --seed 1 --seconds 40 --trace 0

Run it from the root of a checkout; it imports the package from ``src``.
Workloads (see ``workloads.py`` and ``README.md``): ``studies``,
``dense_times``, ``certify``.  Each runs in this one process, as a closed
loop with one caller: passes run back to back until the next one, if as fast
as the fastest yet, would end after ``--seconds``; at least one runs.  Every
pass checks every result.

``--trace 0`` reports the end-to-end metrics: the wall time of a pass with
each of its steps taken at its fastest in the run, the median of several
timed set-ups in fresh interpreters, and this process's peak RSS.
``--trace 1`` spends half the time on untraced passes and half on traced
ones, and reports the per-layer metrics of the fastest traced pass.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before it
records the environment.  The exit code is 0 when a result was printed, and
2, without a result, when the package or its inputs cannot be loaded.
"""

from __future__ import annotations

import os
import sys

# Cap BLAS threads at the CPUs this process may use; must precede numpy.
CPUS = len(os.sched_getaffinity(0))
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(CPUS)

import argparse  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402
from tracer import Tracer, count_metrics, package_modules, time_metrics  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACE_DIR = Path(".bench_trace")

WORKLOADS = ("studies", "dense_times", "certify")
SETUP_SAMPLES = 5
PROBE_TIMEOUT_S = 60
FIELD_2048_BYTES = 2048 * 2048 * 16  # one complex128 field of the studies grid

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def per_layer_units() -> dict:
    units = {name: "s" for name in time_metrics()}
    units.update({name: "bytes" if name.endswith("_bytes_computed") else "count" for name in count_metrics()})
    units.update({"trace.wall_s": "s", "trace.unattributed_s": "s", "trace.overhead_s": "s"})
    return units


# --- environment ----------------------------------------------------------------


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git directly; None outside a git tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _version(dist: str) -> str | None:
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return None


def _l3_bytes() -> int | None:
    try:
        text = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    except OSError:
        return None
    scale = {"K": 1024, "M": 1024**2}.get(text[-1:], 1)
    return int(text.rstrip("KM")) * scale


def environment() -> dict:
    return {
        "commit": _git_commit(),
        "nproc": os.cpu_count(),
        "cpus_usable": CPUS,
        "blas_threads": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": _version("scipy"),
        "field_2048_complex128_bytes": FIELD_2048_BYTES,
        "l3_bytes": _l3_bytes(),
    }


# --- measurement ----------------------------------------------------------------


def time_setups(workload: str, seed: int) -> list[float]:
    """Interpreter start to ready, in fresh processes: imports plus input building."""
    samples = []
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed), "--setup-probe"]
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            rc = proc.wait(timeout=PROBE_TIMEOUT_S)
        if rc != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed (exit {rc}, first line {line!r})")
        samples.append(elapsed)
    return samples


def module_bindings() -> dict:
    """Every (module, attribute) -> object of the loaded fractalwave modules."""
    return {(m.__name__, attr): value for m in package_modules() for attr, value in vars(m).items()}


class Run:
    """Passes of one workload, with their checks."""

    def __init__(self, workload, inputs):
        self.workload = workload
        self.inputs = inputs
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, label: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(label)

    def one_pass(self):
        t0 = time.perf_counter()
        outcome = self.workload.run_pass(self.inputs)
        wall = time.perf_counter() - t0
        for label, ok in outcome.checks:
            self.check(label, ok)
        return wall, outcome

    def passes(self, budget_s: float, traced: bool = False) -> list[tuple]:
        """Back-to-back passes until the next, if as fast as the fastest yet,
        would end after budget_s; at least one."""
        done = []
        start = time.perf_counter()
        while True:
            if traced:
                before = module_bindings()
                with Tracer() as tracer:
                    wall, outcome = self.one_pass()
                after = module_bindings()
                self.check("trace: patched attributes restored",
                           before.keys() == after.keys() and all(after[k] is v for k, v in before.items()))
                done.append((wall, outcome, tracer))
            else:
                wall, outcome = self.one_pass()
                done.append((wall, outcome, None))
            if time.perf_counter() - start + min(w for w, _, _ in done) > budget_s:
                return done


def end_to_end(run: Run, seconds: float, setups: list[float]) -> dict:
    done = run.passes(seconds)
    walls = [wall for wall, _, _ in done]
    steps = [outcome.step_s for _, outcome, _ in done]
    # Other tenants of the machine slow it down in episodes of a second to
    # minutes, and only ever add time: each step's fastest pass is the
    # steadiest figure for its own cost.
    wall = sum(min(s[name] for s in steps) for name in steps[0])
    print(f"passes: {len(walls)}  wall_s per pass: {', '.join(f'{w:.4f}' for w in walls)}")
    print(f"setup_s samples: {', '.join(f'{s:.4f}' for s in setups)}")
    return {
        "wall_s": wall,
        "setup_s": statistics.median(setups),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }


def per_layer(run: Run, seconds: float, spans_path: Path) -> dict:
    plain = run.passes(seconds / 2)
    traced = run.passes(seconds / 2, traced=True)
    untraced_wall = min(wall for wall, _, _ in plain)
    reference = plain[0][1].fingerprint
    for _, outcome, _ in traced:
        run.check("trace: traced results identical to untraced", outcome.fingerprint == reference)
    for _, _, tracer in traced[1:]:
        run.check("trace: counts repeat across traced passes", tracer.counts == traced[0][2].counts)

    wall, _, tracer = min(traced, key=lambda p: p[0])
    print(f"untraced passes: {len(plain)}  traced passes: {len(traced)}  spans in reported pass: {len(tracer.spans)}")
    if tracer.missing:
        print(f"boundaries not found: {', '.join(tracer.missing)}")
    metrics = dict(tracer.self_s)
    metrics.update(tracer.counts)
    metrics["trace.wall_s"] = wall
    metrics["trace.unattributed_s"] = wall - sum(tracer.self_s.values())
    metrics["trace.overhead_s"] = wall - untraced_wall

    spans_path.parent.mkdir(exist_ok=True)
    t0 = tracer.spans[0][1] if tracer.spans else 0.0
    spans_path.write_text(json.dumps(
        {"fields": ["name", "start_s", "end_s", "parent"],
         "spans": [[n, round(s - t0, 9), round(e - t0, 9), p] for n, s, e, p in tracer.spans]}
    ))
    return metrics


# --- entry point ----------------------------------------------------------------


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fractalwave" / "__init__.py").is_file():
        print(f"benchmark: no fractalwave package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        import workloads
    except ImportError as exc:
        print(f"benchmark: cannot import the package: {exc}", file=sys.stderr)
        return 2

    try:
        workload = workloads.make_workloads(workloads.load_reference())[args.workload]
    except (OSError, ValueError) as exc:
        print(f"benchmark: cannot load the workload inputs: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        workload.setup(args.seed)
        print("ready", flush=True)
        return 0

    setups = time_setups(args.workload, args.seed) if not args.trace else []
    run = Run(workload, workload.setup(args.seed))
    if args.trace:
        metrics = per_layer(run, args.seconds, TRACE_DIR / f"{args.workload}-seed{args.seed}.json")
        units = per_layer_units()
    else:
        metrics = end_to_end(run, args.seconds, setups)
        units = END_TO_END_UNITS

    for label in run.failures:
        print(f"FAILED: {label}")
    for name, unit in units.items():
        print(f"{name}: {metrics[name]:.6g} {unit}")
    print(json.dumps({"env": environment()}))
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
