"""The benchmark's workloads: inputs built from a seed, one pass, and its checks.

A workload is built in two steps.  ``setup(seed)`` builds the inputs, which is
the work ``setup_s`` times.  ``run_pass(inputs)`` makes every library call of
one pass and checks every result; it is the work ``wall_s`` times.  It returns
a ``PassOutcome``: one ``(label, ok)`` pair per checked operation, the time
of each named step of the pass, and a fingerprint of the results that a
traced pass must reproduce exactly.

Library calls go through module attributes (``experiments.run_scaling``, not a
name bound at import), so the tracer sees them when it patches a module.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from fractalwave import cli, exponents, experiments, grid, sets

ROOT = Path(__file__).resolve().parent.parent
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

# A gate for an exact reformulation: the stored log2 ratios, Assouad values
# and family constants must come back within this absolute distance.
EXACT_TOL = 1e-12


@dataclass(frozen=True)
class PassOutcome:
    checks: tuple[tuple[str, bool], ...]
    fingerprint: object
    step_s: dict  # step name -> seconds


@dataclass
class StepClock:
    """Wall time of each named step of one pass, library calls and checks."""

    seconds: dict = field(default_factory=dict)

    @contextlib.contextmanager
    def step(self, name: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[name] = self.seconds.get(name, 0.0) + time.perf_counter() - t0


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= EXACT_TOL


# --- scaling studies (studies, dense_times) ------------------------------------


def shipped_configs() -> list[dict]:
    """The three standard study configs, read from the repository's scripts."""
    return [json.loads((ROOT / "scripts" / f"run_s{i}.json").read_text()) for i in (1, 2, 3)]


# dense_times: the Knapp / s2 study at fine time sets.  time_L = 2 makes
# #E_j = 2^(j-1), i.e. 8/16/32 evolved fields on n = 1024.
DENSE_TIMES_CONFIG = {
    "family": "knapp",
    "p": "5/2",
    "q": "5",
    "alpha": "1",
    "set_kind": "cantor",
    "j_min": 4,
    "j_max": 6,
    "n": 1024,
    "period": 8.0,
    "time_L": 2.0,
    "tolerance": 0.15,
    "label": "dense_times_knapp",
}


def study_result(run) -> dict:
    """What a study is checked on: the verdict and each level's (j, #E_j, log2 ratio)."""
    sizes = dict(run.time_sets)
    return {
        "verdict": run.verdict,
        "levels": [[j, sizes[j], y] for j, y in run.measured],
    }


class Studies:
    """Scaling studies.  They take no seed: ``RunConfig.seed`` is never read
    by ``run_scaling``, so every seed gives the same inputs."""

    def __init__(self, config_docs: list[dict], reference: dict | None):
        self.config_docs = config_docs
        self.reference = reference  # label -> study_result; None skips the comparison

    def setup(self, seed: int):
        return [experiments.RunConfig.from_json(doc) for doc in self.config_docs]

    def observe(self, configs) -> dict:
        return {c.label: study_result(experiments.run_scaling(c)) for c in configs}

    def run_pass(self, configs) -> PassOutcome:
        clock = StepClock()
        checks = []
        fingerprint = []
        for config in configs:
            label = config.label
            with clock.step(label):
                got = study_result(experiments.run_scaling(config))
                checks.append((f"{label}: verdict", got["verdict"] == "consistent"))
                if self.reference is not None:
                    want = self.reference[label]["levels"]
                    checks.append((f"{label}: level count", len(got["levels"]) == len(want)))
                    for (j, m, y), (wj, wm, wy) in zip(got["levels"], want):
                        checks.append((f"{label}: j={j}", j == wj and m == wm and _close(y, wy)))
            fingerprint.append((label, tuple(map(tuple, got["levels"]))))
        return PassOutcome(tuple(checks), tuple(fingerprint), clock.seconds)


# --- certify -----------------------------------------------------------------

REGION_SPEC = dict(d=2, mu=Fraction(1, 2), alpha=Fraction(1))


def _cli_ok(argv: list[str], rc: int, out: str) -> bool:
    if rc != 0 or "FAIL" in out:
        return False
    return argv[0] != "verify" or "certified" in out


@dataclass(frozen=True)
class CertifyInputs:
    commands: tuple[tuple[str, ...], ...]
    region_spec: object
    lattice: tuple
    maximal_input: object


class Certify:
    """Everything off the scaling pipeline: CLI suites, exact region sweep,
    set calculus and the fractal maximal function."""

    region_denominator = 48  # a 49 x 49 lattice of (1/p, 1/q) in [0, 1]^2
    # (alpha, j, L): 2^9 = 512 points of a dimension-1/2 set, 2^11 = 2048 of a full one
    calculus_sets = ((0.5, 19, 2.0), (1.0, 12, 2.0))
    maximal_n = 512
    maximal_band_j = 5
    maximal_set = (1.0, 7, 2.0)  # 64 Cantor points; 32 stay after thinning at 2^-5

    def __init__(self, reference: dict | None):
        self.reference = reference

    def cli_commands(self, seed: int) -> list[list[str]]:
        s = str(seed)
        return [
            ["operators", "--seed", s],
            ["verify", "marginal", "--alpha", "1/2"],
            ["verify", "locally-constant"],
            ["verify", "whitney", "--seed", s],
            ["verify", "necessity"],
            ["thresholds", "--alpha", "1/2", "--r", "4"],
            ["sets", "--alpha", "1/2", "--j", "12", "--L", "4"],
        ]

    def setup(self, seed: int) -> CertifyInputs:
        den = self.region_denominator
        lattice = tuple(
            exponents.PQPoint(Fraction(a, den), Fraction(b, den)) for a in range(den + 1) for b in range(den + 1)
        )
        return CertifyInputs(
            commands=tuple(tuple(c) for c in self.cli_commands(seed)),
            region_spec=exponents.RegionSpec(**REGION_SPEC),
            lattice=lattice,
            maximal_input=grid.random_field(grid.GridSpec(self.maximal_n, 8.0), seed=seed),
        )

    def observe_calculus(self, inputs: CertifyInputs, clock: StepClock | None = None) -> dict:
        """The seed-independent exact results, stored as the reference."""
        clock = clock or StepClock()
        labels = []
        row = self.region_denominator + 1
        for start in range(0, len(inputs.lattice), row):
            with clock.step(f"region row {start // row}"):
                labels += [exponents.region_membership(pt, inputs.region_spec)
                           for pt in inputs.lattice[start:start + row]]
        out = {
            "region_sha256": hashlib.sha256("\n".join(labels).encode()).hexdigest(),
            "region_counts": {k: labels.count(k) for k in sorted(set(labels))},
            "sets": [],
        }
        for alpha, j, L in self.calculus_sets:
            with clock.step(f"assouad alpha={alpha}"):
                ts = sets.build_cantor(alpha, j, L=L)
                assouad = sets.assouad_characteristic_sup(ts, 2.0**-j, alpha)
            with clock.step(f"interval family alpha={alpha}"):
                family = sets.build_interval_family(sets.cantor_spec(alpha, j, L=L))
            starts = family.starts
            out["sets"].append(
                {
                    "alpha": alpha,
                    "j": j,
                    "L": L,
                    "points": len(ts.points),
                    "assouad_sup": assouad,
                    "family_constant": family.certified_constant,
                    "family_min_gap": min(b - a for a, b in zip(starts, starts[1:])),
                }
            )
        return out

    def run_pass(self, inputs: CertifyInputs) -> PassOutcome:
        clock = StepClock()
        checks = []
        outputs = []
        for argv in inputs.commands:
            name = f"cli {' '.join(argv)}"
            with clock.step(name):
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
                    rc = cli.main(list(argv))
                out = buf.getvalue()
                checks.append((name, _cli_ok(list(argv), rc, out)))
            outputs.append(out)

        calc = self.observe_calculus(inputs, clock)
        if self.reference is not None:
            ref = self.reference
            checks.append(("region sweep labels", calc["region_sha256"] == ref["region_sha256"]))
            for got, want in zip(calc["sets"], ref["sets"], strict=True):
                tag = f"cantor alpha={got['alpha']} points={got['points']}"
                checks.append((f"{tag}: assouad sup", got["points"] == want["points"] and _close(got["assouad_sup"], want["assouad_sup"])))
                checks.append((f"{tag}: interval family", _close(got["family_constant"], want["family_constant"])))
        for s in calc["sets"]:
            checks.append((f"cantor points={s['points']}: tiles 1-separated", s["family_min_gap"] >= 1.0 - 1e-9))

        f = inputs.maximal_input
        alpha, j, L = self.maximal_set
        band = self.maximal_band_j
        with clock.step("maximal function"):
            E = sets.build_cantor(alpha, j, L=L)
            M = grid.maximal_function(f, E, j=band)
            m_abs = abs(M.values)
            budget = 1e-12 * max(1.0, float(m_abs.max()))
            pf = grid.littlewood_paley(f, band)
            times = sets.discretize(E, 2.0**-band).points
        for t in times:
            name = f"maximal dominates t={t:.6f}"
            with clock.step(name):
                avg = abs(grid.circular_average(pf, t).values)  # physical, like pf
                checks.append((name, float((avg - m_abs).max()) <= budget))

        fingerprint = (
            tuple(outputs),
            json.dumps(calc, sort_keys=True),
            hashlib.sha256(M.values.tobytes()).hexdigest(),
        )
        return PassOutcome(tuple(checks), fingerprint, clock.seconds)


def make_workloads(reference: dict | None) -> dict:
    ref = reference or {}
    return {
        "studies": Studies(shipped_configs(), ref.get("studies")),
        "dense_times": Studies([DENSE_TIMES_CONFIG], ref.get("dense_times")),
        "certify": Certify(ref.get("certify")),
    }
