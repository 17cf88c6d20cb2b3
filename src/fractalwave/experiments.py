"""Config-driven scaling studies and verification suites.

A scaling run measures, for each dyadic level j,

    R(j) = mixed_norm([lp_norm(half_wave(littlewood_paley(f, j), t), q) for t in E_j], q)
           / lp_norm(f, p)

for an extremizer family f and a per-level time set E_j, then fits
log2 R(j) against j and compares the slope to the exact predicted exponent
s_i(p, q) of the matching regime.  Every level runs its numerator on the
smallest grid the alias guard admits the level on (``level_grid``; levels
below ``_OWN_GRID_FROM`` share the grid of that one), and its denominator on
the grid of j_max (``RunConfig.grid``), where the discretization error of R(j)
sits.  The three stock runs:

* radial focusing with the single time E_j = {1 + L 2^{-j}}   -> s1,
* Knapp plate with a Cantor time set (#E_j ~ 2^{j alpha})     -> s2,
* annulus with a Cantor time set                              -> s3.

The verify_* suites certify the non-run properties: marginal-sum divergence,
multiplier coefficient decay at u = 2^j dt in {0, 1/2, 1} (the symbol depends
on u alone, so no level is swept), Whitney coverage/orthogonality on the fixed
base arc, and the bilinear cap necessity magnitudes over a fixed delta triple.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import extremizers
from .caps import BOX_C, necessary_q_bounds, pair_product_statistic
from .cutoffs import BETA1_SUPPORT
from .exponents import PQPoint, _frac, s_exponents
from .grid import (
    Field,
    GridSpec,
    half_wave,
    littlewood_paley,
    lp_norm,
    mixed_norm,
    multiplier_coeff_decay,
    random_field,
    sector_project,
)
from .sets import TimeSet, build_cantor, cantor_spec_from_stages, check_memory, marginal_sum
from .whitney import check_coverage, separation_band, whitney

# family -> the exponent it measures; each family is a builder in ``extremizers``
_RUN_FAMILIES = {
    "radial_focusing": "s1",
    "knapp": "s2",
    "annulus": "s3",
}


# Peak memory of one level, in n x n complex128 fields (16 n^2 bytes each) on
# the grid of j_max.  A level holds a few fields whatever #E_j is: a frequency
# field is stored on its support and a norm reduces its inverse transform block
# by block, so the top level of a shipped study peaks at 0.64 fields of 64 MiB in
# tracemalloc at n = 2048, band points cached and two runs' buffers per pass (s1
# and s3; 0.62 with one CPU, 0.91 cold; s2 0.29).  The shipped studies peak at
# 124 MB RSS, interpreter included (``benchmark/run.py``).  The preflight keeps 5.
_FIELDS_PER_LEVEL = 5

# The lowest level whose numerator runs on its own grid.  Near its focus a
# radial field's q-th power aliases on the level's grid n = 2^(j+4): a q = 16
# annulus (focus t = 0) evolved to t = 1 reads 2.8e-4 off in log2 at j = 2
# against n = 2^(j+6), 2.0e-8 at j = 3 and 2.9e-13 at j = 4.  Lower levels take
# the grid of this one, or of j_max when that is smaller.
_OWN_GRID_FROM = 4

TOLERANCE = 0.15  # largest |fitted - predicted| slope a run calls consistent


@dataclass(frozen=True)
class RunConfig:
    family: str
    p: Fraction
    q: Fraction
    alpha: Fraction = Fraction(1)
    set_kind: str = "cantor"  # "cantor" | "single_time"
    j_min: int = 4
    j_max: int = 7
    time_L: float = 16.0
    label: str = ""

    def __post_init__(self):
        if self.family not in _RUN_FAMILIES:
            raise ValueError(f"family must be one of {sorted(_RUN_FAMILIES)}, got {self.family!r}")
        if self.set_kind not in ("cantor", "single_time"):
            raise ValueError(f"set_kind must be 'cantor' or 'single_time', got {self.set_kind!r}")
        for name in ("p", "q", "alpha"):
            object.__setattr__(self, name, _frac(getattr(self, name)))
        if self.set_kind == "cantor" and not 0 < self.alpha <= 1:
            raise ValueError(f"cantor time sets need alpha in (0, 1], got {self.alpha}")
        if self.set_kind == "single_time" and not 0 <= self.alpha <= 1:
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha}")
        if self.p < 1 or self.q < 1:
            raise ValueError(f"p and q must be >= 1, got p={self.p}, q={self.q}")
        for name in ("j_min", "j_max"):
            if type(getattr(self, name)) is not int:
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if not math.isfinite(self.time_L):
            raise ValueError(f"time_L must be finite, got {self.time_L}")
        if self.label in (".", "..") or "/" in self.label or os.sep in self.label:
            raise ValueError(f"label must be a file name, with no path separator and not . or .., got {self.label!r}")
        if self.j_max - self.j_min + 1 < 3:
            raise ValueError("need at least three levels to fit a slope")
        self.grid  # derived here, so a grid beyond physical memory fails on load
        if self.set_kind == "single_time" and not 0.0 < self.time_L * 2.0**-self.j_min <= 1.0:
            raise ValueError("single-time offset L 2^{-j_min} must land in (1, 2]")
        if self.set_kind == "cantor" and self.time_L < 1.0:
            raise ValueError(f"cantor time sets need time_L >= 1, got {self.time_L}")

    @property
    def grid(self) -> GridSpec:
        """The grid of the top level, ``level_grid(j_max)``: every denominator is
        taken on it, and it is the largest grid the run uses."""
        return level_grid(self.j_max)

    @property
    def stem(self) -> str:
        """The file stem ``persist`` writes this run under."""
        return self.label or f"{self.family}_{self.p}_{self.q}".replace("/", "over")

    def to_json(self) -> dict:
        return {k: str(v) if isinstance(v, Fraction) else v for k, v in asdict(self).items()}

    @classmethod
    def from_json(cls, data: dict) -> "RunConfig":
        if not isinstance(data, dict):
            raise TypeError(f"a config is a JSON object, got {type(data).__name__}")
        # Older documents carry a "seed" that no run ever read, which is dropped,
        # and the now fixed grid and tolerance, which must equal what the run uses.
        known = {f: v for f, v in data.items() if f not in ("seed", "n", "period", "tolerance")}
        extra = set(known) - set(cls.__dataclass_fields__)
        if extra:
            raise ValueError(f"unknown RunConfig fields: {sorted(extra)}")
        config = cls(**known)
        for key, value in (("n", config.grid.n), ("period", config.grid.period), ("tolerance", TOLERANCE)):
            if key in data and data[key] != value:
                raise ValueError(f"{key!r} is {data[key]!r}, but this run uses {value!r}; drop the key")
        return config


def level_grid(j: int) -> GridSpec:
    """The smallest grid level j runs on: n the least power of two >= 64 whose
    max_band_j(BETA1_SUPPORT[1]), the builders' alias guard, reaches j, at the
    default period; n = 2^(j+4) for j >= 2.  A level on each larger candidate
    must fit in physical memory, so a j out of reach fails after a few doublings."""
    n = 64
    while GridSpec(n).max_band_j(BETA1_SUPPORT[1]) < j:
        n *= 2
        check_memory(_FIELDS_PER_LEVEL * 16 * n**2, f"j={j} needs n > {n // 2}, and a level on n={n}")
    return GridSpec(n)


def fit_exponent(samples) -> tuple[float, float, float]:
    """Least-squares line through (j, y); returns (slope, intercept, RMS residual)."""
    pts = [(float(j), float(y)) for j, y in samples]
    if len(pts) < 3:
        raise ValueError(f"need >= 3 samples to fit, got {len(pts)}")
    xs = np.array([p[0] for p in pts])
    ys = np.array([p[1] for p in pts])
    slope, intercept = np.polyfit(xs, ys, 1)
    resid = float(np.sqrt(np.mean((ys - (slope * xs + intercept)) ** 2)))
    return float(slope), float(intercept), resid


def predicted_exponent(config: RunConfig) -> Fraction:
    point = PQPoint(1 / config.p, 1 / config.q)
    s = s_exponents(point, d=2, alpha=config.alpha)
    return getattr(s, _RUN_FAMILIES[config.family])


def _time_set(config: RunConfig, j: int) -> TimeSet:
    if config.set_kind == "single_time":
        return TimeSet.from_points([1.0 + config.time_L * 2.0**-j])
    return build_cantor(config.alpha, j, L=config.time_L)  # already 2^-j-separated


@dataclass(frozen=True)
class ScalingRun:
    """What a study measured: its config and one (j, #E_j, log2 R(j)) per level.
    The fit, the predicted exponent and the verdict are derived from them here,
    and stored nowhere else."""

    config: RunConfig
    levels: tuple[tuple[int, int, float], ...]  # (j, #E_j, log2 R(j))
    fitted_slope: float = field(init=False)
    intercept: float = field(init=False)
    residual: float = field(init=False)
    predicted: Fraction = field(init=False)
    verdict: str = field(init=False)

    def __post_init__(self):
        slope, intercept, resid = fit_exponent(self.measured)
        predicted = predicted_exponent(self.config)
        if not (resid <= 0.25 and slope <= float(predicted) + TOLERANCE):  # a NaN fit too
            verdict = "inconclusive"
        elif slope < float(predicted) - TOLERANCE:
            verdict = "lower_bound_violated"
        else:
            verdict = "consistent"
        fit = dict(fitted_slope=slope, intercept=intercept, residual=resid, predicted=predicted, verdict=verdict)
        for name, value in fit.items():
            object.__setattr__(self, name, value)

    @property
    def time_sets(self) -> tuple[tuple[int, int], ...]:
        return tuple((j, size) for j, size, _ in self.levels)

    @property
    def measured(self) -> tuple[tuple[int, float], ...]:
        return tuple((j, y) for j, _, y in self.levels)

    @property
    def monotone(self) -> bool:
        """Whether log2 R(j) never falls from one level to the next."""
        return all(b >= a for (_, a), (_, b) in zip(self.measured, self.measured[1:]))


def measure_level(config: RunConfig, j: int) -> tuple[int, int, float]:
    """(j, #E_j, log2 R(j)) of one level: the denominator on ``config.grid``, taken
    first so that its field is gone before the numerator's are made, and the
    numerator on ``level_grid(j)`` (see ``_OWN_GRID_FROM``), where it agrees
    with its value on ``config.grid`` to rounding.  Each evolved field is reduced
    to its norm before the next is made, so one is alive at a time."""
    # through the module attribute, so that a patched builder is the one called
    build = getattr(extremizers, config.family)
    f = build(config.grid, j)
    den = lp_norm(f, config.p)
    grid = level_grid(min(max(j, _OWN_GRID_FROM), config.j_max))
    if grid != config.grid:
        f = build(grid, j)
    pf = littlewood_paley(f, j)
    del f  # it may be the denominator's field; the numerator needs only pf
    E = _time_set(config, j)
    num = mixed_norm([lp_norm(half_wave(pf, t), config.q) for t in E.points], config.q)
    return j, len(E.points), math.log2(num / den)


def run_scaling(config: RunConfig) -> ScalingRun:
    levels = range(config.j_min, config.j_max + 1)
    return ScalingRun(config, tuple(measure_level(config, j) for j in levels))


# --- verification suites ------------------------------------------------------


@dataclass(frozen=True)
class MarginalReport:
    alpha: Fraction
    entries: tuple[tuple[int, float, float], ...]  # (k, ratio to k 2^k, sum / 2^k)
    passed: bool


def verify_marginal_divergence(alpha, kmax: int) -> MarginalReport:
    """Certify sum_{t in E} |t-1|^{-alpha} ~ k 2^k for k = 2..kmax: ratio in
    [1/4, 4] and the logarithmic factor visible as strict growth of sum/2^k."""
    a = _frac(alpha)
    if not 2 <= kmax <= 16:
        raise ValueError(f"kmax must lie in [2, 16], got {kmax}")
    entries = []
    ok = True
    prev = -math.inf
    for k in range(2, kmax + 1):
        ms = marginal_sum(cantor_spec_from_stages(a, k))
        per2k = ms.value / 2.0**k
        entries.append((k, ms.ratio, per2k))
        ok = ok and (0.25 <= ms.ratio <= 4.0) and (per2k > prev)
        prev = per2k
    return MarginalReport(alpha=a, entries=tuple(entries), passed=ok)


@dataclass(frozen=True)
class DecayReport:
    order: int
    certified_c: float
    c_values: tuple[tuple[float, float], ...]  # (u, C_M)
    passed: bool


def verify_locally_constant(M: int) -> DecayReport:
    """Build multiplier_coeff_decay at u = 2^j dt in {0, 1/2, 1} and certify a
    single C_M with factor-4 stability across them.

    The symbol at level j and step dt depends on u alone (see
    ``CoeffDecayTable``), so these three tables cover every j.
    """
    tables = [(u, multiplier_coeff_decay(u, M)) for u in (0.0, 0.5, 1.0)]
    cs = [tab.c_m for _, tab in tables]
    sums = [tab.coeff_sum for _, tab in tables]
    stable = max(cs) <= 4.0 * min(cs) and max(sums) <= 4.0 * min(sums)
    c_values = tuple((u, tab.c_m) for u, tab in tables)
    return DecayReport(order=M, certified_c=max(cs), c_values=c_values, passed=stable)


@dataclass(frozen=True)
class WhitneyReport:
    nu_max: int
    coverage_exact: bool
    band: tuple[float, float]
    partition_defect: float
    orthogonality_defect: float
    passed: bool


def verify_whitney(nu_max: int = 8, seed: int = 0) -> WhitneyReport:
    dec = whitney(nu_max)
    cov = check_coverage(dec)
    band = separation_band(dec)
    expect = (dec.base_length, 2.0 * dec.base_length)
    band_ok = abs(band[0] - expect[0]) < 1e-9 and abs(band[1] - expect[1]) < 1e-9

    # angular windows on a band-limited field: a full partition reassembles the
    # field, and alternating (margin-disjoint) windows are L^2-orthogonal
    grid = GridSpec(256)
    f = random_field(grid, seed=seed, band_j=4)
    arcs = [(-math.pi + 2 * math.pi * k / 8, -math.pi + 2 * math.pi * (k + 1) / 8) for k in range(8)]
    parts = [sector_project(f, arc, 0.1) for arc in arcs]
    total = sum(p.values for p in parts)
    partition_defect = lp_norm(Field(grid, total - f.values, "physical"), 2) / lp_norm(f, 2)

    lhs = lp_norm(Field(grid, sum(p.values for p in parts[::2]), "physical"), 2) ** 2
    rhs = sum(lp_norm(part, 2) ** 2 for part in parts[::2])
    orth_defect = abs(lhs - rhs) / rhs

    passed = cov and band_ok and partition_defect <= 1e-8 and orth_defect <= 1e-8
    return WhitneyReport(
        nu_max=nu_max,
        coverage_exact=cov,
        band=band,
        partition_defect=float(partition_defect),
        orthogonality_defect=float(orth_defect),
        passed=passed,
    )


@dataclass(frozen=True)
class NecessityReport:
    alpha: Fraction
    angular_exponent: float
    squashed_exponent: float
    angular_q: Fraction
    squashed_q: Fraction
    passed: bool


_NECESSITY_DELTAS = (1 / 8, 1 / 16, 1 / 32)  # the cap scales the necessity slopes are fitted over


def _fractal_times(alpha: Fraction, delta: float) -> list[float]:
    """Cantor-structured time samples inside the coherence window |t| <= c/delta^2,
    c = ``caps.BOX_C``.

    Scale-matched construction: stage points of the L = 2 Cantor set at level
    j = ceil(log2 delta^{-2}), mapped to 2^j (t - 1) in [2, 2^j]; the window
    keeps the small end.  Midpoint offset +1/2 stays inside each covering
    interval.  Thinned deterministically to at most 12 samples.
    """
    j = math.ceil(math.log2(delta**-2))
    ts = build_cantor(alpha, j, L=2.0)
    starts = sorted(2.0**j * (t - 1.0) for t in ts.points)
    window = [s + 0.5 for s in starts if s + 0.5 <= BOX_C / delta**2]
    if len(window) > 12:
        idx = np.linspace(0, len(window) - 1, 12).round().astype(int)
        window = [window[i] for i in sorted(set(idx))]
    return [0.0] + window


def verify_bilinear_necessity(alpha=Fraction(1, 2)) -> NecessityReport:
    """Fit the delta-scaling of the cap-pair product magnitudes (targets d-1 = 1
    and d+1 = 3) over ``_NECESSITY_DELTAS``, with the time variable running over
    fractal samples, and report the exact q-thresholds the two families force."""
    a = _frac(alpha)
    slopes = {}
    for kind in ("angular", "squashed"):
        ys = [math.log2(pair_product_statistic(d, kind, _fractal_times(a, d))) for d in _NECESSITY_DELTAS]
        slopes[kind], _, _ = fit_exponent(list(zip(np.log2(_NECESSITY_DELTAS), ys)))
    q_ang, q_sq = necessary_q_bounds(a)
    passed = abs(slopes["angular"] - 1.0) <= 0.2 and abs(slopes["squashed"] - 3.0) <= 0.2
    return NecessityReport(
        alpha=a,
        angular_exponent=slopes["angular"],
        squashed_exponent=slopes["squashed"],
        angular_q=q_ang,
        squashed_q=q_sq,
        passed=passed,
    )


# --- persistence --------------------------------------------------------------


def run_to_json(run: ScalingRun) -> dict:
    return {
        "config": run.config.to_json(),
        "time_sets": [list(x) for x in run.time_sets],
        "measured": [[j, y] for j, y in run.measured],
        "fitted_slope": run.fitted_slope,
        "intercept": run.intercept,
        "residual": run.residual,
        "predicted": str(run.predicted),
        "verdict": run.verdict,
        "monotone": run.monotone,
    }


def run_from_json(data: dict) -> ScalingRun:
    """The run a document records, whose ``time_sets`` and ``measured`` must list the
    same j in the same order; its stored fit and verdict are derived again, not read."""
    try:
        config = RunConfig.from_json(data["config"])
        sizes = [(int(j), int(m)) for j, m in data["time_sets"]]
        measured = [(int(j), float(y)) for j, y in data["measured"]]
    except KeyError as exc:
        raise ValueError(f"scaling-run document missing field {exc}") from exc
    listed = [j for j, _ in sizes]
    if listed != [j for j, _ in measured]:
        raise ValueError(f"time_sets lists the levels {listed}, measured {[j for j, _ in measured]}")
    return ScalingRun(config, tuple((j, m, y) for (j, m), (_, y) in zip(sizes, measured)))


def measured_csv(run: ScalingRun) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["j", "log2_ratio", "set_size"])
    for j, size, y in run.levels:
        writer.writerow([j, f"{y:.12g}", size])
    return buf.getvalue()


def persist(run: ScalingRun, out_dir) -> tuple[Path, Path]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    json_path = out / f"{run.config.stem}.json"
    csv_path = out / f"{run.config.stem}.csv"
    json_path.write_text(json.dumps(run_to_json(run), indent=2) + "\n")
    csv_path.write_text(measured_csv(run))
    return json_path, csv_path


def read_json(path):
    """The JSON document at ``path``; a broken one raises a ValueError naming the file."""
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def load(path) -> ScalingRun:
    data = read_json(path)
    try:
        return run_from_json(data)
    except (ValueError, TypeError) as exc:
        raise ValueError(f"{path}: {exc}") from exc
