"""Scaling experiments: configuration, slope fitting, verdicts, persistence,
and the four verification suites."""

import dataclasses
import importlib
import json
import math
import re
import time
import weakref
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from fractalwave import experiments as experiments_module
from fractalwave import extremizers
from fractalwave.cutoffs import BETA1_SUPPORT, beta, beta0, beta1
from fractalwave.extremizers import DEFAULT_C1
from fractalwave.grid import GridSpec
from fractalwave.sets import build_cantor, discretize
from fractalwave.experiments import (
    RunConfig,
    ScalingRun,
    fit_exponent,
    load,
    measure_level,
    measured_csv,
    persist,
    predicted_exponent,
    run_from_json,
    run_scaling,
    run_to_json,
    verify_bilinear_necessity,
    verify_locally_constant,
    verify_marginal_divergence,
    verify_whitney,
)

ROOT = Path(__file__).resolve().parent.parent


# --- fitting -----------------------------------------------------------------


def test_fit_exact_line():
    slope, intercept, resid = fit_exponent([(j, 0.5 * j + 1.0) for j in range(3, 9)])
    assert slope == pytest.approx(0.5, abs=1e-12)
    assert intercept == pytest.approx(1.0, abs=1e-12)
    assert resid == pytest.approx(0.0, abs=1e-12)


def test_fit_constant_is_flat():
    slope, _, resid = fit_exponent([(j, 2.25) for j in (4, 5, 6, 7)])
    assert slope == pytest.approx(0.0, abs=1e-12)
    assert resid == pytest.approx(0.0, abs=1e-12)


def test_fit_quadratic_residual():
    # y = j^2 on j = 1..4: least squares gives slope 5, intercept -5, RMS 1
    slope, intercept, resid = fit_exponent([(j, j * j) for j in (1, 2, 3, 4)])
    assert slope == pytest.approx(5.0, abs=1e-12)
    assert intercept == pytest.approx(-5.0, abs=1e-12)
    assert resid == pytest.approx(1.0, abs=1e-12)


def test_fit_needs_three_samples():
    with pytest.raises(ValueError):
        fit_exponent([(1, 1.0), (2, 2.0)])


# --- configuration -----------------------------------------------------------


def test_config_requires_exact_rationals():
    with pytest.raises(TypeError):
        RunConfig(family="knapp", p=2.5, q="5")
    with pytest.raises(TypeError):  # not a float subclass, still not exact
        RunConfig(family="knapp", p=np.float32(2.5), q="5")
    cfg = RunConfig(family="knapp", p="5/2", q="5")
    assert cfg.p == Fraction(5, 2)
    assert isinstance(cfg.q, Fraction)


def test_config_validation():
    with pytest.raises(ValueError):
        RunConfig(family="plane", p="2", q="2")
    with pytest.raises(ValueError):
        RunConfig(family="knapp", p="2", q="2", set_kind="random")
    with pytest.raises(ValueError):
        RunConfig(family="knapp", p="2", q="2", j_min=4, j_max=5)
    with pytest.raises(ValueError):  # single-time offset must land in (1, 2]
        RunConfig(family="knapp", p="2", q="2", set_kind="single_time", time_L=40.0)
    with pytest.raises(ValueError, match="time_L"):  # Cantor calibration needs L >= 1
        RunConfig(family="knapp", p="2", q="2", set_kind="cantor", time_L=0.5)
    with pytest.raises(ValueError, match="physical memory"):  # n = 2^20: one field is 16 TiB
        RunConfig(family="knapp", p="2", q="2", j_min=14, j_max=16)


def test_config_out_of_reach_fails_while_deriving_the_grid():
    # doubling n until the alias guard admits j_max would overflow nyquist
    start = time.perf_counter()
    with pytest.raises(ValueError, match="physical memory"):
        RunConfig(family="knapp", p="2", q="2", j_max=10**4)
    assert time.perf_counter() - start < 0.1


def test_derived_grid_is_the_smallest_the_alias_guard_admits(monkeypatch):
    monkeypatch.setattr(experiments_module, "_FIELDS_PER_LEVEL", 0)  # the rule alone, any memory
    powers = [2**k for k in range(6, 16)]
    for j_max in range(2, 11):
        want = min(n for n in powers if GridSpec(n, 8.0).max_band_j(BETA1_SUPPORT[1]) >= j_max)
        assert RunConfig(family="knapp", p="2", q="2", j_min=j_max - 2, j_max=j_max).grid == GridSpec(want, 8.0)


def _benchmark_module(monkeypatch, name):
    # read-only import; run.py, which selftest imports, sets BLAS thread variables
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    monkeypatch.syspath_prepend(str(ROOT / "benchmark"))
    return importlib.import_module(name)


def test_derived_grid_equals_every_grid_written_so_far(monkeypatch):
    # the shipped configs wrote n = 2048 before the grid was derived
    for i in (1, 2, 3):
        doc = json.loads((ROOT / "scripts" / f"run_s{i}.json").read_text())
        assert RunConfig.from_json(doc).grid.n == 2048
    workloads = _benchmark_module(monkeypatch, "workloads")
    selftest = _benchmark_module(monkeypatch, "selftest")
    for doc in [workloads.DENSE_TIMES_CONFIG, *selftest.TINY_STUDIES]:
        assert RunConfig.from_json(doc).grid.n == doc["n"]


@pytest.mark.parametrize("i", [1, 2, 3])
def test_shipped_top_level_peaks_below_one_field(i, traced_peak):
    """Memory bounded by design: the top level of each shipped study, on
    n = 2048, holds less than one n x n complex array at its tracemalloc peak."""
    config = RunConfig.from_json(json.loads((ROOT / "scripts" / f"run_s{i}.json").read_text()))
    _, peak = traced_peak(measure_level, config, config.j_max)
    assert peak < 16 * config.grid.n**2


def test_config_json_accepts_legacy_keys_only_at_the_values_in_use():
    cfg = RunConfig(family="annulus", p="1", q="16", alpha="1/2", j_min=2, j_max=4, label="x")
    legacy = dict(cfg.to_json(), n=256, period=8.0, tolerance=0.15)
    assert RunConfig.from_json(legacy) == cfg
    for key, value in (("n", 4096), ("period", 6.0), ("tolerance", 0.2)):
        with pytest.raises(ValueError, match=repr(key)):
            RunConfig.from_json(dict(legacy, **{key: value}))


def test_config_rejects_alpha_outside_its_range():
    for alpha in ("3/2", "0", "-1/2"):
        with pytest.raises(ValueError, match="alpha"):
            RunConfig(family="knapp", p="5/2", q="5", alpha=alpha, set_kind="cantor")
    for alpha in ("2", "-1/4"):
        with pytest.raises(ValueError, match="alpha"):
            RunConfig(family="radial_focusing", p="4", q="4", alpha=alpha, set_kind="single_time")
    for alpha in ("0", "1"):  # the closed ends are fine for a single time
        RunConfig(family="radial_focusing", p="4", q="4", alpha=alpha, set_kind="single_time")
    RunConfig(family="knapp", p="5/2", q="5", alpha="1", set_kind="cantor")


def test_config_json_roundtrip_rejects_unknown_fields():
    cfg = RunConfig(family="annulus", p="1", q="16", alpha="1/2", label="x")
    assert RunConfig.from_json(cfg.to_json()) == cfg
    bad = dict(cfg.to_json(), extra_knob=3)
    with pytest.raises(ValueError, match="unknown"):
        RunConfig.from_json(bad)


def test_config_json_drops_legacy_seed():
    cfg = RunConfig(family="annulus", p="1", q="16", alpha="1/2", label="x")
    assert "seed" not in cfg.to_json()
    assert RunConfig.from_json(dict(cfg.to_json(), seed=7)) == cfg


def test_predicted_exponents():
    assert predicted_exponent(RunConfig(family="radial_focusing", p="4", q="4")) == Fraction(1, 4)
    assert predicted_exponent(RunConfig(family="knapp", p="5/2", q="5")) == Fraction(1, 2)
    assert predicted_exponent(RunConfig(family="annulus", p="1", q="16")) == Fraction(3, 2)
    assert predicted_exponent(
        RunConfig(family="annulus", p="1", q="16", alpha="1/2")
    ) == Fraction(47, 32)


# --- quick scaling runs (n = 1024, three levels each) ------------------------


def _quick(**kw):
    kw.setdefault("j_min", 4)
    kw.setdefault("j_max", 6)
    return RunConfig(**kw)


def test_isometry_run_is_consistent():
    # L^2 -> L^2 at a single time is exactly norm-preserving: slope 0 = predicted
    run = run_scaling(_quick(family="radial_focusing", p="2", q="2", set_kind="single_time"))
    assert run.fitted_slope == pytest.approx(0.0, abs=1e-4)
    assert run.residual == pytest.approx(0.0, abs=1e-4)
    assert run.predicted == 0
    assert run.verdict == "consistent"


def test_counting_excess_is_inconclusive():
    # over the full Cantor set the ell^2 time sum contributes #E^(1/2) = 2^(k/2)
    # with k = j - 4, an exact excess of 1/2 over the single-time prediction
    run = run_scaling(_quick(family="radial_focusing", p="2", q="2", set_kind="cantor"))
    assert run.fitted_slope == pytest.approx(0.5, abs=1e-4)
    assert run.verdict == "inconclusive"
    assert run.time_sets == ((4, 1), (5, 2), (6, 4))


def _dense_log2_ratio(config: RunConfig, j: int) -> float:
    """log2 R(j) from the formulas alone: full-lattice symbols and np.fft.ifft2."""
    n, period = config.grid.n, config.grid.period
    cell = period / n
    xi = 2.0 * np.pi * np.fft.fftfreq(n, d=1.0 / n) / period
    xi1, xi2 = xi[:, None], xi[None, :]
    r = np.hypot(xi1, xi2)
    fhat = {
        "radial_focusing": lambda: np.exp(-1j * r) * beta1(r / 2.0**j),
        "knapp": lambda: beta0(xi1 / (DEFAULT_C1 * 2.0 ** (j / 2.0))) * beta1(xi2 / 2.0**j) + 0j,
        "annulus": lambda: beta1(r / 2.0**j) + 0j,
    }[config.family]()
    if config.set_kind == "single_time":
        times = [1.0 + config.time_L * 2.0**-j]
    else:
        times = discretize(build_cantor(config.alpha, j, L=config.time_L), 2.0**-j).points

    def norm(vals, s):
        return float(np.sum(np.abs(np.fft.ifft2(vals) / cell**2) ** s) * cell**2) ** (1.0 / s)

    q = float(config.q)
    projected = fhat * beta(r / 2.0**j)
    num = sum(norm(projected * np.exp(1j * t * r), q) ** q for t in times) ** (1.0 / q)
    return math.log2(num / norm(fhat, float(config.p)))


@pytest.mark.parametrize(
    "kw",
    [
        dict(family="radial_focusing", p="4", q="4", set_kind="single_time", time_L=4.0),
        dict(family="knapp", p="5/2", q="5", set_kind="cantor", time_L=2.0),
        dict(family="annulus", p="1", q="16", alpha="1/2", set_kind="cantor", time_L=2.0),
    ],
)
def test_run_matches_dense_oracle(kw):
    config = RunConfig(j_min=2, j_max=4, **kw)
    run = run_scaling(config)
    for j, y in run.measured:
        assert abs(y - _dense_log2_ratio(config, j)) <= 1e-12


def test_flat_family_below_prediction_is_flagged():
    run = run_scaling(_quick(family="annulus", p="2", q="2", set_kind="single_time"))
    assert run.fitted_slope == pytest.approx(0.0, abs=1e-4)
    assert run.predicted == Fraction(1, 2)
    assert run.verdict == "lower_bound_violated"


def test_negative_predicted_slope_tracked():
    run = run_scaling(_quick(family="radial_focusing", p="4", q="2", set_kind="single_time"))
    assert run.predicted == Fraction(-1, 4)
    assert run.fitted_slope == pytest.approx(-0.25, abs=0.01)
    assert run.verdict == "consistent"


def test_measure_level_holds_one_evolved_field_at_a_time(monkeypatch):
    """Each evolved field is reduced to its norm, and dropped, before the next
    is made, however many times E_j holds."""
    made = []
    real = experiments_module.half_wave

    def half_wave(f, t):
        assert all(ref() is None for ref in made), "an earlier evolved field is still alive"
        g = real(f, t)
        made.append(weakref.ref(g))
        return g

    monkeypatch.setattr(experiments_module, "half_wave", half_wave)
    level = measure_level(TINY_CONFIG, 4)
    monkeypatch.undo()
    assert len(made) == 8 and level[:2] == (4, 8)
    assert level == measure_level(TINY_CONFIG, 4)


def test_run_is_deterministic():
    cfg = _quick(family="knapp", p="1", q="2", set_kind="single_time")
    a = run_scaling(cfg)
    b = run_scaling(cfg)
    assert a.measured == b.measured
    assert a.fitted_slope == b.fitted_slope
    assert a == b


# --- the benchmark's view of the code ------------------------------------------


def test_run_scaling_calls_the_builder_through_the_module(monkeypatch):
    # the benchmark tracer patches module attributes; a stored reference would hide calls
    # each level builds its denominator on the run's grid (n = 512 for j_max = 5),
    # then its numerator on its own grid; below j = 4 on the grid of j = 4, and the
    # top level's one field serves both
    calls = []
    original = extremizers.knapp

    def counting(*args, **kwargs):
        calls.append((args[0].n, args[1]))
        return original(*args, **kwargs)

    monkeypatch.setattr(extremizers, "knapp", counting)
    run_scaling(RunConfig(family="knapp", p="5/2", q="5", j_min=3, j_max=5, time_L=2.0))
    assert calls == [(512, 3), (256, 3), (512, 4), (256, 4), (512, 5)]


def test_benchmark_tracer_finds_every_boundary(monkeypatch):
    import fractalwave.cli  # noqa: F401  (loads every module the tracer patches)

    monkeypatch.syspath_prepend(str(ROOT / "benchmark"))
    from tracer import Tracer

    with Tracer() as tracer:
        assert tracer.missing == []


# --- persistence -------------------------------------------------------------


@pytest.fixture(scope="module")
def sample_run():
    return run_scaling(
        RunConfig(
            family="annulus", p="2", q="2", set_kind="single_time",
            j_min=4, j_max=6, label="sample",
        )
    )


def test_json_roundtrip(sample_run):
    assert run_from_json(run_to_json(sample_run)) == sample_run
    with pytest.raises(ValueError, match="missing field"):
        run_from_json({"config": sample_run.config.to_json()})


def test_persist_and_load(tmp_path, sample_run):
    json_path, csv_path = persist(sample_run, tmp_path)
    assert json_path.name == "sample.json"
    assert csv_path.name == "sample.csv"
    assert load(json_path) == sample_run
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "j,log2_ratio,set_size"
    assert len(lines) == 4


def test_persist_stem_from_exponents(tmp_path):
    run = run_scaling(
        RunConfig(family="knapp", p="5/2", q="5", set_kind="single_time",
                  j_min=4, j_max=6)
    )
    json_path, _ = persist(run, tmp_path)
    assert json_path.name == "knapp_5over2_5.json"


def test_persisted_run_bytes(tmp_path):
    # levels on an exact line, so the derived fit is exactly (0.5, -2.0, 0.0)
    config = RunConfig(family="knapp", p="5/2", q="5", j_min=2, j_max=4, time_L=2.0, label="tiny")
    run = ScalingRun(config, ((2, 2, -1.0), (3, 4, -0.5), (4, 8, 0.0)))
    json_path, csv_path = persist(run, tmp_path)
    doc = {
        "config": {
            "family": "knapp", "p": "5/2", "q": "5", "alpha": "1", "set_kind": "cantor",
            "j_min": 2, "j_max": 4, "time_L": 2.0, "label": "tiny",
        },
        "time_sets": [[2, 2], [3, 4], [4, 8]],
        "measured": [[2, -1.0], [3, -0.5], [4, 0.0]],
        "fitted_slope": 0.5,
        "intercept": -2.0,
        "residual": 0.0,
        "predicted": "1/2",
        "verdict": "consistent",
        "monotone": True,
    }
    assert json_path.read_text() == json.dumps(doc, indent=2) + "\n"
    assert csv_path.read_bytes() == b"j,log2_ratio,set_size\r\n2,-1,2\r\n3,-0.5,4\r\n4,0,8\r\n"


TINY_CONFIG = RunConfig(family="knapp", p="5/2", q="5", j_min=2, j_max=4, time_L=2.0)  # predicts 1/2


def _tiny_run(ys) -> ScalingRun:
    return ScalingRun(TINY_CONFIG, tuple(zip((2, 3, 4), (2, 4, 8), ys)))


@pytest.mark.parametrize(
    "ys, verdict, monotone",
    [
        ((0.1, 0.55, 1.1), "consistent", True),
        ((0.0, 0.3, 0.6), "lower_bound_violated", True),  # slope 0.3 < 1/2 - 0.15
        ((0.0, 0.7, 1.4), "inconclusive", True),  # slope 0.7 > 1/2 + 0.15
        ((0.0, 2.0, 1.0), "inconclusive", False),  # RMS residual ~0.71 > 0.25
        ((0.2, 0.15, 1.0), "consistent", False),  # slope 0.4, RMS residual ~0.21
    ],
)
def test_a_run_derives_its_fit_and_verdict_from_its_levels(ys, verdict, monotone):
    measured = tuple(zip((2, 3, 4), ys))
    run = _tiny_run(ys)
    assert run.measured == measured and run.time_sets == ((2, 2), (3, 4), (4, 8))
    assert (run.fitted_slope, run.intercept, run.residual) == fit_exponent(measured)
    assert run.predicted == predicted_exponent(TINY_CONFIG) == Fraction(1, 2)
    assert run.verdict == verdict
    assert run.monotone is monotone
    with pytest.raises(ValueError):
        dataclasses.replace(run, verdict="consistent")  # a derived value cannot be set


def test_run_from_json_derives_what_the_document_stores(sample_run):
    doc = run_to_json(sample_run)
    doc.update(fitted_slope=9.0, intercept=9.0, residual=9.0, predicted="9", verdict="consistent", monotone=False)
    assert run_from_json(doc) == sample_run
    doc["measured"] = [[j, 3.0 * j] for j, _ in doc["measured"]]
    steep = run_from_json(doc)
    assert steep.fitted_slope == pytest.approx(3.0, abs=1e-12)
    assert steep.verdict == "inconclusive" and steep.monotone


@pytest.mark.parametrize(
    "time_sets",
    [
        ((2, 2), (3, 4)),  # a level dropped
        ((3, 4), (2, 2), (4, 8)),  # the same levels, out of order
        ((2, 2), (3, 4), (5, 8)),  # another level
    ],
)
def test_a_run_refuses_levels_that_do_not_match(tmp_path, time_sets):
    doc = run_to_json(_tiny_run((0.0, 0.5, 1.0)))
    doc["time_sets"] = [list(x) for x in time_sets]
    with pytest.raises(ValueError, match="time_sets lists the levels"):
        run_from_json(doc)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="^" + re.escape(f"{path}: time_sets lists the levels")):
        load(path)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda doc: [doc], "a scaling-run document is a JSON object, got list"),
        (lambda doc: dict(doc, measured=[[2, 0.0, 9.0], [3, 0.5], [4, 1.0]]),
         "measured must be a list of two-element rows, got [[2, 0.0, 9.0], [3, 0.5], [4, 1.0]]"),
        (lambda doc: dict(doc, time_sets=5), "time_sets must be a list of two-element rows, got 5"),
        (lambda doc: dict(doc, time_sets=[[2.9, 1.5], [3, 4], [4, 8]]),
         "time_sets row [2.9, 1.5] is not [an integer j, an integer #E_j]"),
        (lambda doc: dict(doc, measured=[[2.9, 0.1], [3, 0.5], [4, 1.0]]),
         "measured row [2.9, 0.1] is not [an integer j, a number]"),
        (lambda doc: dict(doc, measured=[[2, 0.0], [3, "0.2"], [4, 1.0]]),
         'measured row [3, "0.2"] is not [an integer j, a number]'),
        (lambda doc: dict(doc, measured=[[2, 0.0], [3, True], [4, 1.0]]),
         "measured row [3, true] is not [an integer j, a number]"),
        (lambda doc: dict(doc, time_sets=[[2, 2], [3, 4.0], [4, 8]]),
         "time_sets row [3, 4.0] is not [an integer j, an integer #E_j]"),
        (lambda doc: dict(doc, time_sets=[[2, -3], [3, 0], [4, 8]]),
         "time_sets row [2, -3] states #E_j = -3, but its config's E_2 has 2"),
        (lambda doc: dict(doc, time_sets=[[2, 2], [3, 4], [4, 9]]),
         "time_sets row [4, 9] states #E_j = 9, but its config's E_4 has 8"),
    ],
    ids=["a list", "a three-number row", "a number", "a fractional level", "a fractional j",
         "a string", "a bool", "a float count", "a negative count", "a count off by one"],
)
def test_a_run_document_names_the_check_it_fails(tmp_path, edit, message):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(edit(run_to_json(_tiny_run((0.0, 0.5, 1.0))))))
    with pytest.raises(ValueError, match="^" + re.escape(f"{path}: {message}") + "$"):
        load(path)


def test_a_run_refuses_levels_its_config_cannot_produce(tmp_path):
    """An s1 document (j = 4..7) whose rows list j = 7, 8, 9: each key is checked
    against the config's j_min..j_max, not only against the other."""
    config = json.loads((Path(__file__).resolve().parent.parent / "scripts" / "run_s1.json").read_text())
    doc = {"config": config, "time_sets": [[j, 1] for j in (7, 8, 9)],
           "measured": [[j, 0.5 * j] for j in (7, 8, 9)]}
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc))
    message = "time_sets lists the levels [7, 8, 9], but its config runs j = 4..7"
    with pytest.raises(ValueError, match="^" + re.escape(f"{path}: {message}") + "$"):
        load(path)
    doc["time_sets"] = [[j, 1] for j in range(4, 8)]
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=re.escape("measured lists the levels [7, 8, 9]")):
        load(path)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_a_non_finite_level_is_inconclusive(bad):
    run = _tiny_run((0.0, bad, 1.0))
    assert math.isnan(run.fitted_slope) and run.verdict == "inconclusive"


def test_load_reports_line_and_column(tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text('{"config": }')
    with pytest.raises(ValueError, match=r":1:12:"):
        load(bad)


def test_csv_matches_measurements(sample_run):
    rows = measured_csv(sample_run).splitlines()[1:]
    assert len(rows) == len(sample_run.measured)
    for row, (j, y) in zip(rows, sample_run.measured):
        got_j, got_y, got_n = row.split(",")
        assert int(got_j) == j
        assert float(got_y) == pytest.approx(y, abs=1e-11)
        assert int(got_n) == dict(sample_run.time_sets)[j]


# --- verification suites -----------------------------------------------------


def test_marginal_divergence_suite():
    for alpha in (Fraction(1), Fraction(5, 6)):
        rep = verify_marginal_divergence(alpha, 8)
        assert rep.passed
        assert len(rep.entries) == 7
        assert all(0.25 <= ratio <= 4.0 for _, ratio, _ in rep.entries)
        per2k = [x for _, _, x in rep.entries]
        assert per2k == sorted(per2k)  # the logarithmic factor keeps growing
    for kmax in (1, 17):  # k runs from 2, and 2^16 points is the most summed
        with pytest.raises(ValueError, match="kmax"):
            verify_marginal_divergence(1, kmax)


def test_marginal_divergence_entries_are_frozen_bit_for_bit():
    # (k, ratio to k 2^k, sum / 2^k) at alpha = 1/2, as float.hex
    want = [
        (2, "0x1.0380354077d13p+0", "0x1.0380354077d13p+1"),
        (3, "0x1.b53bf4dbfabe7p-1", "0x1.47ecf7a4fc0edp+1"),
        (4, "0x1.8c9588dd02cc3p-1", "0x1.8c9588dd02cc3p+1"),
        (5, "0x1.743dacbf986eep-1", "0x1.d14d17ef7e8aap+1"),
        (6, "0x1.64059a105c063p-1", "0x1.0b04338c4504ap+2"),
        (7, "0x1.58705f09d1ac3p-1", "0x1.2d6253289776bp+2"),
        (8, "0x1.4fc090c72cadap-1", "0x1.4fc090c72cadap+2"),
        (9, "0x1.48fef705a329cp-1", "0x1.721ed5e6578efp+2"),
        (10, "0x1.43974a5153553p-1", "0x1.947d1ce5a82a8p+2"),
        (11, "0x1.3f2b31b8019e4p-1", "0x1.b6db645d02399p+2"),
        (12, "0x1.3b7bc7f6e9c3dp-1", "0x1.d939abf25ea5cp+2"),
    ]
    rep = verify_marginal_divergence(Fraction(1, 2), 12)
    assert rep.passed
    assert [(k, ratio.hex(), per2k.hex()) for k, ratio, per2k in rep.entries] == want


def test_locally_constant_suite():
    rep = verify_locally_constant(M=4)
    assert rep.passed
    assert rep.order == 4
    assert [u for u, _ in rep.c_values] == [0.0, 0.5, 1.0]
    assert rep.certified_c == max(c for _, c in rep.c_values)


def test_locally_constant_suite_builds_one_table_per_u(monkeypatch):
    # the symbol depends on u = 2^j dt alone, so u in {0, 1/2, 1} is three
    # tables: the cell, beta on it and the shells are sampled once, and each u
    # takes one fft2; the spies change no bit of the report
    want = verify_locally_constant(M=8)
    betas, ffts = [], []
    real_beta, real_fft2 = experiments_module.beta, np.fft.fft2

    def beta_spy(t):
        betas.append(np.shape(t))
        return real_beta(t)

    def fft2_spy(a, *args, **kwargs):
        ffts.append(a.shape)
        return real_fft2(a, *args, **kwargs)

    monkeypatch.setattr(experiments_module, "beta", beta_spy)
    monkeypatch.setattr(np.fft, "fft2", fft2_spy)
    assert verify_locally_constant(M=8) == want
    assert betas == [(512, 512)]
    assert ffts == [(512, 512)] * 3


def test_certified_numbers_equal_the_pinned_values():
    # the values the suites certified before their level sweep, base-arc and
    # delta-range parameters were retired; each suite must reproduce them
    def close(got, want):
        return abs(got - want) <= 1e-12 * abs(want)

    rep = verify_locally_constant(8)
    assert close(rep.certified_c, 188642735.84081185)
    want = [(0.0, 188642735.84081185), (0.5, 187897711.70661458), (1.0, 185530132.92005116)]
    assert [u for u, _ in rep.c_values] == [u for u, _ in want]
    assert all(close(c, w) for (_, c), (_, w) in zip(rep.c_values, want))
    nec = verify_bilinear_necessity()
    assert close(nec.angular_exponent, 1.0040342792199746)
    assert close(nec.squashed_exponent, 3.0135347196224465)
    assert (nec.angular_q, nec.squashed_q) == (Fraction(4), Fraction(8, 3))
    assert verify_whitney().band == (0.25, 0.5)


@pytest.mark.parametrize("alpha, angular, squashed, qs", [
    (Fraction(1), 1.0011747239416824, 3.002782031805724, (Fraction(6), Fraction(10, 3))),
    (Fraction(3, 4), 1.002642950963479, 3.0091423224755367, (Fraction(5), Fraction(3))),
])
def test_necessity_on_thinned_time_samples_equals_the_pinned_values(alpha, angular, squashed, qs):
    # at these alpha the window holds more than 12 samples at the finest delta,
    # so _fractal_times thins it to 12 plus t = 0 (alpha = 1/2 keeps every one)
    delta = experiments_module._NECESSITY_DELTAS[-1]
    assert len(experiments_module._fractal_times(alpha, delta)) == 13
    rep = verify_bilinear_necessity(alpha)
    assert rep.passed
    assert abs(rep.angular_exponent - angular) <= 1e-12 * angular
    assert abs(rep.squashed_exponent - squashed) <= 1e-12 * squashed
    assert (rep.angular_q, rep.squashed_q) == qs


def test_whitney_suite():
    rep = verify_whitney(nu_max=4)
    assert rep.passed
    assert rep.coverage_exact
    assert rep.band == pytest.approx((0.25, 0.5), abs=1e-12)
    assert rep.partition_defect <= 1e-8
    assert rep.orthogonality_defect <= 1e-8


def test_bilinear_necessity_suite():
    rep = verify_bilinear_necessity()
    assert rep.passed
    assert rep.angular_exponent == pytest.approx(1.0, abs=0.2)
    assert rep.squashed_exponent == pytest.approx(3.0, abs=0.2)
    assert rep.angular_q == Fraction(4)
    assert rep.squashed_q == Fraction(8, 3)
