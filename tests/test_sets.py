"""Cantor-type time sets: construction, covering counts, dimension characteristics.

Covering and window-sup routines are checked against brute-force oracles on
lattice point sets (exact comparisons, no float fuzz), and the combinatorial
identities of the construction (cardinality, gaps, level decomposition,
weighted sums) against closed forms.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractalwave import sets as sets_module
from fractalwave.sets import (
    TimeSet,
    assouad_characteristic,
    assouad_characteristic_sup,
    build_cantor,
    build_interval_family,
    cantor_points,
    cantor_spec,
    cantor_spec_from_stages,
    covering_number,
    decompose_cantor_levels,
    discretize,
    marginal_sum,
    minkowski_estimate,
)

# --- brute-force oracles -----------------------------------------------------


def brute_covering(points, interval, delta):
    """Exhaustive minimum over covers by open length-delta intervals.

    An optimal cover may be assumed to start each interval at one of the
    points; with <= 12 points, try every subset of starts in increasing size.
    """
    a, b = interval
    pts = [p for p in points if a <= p <= b]
    if not pts:
        return 0
    from itertools import combinations

    def covered(starts):
        return all(any(s <= p < s + delta for s in starts) for p in pts)

    for size in range(1, len(pts) + 1):
        for starts in combinations(pts, size):
            if covered(starts):
                return size
    raise AssertionError("unreachable: singleton intervals always cover")


def brute_assouad(points, delta, alpha):
    """Direct max over all windows [e_a, e_b] (spans clamped to >= delta)."""
    best = 0.0
    ts = TimeSet.from_points(points)
    for i, a in enumerate(points):
        for b in points[i:]:
            span = max(b - a, delta)
            n = brute_covering(points, (a, b), delta)
            best = max(best, (delta / span) ** alpha * n)
    return best


# Lattice-valued point sets: multiples of 1/64 in [1, 2], so distances are
# exact dyadics and never sit within tolerance of the delta menu below.
lattice_sets = st.lists(
    st.integers(min_value=0, max_value=64).map(lambda i: 1.0 + i / 64.0),
    min_size=1,
    max_size=10,
    unique=True,
).map(sorted)

delta_menu = st.sampled_from([3 / 64, 5 / 64, 1 / 8, 0.3, 0.33, 0.7])


@given(lattice_sets, delta_menu)
@settings(max_examples=60, deadline=None)
def test_covering_matches_brute_force(points, delta):
    ts = TimeSet.from_points(points)
    assert covering_number(ts, (1.0, 2.0), delta) == brute_covering(points, (1.0, 2.0), delta)


@given(lattice_sets, delta_menu, st.sampled_from([0.25, 0.5, 1.0]))
@settings(max_examples=60, deadline=None)
def test_assouad_matches_brute_force(points, delta, alpha):
    ts = TimeSet.from_points(points)
    got = assouad_characteristic(ts, delta, alpha)
    want = brute_assouad(points, delta, alpha)
    assert got == pytest.approx(want, rel=1e-9)


@given(lattice_sets, delta_menu)
@settings(max_examples=40, deadline=None)
def test_discretize_is_maximal_separated(points, delta):
    ts = TimeSet.from_points(points)
    kept = discretize(ts, delta)
    pts = kept.points
    assert all(b - a >= delta * (1 - 1e-9) for a, b in zip(pts, pts[1:]))
    # maximality: every discarded point is within delta of a kept one
    for p in points:
        assert any(abs(p - q) < delta * (1 + 1e-9) for q in pts)


@given(lattice_sets, delta_menu)
@settings(max_examples=60, deadline=None)
def test_discretize_keeps_the_greedy_cover_starts(points, delta):
    ts = TimeSet.from_points(points)
    kept = discretize(ts, delta).points
    assert len(kept) == covering_number(ts, (1.0, 2.0), delta)
    want = [points[0]]  # left-greedy: keep a point at distance >= delta from the last kept
    for p in points[1:]:
        if p - want[-1] >= delta:
            want.append(p)
    assert list(kept) == want


@given(
    st.integers(min_value=1, max_value=24).map(lambda k: k / 24),
    st.integers(min_value=0, max_value=14),
    st.floats(min_value=1.0, max_value=100.0),
)
@settings(max_examples=60, deadline=None)
def test_calibrated_cantor_set_is_already_separated(alpha, j, L):
    # a scaling run uses build_cantor(alpha, j, L) as its 2^-j-separated E_j directly
    ts = build_cantor(alpha, j, L=L)
    assert discretize(ts, 2.0**-j) == ts


# --- frozen construction examples -------------------------------------------


def test_four_point_cantor():
    ts = build_cantor(1.0, 4, L=4.0)
    assert ts.points == pytest.approx((1.25, 1.5, 1.75, 2.0))
    assert ts.min_gap == pytest.approx(0.25)


def test_stage_count_and_gap_formulas():
    spec = cantor_spec(1.0, 8, L=16.0)
    assert spec.k == 4
    ts = cantor_points(spec)
    assert len(ts) == 16
    assert ts.min_gap == pytest.approx((1 - spec.mu) * spec.mu**3)
    assert ts.min_gap >= 2.0**-8


def test_half_dimensional_set():
    # mu = 1/4 at alpha = 1/2; explicit endpoints for k = 2
    spec = cantor_spec(0.5, 6, L=4.0)
    assert spec.k == 2
    assert spec.mu == pytest.approx(0.25)
    ts = cantor_points(spec)
    assert ts.points == pytest.approx((1.0625, 1.25, 1.8125, 2.0))


def test_degenerate_single_point():
    ts = build_cantor(1.0, 4)  # default L = 16 gives k = 0
    assert ts.points == (2.0,)
    assert math.isinf(ts.min_gap)


def test_cardinality_tracks_resolution():
    for alpha in (0.25, 0.5, 0.75, 1.0):
        for j in range(6, 13):
            spec = cantor_spec(alpha, j, L=2.0)
            assert len(cantor_points(spec)) == 2**spec.k
            assert spec.k == math.floor(alpha * (j - 1) + 1e-9)


def test_stage_inversion():
    for alpha in (0.25, 0.5, 2 / 3, 5 / 6, 1.0):
        for k in range(0, 11):
            assert cantor_spec_from_stages(alpha, k).k == k


def test_covering_numbers_on_four_point_set():
    ts = build_cantor(1.0, 4, L=4.0)
    span = (1.0, 2.0)
    assert covering_number(ts, span, 0.3) == 2
    assert covering_number(ts, span, 0.25) == 4  # distance exactly delta is not covered
    assert covering_number(ts, span, 0.26) == 2
    assert covering_number(ts, span, 0.8) == 1
    assert covering_number(ts, (1.4, 1.8), 0.3) == 1


def test_discretize_four_point_set():
    ts = build_cantor(1.0, 4, L=4.0)
    assert discretize(ts, 0.3).points == pytest.approx((1.25, 1.75))
    assert discretize(ts, 0.25).points == ts.points  # separation exactly delta is kept


def test_assouad_on_four_point_set():
    ts = build_cantor(1.0, 4, L=4.0)
    assert assouad_characteristic(ts, 1 / 16, 1.0) == pytest.approx(1.0)
    # the sup over coarser scales is attained at delta' = gap = 1/4
    assert assouad_characteristic_sup(ts, 1 / 16, 1.0) == pytest.approx(2.0)


def test_a_delta_below_an_ulp_of_the_points_still_advances():
    """pts + delta rounds to pts at delta = 1e-17: each interval still covers its
    start, so the greedy cover and the chain walk end (in a subprocess, so a
    hang fails the test instead of stalling the suite)."""
    code = (
        "from fractalwave.sets import assouad_characteristic, build_cantor, covering_number, discretize\n"
        "ts = build_cantor(1.0, 4, L=4.0)\n"
        "print(covering_number(ts, (1.0, 2.0), 1e-17), len(discretize(ts, 1e-17).points),\n"
        "      assouad_characteristic(ts, 1e-17, 1.0))\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["4", "4", "1.0"]


def test_assouad_of_the_empty_set_is_zero():
    empty = TimeSet.from_points([])
    assert assouad_characteristic(empty, 0.25, 0.5) == 0.0
    assert assouad_characteristic_sup(empty, 0.25, 0.5) == 0.0


def test_assouad_bounded_for_calibrated_sets():
    # the construction is designed so the characteristic stays O(1) in j
    for alpha in (0.5, 1.0):
        for j in (6, 8, 10):
            ts = build_cantor(alpha, j, L=2.0)
            val = assouad_characteristic_sup(ts, 2.0**-j, alpha)
            assert 1.0 <= val <= 8.0


def test_level_decomposition_partitions():
    spec = cantor_spec(1.0, 9, L=2.0)  # k = 8
    levels = decompose_cantor_levels(spec)
    assert [len(lv) for lv in levels] == [2 ** (spec.k - l - 1) for l in range(spec.k)] + [1]
    merged = sorted(p for lv in levels for p in lv.points)
    assert merged == pytest.approx(list(cantor_points(spec).points))
    for l, lv in enumerate(levels[: spec.k]):
        lo = (1 - spec.mu) * spec.mu**l
        hi = spec.mu**l
        for t in lv.points:
            assert lo - 1e-12 <= t - 1.0 <= hi + 1e-12


def test_marginal_sum_exact_value():
    spec = cantor_spec_from_stages(1.0, 2)
    ms = marginal_sum(spec)
    assert ms.value == pytest.approx(25 / 3)
    assert ms.ratio == pytest.approx(25 / 24)


def test_marginal_sum_of_the_single_point_set():
    # k = 0 leaves E = {2}: the sum is 1, and the k 2^k normalization is 0
    spec = cantor_spec_from_stages(1.0, 0)
    assert cantor_points(spec).points == (2.0,)
    ms = marginal_sum(spec)
    assert ms.value == 1.0
    assert math.isinf(ms.ratio)


def test_marginal_sum_growth_normalization():
    # value / (k 2^k) stays in a fixed band while value / 2^k grows
    ratios, per_cards = [], []
    for k in range(2, 11):
        ms = marginal_sum(cantor_spec_from_stages(1.0, k))
        ratios.append(ms.ratio)
        per_cards.append(ms.value / 2.0**k)
    assert all(0.25 <= r <= 4.0 for r in ratios)
    assert all(b > a for a, b in zip(per_cards, per_cards[1:]))


def test_minkowski_estimate_exact_scales():
    # sampling N(delta) at delta = mu^l makes the fit exact
    spec = cantor_spec(1.0, 10, L=2.0)
    fit = minkowski_estimate(cantor_points(spec), [2.0**-m for m in range(2, 9)])
    assert fit.slope == pytest.approx(1.0, abs=0.05)

    spec = cantor_spec(0.5, 12, L=2.0)
    fit = minkowski_estimate(cantor_points(spec), [4.0**-m for m in range(1, 5)])
    assert fit.slope == pytest.approx(0.5, abs=0.05)


def test_interval_family_separation_and_constant():
    for alpha, j in [(1.0, 8), (0.5, 12), (2 / 3, 9)]:
        spec = cantor_spec(alpha, j, L=2.0)
        for theta in (1.0, 0.5):
            fam = build_interval_family(spec, theta)
            starts = np.asarray(fam.starts)
            if len(starts) > 1:
                assert np.diff(starts).min() >= 1.0 - 1e-9
            assert 1.0 <= fam.certified_constant <= 4.0


def test_interval_family_constant_equals_the_full_difference_sweep():
    # reference: window lengths from the whole n x n matrix of start differences
    for alpha, j in [(1.0, 9), (0.5, 14), (2 / 3, 10)]:
        fam = build_interval_family(cantor_spec(alpha, j, L=2.0))
        starts = np.asarray(fam.starts)
        diffs = np.unique(np.round(starts[None, :] - starts[:, None], 9))
        r_cands = {1.0} | {max(1.0, dv + 1.0 - 1e-9) for dv in diffs[diffs > 0.0]}
        r_cands |= {2.0**m for m in range(64) if 2.0**m < starts[-1] - starts[0] + 2.0}
        idx = np.arange(len(starts))
        want = max(
            float((np.searchsorted(starts, starts + r + 1.0 - 1e-9, side="left") - idx).max()) / r**alpha
            for r in r_cands
        )
        assert fam.certified_constant == want


def test_interval_family_memory_stays_below_the_difference_matrix(traced_peak):
    spec = cantor_spec(1.0, 12, L=2.0)  # 2,048 starts: the n x n differences alone are 32 MiB
    fam, peak = traced_peak(build_interval_family, spec)
    assert len(fam.starts) == 2048
    assert peak < 16 * 2**20


def test_interval_family_rejects_small_theta():
    spec = cantor_spec(1.0, 8, L=2.0)
    with pytest.raises(ValueError):
        build_interval_family(spec, 2.0 ** (-8 / 2) / 4.0)


# --- validation and serialization -------------------------------------------


def test_timeset_validation():
    with pytest.raises(ValueError):
        TimeSet.from_points([0.5, 1.5])
    with pytest.raises(ValueError):
        TimeSet.from_points([1.2, 1.2])
    with pytest.raises(ValueError):
        cantor_spec(1.5, 4)
    with pytest.raises(ValueError):
        cantor_spec(1.0, 4, L=0.5)
    for L in (math.inf, math.nan):
        with pytest.raises(ValueError, match="L must be finite"):
            cantor_spec(1.0, 8, L=L)
    with pytest.raises(ValueError):
        covering_number(build_cantor(1.0, 4, L=4.0), (1.0, 2.0), 0.0)
    with pytest.raises(ValueError):
        assouad_characteristic(build_cantor(1.0, 4, L=4.0), 2.0, 1.0)


@pytest.mark.parametrize("points", [[math.nan], [1.0, math.nan, 1.5], [math.inf], [1.5, -math.inf]])
def test_timeset_refuses_a_non_finite_point(points):
    bad = next(p for p in points if not math.isfinite(p))
    with pytest.raises(ValueError, match=f"must be finite, got {bad}"):
        TimeSet.from_points(points)


@pytest.mark.parametrize("delta", [0.0, -0.25, math.nan])
def test_the_set_calculus_refuses_a_delta_that_is_not_positive(delta):
    ts = build_cantor(1.0, 4, L=4.0)
    for fn in (lambda: covering_number(ts, (1.0, 2.0), delta), lambda: discretize(ts, delta)):
        with pytest.raises(ValueError, match="delta must be positive"):
            fn()
    for fn in (assouad_characteristic, assouad_characteristic_sup):
        with pytest.raises(ValueError, match=r"delta must be in \(0, 1\]"):
            fn(ts, delta, 0.5)


def test_the_assouad_sup_checks_its_range_before_it_sweeps():
    """delta = 0 would sweep d *= 2 from 0 forever, and delta > 1 leaves the sweep
    empty: both are refused first, as are a NaN or out-of-range alpha; delta = 1
    is the value at 1."""
    ts = TimeSet.from_points([1.0, 1.5])
    for delta, alpha in ((0.0, 0.5), (1.5, 0.5), (0.25, math.nan), (0.25, 1.5)):
        with pytest.raises(ValueError, match="must be in"):
            assouad_characteristic_sup(ts, delta, alpha)
    assert assouad_characteristic_sup(ts, 1.0, 0.5) == assouad_characteristic(ts, 1.0, 0.5)


def test_timeset_roundtrip(tmp_path):
    # a set stored with `sets --out` loads back as the same TimeSet
    from fractalwave.cli import main
    from fractalwave.experiments import read_json

    ts = build_cantor(0.5, 10, L=2.0)
    path = tmp_path / "set.json"
    assert main(["sets", "--alpha", "1/2", "--j", "10", "--L", "2", "--out", str(path)]) == 0
    back = TimeSet.from_points(read_json(path))
    assert back.points == ts.points
    assert back.min_gap == ts.min_gap


def test_cantor_set_beyond_physical_memory_is_refused_before_it_is_built(monkeypatch):
    # k = 58: 2^58 points; the builder is gone, so only the guard can answer
    monkeypatch.setattr(sets_module, "_cantor_offsets", None)
    with pytest.raises(ValueError, match=r"2\^58 points .* physical memory"):
        cantor_points(cantor_spec(1.0, 60, L=4.0))
