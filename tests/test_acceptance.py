"""End-to-end acceptance gate.

Ten headline properties, one test each, at their stated tolerances; run with
``pytest -v tests/test_acceptance.py`` to get one pass/fail line per property.
The heavy items (norm slopes, scaling runs) use the full n = 2048 grid and
together stay within a few minutes.
"""

import math
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from conftest import critical_line, wave_leading_term

from fractalwave.bessel import bessel_j0
from fractalwave.caps import necessary_q_bounds
from fractalwave.experiments import (
    RunConfig,
    run_scaling,
    verify_bilinear_necessity,
    verify_locally_constant,
    verify_marginal_divergence,
)
from fractalwave.exponents import (
    PQPoint,
    RegionSpec,
    q_points,
    region_membership,
    s_exponents,
    thresholds,
)
from fractalwave.extremizers import annulus, knapp, radial_focusing
from fractalwave.grid import (
    Field,
    GridSpec,
    circular_average,
    circular_average_quadrature,
    half_wave,
    lp_norm,
    random_field,
)
from fractalwave.sets import (
    assouad_characteristic,
    assouad_characteristic_sup,
    build_cantor,
    cantor_spec,
)
from fractalwave.whitney import check_coverage, separation_band, whitney


def test_01_exact_threshold_table():
    # closed-form exponents as exact rationals, d = 2
    for alpha in (Fraction(1, 2), Fraction(2, 3), Fraction(5, 6), Fraction(1)):
        tab = thresholds(2, alpha, r=4)
        assert tab.q_circ == Fraction(10, 3)
        assert tab.q_star == 2 * (4 + 3 * alpha) / 3
        assert tab.q_alpha == 2 * alpha + 3
        assert tab.q_star_r == (2 + 6 * alpha) / (1 + alpha)
    tab = thresholds(2, Fraction(5, 6))
    assert 1 / tab.p_star == Fraction(5, 13)
    assert 1 / tab.q_star == Fraction(3, 13)


def test_02_cantor_separation_cardinality_regularity():
    # 2^-j separated, cardinality 2^k with k within 5 of j alpha, and both
    # regularity characteristics bounded by 8 at the natural scale
    for alpha in (Fraction(1, 4), Fraction(1, 2), Fraction(2, 3), Fraction(5, 6), Fraction(1)):
        for j in range(4, 13):
            ts = build_cantor(alpha, j)
            spec = cantor_spec(alpha, j)
            assert ts.min_gap >= 2.0**-j
            assert len(ts.points) == 2**spec.k
            assert abs(spec.k - float(alpha) * j) <= 5
            assert assouad_characteristic(ts, 2.0**-j, alpha) <= 8.0
            assert assouad_characteristic_sup(ts, 2.0**-j, alpha) <= 8.0


def test_03_marginal_divergence_band():
    for alpha in (Fraction(1, 2), Fraction(1)):
        rep = verify_marginal_divergence(alpha, 16)
        assert rep.passed
        assert all(0.25 <= ratio <= 4.0 for _, ratio, _ in rep.entries)
        per2k = [x for _, _, x in rep.entries]
        assert all(b > a for a, b in zip(per2k, per2k[1:]))


def test_04_locally_constant_coefficient_decay():
    # order-8 polynomial decay of the modulated-annulus Fourier coefficients,
    # with the certified constant stable within a factor 4 over u = 2^j dt in
    # {0, 1/2, 1}, which covers every j: the symbol depends on u alone
    rep = verify_locally_constant(M=8)
    assert rep.passed
    cs = [c for _, c in rep.c_values]
    assert rep.certified_c == max(cs)
    assert max(cs) <= 4.0 * min(cs)
    assert [u for u, _ in rep.c_values] == [0.0, 0.5, 1.0]


def test_05_operator_oracles():
    grid = GridSpec(256, 8.0)
    f = random_field(grid, seed=3, band_j=4)
    t = 1.3

    hw = half_wave(f, t)
    assert abs(lp_norm(hw, 2) - lp_norm(f, 2)) / lp_norm(f, 2) <= 1e-12

    ca = circular_average(f, t)
    cq = circular_average_quadrature(f, t, m=256)
    diff = Field(grid, ca.values - cq.values, ca.space)
    assert lp_norm(diff, 2) / lp_norm(ca, 2) <= 1e-6

    xs = np.linspace(0.0, 12.0, 400)
    with mpmath.workdps(40):
        ref = np.array([float(mpmath.besselj(0, float(x))) for x in xs])
    assert float(np.abs(bessel_j0(xs) - ref).max()) <= 1e-10

    rs = np.linspace(5.0, 500.0, 2000)
    resid = np.abs(bessel_j0(rs) - wave_leading_term(rs))
    assert float((resid * rs**1.5).max()) <= 0.12


def test_06_extremizer_norm_slopes():
    grid = GridSpec(2048, 8.0)
    js = [4, 5, 6, 7]
    targets = {
        radial_focusing: lambda p: 1.5 - 1.0 / p,
        knapp: lambda p: 1.5 * (1.0 - 1.0 / p),
        annulus: lambda p: 2.0 * (1.0 - 1.0 / p),
    }
    for build, closed in targets.items():
        fields = [build(grid, j) for j in js]
        for p in (1.0, 2.0, 4.0):
            slope = np.polyfit(js, np.log2([lp_norm(f, p) for f in fields]), 1)[0]
            assert slope == pytest.approx(closed(p), abs=0.1)


def test_07_lower_bound_scaling_runs():
    runs = {
        "s1": (RunConfig(family="radial_focusing", p="4", q="4", alpha="1",
                         set_kind="single_time"), Fraction(1, 4), Fraction(1, 4)),
        "s2": (RunConfig(family="knapp", p="5/2", q="5", alpha="1",
                         set_kind="cantor"), Fraction(2, 5), Fraction(1, 2)),
        "s3": (RunConfig(family="annulus", p="1", q="16", alpha="1",
                         set_kind="cantor"), Fraction(3, 2), Fraction(3, 2)),
    }
    for name, (cfg, floor, predicted) in runs.items():
        run = run_scaling(cfg)
        assert run.fitted_slope >= float(floor) - 0.15, (name, run.fitted_slope)
        assert run.predicted == predicted
        assert run.verdict == "consistent", (name, run.verdict, run.fitted_slope)


def test_08_whitney_pair_coverage_and_separation():
    # one certified (c, C) = (0.25, 0.5) valid across every depth: pair
    # separation at level nu lies in [c 2^-nu, C 2^-nu]
    for nu in range(2, 9):
        dec = whitney(nu)
        assert check_coverage(dec)
        band = separation_band(dec)
        assert band[0] == pytest.approx(0.25, abs=1e-12)
        assert band[1] == pytest.approx(0.5, abs=1e-12)


def test_09_bilinear_necessity_scaling():
    rep = verify_bilinear_necessity()
    assert rep.passed
    assert rep.angular_exponent == pytest.approx(1.0, abs=0.2)
    assert rep.squashed_exponent == pytest.approx(3.0, abs=0.2)
    for alpha in (Fraction(1, 2), Fraction(1)):
        q_ang, q_sq = necessary_q_bounds(alpha)
        assert q_ang == 2 * (1 + 2 * alpha)
        assert q_sq == Fraction(2, 3) * (3 + 2 * alpha)


def test_10_region_vertex_classification():
    for mu, alpha in ((Fraction(1), Fraction(1)), (Fraction(1, 2), Fraction(1, 2))):
        spec = RegionSpec(d=2, mu=mu, alpha=alpha)
        pts = q_points(spec)
        assert [region_membership(p, spec) for p in pts] == ["boundary_Q"] * 4
        q1, q2, _, q4 = pts
        mid = PQPoint((q1.inv_p + q2.inv_p) / 2, (q1.inv_q + q2.inv_q) / 2)
        assert region_membership(mid, spec) == "in_R"
        centroid = PQPoint(
            sum(p.inv_p for p in pts[:3]) / 3, sum(p.inv_q for p in pts[:3]) / 3
        )
        inner = PQPoint(
            q4.inv_p + (centroid.inv_p - q4.inv_p) / 100,
            q4.inv_q + (centroid.inv_q - q4.inv_q) / 100,
        )
        outer = PQPoint(
            q4.inv_p - (centroid.inv_p - q4.inv_p) / 100,
            q4.inv_q - (centroid.inv_q - q4.inv_q) / 100,
        )
        assert region_membership(inner, spec) == "interior_Q"
        assert region_membership(outer, spec) == "outside"

    rng = random.Random(7)
    for _ in range(20):
        q = Fraction(rng.randint(350, 3000), 100)
        inv_p = critical_line(q, 2, Fraction(1))
        s = s_exponents(PQPoint(inv_p, 1 / q), d=2, alpha=Fraction(1))
        assert s.s1 == s.s2
