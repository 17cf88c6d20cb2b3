"""Frequency caps (angular and squashed) and their bilinear product laws.

The continuum route evaluates the evolved profile by quadrature; the grid
route realizes the cap as an indicator on the frequency lattice dilated by
N = nyquist/2.  The two are tied together by the exact rescaling identity
|grid value at (x, t)| = (N / 2 pi) |continuum value at (N x, N t)|,
verified here to well under the 15% discretization budget.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from conftest import bilinear_cap_pair

from fractalwave.caps import (
    CapProfile,
    box_samples,
    extension,
    necessary_q_bounds,
    pair_product_statistic,
)
from fractalwave.grid import GridSpec, half_wave, lp_norm, to_physical


# --- continuum profiles ------------------------------------------------------


def test_profile_area_and_amplitude():
    p = CapProfile("angular", 0.125)
    assert p.half_angle == pytest.approx(2.0 * math.asin(0.0625))
    assert p.area == pytest.approx(15.0 / 4.0 * p.half_angle)
    assert p.amplitude == pytest.approx(p.area**-0.5)
    q = CapProfile("squashed", 0.125)
    assert q.area == pytest.approx(4.0 * 0.125**3)


def test_profile_validation():
    with pytest.raises(ValueError):
        CapProfile("conic", 0.1)
    with pytest.raises(ValueError):
        CapProfile("angular", 0.3)
    with pytest.raises(ValueError):
        CapProfile("angular", 0.1, mesh=8)


def test_extension_at_origin_is_l1_mass():
    # at (x, t) = 0 the extension equals amplitude * area = sqrt(area)
    for kind in ("angular", "squashed"):
        p = CapProfile(kind, 0.125)
        v = extension(p, 0.0, 0.0, 0.0)
        assert v.imag == pytest.approx(0.0, abs=1e-12)
        assert v.real == pytest.approx(math.sqrt(p.area), rel=1e-12)


def test_extension_mesh_convergence():
    coarse = CapProfile("angular", 0.125, mesh=96)
    fine = CapProfile("angular", 0.125, mesh=192)
    for x1, x2, t in [(0.5, -1.0, 2.0), (-2.0, 0.25, 8.0)]:
        a = extension(coarse, x1, x2, t)
        b = extension(fine, x1, x2, t)
        assert abs(a - b) <= 1e-4


def test_box_samples_shape_and_time_clipping():
    tmax = 0.25 / 0.125**2
    pts = box_samples("angular", 0.125, [-tmax, 0.0, tmax])
    assert len(pts) == 27  # 3 times x 3 x 3 spatial corners
    assert {t for _, _, t in pts} == {-tmax, 0.0, tmax}
    custom = box_samples("squashed", 0.125, times=[0.0, 3.0, 10**6])
    assert {t for _, _, t in custom} == {0.0, 3.0}
    with pytest.raises(ValueError):
        box_samples("angular", 0.125, times=[10**6])


def test_product_statistic_delta_scaling():
    # |R*f . R*g| on the coherence box, t at its extremes and center, scales like
    # delta^(d-1) for transverse (angular) caps and delta^(d+1) for the squashed
    # pair; d = 2
    deltas = [1 / 8, 1 / 16, 1 / 32]
    for kind, target in (("angular", 1.0), ("squashed", 3.0)):
        stats = [pair_product_statistic(d, kind, [s * 0.25 / d**2 for s in (-1, 0, 1)]) for d in deltas]
        slope = np.polyfit(np.log2(deltas), np.log2(stats), 1)[0]
        assert slope == pytest.approx(target, abs=0.2)


# --- grid realization --------------------------------------------------------


def test_grid_pair_is_unit_normalized():
    grid = GridSpec(1024, 8.0)
    for kind in ("angular", "squashed"):
        f, g = bilinear_cap_pair(grid, 1 / 8, kind)
        assert lp_norm(f, 2) == pytest.approx(1.0, rel=1e-12)
        assert lp_norm(g, 2) == pytest.approx(1.0, rel=1e-12)


def test_grid_pair_l1_product_saturates_cauchy_schwarz():
    # the mirror symmetry of the pair makes |g| = |f| pointwise, so the
    # L^1 norm of the product equals ||f||_2 ||g||_2 = 1 exactly
    grid = GridSpec(1024, 8.0)
    for kind in ("angular", "squashed"):
        f, g = bilinear_cap_pair(grid, 1 / 8, kind)
        fp = np.abs(to_physical(f).values)
        gp = np.abs(to_physical(g).values)
        product_l1 = float((fp * gp).sum()) * grid.cell**2
        assert product_l1 <= 1.0 + 1e-9
        assert product_l1 == pytest.approx(1.0, rel=1e-9)


def test_grid_matches_continuum_through_rescaling():
    grid = GridSpec(1024, 8.0)
    delta = 1 / 8
    N = grid.nyquist / 2.0
    f, _ = bilinear_cap_pair(grid, delta, "angular")
    t = 10.0 / N
    evolved = to_physical(half_wave(f, t))
    prof = CapProfile("angular", delta, mesh=192)
    for i1, i2 in [(0, 0), (3, 1), (1022, 5), (2, 1020)]:
        x1 = ((i1 + 512) % 1024 - 512) * grid.cell
        x2 = ((i2 + 512) % 1024 - 512) * grid.cell
        want = (N / (2.0 * np.pi)) * abs(extension(prof, N * x1, N * x2, N * t))
        got = abs(evolved.values[i1, i2])
        assert got == pytest.approx(want, rel=0.15)


def test_grid_delta_range_guard():
    grid = GridSpec(1024, 8.0)  # nyquist ~ 402 so delta must be >= 0.0199
    with pytest.raises(ValueError):
        bilinear_cap_pair(grid, 1 / 64, "angular")
    with pytest.raises(ValueError):
        bilinear_cap_pair(grid, 0.3, "angular")


def test_grid_thin_direction_guard():
    # at delta = 1/32 the squashed cap is only N delta^2 ~ 0.2 wide in xi_1,
    # below one lattice spacing: the indicator would stop shrinking with delta
    grid = GridSpec(1024, 8.0)
    with pytest.raises(ValueError):
        bilinear_cap_pair(grid, 1 / 32, "squashed")
    bilinear_cap_pair(grid, 1 / 32, "angular")  # fine: thin direction is delta, not delta^2


# --- exact thresholds --------------------------------------------------------


def test_necessary_q_bounds_exact():
    ang, sq = necessary_q_bounds(Fraction(1, 2))
    assert ang == Fraction(4)
    assert sq == Fraction(8, 3)
    ang, sq = necessary_q_bounds(1)
    assert ang == Fraction(6)
    assert sq == Fraction(10, 3)
    assert isinstance(ang, Fraction)
    with pytest.raises(ValueError):
        necessary_q_bounds(0)
    with pytest.raises(TypeError):  # a float is not an exact rational
        necessary_q_bounds(0.1)


def test_an_unknown_cap_kind_is_refused():
    message = r"kind must be one of \('angular', 'squashed'\), got 'round'"
    with pytest.raises(ValueError, match=message):
        box_samples("round", 0.25, [1.0])
    with pytest.raises(ValueError, match=message):
        bilinear_cap_pair(GridSpec(256, 8.0), 0.25, "round")
