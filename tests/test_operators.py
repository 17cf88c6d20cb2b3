"""Spectral operators: propagator, circular averages (two independent routes),
maximal functions, coefficient decay, angular projections.

The circular average has a closed multiplier form and a uniform circle
quadrature; the two are implemented independently and must agree on
band-limited inputs far below the stated 1e-6 budget.  Plane waves give
closed-form oracles for both the propagator and the average.
"""

import numpy as np
import pytest
from conftest import torus_coords

from fractalwave import grid as grid_module
from fractalwave.bessel import bessel_j0
from fractalwave.cutoffs import beta
from fractalwave.experiments import verify_locally_constant
from fractalwave.grid import (
    Field,
    GridSpec,
    circular_average,
    circular_average_quadrature,
    frequency_lattice,
    half_wave,
    littlewood_paley,
    lp_norm,
    maximal_function,
    random_field,
    sector_project,
    to_frequency,
)
from fractalwave.sets import TimeSet


def rel_l2(a: Field, b: Field) -> float:
    diff = Field(a.grid, a.values - b.values, a.space)
    return lp_norm(diff, 2) / lp_norm(a, 2)


def plane_wave(grid: GridSpec, a: int, b: int) -> tuple[Field, float]:
    x1, x2 = torus_coords(grid)
    k1 = 2.0 * np.pi * a / grid.period
    k2 = 2.0 * np.pi * b / grid.period
    f = Field(grid, np.exp(1j * (k1 * x1 + k2 * x2)), "physical")
    return f, float(np.hypot(k1, k2))


# --- half-wave propagator ----------------------------------------------------


def test_half_wave_is_isometry_and_group():
    f = random_field(GridSpec(128, 8.0), seed=2)
    n0 = lp_norm(f, 2)
    g = half_wave(f, 0.7)
    assert abs(lp_norm(g, 2) - n0) / n0 <= 1e-12
    gg = half_wave(half_wave(f, 0.3), 0.4)
    assert rel_l2(g, gg) <= 1e-12
    back = half_wave(g, -0.7)
    assert rel_l2(f, back) <= 1e-12


def test_half_wave_plane_wave_oracle():
    grid = GridSpec(128, 8.0)
    f, knorm = plane_wave(grid, 3, -4)
    g = half_wave(f, 0.9)
    assert np.abs(g.values - np.exp(1j * 0.9 * knorm) * f.values).max() <= 1e-12


# --- circular average: closed form vs quadrature -----------------------------


def test_circular_average_plane_wave_oracle():
    grid = GridSpec(128, 8.0)
    f, knorm = plane_wave(grid, 5, 2)
    for t in (0.25, 1.0, 1.9):
        g = circular_average(f, t)
        assert np.abs(g.values - bessel_j0(t * knorm) * f.values).max() <= 1e-12


def test_circular_average_preserves_constants():
    grid = GridSpec(64, 8.0)
    c = Field(grid, np.full((64, 64), 2.5 + 0.5j), "physical")
    g = circular_average(c, 1.7)
    assert np.abs(g.values - c.values).max() <= 1e-13


def test_dual_route_agreement_band_limited():
    f = random_field(GridSpec(128, 8.0), seed=7, band_j=4)
    for t in (0.8, 1.3, 2.0):
        mult = circular_average(f, t)
        quad = circular_average_quadrature(f, t, m=256)
        assert rel_l2(mult, quad) <= 1e-6  # budget; measured ~1e-14


def test_dual_route_agreement_full_band():
    f = random_field(GridSpec(128, 8.0), seed=8)
    mult = circular_average(f, 1.0)
    quad = circular_average_quadrature(f, 1.0, m=512)
    assert rel_l2(mult, quad) <= 1e-6


def test_quadrature_refines_with_m():
    # t B = 2 * 2^6 = 128 puts m = 64 below the aliasing threshold ~ e t B / 2,
    # while m = 256 is superexponentially converged
    f = random_field(GridSpec(256, 8.0), seed=9, band_j=5)
    mult = circular_average(f, 2.0)
    coarse = rel_l2(mult, circular_average_quadrature(f, 2.0, m=64))
    fine = rel_l2(mult, circular_average_quadrature(f, 2.0, m=256))
    assert coarse > 1e-6
    assert fine <= 1e-10
    with pytest.raises(ValueError):
        circular_average_quadrature(f, 2.0, m=32)


def test_radius_guard():
    f = random_field(GridSpec(64, 8.0), seed=0)
    with pytest.raises(ValueError):
        circular_average(f, 0.0)
    with pytest.raises(ValueError):
        circular_average(f, 2.5)  # period/4 = 2 is the closed right endpoint
    circular_average(f, 2.0)  # boundary radius is allowed


# --- maximal function --------------------------------------------------------


def test_maximal_function_singleton_equals_average():
    f = random_field(GridSpec(128, 8.0), seed=5, band_j=4)
    t = 1.3
    m = maximal_function(f, TimeSet.from_points([t]), j=4)
    a = circular_average(littlewood_paley(f, 4), t)
    assert np.abs(m.values - np.abs(a.values)).max() <= 1e-12


def test_maximal_function_monotone_in_the_time_set():
    f = random_field(GridSpec(128, 8.0), seed=6, band_j=4)
    small = TimeSet.from_points([1.1, 1.7])
    large = TimeSet.from_points([1.1, 1.4, 1.7, 1.9])
    ms = maximal_function(f, small, j=4)
    ml = maximal_function(f, large, j=4)
    assert float((ms.values.real - ml.values.real).max()) <= 1e-12
    assert np.all(ml.values.real >= -1e-15)


def test_maximal_function_band_limited_thinning():
    # times closer than 2^-j collapse onto the same subset
    f = random_field(GridSpec(128, 8.0), seed=6, band_j=3)
    dense = TimeSet.from_points([1.5, 1.5 + 2.0**-6, 1.8])
    thin = TimeSet.from_points([1.5, 1.8])
    md = maximal_function(f, dense, j=3)
    mt = maximal_function(f, thin, j=3)
    assert np.abs(md.values - mt.values).max() <= 1e-12
    with pytest.raises(ValueError):
        maximal_function(f, TimeSet.from_points([]), j=3)


def _counting_j0(monkeypatch) -> list[int]:
    sizes = []

    def counting_j0(x):
        sizes.append(np.size(x))
        return bessel_j0(x)

    monkeypatch.setattr(grid_module, "bessel_j0", counting_j0)
    return sizes


def _full_lattice_average(f: Field, t: float) -> np.ndarray:
    # oracle: ifft2(fft2(v) J0(t |xi|)) on every lattice point
    r = np.hypot(*frequency_lattice(f.grid))
    return np.fft.ifft2(np.fft.fft2(f.values) * bessel_j0(t * r))


def test_maximal_function_evaluates_j0_on_the_band_only(monkeypatch):
    spec = GridSpec(256, 8.0)
    f = random_field(spec, seed=7)
    times = TimeSet.from_points([1.2, 1.45, 1.7, 1.95])
    pj = littlewood_paley(f, 4)
    want = np.max([np.abs(_full_lattice_average(pj, t)) for t in times], axis=0)
    sizes = _counting_j0(monkeypatch)
    m = maximal_function(f, times, j=4)
    assert len(sizes) == len(times.points)
    assert max(sizes) < spec.n**2 / 10  # the band 8 < |xi| < 32 holds ~4,900 points
    assert np.abs(m.values - want).max() <= 1e-12 * want.max()


def test_circular_average_of_a_physical_band_field_stays_on_the_band(monkeypatch):
    spec = GridSpec(256, 8.0)
    pj = littlewood_paley(random_field(spec, seed=7), 4)
    assert pj.space == "physical"
    sizes = _counting_j0(monkeypatch)
    got = circular_average(pj, 1.45)
    assert got.space == "physical" and got.spectrum.support is pj.spectrum.support
    assert sizes and max(sizes) < spec.n**2 / 10
    want = _full_lattice_average(pj, 1.45)
    assert np.abs(got.values - want).max() <= 1e-12 * np.abs(want).max()


# --- multiplier coefficient decay -------------------------------------------


_CELL, _LAST_SHELL = 512, 48  # the suite's samples per axis of the period cell, and its last shell


def _coeff_magnitudes(u, j=0):
    """|d_k| of the level-j symbol beta(|xi| / 2^j) e^{i dt |xi|}, dt = 2^-j u, sampled on
    the dilated cell 2^j [-pi, pi)^2; at j = 0 it is the suite's m(xi) = beta(|xi|) e^{i u |xi|}."""
    N = _CELL
    xi = 2.0**j * (-np.pi + 2.0 * np.pi * np.arange(N) / N)
    r = np.hypot(xi[:, None], xi[None, :])
    return np.abs(np.fft.fft2(beta(r / 2.0**j) * np.exp(1j * (u * 2.0**-j) * r)) / N**2)


def _shell_masks():
    """One mask s <= |k| < s+1 per shell the suite certifies."""
    kk = np.fft.fftfreq(_CELL, d=1.0 / _CELL)
    kabs = np.hypot(kk[:, None], kk[None, :])
    return [(kabs >= s) & (kabs < s + 1) for s in range(_LAST_SHELL + 1)]


def _shell_peaks(mag):
    return [float(mag[m].max()) for m in _shell_masks()]


def _c_m(peaks, M):
    return max(peak * (1.0 + s) ** M for s, peak in enumerate(peaks))


def test_coeff_decay_table_certifies_its_bound():
    rep = verify_locally_constant(8)
    for (u, c_m), total in zip(rep.c_values, rep.coeff_sums, strict=True):
        peaks = _shell_peaks(_coeff_magnitudes(u))
        for s, peak in enumerate(peaks):
            assert peak <= c_m / (1.0 + s) ** 8 * (1.0 + 1e-12)
        assert total >= peaks[0]


def test_coeff_decay_shells_equal_the_per_shell_masks():
    # reference: one mask per shell; the sum runs in another order, so it is
    # held to a few ulp
    rep = verify_locally_constant(6)
    assert [u for u, _ in rep.c_values] == [0.0, 0.5, 1.0]
    masks = _shell_masks()
    for (u, c_m), total in zip(rep.c_values, rep.coeff_sums, strict=True):
        mag = _coeff_magnitudes(u)
        assert c_m == _c_m(_shell_peaks(mag), 6)
        want = sum(float(mag[m].sum()) for m in masks)
        assert abs(total - want) <= 4 * np.finfo(float).eps * want


def test_coeff_decay_depends_only_on_scaled_offset():
    # the level-j symbol beta(|xi| / 2^j) e^{i dt |xi|} on the dilated cell
    # 2^j [-pi, pi]^2 has, to the last bit, the shells of m at u = 2^j dt, so
    # the suite's C_M at u = 1/2 holds at every j
    u = 0.5
    c_m = dict(verify_locally_constant(6).c_values)[u]
    peaks = _shell_peaks(_coeff_magnitudes(u))
    for j in (4, 9):
        dilated = _shell_peaks(_coeff_magnitudes(u, j))
        assert dilated == peaks
        assert _c_m(dilated, 6) == c_m


def test_coeff_decay_validation():
    with pytest.raises(ValueError, match="decay order M must be in"):
        verify_locally_constant(0)
    with pytest.raises(ValueError, match="decay order M must be in"):
        verify_locally_constant(13)


# --- littlewood-paley and sectors -------------------------------------------


def test_littlewood_paley_annular_support():
    f = random_field(GridSpec(128, 8.0), seed=3)
    pj = littlewood_paley(f, 4)
    fh = to_frequency(pj)
    r = np.hypot(*np.broadcast_arrays(*frequency_lattice(f.grid)))
    outside = (r <= 2.0**3) | (r >= 2.0**5)
    assert np.abs(fh.values[outside]).max() <= 1e-12 * np.abs(fh.values).max()


def test_littlewood_paley_alias_guard():
    f = random_field(GridSpec(64, 8.0), seed=3)  # nyquist = 25.1
    littlewood_paley(f, 3)
    with pytest.raises(ValueError):
        littlewood_paley(f, 4)


def test_full_circle_sector_is_identity():
    f = random_field(GridSpec(64, 8.0), seed=1)
    proj = sector_project(f, (0.0, 2.0 * np.pi), smooth_margin=0.1)
    assert np.abs(proj.values - f.values).max() <= 1e-12
    # a proper sub-arc zeroes the direction-less DC mode instead
    part = sector_project(f, (0.0, np.pi), smooth_margin=0.1)
    assert np.abs(to_frequency(part).values[0, 0]) <= 1e-12


def test_sector_partition_is_exact():
    f = random_field(GridSpec(64, 8.0), seed=2)
    n_arcs = 8
    edges = np.linspace(-np.pi, np.pi, n_arcs + 1)
    total = np.zeros_like(f.values)
    for a, b in zip(edges, edges[1:]):
        total = total + sector_project(f, (a, b), smooth_margin=0.1).values
    fh = to_frequency(f)
    expect = f.values - fh.values[0, 0] / f.grid.period**2  # partition misses only DC
    assert np.abs(total - expect).max() <= 1e-8 * np.abs(f.values).max()


def test_disjoint_sectors_are_orthogonal():
    f = random_field(GridSpec(64, 8.0), seed=4)
    a = sector_project(f, (0.0, 0.5), smooth_margin=0.05)
    b = sector_project(f, (1.5, 2.0), smooth_margin=0.05)
    inner = np.vdot(a.values, b.values) * f.grid.cell**2
    assert abs(inner) <= 1e-12 * lp_norm(f, 2) ** 2


def test_sector_reproduces_interior_mode():
    grid = GridSpec(64, 8.0)
    f, _ = plane_wave(grid, 4, 4)  # direction pi/4, well inside (0, pi/2)
    proj = sector_project(f, (0.0, np.pi / 2.0), smooth_margin=0.2)
    assert np.abs(proj.values - f.values).max() <= 1e-12


def test_sector_validation():
    f = random_field(GridSpec(64, 8.0), seed=0)
    with pytest.raises(ValueError):
        sector_project(f, (1.0, 0.5), smooth_margin=0.1)
    with pytest.raises(ValueError):
        sector_project(f, (0.0, 1.0), smooth_margin=0.0)
