"""Grid conventions: transforms, norms, lattice layout.

The transform normalization is the one where the discrete Plancherel identity
sum |f|^2 cell^2 = sum |f_hat|^2 / period^2 holds exactly, and a pure lattice
plane wave e^{i k . x} transforms to a single spike of weight period^2.
"""

import dataclasses
import math
import sys
import threading
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractalwave import experiments, extremizers
from fractalwave.caps import bilinear_cap_pair
from fractalwave import grid as grid_module
from fractalwave.cutoffs import BETA0_SUPPORT, BETA1_SUPPORT, BETA_SUPPORT
from fractalwave.experiments import RunConfig, level_grid
from fractalwave.sets import TimeSet, discretize
from fractalwave.grid import (
    Field,
    GridSpec,
    _band_points,
    _lattice_points,
    _row_blocks,
    circular_average,
    circular_average_quadrature,
    frequency_lattice,
    half_wave,
    littlewood_paley,
    lp_norm,
    maximal_function,
    mixed_norm,
    physical_coords,
    random_field,
    sector_project,
    to_frequency,
    to_physical,
)

BUILDERS = (extremizers.radial_focusing, extremizers.knapp, extremizers.annulus)


def test_grid_spec_derived_quantities():
    g = GridSpec(256, 8.0)
    assert g.cell == pytest.approx(8.0 / 256)
    assert g.nyquist == pytest.approx(np.pi * 256 / 8.0)
    assert g.max_band_j(2.0) == 5  # largest j with 2 * 2^j <= nyquist = 100.5
    assert g.max_band_j(4.0) == 4
    assert g.band(5, BETA_SUPPORT) == (16.0, 64.0)  # the support scaled by 2^j, exactly
    with pytest.raises(ValueError, match="alias guard: 2 \\* 2\\^6 exceeds nyquist"):
        g.band(6, BETA_SUPPORT)


@pytest.mark.parametrize("n", [64, 128, 256, 512, 1024, 2048])
def test_alias_guards_agree(n):
    """The projection and the three builders admit j = max_band_j of their
    support factor and refuse j + 1, max_band_j is the largest j with
    factor * 2^j <= nyquist, and a config written for this grid loads only
    while the grid it derives is this one."""
    grid = GridSpec(n, 8.0)
    f = Field(grid, np.zeros((n, n)), "frequency")
    top = grid.max_band_j(BETA_SUPPORT[1])
    assert top == max(j for j in range(32) if BETA_SUPPORT[1] * 2**j <= grid.nyquist)
    littlewood_paley(f, top)
    with pytest.raises(ValueError, match="alias guard"):
        littlewood_paley(f, top + 1)
    top = grid.max_band_j(BETA1_SUPPORT[1])
    assert top == max(j for j in range(32) if BETA1_SUPPORT[1] * 2**j <= grid.nyquist)
    for build in (extremizers.radial_focusing, extremizers.knapp, extremizers.annulus):
        build(grid, top)
        with pytest.raises(ValueError, match="alias guard"):
            build(grid, top + 1)
    doc = {"family": "knapp", "p": "2", "q": "2", "j_min": top - 2, "n": n}
    assert RunConfig.from_json(dict(doc, j_max=top)).grid == grid
    with pytest.raises(ValueError, match="'n'"):
        RunConfig.from_json(dict(doc, j_max=top + 1))


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(100, 8.0)  # not a power of two
    with pytest.raises(ValueError):
        GridSpec(32, 8.0)  # below minimum size
    with pytest.raises(ValueError):
        GridSpec(256, 3.0)  # period too small


def test_coordinate_layout():
    g = GridSpec(64, 8.0)
    x1, x2 = physical_coords(g)
    assert x1.shape == (64, 1) and x2.shape == (1, 64)
    # index 0 is the origin; coordinates run over [-period/2, period/2)
    assert x1[0, 0] == 0.0
    assert x1.min() == pytest.approx(-4.0)
    assert x1.max() == pytest.approx(4.0 - g.cell)
    xi1, xi2 = frequency_lattice(g)
    assert xi1[0, 0] == 0.0
    spacing = 2.0 * np.pi / g.period
    assert np.sort(xi1.ravel())[1] - np.sort(xi1.ravel())[0] == pytest.approx(spacing)


def test_lattice_arrays_are_the_callers_own():
    # the lattice and coordinate arrays are made per call: editing one in
    # place leaves every later field on that grid alone
    g = GridSpec(128, 6.0)
    plate = extremizers.knapp(g, 3).values.copy()
    mass = extremizers.shell_mass_fraction(extremizers.radial_focusing(g, 3), 0.5)
    xi1, _ = frequency_lattice(g)
    xi1[:, 0] *= 0.5
    x1, _ = physical_coords(g)
    x1[:, 0] *= 0.5
    assert np.array_equal(extremizers.knapp(g, 3).values, plate)
    assert extremizers.shell_mass_fraction(extremizers.radial_focusing(g, 3), 0.5) == mass


def test_roundtrip_and_plancherel():
    f = random_field(GridSpec(128, 8.0), seed=3)
    fh = to_frequency(f)
    back = to_physical(fh)
    assert np.abs(back.values - f.values).max() <= 1e-12
    phys = np.sum(np.abs(f.values) ** 2) * f.grid.cell**2
    freq = np.sum(np.abs(fh.values) ** 2) / f.grid.period**2
    assert phys == pytest.approx(freq, rel=1e-14)


def test_plane_wave_is_a_single_spike():
    g = GridSpec(64, 8.0)
    x1, x2 = physical_coords(g)
    k = 2.0 * np.pi / g.period * np.array([3.0, -5.0])  # exact lattice frequency
    f = Field(g, np.exp(1j * (k[0] * x1 + k[1] * x2)), "physical")
    fh = to_frequency(f)
    xi1, xi2 = frequency_lattice(g)
    spike = (np.abs(xi1 - k[0]) < 1e-9) & (np.abs(xi2 - k[1]) < 1e-9)
    assert spike.sum() == 1
    assert fh.values[spike][0] == pytest.approx(g.period**2, rel=1e-12)
    off = np.abs(fh.values[~spike])
    assert off.max() <= 1e-9 * g.period**2


def test_space_tags_are_enforced():
    f = random_field(GridSpec(64, 8.0), seed=0)
    with pytest.raises(ValueError):
        to_physical(f)
    with pytest.raises(ValueError):
        to_frequency(to_frequency(f))


def test_field_is_immutable():
    f = random_field(GridSpec(64, 8.0), seed=0)
    with pytest.raises(ValueError):
        f.values[0, 0] = 1.0


def test_field_neither_freezes_nor_aliases_the_callers_array():
    for arr in (np.ones((64, 64), dtype=complex), np.ones((64, 64))):
        f = Field(GridSpec(64, 8.0), arr, "physical")
        assert arr.flags.writeable
        assert not np.shares_memory(arr, f.values)
        arr[0, 0] = 7.0
        assert f.values[0, 0] == 1.0
        assert not f.values.flags.writeable


def test_lp_norm_values():
    g = GridSpec(64, 8.0)
    ones = Field(g, np.ones((64, 64), dtype=complex), "physical")
    # ||1||_p = (period^2)^(1/p)
    assert lp_norm(ones, 1) == pytest.approx(64.0)
    assert lp_norm(ones, 2) == pytest.approx(8.0)
    assert lp_norm(ones, np.inf) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        lp_norm(ones, 0.5)


@given(st.integers(min_value=0, max_value=10**6), st.sampled_from([1.0, 1.5, 2.0, 4.0]))
@settings(max_examples=20, deadline=None)
def test_lp_norm_scales_homogeneously(seed, p):
    f = random_field(GridSpec(64, 8.0), seed=seed)
    doubled = Field(f.grid, 2.0 * f.values, "physical")
    assert lp_norm(doubled, p) == pytest.approx(2.0 * lp_norm(f, p), rel=1e-12)


def test_mixed_norm_reduces_to_lp():
    f = random_field(GridSpec(64, 8.0), seed=1)
    assert mixed_norm([lp_norm(f, 2)], 2) == pytest.approx(lp_norm(f, 2))
    g = random_field(GridSpec(64, 8.0), seed=2)
    both = mixed_norm([lp_norm(f, 4), lp_norm(g, 4)], 4)
    assert both == pytest.approx((lp_norm(f, 4) ** 4 + lp_norm(g, 4) ** 4) ** 0.25)
    assert mixed_norm([lp_norm(f, np.inf), lp_norm(g, np.inf)], np.inf) == max(
        lp_norm(f, np.inf), lp_norm(g, np.inf)
    )
    # 13 times, past the 8 terms np.sum adds in sequence: its pairwise order may
    # move the last bits, but stays within 4 ulp of the exact power sum
    many = [random_field(GridSpec(64, 8.0), seed=s) for s in range(13)]
    for q in (Fraction(5, 2), 4, 16):
        norms = [lp_norm(h, q) for h in many]
        want = math.fsum(v ** float(q) for v in norms) ** (1.0 / float(q))
        assert abs(mixed_norm(norms, q) - want) <= 4 * math.ulp(want), q
        held = np.array(norms)
        assert mixed_norm(held, q) == mixed_norm(norms, q) and held.tolist() == norms  # not raised in place
    with pytest.raises(ValueError):
        mixed_norm([], 2)
    with pytest.raises(ValueError):
        mixed_norm([1.0], 0.5)


@pytest.mark.parametrize("q", [4, np.inf])
def test_mixed_norm_holds_one_field_at_a_time(q):
    """The reduction takes numbers, so a caller that feeds it the norm of each
    evolved field drops that field before it makes the next one."""
    f = random_field(GridSpec(64, 8.0), seed=5, band_j=3)
    times = [1.0, 1.25, 1.5, 1.75]
    previous = []

    def norm_at(t):
        if previous:
            assert previous[-1]() is None, "the previous field is still alive"
        g = half_wave(f, t)
        previous.append(weakref.ref(g))
        return lp_norm(g, q)

    got = mixed_norm([norm_at(t) for t in times], q)
    norms = [lp_norm(half_wave(f, t), q) for t in times]
    want = max(norms) if np.isinf(q) else sum(v**q for v in norms) ** (1.0 / q)
    assert got == want
    assert len(previous) == len(times)


def _band_fields(grid):
    """Frequency fields of every admissible support on the grid: the evolved
    dyadic projection of a full-lattice field and of the Knapp plate at each j,
    and each family at each j."""
    base = to_frequency(random_field(grid, seed=9))
    for j in range(grid.max_band_j(2.0) + 1):
        yield half_wave(littlewood_paley(base, j), 1.3)
    for j in range(grid.max_band_j(4.0) + 1):
        yield half_wave(littlewood_paley(extremizers.knapp(grid, j), j), 1.3)
        for build in BUILDERS:
            yield build(grid, j)


@pytest.mark.parametrize("n", [64, 256, 1024])
def test_pruned_inverse_transform_is_ifft2(n, honest_support):
    grid = GridSpec(n, 8.0)
    seen = 0
    for f in _band_fields(grid):
        honest_support(f)
        want = np.fft.ifft2(f.values) / grid.cell**2
        assert np.array_equal(to_physical(f).values, want)
        seen += 1
    assert seen >= 3
    # a forward transform, stored on the whole lattice, goes through the same path
    full = to_frequency(random_field(grid, seed=2))
    honest_support(full)
    assert np.array_equal(full.support[0], np.arange(n * n))
    assert np.array_equal(to_physical(full).values, np.fft.ifft2(full.values) / grid.cell**2)


def test_to_physical_holds_one_complex_array(traced_peak):
    """to_physical of a forward transform (stored on the whole lattice) and of a
    projection stored on its band each peak below 1.15 n x n complex arrays: the row
    transforms go straight into the output's rows, not into a second array."""
    grid = GridSpec(512, 8.0)
    for f in (to_frequency(random_field(grid, seed=1)), littlewood_paley(extremizers.annulus(grid, 5), 5)):
        _, peak = traced_peak(to_physical, f)
        assert peak < 1.15 * 16 * grid.n**2


def test_a_frequency_field_is_stored_on_its_support():
    """A builder's or operator's frequency field stores one value per support
    point; ``values`` scatters them to n x n, read-only, bit for bit, and is
    made afresh on each read."""
    grid = GridSpec(256, 8.0)
    pf = littlewood_paley(extremizers.annulus(grid, 4), 4)
    for g in (extremizers.radial_focusing(grid, 4), extremizers.knapp(grid, 4), pf, half_wave(pf, 1.3)):
        flat = g.support[0]
        assert g.data.shape == flat.shape and g.data.dtype == np.complex128
        assert not g.data.flags.writeable
        want = np.zeros(grid.n * grid.n, dtype=np.complex128)
        want[flat] = g.data
        vals = g.values
        assert vals.shape == (grid.n, grid.n) and vals.dtype == np.complex128
        assert not vals.flags.writeable
        assert np.array_equal(vals, want.reshape(grid.n, grid.n))
        assert g.values is not vals  # scattered on each read, not kept


def test_a_callers_frequency_array_is_copied_onto_the_whole_lattice(honest_support):
    grid = GridSpec(64, 8.0)
    arr = extremizers.annulus(grid, 2).values.copy()
    f = Field(grid, arr, "frequency")
    honest_support(f)
    assert np.array_equal(f.support[0], np.arange(64 * 64)) and f.data.shape == (64 * 64,)
    assert not np.shares_memory(arr, f.data) and np.array_equal(f.values, arr)
    arr[0, 0] = 7.0
    assert f.values[0, 0] == 0.0 and not f.data.flags.writeable
    assert np.array_equal(to_frequency(to_physical(f)).support[0], f.support[0])  # so is a forward transform


def test_whole_lattice_fields_leave_the_band_cache_alone():
    """``Field``, ``to_frequency`` and the cap pairs build the whole lattice per
    call: the band cache is neither read nor filled."""
    grid = GridSpec(256, 8.0)
    arr, phys = extremizers.annulus(grid, 4).values, random_field(grid, seed=5)
    before = _band_points.cache_info()
    f = Field(grid, arr, "frequency")
    g = to_frequency(phys)
    caps = bilinear_cap_pair(grid, 0.25, "angular")
    assert _band_points.cache_info() == before
    for h in (f, g, *caps):
        assert np.array_equal(h.support[0], np.arange(grid.n**2))


def test_half_wave_of_a_callers_frequency_array_is_the_lattice_product():
    """The multiplier of a caller's frequency array is arr e^{i t |xi|} at every
    lattice point, bit for bit, stored on the whole lattice."""
    grid = GridSpec(128, 8.0)
    rng = np.random.default_rng(11)
    arr = rng.standard_normal((128, 128)) + 1j * rng.standard_normal((128, 128))
    got = half_wave(Field(grid, arr, "frequency"), 1.3)
    assert got.space == "frequency" and got.data.shape == got.support[0].shape
    assert np.array_equal(got.values, arr * np.exp(1j * 1.3 * np.hypot(*frequency_lattice(grid))))


def test_a_multiplier_on_a_to_physical_output_makes_no_forward_transform(monkeypatch):
    """A physical field reaches its transform through its ``spectrum``, whether
    that is stored on a band or on the whole lattice: no np.fft.fft2 runs."""
    grid = GridSpec(256, 8.0)
    fields = (to_physical(extremizers.annulus(grid, 4)), to_physical(to_frequency(random_field(grid, seed=6))))
    calls, fft2 = [], np.fft.fft2
    monkeypatch.setattr(np.fft, "fft2", lambda *a, **k: calls.append(1) or fft2(*a, **k))
    for f in fields:
        for g in (littlewood_paley(f, 4), half_wave(f, 1.3), circular_average(f, 1.3),
                  sector_project(f, (0.0, 1.0), 0.2)):
            assert g.space == "physical" and g.support is None and g.spectrum.support is not None
    assert calls == []


@pytest.mark.parametrize("build", BUILDERS)
def test_projection_and_evolution_make_no_dense_array(build, traced_peak):
    """On a level's own grid, projecting a builder's field and evolving the
    projection each peak below a quarter of one n x n complex array."""
    grid = level_grid(6)
    f = build(grid, 6)
    pf, peak = traced_peak(littlewood_paley, f, 6)
    assert peak < 16 * grid.n**2 / 4
    _, peak = traced_peak(half_wave, pf, 0.7318)
    assert peak < 16 * grid.n**2 / 4


def test_a_physical_field_carries_its_spectrum_not_a_support(honest_support):
    grid = GridSpec(256, 8.0)
    f = extremizers.annulus(grid, 4)
    phys = to_physical(f)
    assert phys.space == "physical" and phys.support is None and phys.spectrum is f
    pj = littlewood_paley(random_field(grid, seed=3), 4)
    assert pj.space == "physical" and pj.support is None
    honest_support(pj.spectrum)
    assert np.array_equal(pj.spectrum.support[0], _band_points(grid, 8.0, 32.0)[0])  # the band's points
    # a caller's array carries neither; its forward transform is on the whole lattice
    raw = Field(grid, phys.values, "physical")
    assert raw.support is None and raw.spectrum is None
    assert np.array_equal(to_frequency(raw).support[0], np.arange(grid.n**2))


def test_knapp_support_is_the_plate_and_its_rows():
    """At j = 7, n = 2048 the Knapp field's support is its plate, the lattice
    points of the open window |xi_1| < 4 c1 2^{j/2}, 2^{j-2} < xi_2 < 2^{j+2}, so
    the inverse transform's row pass touches at most 15 rows; its projection
    keeps exactly the plate points inside 2^{j-1} < |xi| < 2^{j+1}."""
    grid = GridSpec(2048, 8.0)
    j = 7
    f = extremizers.knapp(grid, j)
    head, tail = _row_blocks(grid, f.support)
    assert (head.stop - head.start) + (tail.stop - tail.start) <= 15
    flat, inv, radii = f.support
    r = radii[inv]
    xi1, xi2 = np.broadcast_arrays(*frequency_lattice(grid))
    s1, s2 = np.abs(xi1) / (extremizers.DEFAULT_C1 * 2.0 ** (j / 2.0)), xi2 / 2.0**j
    plate = (s1 < BETA0_SUPPORT[1]) & (s2 > BETA1_SUPPORT[0]) & (s2 < BETA1_SUPPORT[1])
    assert np.array_equal(flat, np.flatnonzero(plate))
    inside = (r > 2.0 ** (j - 1)) & (r < 2.0 ** (j + 1))
    pf = littlewood_paley(f, j)
    assert np.array_equal(pf.support[0], flat[inside])
    assert np.array_equal(pf.support[2][pf.support[1]], r[inside])


def _orbit_key(grid, flat):
    """One integer per lattice orbit, from (max |k|, min |k|) of each flat index."""
    k = np.abs(np.fft.fftfreq(grid.n, d=1.0 / grid.n).astype(np.int64))
    a, b = k[flat // grid.n], k[flat % grid.n]
    return np.maximum(a, b) * (grid.n + 1) + np.minimum(a, b)


@pytest.mark.parametrize("n", [64, 256, 2048])
def test_band_points_hold_one_radius_per_orbit(n, honest_support):
    """Bands that touch the axes (and the origin), hold one diagonal orbit, reach
    the alias-guard edge hi = nyquist, or pass it into the Nyquist row: the
    support is the band's lattice points, radii[inv] is the block np.hypot bit
    for bit, and each orbit has one radius, shared by its points."""
    grid = GridSpec(n, 8.0)
    r = np.hypot(*frequency_lattice(grid)).ravel()
    step = 2.0 * np.pi / grid.period
    diagonal = float(np.hypot(3 * step, 3 * step))
    edge = grid.nyquist - 4.0 * step
    bands = [(-1.0, 3.0), (0.5, 4.0 * step), (diagonal - 1e-9, diagonal + 1e-9),
             (edge, grid.nyquist), (edge, grid.nyquist + 4.0 * step)]
    for lo, hi in bands:
        flat, inv, radii = support = _band_points(grid, lo, hi)
        assert np.array_equal(flat, np.flatnonzero((r > lo) & (r < hi)))
        honest_support(grid_module._own(grid, np.ones(flat.size), "frequency", support=support))
        orbit = _orbit_key(grid, flat)
        assert np.unique(orbit).size == radii.size  # one radius per orbit ...
        assert np.unique(orbit * radii.size + inv).size == radii.size  # ... shared by its points
    assert _band_points(grid, diagonal - 1e-9, diagonal + 1e-9)[2].size == 1  # 4 points, one orbit


@pytest.mark.parametrize("build", [extremizers.annulus, extremizers.knapp])
def test_meet_keeps_only_the_radii_in_the_band(build, honest_support):
    grid = GridSpec(512, 8.0)
    f = build(grid, 5)
    flat, inv, radii = f.support
    band = (2.0**4, 2.0**6)
    got, inside = grid_module._meet(f.support, band)
    honest_support(grid_module._own(grid, np.ones(got[0].size), "frequency", support=got))
    assert np.all((got[2] > band[0]) & (got[2] < band[1]))  # with every radius used: none stale
    assert np.array_equal(inside, (radii[inv] > band[0]) & (radii[inv] < band[1]))
    assert np.array_equal(got[0], flat[inside])
    whole, _ = grid_module._meet(_lattice_points(grid), band)  # the whole lattice met: the band's points
    assert all(np.array_equal(a, b) for a, b in zip(whole, _band_points(grid, *band), strict=True))


def test_symbols_are_evaluated_once_per_orbit(monkeypatch):
    """beta1 in the builder, the projection's beta, the half-wave and J0
    symbols each see one radius per orbit of the support, not one per point."""
    grid = GridSpec(512, 8.0)
    seen = []

    def spy(fn):
        def wrapped(x, *args):
            seen.append(np.size(x))
            return fn(x, *args)
        return wrapped

    monkeypatch.setattr(extremizers, "beta1", spy(extremizers.beta1))
    f = extremizers.annulus(grid, 5)
    assert seen == [f.support[2].size] and f.support[2].size < f.support[0].size / 6
    monkeypatch.setattr(grid_module, "beta", spy(grid_module.beta))
    pf = littlewood_paley(f, 5)
    assert seen[1:] == [pf.support[2].size]
    monkeypatch.setattr(grid_module, "bessel_j0", spy(grid_module.bessel_j0))
    circular_average(pf, 1.3)
    assert seen[2:] == [pf.support[2].size]
    apply = grid_module._apply_multiplier
    monkeypatch.setattr(grid_module, "_apply_multiplier",
                        lambda g, symbol, band=None: apply(g, spy(symbol), band))
    half_wave(pf, 1.3)
    assert seen[3:] == [pf.support[2].size]


@pytest.mark.parametrize("build", [extremizers.radial_focusing, extremizers.annulus])
def test_radial_multipliers_equal_their_full_lattice_symbols(build):
    grid = GridSpec(1024, 8.0)
    j, t = 6, 1.3
    r = np.hypot(*frequency_lattice(grid))
    f = build(grid, j)
    pf = littlewood_paley(f, j)
    want = f.values * grid_module.beta(r / 2.0**j)
    assert np.array_equal(pf.values, want)
    assert np.array_equal(half_wave(pf, t).values, want * np.exp(1j * t * r))
    assert np.array_equal(circular_average(pf, t).values, want * grid_module.bessel_j0(t * r))


def test_knapp_factors_are_its_symbol_and_no_operator_keeps_them(monkeypatch):
    grid = GridSpec(256, 8.0)
    f = extremizers.knapp(grid, 4)
    a, b = f.factors
    assert not a.flags.writeable and not b.flags.writeable
    assert np.array_equal(np.outer(a, b), f.values)
    pf = littlewood_paley(f, 4)
    for g in (pf, half_wave(f, 1.3), half_wave(pf, 1.3), to_physical(f)):
        assert g.factors is None
    assert Field(grid, f.values, "frequency").factors is None
    monkeypatch.setattr(grid_module, "to_physical", None)  # its norm makes no n x n transform
    assert lp_norm(f, 4) > 0.0


@pytest.mark.parametrize("n", [256, 1024])
def test_factored_knapp_norm_is_the_2d_norm(n):
    """lp_norm of a field with factors multiplies two 1-D norms; to_physical drops
    the factors, so its output takes the n x n path, the reference here."""
    grid = GridSpec(n, 8.0)
    for j in range(grid.max_band_j(BETA1_SUPPORT[1]) + 1):
        f = extremizers.knapp(grid, j)
        phys = to_physical(f)
        for p in (1, Fraction(5, 2), 4, math.inf):
            want = lp_norm(phys, p)
            assert abs(lp_norm(f, p) - want) <= 4 * math.ulp(want), (j, p)


CLAIMED_EVEN = {"radial_focusing": (0, 1), "knapp": (0,), "annulus": (0, 1)}


def _mirror(values, axis):
    """values at -k along ``axis``: index i -> (n - i) mod n."""
    return np.roll(np.flip(values, axis), 1, axis)


@pytest.mark.parametrize("n", [256, 1024])
def test_mirrored_norm_is_the_full_grid_norm(n):
    """The half or quarter grid sum with mirror weights against the n x n sum of
    to_physical, at every admissible j, for each builder's field and its
    projected, evolved field at an off-grid time, both read through
    ``_inverse(f, f.even)``.  lp_norm is that sum to the bit, at every p, for
    each of them but bare Knapp, whose norm takes its factors."""
    grid = GridSpec(n, 8.0)
    measure = grid.cell**2
    for build in BUILDERS:
        for j in range(grid.max_band_j(BETA1_SUPPORT[1]) + 1):
            f = build(grid, j)
            assert f.even == CLAIMED_EVEN[build.__name__]
            for axis in f.even:  # the builder's values are mirror-symmetric to the bit
                assert np.array_equal(_mirror(f.values, axis), f.values), (build.__name__, j, axis)
            for g in (f, half_wave(littlewood_paley(f, j), 0.7318)):
                full = to_physical(g).values
                half = grid_module._inverse(g, g.even)
                for p in (1, Fraction(5, 2), 4, 16, math.inf):
                    want = grid_module._sum_norm(full, float(p), measure)
                    got = grid_module._sum_norm(half, float(p), measure, g.even)
                    assert got == pytest.approx(want, rel=1e-13, abs=0.0), (build.__name__, j, p)
                    if g.factors is None:
                        assert lp_norm(g, p) == got, (build.__name__, j, p)


def _ifft_calls(monkeypatch):
    """Record the (input shape, axis) of every np.fft.ifft call from here on."""
    calls, ifft = [], np.fft.ifft

    def spy(a, *args, axis=-1, **kwargs):
        calls.append((np.shape(a), axis))
        return ifft(a, *args, axis=axis, **kwargs)

    monkeypatch.setattr(np.fft, "ifft", spy)
    return calls


@pytest.mark.parametrize("j", [4, 5, 6, 7])
def test_knapp_numerator_norm_sums_its_columns_as_cosines(monkeypatch, j, traced_peak):
    """A Knapp numerator on its level's grid holds a < 2 n.bit_length() rows
    k_1 >= 0, so its norm transforms those a rows and sums the column pass as
    cosines: no axis-0 FFT and no n x n array.  It is the n x n norm of
    to_physical within 1e-13 relative, up to n = 2048 at j = 7."""
    grid = level_grid(j)
    n, measure = grid.n, grid.cell**2
    f = half_wave(littlewood_paley(extremizers.knapp(grid, j), j), 0.7318)
    top, _ = _row_blocks(grid, f.support)
    assert top.stop < 2 * n.bit_length()
    full = to_physical(f).values
    for p in (Fraction(5, 2), 5):
        want = grid_module._sum_norm(full, float(p), measure)
        assert lp_norm(f, p) == pytest.approx(want, rel=1e-13, abs=0.0), p
    del full
    calls = _ifft_calls(monkeypatch)
    _, peak = traced_peak(lp_norm, f, Fraction(5, 2))
    assert calls == [((top.stop, n), 1)]
    assert peak < 16 * n * n  # less than one n x n complex array


@pytest.mark.parametrize("build", [extremizers.radial_focusing, extremizers.annulus])
def test_radial_numerator_norm_keeps_the_fft_column_pass(monkeypatch, build):
    """A radial numerator holds hundreds of rows, so its norm keeps the axis-0
    FFT: its quarter grid is to_physical's to the bit, and its norm is the
    mirror-weighted sum of exactly those values."""
    for j in range(4, 8):
        grid = level_grid(j)
        h, measure = grid.n // 2, grid.cell**2
        f = half_wave(littlewood_paley(build(grid, j), j), 0.7318)
        quarter = to_physical(f).values[: h + 1, : h + 1]
        calls = _ifft_calls(monkeypatch)
        half = grid_module._inverse(f, f.even)
        monkeypatch.undo()
        assert any(axis == 0 for _, axis in calls), j
        assert np.array_equal(half, quarter), j
        for p in (1, Fraction(5, 2), 16, math.inf):
            assert lp_norm(f, p) == grid_module._sum_norm(quarter, float(p), measure, f.even), (j, p)


@pytest.mark.parametrize("build", BUILDERS)
def test_norm_at_the_top_level_makes_no_complex_physical_array(build, traced_peak):
    """At n = 2048, j = 7, the norm of each family's denominator (its built field)
    and numerator (projected, evolved) peaks below half of one n x n complex
    array: the inverse transform is reduced block by block."""
    grid = level_grid(7)
    f = build(grid, 7)
    _, peak = traced_peak(lp_norm, f, 4)
    assert peak < 16 * grid.n**2 / 2
    f = half_wave(littlewood_paley(f, 7), 0.7318)
    _, peak = traced_peak(lp_norm, f, 16)
    assert peak < 16 * grid.n**2 / 2


def test_a_multiplier_reads_the_spectrum_to_physical_kept(monkeypatch):
    """A physical field made by to_physical keeps the frequency field it came
    from, so a multiplier or the maximal function on it runs no forward
    transform: each average of its projection is the maximal function's term
    to the bit, and the fft2 route, on the same values without the spectrum,
    agrees within 1e-13 relative."""
    grid = GridSpec(256, 8.0)
    f = extremizers.annulus(grid, 4)
    phys = to_physical(f)
    assert phys.spectrum is f
    kept = {a.name: a for a in dataclasses.fields(Field)}["spectrum"]
    assert not (kept.init or kept.compare)
    monkeypatch.setattr(grid_module, "to_frequency", None)
    got = circular_average(phys, 1.3)
    E = TimeSet.from_points([1.1, 1.3, 1.9])
    top = np.abs(maximal_function(phys, E, 4).values)
    pj = littlewood_paley(phys, 4)
    averages = [np.abs(circular_average(pj, t).values) for t in discretize(E, 2.0**-4).points]
    monkeypatch.undo()
    assert len(averages) == 3 and np.array_equal(np.max(averages, axis=0), top)
    assert got.space == "physical" and got.spectrum is not None
    want = circular_average(Field(grid, phys.values, "physical"), 1.3).values
    assert np.abs(got.values - want).max() <= 1e-13 * np.abs(want).max()


def test_evenness_is_kept_by_radial_multipliers_and_dropped_by_the_rest(monkeypatch):
    grid = GridSpec(256, 8.0)
    for build in BUILDERS:
        f = build(grid, 4)
        for g in (littlewood_paley(f, 4), half_wave(f, 1.3), circular_average(f, 1.3)):
            assert g.even == f.even
        dropped = (
            sector_project(f, (0.0, 1.0), 0.2),
            circular_average_quadrature(f, 1.3),
            to_physical(f),
            to_frequency(to_physical(f)),
            Field(grid, f.values, "frequency"),
        )
        assert all(g.even == () for g in dropped)
    # an even field takes the mirrored path, with no n x n transform ...
    f = half_wave(littlewood_paley(extremizers.annulus(grid, 4), 4), 1.3)
    want = lp_norm(f, 4)
    hand = Field(grid, f.values, "frequency")
    monkeypatch.setattr(grid_module, "to_physical", None)
    assert lp_norm(f, 4) == want
    monkeypatch.undo()
    # ... and a hand-made one whose values happen to be even takes the full path
    seen, inverse = [], grid_module._inverse

    def spy(g, even=(), *args, **kwargs):
        seen.append((g is hand, even))
        return inverse(g, even, *args, **kwargs)

    monkeypatch.setattr(grid_module, "_inverse", spy)
    assert lp_norm(hand, 4) == pytest.approx(want, rel=1e-13)
    assert seen == [(True, ())]


def _inverse_paths(grid):
    """(label, field, even) of every path of ``_inverse``: a forward transform, a field
    stored on its support, a radial one (even in both axes, so also in axis 0) on
    the mirrored FFT path and a Knapp numerator on the cosine sum."""
    j = grid.max_band_j(BETA1_SUPPORT[1])
    base = to_frequency(random_field(grid, seed=4))
    radial = half_wave(littlewood_paley(extremizers.annulus(grid, j), j), 0.7318)
    knapp = half_wave(littlewood_paley(extremizers.knapp(grid, j), j), 0.7318)
    assert _row_blocks(grid, knapp.support)[0].stop < 2 * grid.n.bit_length()  # the cosine sum
    return (("whole lattice", base, ()), ("stored", half_wave(littlewood_paley(base, j), 1.3), ()),
            ("even (0,)", radial, (0,)), ("even (0, 1)", radial, (0, 1)), ("cosine sum", knapp, (0,)))


def _run_at(monkeypatch, workers, fn):
    """fn() with each pass of the inverse transform split into ``workers`` runs, at any n."""
    monkeypatch.setattr(grid_module, "_WORKERS", workers)
    monkeypatch.setattr(grid_module, "_SPLIT_BYTES", 0)
    try:
        return fn()
    finally:
        monkeypatch.undo()


@pytest.mark.parametrize("n", [256, 1024])
def test_pooled_inverse_transform_is_the_serial_one(monkeypatch, n):
    """Every path of ``_inverse``, complex and as |f|^p, every builder's norm and a
    tiny study's levels are the same bits with the passes split across threads,
    on more runs than CPUs and with a short switch interval, as with one run."""
    grid = GridSpec(n, 8.0)
    paths = _inverse_paths(grid)
    builders = [build(grid, 4) for build in BUILDERS]
    fields = builders + [half_wave(littlewood_paley(f, 4), 0.7318) for f in builders]
    configs = [RunConfig(family="knapp", p="5/2", q="5", set_kind="cantor", j_min=2, j_max=4, time_L=2.0),
               RunConfig(family="radial_focusing", p="4", q="4", set_kind="single_time", j_min=2, j_max=4,
                         time_L=4.0)]

    def everything():
        inverses = [grid_module._inverse(f, even, power) for _, f, even in paths
                    for power in (None, 1.0, 2.5, math.inf)]
        norms = [lp_norm(f, p) for f in fields for p in (1, Fraction(5, 2), math.inf)]
        return inverses, norms, [experiments.run_scaling(c).levels for c in configs] if n == 256 else []

    serial = _run_at(monkeypatch, 1, everything)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers in (2, 5):
            inverses, norms, levels = _run_at(monkeypatch, workers, everything)
            for got, want in zip(inverses, serial[0], strict=True):
                assert got.dtype == want.dtype and np.array_equal(got, want), workers
            assert norms == serial[1] and levels == serial[2], workers
    finally:
        sys.setswitchinterval(interval)


TRACED_BOUNDARIES = ("littlewood_paley", "half_wave", "circular_average", "to_physical",
                     "to_frequency", "lp_norm", "mixed_norm", "maximal_function")


def test_traced_boundaries_run_on_the_calling_thread(monkeypatch):
    """Every ``grid`` function an outside tracer wraps runs on the thread that
    called into the package, while the inverse transforms' blocks run on the
    pool too: a tracer's one span stack sees every span.  Each binding is
    patched in every module, as a tracer does."""
    caller, seen, ffts = threading.get_ident(), [], set()
    modules = [m for name, m in sys.modules.items() if name.startswith("fractalwave") and m is not None]
    for name in TRACED_BOUNDARIES:
        original = getattr(grid_module, name)

        def wrapper(*args, _fn=original, _name=name, **kwargs):
            seen.append((_name, threading.get_ident()))
            return _fn(*args, **kwargs)
        for m in modules:
            for attr, value in list(vars(m).items()):
                if value is original:
                    monkeypatch.setattr(m, attr, wrapper)
    ifft = np.fft.ifft

    def spy(*args, **kwargs):
        ffts.add(threading.get_ident())
        return ifft(*args, **kwargs)

    monkeypatch.setattr(np.fft, "ifft", spy)
    monkeypatch.setattr(grid_module, "_WORKERS", max(2, grid_module._WORKERS))
    monkeypatch.setattr(grid_module, "_SPLIT_BYTES", 0)
    grid = GridSpec(256, 8.0)
    f = random_field(grid, seed=5)
    grid_module.lp_norm(grid_module.to_physical(grid_module.to_frequency(f)), 4)
    grid_module.maximal_function(f, TimeSet.from_points([1.1, 1.3]), 4)
    experiments.run_scaling(RunConfig(family="annulus", p="4", q="4", set_kind="cantor",
                                      j_min=2, j_max=4, time_L=2.0))
    assert {name for name, _ in seen} == set(TRACED_BOUNDARIES)
    assert {ident for _, ident in seen} == {caller}
    assert ffts - {caller}, "no block ran on the pool"


@pytest.mark.parametrize("n, split", [(512, False), (1024, True)])
def test_blocks_from_n_1024_on_are_split(monkeypatch, n, split):
    """Below 32 x 1024 points a block's pass runs on the calling thread alone, as
    threads lost at n = 512; from n = 1024 on every pass of a norm is split."""
    threads, ifft, einsum = [], np.fft.ifft, np.einsum
    monkeypatch.setattr(np.fft, "ifft", lambda *a, **k: threads.append(("fft", threading.get_ident())) or ifft(*a, **k))
    monkeypatch.setattr(np, "einsum", lambda *a, **k: threads.append(("sum", threading.get_ident())) or einsum(*a, **k))
    monkeypatch.setattr(grid_module, "_WORKERS", 2)
    grid = GridSpec(n, 8.0)
    j = grid.max_band_j(BETA1_SUPPORT[1])
    for f in (extremizers.annulus(grid, j), half_wave(littlewood_paley(extremizers.knapp(grid, j), j), 0.7318)):
        lp_norm(f, 4)
    kinds = {kind for kind, ident in threads if ident != threading.get_ident()}
    assert kinds == ({"fft", "sum"} if split else set())


def test_full_lattice_caches_are_bounded():
    assert _band_points.cache_info().maxsize <= 8
    bound = _band_points.cache_info().maxsize
    for k in range(bound + 3):
        _band_points(GridSpec(64, 8.0 + k), 1.0, 8.0)
    assert _band_points.cache_info().currsize == bound


def test_random_field_is_deterministic():
    a = random_field(GridSpec(64, 8.0), seed=11)
    b = random_field(GridSpec(64, 8.0), seed=11)
    c = random_field(GridSpec(64, 8.0), seed=12)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)
