"""Grid conventions: transforms, norms, lattice layout.

The transform normalization is the one where the discrete Plancherel identity
sum |f|^2 cell^2 = sum |f_hat|^2 / period^2 holds exactly, and a pure lattice
plane wave e^{i k . x} transforms to a single spike of weight period^2.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractalwave.grid import (
    Field,
    GridSpec,
    frequency_lattice,
    lp_norm,
    mixed_norm,
    physical_coords,
    random_field,
    to_frequency,
    to_physical,
)


def test_grid_spec_derived_quantities():
    g = GridSpec(256, 8.0)
    assert g.cell == pytest.approx(8.0 / 256)
    assert g.nyquist == pytest.approx(np.pi * 256 / 8.0)
    assert g.max_band_j(2.0) == 5  # largest j with 2 * 2^j <= nyquist = 100.5
    assert g.max_band_j(4.0) == 4


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
    assert mixed_norm({1.0: f}, 2) == pytest.approx(lp_norm(f, 2))
    g = random_field(GridSpec(64, 8.0), seed=2)
    both = mixed_norm({1.0: f, 1.5: g}, 4)
    assert both == pytest.approx((lp_norm(f, 4) ** 4 + lp_norm(g, 4) ** 4) ** 0.25)
    assert mixed_norm({1.0: f, 1.5: g}, np.inf) == pytest.approx(
        max(lp_norm(f, np.inf), lp_norm(g, np.inf))
    )
    with pytest.raises(ValueError):
        mixed_norm({}, 2)


def test_random_field_is_deterministic():
    a = random_field(GridSpec(64, 8.0), seed=11)
    b = random_field(GridSpec(64, 8.0), seed=11)
    c = random_field(GridSpec(64, 8.0), seed=12)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)
