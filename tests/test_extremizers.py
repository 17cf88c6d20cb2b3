"""Extremizer families: concentration certificates and norm growth exponents.

Calibration values (envelope constants, center values, shell minima) were
measured on a 1024^2 grid of period 8 and frozen with margins; see
scripts/calibrate_extremizers.py to re-derive them.  Field construction is
the expensive part, so each family is built once per j and shared.
"""

import numpy as np
import pytest

from fractalwave import extremizers
from fractalwave.cutoffs import BETA1_SUPPORT, beta0, beta1
from fractalwave.experiments import level_grid
from fractalwave.extremizers import (
    DEFAULT_C1,
    annulus_shell_minimum,
    concentration_constant,
    knapp_center_value,
    knapp_coherence,
    knapp_phase_error,
    radial_focusing,
    shell_mass_fraction,
)
from fractalwave.grid import GridSpec, _axis_freq, frequency_lattice, lp_norm, to_physical

GRID = GridSpec(1024, 8.0)
JS = (4, 5, 6)


@pytest.fixture(scope="module")
def fields():
    out = {}
    for family in ("radial_focusing", "knapp", "annulus"):
        for j in JS:
            out[family, j] = getattr(extremizers, family)(GRID, j)
    return out


# --- guards ------------------------------------------------------------------


def test_alias_guard():
    small = GridSpec(256, 8.0)  # nyquist ~ 100.5, so 2^(j+2) <= nyquist forces j <= 4
    radial_focusing(small, 4)
    for family in ("radial_focusing", "knapp", "annulus"):
        with pytest.raises(ValueError):
            getattr(extremizers, family)(small, 5)


@pytest.mark.parametrize("j", [2, 3, 4])
def test_families_equal_their_full_lattice_formulas(j, honest_support):
    grid = GridSpec(256, 8.0)
    xi1, xi2 = frequency_lattice(grid)
    r = np.hypot(xi1, xi2)
    dense = {
        "radial_focusing": np.exp(-1j * r) * beta1(r / 2.0**j),
        "knapp": beta0(xi1 / (DEFAULT_C1 * 2.0 ** (j / 2.0))) * beta1(xi2 / 2.0**j) + 0j,
        "annulus": beta1(r / 2.0**j) + 0j,
    }
    for family, want in dense.items():
        f = getattr(extremizers, family)(grid, j)
        assert np.array_equal(f.values, want)
        honest_support(f)


def test_frequency_support_is_annular(fields):
    f = fields["radial_focusing", 5]
    assert f.space == "frequency"
    r = np.hypot(*np.broadcast_arrays(*frequency_lattice(GRID)))
    outside = (r <= 2.0**5 / 4.0) | (r >= 2.0**5 * 4.0)
    assert np.abs(f.values[outside]).max() == 0.0


# --- focusing family ---------------------------------------------------------


def test_focusing_mass_concentrates_on_unit_shell(fields):
    for j in JS:
        frac = shell_mass_fraction(fields["radial_focusing", j], 8.0 * 2.0**-j)
        assert frac >= 0.5  # measured ~0.998


def test_focusing_near_field_envelope(fields):
    # |f| <= C 2^{3j/2} (1 + 2^j ||x|-1|)^{-4} with a j-stable C on the scaled
    # shell 2^j ||x|-1| <= 8; measured 44.6 / 37.8 / 34.8
    for j in JS:
        c = concentration_constant(fields["radial_focusing", j], j, shell_limit=8.0)
        assert c <= 50.0


def test_focusing_global_envelope_grows(fields):
    # the same constant without the shell restriction is attained in the far
    # tail and grows with j: check it is not mistakenly certified
    c4 = concentration_constant(fields["radial_focusing", 4], 4)
    c6 = concentration_constant(fields["radial_focusing", 6], 6)
    assert c6 > 2.0 * c4


# --- knapp family ------------------------------------------------------------


def test_knapp_center_value(fields):
    for j in JS:
        kappa = knapp_center_value(fields["knapp", j], j)
        assert kappa >= 0.025  # measured ~0.049


def test_knapp_coherence(fields):
    # the refocused center value reaches >= 99% of the absolute upper bound
    for j in JS:
        assert knapp_coherence(GRID, j) >= 0.99


def test_knapp_coherence_bound_is_the_dense_sum(fields):
    """The bound sums |f_hat| over the support values only; the n x n sum, zeros
    included, agrees to rounding."""
    for j in JS:
        f = fields["knapp", j]
        dense = np.abs(f.values).sum() / GRID.period**2
        want = knapp_center_value(f, j) * 2.0 ** (1.5 * j) / dense
        assert knapp_coherence(GRID, j) == pytest.approx(want, rel=1e-14, abs=0.0)


def test_knapp_phase_error_scales_like_c1_squared():
    for c1 in (0.0625, 0.125, 0.25):
        plat = knapp_phase_error(j=6, c1=c1, region="plateau")
        supp = knapp_phase_error(j=6, c1=c1, region="support")
        assert plat <= 8.05 * c1**2  # measured ~6.0 c1^2
        assert supp <= min(65.0 * c1**2, 2.0)  # measured ~47.7 c1^2, capped at 2
    with pytest.raises(ValueError):
        knapp_phase_error(j=6, c1=0.125, region="edge")


def test_knapp_phase_error_is_j_stable():
    vals = [knapp_phase_error(j=j, c1=0.125) for j in (4, 6, 8)]
    assert max(vals) / min(vals) <= 1.1


@pytest.mark.parametrize("j", range(4, 9))
def test_knapp_phase_error_support_is_the_rectangle_knapp_fills(j):
    """The "support" window knapp_phase_error maximizes over holds exactly the
    lattice points knapp fills on its level's grid, open as the profiles vanish
    on their support's edge."""
    grid = level_grid(j)
    a1, lo2, hi2 = extremizers._knapp_window(j, DEFAULT_C1, "support")
    assert (lo2, hi2) == grid.band(j, BETA1_SUPPORT)
    xi = _axis_freq(grid)
    rows, cols = np.flatnonzero(np.abs(xi) < a1), np.flatnonzero((xi > lo2) & (xi < hi2))
    want = (rows[:, None] * grid.n + cols).ravel()
    assert want.size and np.array_equal(np.sort(want), extremizers.knapp(grid, j).support[0])


# --- annulus family ----------------------------------------------------------


def test_annulus_shell_minimum(fields):
    for j in JS:
        m = annulus_shell_minimum(GRID, j)
        assert m >= 0.12  # measured ~0.17


# --- L^p norm growth ---------------------------------------------------------

CLOSED_FORM_SLOPES = {
    # family -> {p: log2 ||f_{j+1}|| - log2 ||f_j|| in the large-j limit}
    "radial_focusing": {1.0: 0.5, 2.0: 1.0, 4.0: 1.25},
    "knapp": {1.0: 0.0, 2.0: 0.75, 4.0: 1.125},
    "annulus": {2.0: 1.0, 4.0: 1.5},
}


def test_norm_growth_matches_closed_forms(fields):
    for family, targets in CLOSED_FORM_SLOPES.items():
        for p, target in targets.items():
            n5 = lp_norm(fields[family, 5], p)
            n6 = lp_norm(fields[family, 6], p)
            slope = np.log2(n6 / n5)
            assert slope == pytest.approx(target, abs=0.1), (family, p)


def test_physical_realization_is_finite(fields):
    g = to_physical(fields["annulus", 4])
    assert np.isfinite(g.values).all()
