"""Checks shared by several test modules, and the oracles and paper formulas
that only tests read: the grid cap pairs, the far-field Bessel term and the
critical line."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from fractalwave.caps import _KINDS
from fractalwave.exponents import _frac
from fractalwave.grid import Field, GridSpec, frequency_lattice


def torus_coords(grid) -> tuple[np.ndarray, np.ndarray]:
    """Broadcastable (X1, X2) signed torus coordinates, made per call: index i
    is ((i + n/2) mod n - n/2) * cell, as ``fractalwave.grid`` lays the torus out."""
    n = grid.n
    x = ((np.arange(n) + n // 2) % n - n // 2) * grid.cell
    return x[:, None], x[None, :]


def _check_honest_support(f) -> None:
    """``f.support`` is honest: read-only arrays, strictly ascending flat
    indices, int32 ``inv`` in range and using every radius, radii[inv] = |xi|
    at the indices bit for bit, and a frequency field that is zero off them."""
    flat, inv, radii = f.support
    assert not any(a.flags.writeable for a in (flat, inv, radii))
    assert np.all(np.diff(flat) > 0)
    assert inv.dtype == np.int32 and inv.shape == flat.shape
    assert inv.size == 0 or (inv.min() >= 0 and inv.max() < radii.size)
    assert np.bincount(inv, minlength=radii.size).all()
    assert np.array_equal(radii[inv], np.hypot(*frequency_lattice(f.grid)).ravel()[flat])
    off = np.ones(f.grid.n**2, dtype=bool)
    off[flat] = False
    assert not f.values.ravel()[off].any()


@pytest.fixture
def honest_support():
    return _check_honest_support


def _traced_peak(fn, *args):
    """(fn(*args), the tracemalloc peak in bytes of the memory it allocated)."""
    tracemalloc.start()
    try:
        out = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak


@pytest.fixture
def traced_peak():
    return _traced_peak


def bilinear_cap_pair(grid: GridSpec, delta: float, kind: str) -> tuple[Field, Field]:
    """Grid realization: indicator coefficients on the lattice, cap dilated by
    N = nyquist/2, each factor exactly L^2-normalized."""
    if kind not in _KINDS:
        raise ValueError(f"kind must be one of {_KINDS}, got {kind!r}")
    if not 8.0 / grid.nyquist <= delta <= 0.25:
        raise ValueError(
            f"delta must lie in [8/nyquist, 1/4] = [{8.0 / grid.nyquist:.4g}, 0.25], got {delta}"
        )
    N = grid.nyquist / 2.0
    spacing = 2.0 * np.pi / grid.period
    # each cap dimension must span at least one lattice spacing, or the
    # indicator degenerates (a single column no longer shrinks with delta)
    thin = N * (2.0 * math.asin(delta / 2.0)) if kind == "angular" else N * delta**2
    if thin < spacing:
        raise ValueError(
            f"cap thickness {thin:.4g} is below the lattice spacing {spacing:.4g} "
            f"at delta={delta}; refine the grid or use the continuum profile"
        )
    xi1, xi2 = frequency_lattice(grid)
    e1, e2 = xi1 / N, xi2 / N
    if kind == "angular":
        r = np.hypot(e1, e2)
        with np.errstate(invalid="ignore", divide="ignore"):
            chord = np.hypot(e1 / r - 1.0, e2 / r)
        mask = (r >= 0.5) & (r <= 2.0) & (chord < delta)
        masks = (mask, mask)
    else:
        inside = (np.abs(e1 - 1.0) <= delta**2) & (np.abs(e2) <= delta)
        mirrored = (np.abs(e1 + 1.0) <= delta**2) & (np.abs(e2) <= delta)
        masks = (inside, mirrored)
    fields = []
    for mask in masks:
        count = int(mask.sum())
        if count < 4:
            raise ValueError(
                f"cap resolves to {count} lattice points at delta={delta}; "
                "refine the grid or use the continuum profile"
            )
        amp = grid.period / math.sqrt(count)
        fields.append(Field(grid, mask * amp, "frequency"))
    return fields[0], fields[1]


def wave_leading_term(r):
    """Far-field one-term approximation sqrt(2/(pi r)) cos(r - pi/4).

    Equals the sum over both half-wave branches c_pm e^{pm i r} r^{-1/2} with
    c_pm = (2 pi)^{-1/2} e^{mp i pi/4}; the true J0 differs by O(r^{-3/2}).
    """
    r = np.asarray(r, dtype=np.float64)
    return np.sqrt(2.0 / (np.pi * r)) * np.cos(r - 0.25 * np.pi)


def critical_line(q, d: int, alpha) -> Fraction:
    """1/p on the line (d-1)(1 - 1/p) = (d-1+2 alpha)/q, given the exponent q."""
    qq = _frac(q)
    a = _frac(alpha)
    if qq <= 0:
        raise ValueError(f"q must be positive, got {qq}")
    inv_p = 1 - Fraction(d - 1 + 2 * a, (d - 1)) / qq
    if not 0 <= inv_p <= 1:
        raise ValueError(f"critical line leaves the unit square at q={qq}: 1/p={inv_p}")
    return inv_p
