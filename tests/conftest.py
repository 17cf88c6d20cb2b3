"""Checks shared by several test modules."""

import tracemalloc

import numpy as np
import pytest

from fractalwave.grid import frequency_lattice


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
