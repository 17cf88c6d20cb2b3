"""Checks shared by several test modules."""

import tracemalloc

import numpy as np
import pytest

from fractalwave.grid import frequency_lattice, to_frequency


def _check_honest_support(f, rtol: float = 0.0) -> None:
    """``f.support`` is honest: read-only arrays, strictly ascending flat
    indices, int32 ``inv`` in range and using every radius, radii[inv] = |xi|
    at the indices bit for bit, and a transform that is zero off them (within
    rtol of its peak for a physical field, whose claim holds up to FFT
    rounding)."""
    flat, inv, radii = f.support
    assert not any(a.flags.writeable for a in (flat, inv, radii))
    assert np.all(np.diff(flat) > 0)
    assert inv.dtype == np.int32 and inv.shape == flat.shape
    assert inv.size == 0 or (inv.min() >= 0 and inv.max() < radii.size)
    assert np.bincount(inv, minlength=radii.size).all()
    assert np.array_equal(radii[inv], np.hypot(*frequency_lattice(f.grid)).ravel()[flat])
    vals = (f if f.space == "frequency" else to_frequency(f)).values.ravel()
    off = np.ones(vals.size, dtype=bool)
    off[flat] = False
    assert np.abs(vals[off]).max(initial=0.0) <= rtol * np.abs(vals).max()


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
