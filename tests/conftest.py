"""Checks shared by several test modules."""

import numpy as np
import pytest

from fractalwave.grid import frequency_lattice, to_frequency


def _check_honest_support(f, rtol: float = 0.0) -> None:
    """``f.support`` is honest: ascending read-only flat indices, r = |xi| at them,
    and a transform that is zero off them (within rtol of its peak for a
    physical field, whose claim holds up to FFT rounding)."""
    flat, r = f.support
    assert not flat.flags.writeable and not r.flags.writeable
    assert np.all(np.diff(flat) > 0)
    assert np.array_equal(r, np.hypot(*frequency_lattice(f.grid)).ravel()[flat])
    vals = (f if f.space == "frequency" else to_frequency(f)).values.ravel()
    off = np.ones(vals.size, dtype=bool)
    off[flat] = False
    assert np.abs(vals[off]).max(initial=0.0) <= rtol * np.abs(vals).max()


@pytest.fixture
def honest_support():
    return _check_honest_support
