"""Whitney pairing of dyadic sub-arcs: exact coverage and separation bands."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractalwave.whitney import (
    ArcPair,
    check_coverage,
    coverage_counts,
    separation_band,
    whitney,
)


def test_minimal_decomposition():
    dec = whitney(1)
    # level 1 has two arcs; no pair separates, so all four ordered pairs
    # are terminal
    assert len(dec.pairs) == 4
    assert all(p.terminal and p.nu == 1 for p in dec.pairs)
    assert check_coverage(dec)


def test_pair_rule_structure():
    dec = whitney(4)
    for p in dec.pairs:
        d = abs(p.k - p.k_prime)
        if p.terminal:
            assert p.nu == 4 and d <= 1
        else:
            assert d in (2, 3)
            assert abs(p.k // 2 - p.k_prime // 2) <= 1


@given(st.integers(min_value=1, max_value=8))
@settings(max_examples=8, deadline=None)
def test_coverage_is_exact_at_every_depth(nu_max):
    dec = whitney(nu_max)
    counts = coverage_counts(dec)
    assert counts.shape == (2**nu_max, 2**nu_max)
    assert np.all(counts == 1)


def test_pair_counts_closed_form():
    # rule pairs per level: 3 * 2^nu - 6 (for nu >= 2); terminal: 3 * 2^nu - 2.
    # totals therefore grow linearly in the number of finest arcs
    dec = whitney(6)
    for nu in range(2, 7):
        rule = [p for p in dec.pairs if p.nu == nu and not p.terminal]
        assert len(rule) == 3 * 2**nu - 6
    assert sum(p.terminal for p in dec.pairs) == 3 * 2**6 - 2
    assert not any(p.nu <= 1 for p in dec.pairs)


def test_separation_band_is_exact():
    dec = whitney(6, base_arc=(0.0, 0.25))
    assert separation_band(dec) == (0.25, 0.5)
    dec = whitney(3, base_arc=(0.1, 0.1 + 0.125))
    lo, hi = separation_band(dec)
    assert lo == pytest.approx(0.125)
    assert hi == pytest.approx(0.25)


def test_separation_matches_arc_geometry():
    dec = whitney(5)
    for p in dec.pairs:
        if p.terminal:
            continue
        a = dec.arc(p.nu, p.k)
        b = dec.arc(p.nu, p.k_prime)
        gap = max(b[0] - a[1], a[0] - b[1])
        assert dec.pair_separation(p) == pytest.approx(gap, abs=1e-15)


def test_arc_indexing():
    dec = whitney(3, base_arc=(0.0, 0.2))
    assert dec.arc(0, 0) == (0.0, 0.2)
    lo, hi = dec.arc(3, 7)
    assert lo == pytest.approx(0.175)
    assert hi == pytest.approx(0.2)
    with pytest.raises(ValueError):
        dec.arc(4, 0)
    with pytest.raises(ValueError):
        dec.arc(2, 4)


def test_validation():
    with pytest.raises(ValueError):
        whitney(0)
    with pytest.raises(ValueError):
        whitney(13)
    with pytest.raises(ValueError):
        whitney(3, base_arc=(0.5, 0.2))
    with pytest.raises(ValueError):
        whitney(3, base_arc=(0.0, 1.0))  # longer than pi/4
