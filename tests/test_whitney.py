"""Whitney pairing of dyadic sub-arcs: exact coverage and separation bands."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractalwave.whitney import (
    BASE_ARC,
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
    assert BASE_ARC == (0.0, 0.25)
    dec = whitney(6)
    assert dec.base_length == 0.25
    assert separation_band(dec) == (0.25, 0.5)


def test_separation_matches_arc_geometry():
    # the gap between the two sub-arcs, each at BASE_ARC[0] + k h with
    # h = |base arc| 2^-nu, read off their endpoints
    dec = whitney(5)
    for p in dec.pairs:
        if p.terminal:
            continue
        h = dec.base_length / 2**p.nu
        a = (BASE_ARC[0] + p.k * h, BASE_ARC[0] + (p.k + 1) * h)
        b = (BASE_ARC[0] + p.k_prime * h, BASE_ARC[0] + (p.k_prime + 1) * h)
        gap = max(b[0] - a[1], a[0] - b[1])
        assert dec.pair_separation(p) == pytest.approx(gap, abs=1e-15)


def test_validation():
    with pytest.raises(ValueError):
        whitney(0)
    with pytest.raises(ValueError):
        whitney(13)


def test_pairs_match_the_full_square_sweep():
    # the pair rule read over every ordered pair (k, k') of each level, in
    # whitney's order: the band |k - k'| <= 3 it loops over loses none
    for nu_max in range(1, 11):
        full = []
        for nu in range(nu_max + 1):
            m = 2**nu
            for k in range(m):
                for kp in range(m):
                    d = abs(k - kp)
                    if d >= 2 and abs(k // 2 - kp // 2) <= 1:
                        full.append(ArcPair(nu, k, kp, terminal=False))
                    elif nu == nu_max and d <= 1:
                        full.append(ArcPair(nu, k, kp, terminal=True))
        assert whitney(nu_max).pairs == tuple(full)


def test_separation_band_refuses_a_decomposition_with_no_separated_pair():
    with pytest.raises(ValueError, match="decomposition has no separated pairs"):
        separation_band(whitney(1))  # level 1: every pair is terminal
