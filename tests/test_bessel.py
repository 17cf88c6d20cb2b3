"""J0 evaluation against an independent high-precision oracle (mpmath)."""

import numpy as np
import pytest

mpmath = pytest.importorskip("mpmath")

from fractalwave.bessel import bessel_j0, wave_leading_term


def oracle(xs):
    with mpmath.workdps(40):
        return np.array([float(mpmath.besselj(0, x)) for x in xs])


def test_matches_oracle_below_split():
    xs = np.linspace(0.0, 12.0, 241)
    assert np.abs(bessel_j0(xs) - oracle(xs)).max() <= 1e-10


def test_matches_oracle_beyond_split():
    xs = np.concatenate([np.linspace(12.0, 60.0, 97), np.geomspace(60.0, 5000.0, 40)])
    assert np.abs(bessel_j0(xs) - oracle(xs)).max() <= 1e-10


def test_continuity_at_split():
    # both branches agree where they hand over
    left = bessel_j0(np.nextafter(12.0, 0.0))
    right = bessel_j0(np.nextafter(12.0, 24.0))
    assert abs(left - right) <= 1e-10


def test_special_values():
    assert bessel_j0(0.0) == pytest.approx(1.0, abs=1e-15)
    # first positive zero, j_{0,1} = 2.404825557695773...
    z1 = 2.404825557695773
    assert abs(bessel_j0(z1)) <= 1e-10
    assert bessel_j0(z1 - 1e-3) > 0.0 > bessel_j0(z1 + 1e-3)


def test_domain_and_array_shapes():
    xs = np.linspace(0.1, 30.0, 50)
    assert bessel_j0(xs.reshape(5, 10)).shape == (5, 10)
    assert np.isscalar(float(bessel_j0(3.0)))
    with pytest.raises(ValueError):
        bessel_j0(-1.0)


def test_far_field_residual_envelope():
    # |J0(r) - sqrt(2/(pi r)) cos(r - pi/4)| <= C r^{-3/2}; certify C on [5, 500]
    r = np.linspace(5.0, 500.0, 4001)
    resid = np.abs(bessel_j0(r) - wave_leading_term(r))
    c = (resid * r**1.5).max()
    assert c <= 0.12


def test_leading_term_formula():
    r = np.array([7.3, 42.0])
    expect = np.sqrt(2.0 / (np.pi * r)) * np.cos(r - np.pi / 4.0)
    assert np.allclose(wave_leading_term(r), expect, atol=1e-15)


def test_asymptotic_branch_is_elementwise():
    # the terms start growing near m = 2z, so z in (12, 14.5) stops at its
    # smallest term before the 30th while z >= 16 keeps all 30: the mixed
    # array must give each element's scalar value
    rng = np.random.default_rng(5)
    xs = rng.permutation(np.concatenate([rng.uniform(12.0, 14.5, 40), rng.uniform(16.0, 400.0, 40)]))
    assert bessel_j0(xs).tolist() == [bessel_j0(float(x)) for x in xs]
