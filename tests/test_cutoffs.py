"""Smooth bump calculus: exact partition identities and support windows."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractalwave.cutoffs import (
    BETA0_SUPPORT,
    BETA1_SUPPORT,
    BETA_SUPPORT,
    beta,
    beta0,
    beta1,
    eta,
    psi,
    step,
)

floats = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


@given(floats)
@settings(max_examples=100)
def test_step_partition_identity(s):
    assert step(s) + step(1.0 - s) == pytest.approx(1.0, abs=1e-15)


def test_step_range_and_monotone():
    s = np.linspace(-1.0, 2.0, 1001)
    v = step(s)
    assert np.all(v >= 0.0) and np.all(v <= 1.0)
    assert np.all(np.diff(v) >= -1e-15)
    assert v[s <= 0.0].max() == 0.0
    assert v[s >= 1.0].min() == 1.0


def test_step_is_the_eta_ratio_bit_for_bit():
    edges = [0.0, -0.0, 1.0, 1e-300, 1.0 - 1e-16, np.inf, -np.inf]
    s = np.concatenate([np.linspace(-2.0, 3.0, 50001), edges])
    a, b = eta(s), eta(1.0 - s)
    assert np.array_equal(step(s), a / (a + b))


@pytest.mark.parametrize(
    "profile, support", [(beta, BETA_SUPPORT), (beta0, BETA0_SUPPORT), (beta1, BETA1_SUPPORT)]
)
def test_profiles_vanish_exactly_off_their_support(profile, support):
    lo, hi = support
    edges = [lo, hi, np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)]
    t = np.concatenate([np.linspace(lo - 3.0, hi + 3.0, 60001), edges])
    v = profile(t)
    assert np.all(v[(t <= lo) | (t >= hi)] == 0.0)


def test_psi_plateau_and_support():
    t = np.linspace(-3.0, 4.0, 1401)
    v = psi(t)
    assert np.all(v[t <= 1.0] == 1.0)
    assert np.all(v[t >= 2.0] == 0.0)
    assert np.all((v >= 0.0) & (v <= 1.0))


def test_beta_support():
    t = np.linspace(-1.0, 4.0, 2001)
    v = beta(t)
    assert np.all(v[(t <= 0.5) | (t >= 2.0)] == 0.0)
    assert beta(1.0) == pytest.approx(1.0)
    assert np.all(v >= -1e-15)


def test_beta_telescoping_partition():
    # sum of beta(2^-j t) over j = 0..J is exactly psi(2^-J t) - psi(2t):
    # identically 1 on [1, 2^J]
    for J in (3, 6, 8):
        t = np.linspace(1.0, 2.0**J, 4001)
        total = sum(beta(t / 2.0**j) for j in range(J + 1))
        assert np.abs(total - 1.0).max() <= 1e-12


def test_beta0_even_plateau():
    t = np.linspace(-5.0, 5.0, 2001)
    v = beta0(t)
    assert np.all(v[np.abs(t) <= 2.0] == 1.0)
    assert np.all(v[np.abs(t) >= 4.0] == 0.0)
    assert np.allclose(v, beta0(-t), atol=0.0)


def test_beta1_ring_plateau():
    t = np.linspace(-1.0, 6.0, 2801)
    v = beta1(t)
    assert np.all(v[(t >= 0.5) & (t <= 2.0)] == 1.0)
    assert np.all(v[(t <= 0.25) | (t >= 4.0)] == 0.0)


def test_eta_germ():
    assert eta(-1.0) == 0.0
    assert eta(0.0) == 0.0
    assert eta(1.0) == pytest.approx(np.exp(-1.0))
    # all derivatives vanish at 0: the forward difference quotient dies fast
    assert eta(1e-3) < 1e-300 or eta(1e-3) / 1e-3 < 1e-100
