"""Smooth cutoff calculus built from the standard exp(-1/s) mollifier.

All profiles are exact C^infinity bumps, vectorized over numpy arrays:

* ``step``: 0 for s <= 0, 1 for s >= 1, with step(s) + step(1-s) = 1 exactly.
* ``psi``: 1 on (-inf, 1], 0 on [2, inf), monotone in between.
* ``beta(t) = psi(t) - psi(2t)``: supported in (1/2, 2); the dyadic family
  beta(2**-j t) telescopes to 1 on [1, 2**J].
* ``beta0(t) = psi(|t|/2)``: even, 1 on [-2, 2], supported in (-4, 4).
* ``beta1(t) = psi(t/2) * (1 - psi(4t))``: 1 on [1/2, 2], supported in (1/4, 4).

These are the only bump shapes used anywhere in the package, so frequency
supports quoted elsewhere (e.g. alias guards) can be read off this table.
Each profile is exactly 0 outside its open support below (the floating-point
evaluation included), so a caller may evaluate it inside the support only and
write zeros elsewhere.
"""

from __future__ import annotations

import numpy as np

BETA_SUPPORT = (0.5, 2.0)
BETA0_SUPPORT = (-4.0, 4.0)
BETA1_SUPPORT = (0.25, 4.0)
BETA0_PLATEAU = (-2.0, 2.0)  # where beta0 = 1
BETA1_PLATEAU = (0.5, 2.0)  # where beta1 = 1


def eta(s):
    """exp(-1/s) for s > 0, continued by 0; the basic C^inf transition germ."""
    s = np.asarray(s, dtype=np.float64)
    out = np.zeros_like(s)
    pos = s > 0
    with np.errstate(over="ignore"):
        out[pos] = np.exp(-1.0 / s[pos])
    return out


def step(s):
    """Smooth unit step on [0, 1]: eta(s) / (eta(s) + eta(1-s)).

    The denominator never vanishes, and step(s) + step(1 - s) = 1 holds to
    machine precision -- the identity behind exact partitions of unity.
    """
    s = np.asarray(s, dtype=np.float64)
    out = np.zeros_like(s)
    out[s >= 1.0] = 1.0
    mid = (s > 0.0) & (s < 1.0)
    a = eta(s[mid])
    b = eta(1.0 - s[mid])
    out[mid] = a / (a + b)
    return out


def psi(t):
    """1 for t <= 1, 0 for t >= 2, step(2 - t) in between."""
    t = np.asarray(t, dtype=np.float64)
    return step(2.0 - t)


def beta(t):
    """Dyadic ring profile psi(t) - psi(2t), supported in (1/2, 2)."""
    t = np.asarray(t, dtype=np.float64)
    return psi(t) - psi(2.0 * t)


def beta0(t):
    """Even plateau bump: 1 on [-2, 2], supported in (-4, 4)."""
    t = np.asarray(t, dtype=np.float64)
    return psi(np.abs(t) / 2.0)


def beta1(t):
    """One-sided ring bump: 1 on [1/2, 2], supported in (1/4, 4)."""
    t = np.asarray(t, dtype=np.float64)
    return psi(t / 2.0) * (1.0 - psi(4.0 * t))

