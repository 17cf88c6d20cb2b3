"""Bessel function J0: power series below 12, Hankel-type asymptotic beyond.

The split at x = 12 keeps both branches inside a 1e-10 absolute error budget:

* Series branch: J0(x) = sum_k (-1)^k (x/2)^{2k} / (k!)^2, evaluated by Horner
  in u = x^2 with coefficients through k = 34 (the first term below 1e-16 at
  the split point).  The largest intermediate term at x = 12 is ~4e3, so
  float64 cancellation costs ~1e-12 absolute — within budget.
* Asymptotic branch: with chi = z - pi/4 and t_m = ((2m-1)!!)^2 / (m! 8^m z^m),

      J0(z) = sqrt(2/(pi z)) * [ (1 - t2 + t4 - ...) cos chi
                                 + (t1 - t3 + t5 - ...) sin chi ],

  truncated per-element at the smallest term (the classic divergent-series
  rule); at z = 12 the smallest term is ~e^{-2z} ~ 4e-11.

``wave_leading_term`` exposes the one-term far-field approximation
sqrt(2/(pi r)) cos(r - pi/4) whose residual decays like r^{-3/2}; tests
certify the residual envelope constant.
"""

from __future__ import annotations

import numpy as np

_SPLIT = 12.0
_SERIES_TERMS = 34
_ASYMPTOTIC_TERMS = 30


def _series_coeffs(k_max: int) -> np.ndarray:
    # c_0 = 1, c_k = -c_{k-1} / (4 k^2)  ==>  c_k = (-1)^k / (4^k (k!)^2)
    c = np.empty(k_max + 1)
    c[0] = 1.0
    for k in range(1, k_max + 1):
        c[k] = -c[k - 1] / (4.0 * k * k)
    return c


_COEFFS = _series_coeffs(_SERIES_TERMS)


def _j0_series(x: np.ndarray) -> np.ndarray:
    u = x * x
    acc = np.full_like(u, _COEFFS[_SERIES_TERMS])
    for k in range(_SERIES_TERMS - 1, -1, -1):
        acc = acc * u + _COEFFS[k]
    return acc


def _j0_asymptotic(z: np.ndarray) -> np.ndarray:
    inv_z = 1.0 / z
    p = np.ones_like(z)
    q = np.zeros_like(z)
    t_prev = abs_prev = np.ones_like(z)
    active = np.ones(z.shape, dtype=bool)
    for m in range(1, _ASYMPTOTIC_TERMS + 1):
        t = t_prev * (2 * m - 1) ** 2 * inv_z / (8.0 * m)
        abs_t = np.abs(t)
        active &= abs_t < abs_prev
        n_active = np.count_nonzero(active)
        if not n_active:
            break
        contrib = t if n_active == active.size else np.where(active, t, 0.0)
        acc = q if m % 2 else p  # signs + - - + repeat with period 4 from m = 1
        if m % 4 in (0, 1):
            acc += contrib
        else:
            acc -= contrib
        t_prev, abs_prev = t, abs_t
    chi = z - 0.25 * np.pi
    return np.sqrt(2.0 / (np.pi * z)) * (p * np.cos(chi) + q * np.sin(chi))


def bessel_j0(x):
    """J0(x) for x >= 0, vectorized; absolute error below 1e-10 through x ~ 2000."""
    arr = np.asarray(x, dtype=np.float64)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if (arr < -1e-12).any():
        raise ValueError("bessel_j0 expects x >= 0")
    arr = np.abs(arr)
    out = np.empty_like(arr)
    low = arr <= _SPLIT
    if low.any():
        out[low] = _j0_series(arr[low])
    if (~low).any():
        out[~low] = _j0_asymptotic(arr[~low])
    return float(out[0]) if scalar else out


def wave_leading_term(r):
    """Far-field one-term approximation sqrt(2/(pi r)) cos(r - pi/4).

    Equals the sum over both half-wave branches c_pm e^{pm i r} r^{-1/2} with
    c_pm = (2 pi)^{-1/2} e^{mp i pi/4}; the true J0 differs by O(r^{-3/2}).
    """
    r = np.asarray(r, dtype=np.float64)
    return np.sqrt(2.0 / (np.pi * r)) * np.cos(r - 0.25 * np.pi)
