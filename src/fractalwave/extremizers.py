"""Frequency-space test-function families with known norm scalings.

Three single-field families at dyadic scale 2^j (d = 2 throughout):

* radial focusing  --  fhat(xi) = e^{-i|xi|} beta1(|xi|/2^j); focuses on the
  unit circle, ||f||_p ~ 2^{j(3/2 - 1/p)};
* Knapp            --  fhat(xi) = beta0(xi_1/(c1 2^{j/2})) beta1(xi_2/2^j);
  a curvature-free plate (c1 = ``DEFAULT_C1``), ||f||_p ~ 2^{j(3/2)(1 - 1/p)};
* annulus          --  fhat(xi) = beta1(|xi|/2^j); ||f||_p ~ 2^{2j(1 - 1/p)}.

The radial supports lie in the band 2^{j-2} < |xi| < 2^{j+2} and the Knapp
window in |xi_1| < 4 c1 2^{j/2}, 2^{j-2} < xi_2 < 2^{j+2}; each builder takes
that band from ``GridSpec.band(j, BETA1_SUPPORT)``, whose alias guard demands
2^{j+2} <= nyquist.  The lattice points of that support, the ones a builder
fills, are the field's ``Field.support`` ``(flat, inv, radii)``, and
``grid._own`` makes the field on them; no support is derived by hand.  The
radial builders take their band's points from ``grid._band_points`` and
evaluate beta1 and e^{-i|xi|} once per lattice orbit, on its ``radii``, then
gather to the points with ``inv``; Knapp's radii are one per point, as its
symbol is not radial.  The Knapp symbol is an outer product, and ``knapp``
records its two 1-D factors as ``Field.factors``, so ``grid.lp_norm`` takes
its norm from two 1-D transforms.  ``Field.even`` records the axes a symbol is
even in: (0, 1) for the radial families, (0,) for Knapp (``beta0`` is even),
so a projected, evolved member's norm transforms half or a quarter of the
grid.  Physical-space concentration facts (focusing shell, Knapp box lower
bound after half-wave propagation to the probe time ``PROBE_T`` = 1.5) are
exposed as helpers so the same measurements drive tests and calibration
scripts.  A scaling study names its family by the builder's name
(``experiments.RunConfig.family``).
"""

from __future__ import annotations

import numpy as np

from .cutoffs import BETA0_PLATEAU, BETA0_SUPPORT, BETA1_PLATEAU, BETA1_SUPPORT, beta0, beta1
from .grid import (
    Field,
    GridSpec,
    _as_physical,
    _axis_freq,
    _band_points,
    _own,
    half_wave,
    physical_coords,
)

DEFAULT_C1 = 0.125
PROBE_T = 1.5  # the time at which the helpers below measure a propagated field


def radial_focusing(grid: GridSpec, j: int) -> Field:
    support = _, inv, radii = _band_points(grid, *grid.band(j, BETA1_SUPPORT))
    vals = np.take(np.exp(-1j * radii) * beta1(radii / 2.0**j), inv)
    return _own(grid, vals, "frequency", support=support, even=(0, 1))


def knapp(grid: GridSpec, j: int) -> Field:
    lo, hi = grid.band(j, BETA1_SUPPORT)
    xi = _axis_freq(grid)
    s1 = xi / (DEFAULT_C1 * 2.0 ** (j / 2.0))
    rows = np.flatnonzero((s1 > BETA0_SUPPORT[0]) & (s1 < BETA0_SUPPORT[1]))
    cols = np.flatnonzero((xi > lo) & (xi < hi))  # xi / 2^j in BETA1_SUPPORT, exactly
    a, b = np.zeros(grid.n), np.zeros(grid.n)
    a[rows], b[cols] = beta0(s1[rows]), beta1(xi[cols] / 2.0**j)
    flat = (rows[:, None] * grid.n + cols).ravel()
    support = flat, np.arange(flat.size, dtype=np.int32), np.hypot(xi[rows, None], xi[cols]).ravel()
    return _own(grid, (a[rows, None] * b[cols]).ravel(), "frequency", support=support, factors=(a, b), even=(0,))


def annulus(grid: GridSpec, j: int) -> Field:
    support = _, inv, radii = _band_points(grid, *grid.band(j, BETA1_SUPPORT))
    return _own(grid, np.take(beta1(radii / 2.0**j), inv), "frequency", support=support, even=(0, 1))


# --- measurement helpers ------------------------------------------------------


def shell_mass_fraction(f: Field, width: float) -> float:
    """Fraction of the squared L^2 mass carried by ||x| - 1| <= width."""
    g = _as_physical(f)
    x1, x2 = physical_coords(f.grid)
    r = np.hypot(x1, x2)
    m2 = np.abs(g.values) ** 2
    total = m2.sum()
    if total == 0.0:
        raise ValueError("empty field")
    return float(m2[np.abs(r - 1.0) <= width].sum() / total)


def concentration_constant(f: Field, j: int, shell_limit: float | None = None) -> float:
    """Smallest C with |f(x)| <= C 2^{3j/2} (1 + 2^j ||x| - 1|)^{-4} on the grid.

    With ``shell_limit`` the sup is restricted to 2^j ||x| - 1| <= shell_limit.
    The restriction matters: the smooth profiles decay faster than any
    polynomial near the unit shell, so the polynomial-weighted sup over the
    whole torus is attained in the far tail and grows with j, whereas on a
    fixed scaled shell the constant is j-stable.
    """
    g = _as_physical(f)
    x1, x2 = physical_coords(f.grid)
    r = np.hypot(x1, x2)
    scaled = 2.0**j * np.abs(r - 1.0)
    weighted = np.abs(g.values) * (1.0 + scaled) ** 4
    if shell_limit is not None:
        weighted = weighted[scaled <= shell_limit]
        if weighted.size == 0:
            raise ValueError("shell contains no grid points at this resolution")
    return float(weighted.max() / 2.0 ** (1.5 * j))


def knapp_center_value(f: Field, j: int) -> float:
    """|f propagated to t = PROBE_T| at the Knapp box center x = (0, -t), in units of 2^{3j/2}."""
    g = _as_physical(half_wave(f, PROBE_T))
    idx = round(-PROBE_T / f.grid.cell) % f.grid.n
    return float(abs(g.values[0, idx]) / 2.0 ** (1.5 * j))


def knapp_coherence(grid: GridSpec, j: int) -> float:
    """Attained center value over the triangle-inequality bound sum |f_hat| / period^2.

    Equals 1 exactly when every frequency mode arrives at the box center in
    phase; the quadratic phase spread across the window makes it < 1, and it
    increases to 1 with j because the relative spread shrinks like 2^{-j} c1^2.
    """
    f = knapp(grid, j)
    bound = float(np.abs(f.data).sum() / grid.period**2)  # its support values: zero elsewhere
    return knapp_center_value(f, j) * 2.0 ** (1.5 * j) / bound


def annulus_shell_minimum(grid: GridSpec, j: int) -> float:
    """min |annulus field propagated to t = PROBE_T| over t - 2^{-j}/4 <= |x| <= t, in units of 2^{3j/2}."""
    f = annulus(grid, j)
    g = _as_physical(half_wave(f, PROBE_T))
    x1, x2 = physical_coords(grid)
    r = np.hypot(x1, x2)
    mask = (r >= PROBE_T - 0.25 * 2.0**-j) & (r <= PROBE_T)
    if not mask.any():
        raise ValueError("shell contains no grid points at this resolution")
    return float(np.abs(g.values[mask]).min() / 2.0 ** (1.5 * j))


def _knapp_window(j: int, c1: float, region: str) -> tuple[float, float, float]:
    """(a1, lo2, hi2) of the Knapp window |xi_1| <= a1, lo2 <= xi_2 <= hi2, from ``cutoffs``:
    plateau a1 = 2 c1 2^{j/2}, [2^{j-1}, 2^{j+1}]; support a1 = 4 c1 2^{j/2}, [2^{j-2}, 2^{j+2}]."""
    if region not in ("plateau", "support"):
        raise ValueError(f"region must be 'plateau' or 'support', got {region!r}")
    w0, w1 = (BETA0_PLATEAU, BETA1_PLATEAU) if region == "plateau" else (BETA0_SUPPORT, BETA1_SUPPORT)
    return w0[1] * c1 * 2.0 ** (j / 2.0), w1[0] * 2.0**j, w1[1] * 2.0**j


def knapp_phase_error(j: int, c1: float, region: str = "plateau") -> float:
    """max |e^{i t (|xi| - xi_2)} - 1|, t = PROBE_T, over the Knapp window's plateau or support.

    The exponent t(|xi| - xi_2) = t xi_2 (sqrt(1 + s^2) - 1), s = xi_1/xi_2,
    is what separates the plate from a true plane wave; it is O(c1^2)
    uniformly in j.  Maximized on a 257 x 257 corner mesh of ``_knapp_window``.
    """
    a1, lo2, hi2 = _knapp_window(j, c1, region)
    xi1, xi2 = np.linspace(-a1, a1, 257), np.linspace(lo2, hi2, 257)
    phase = PROBE_T * (np.hypot(xi1[:, None], xi2[None, :]) - xi2[None, :])
    return float(np.abs(np.exp(1j * phase) - 1.0).max())
