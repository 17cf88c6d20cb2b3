"""Bilinear cap pairs: frequency caps whose wave extensions saturate box bounds.

Two constructions on the unit annulus 1/2 <= |xi| <= 2 (d = 2):

* angular cap: the sector |angle(xi)| < 2 arcsin(delta/2) (chord distance
  delta from e1); both factors use the same cap.  |extension| ~ delta^{1/2}
  on the slab {|x1 + t| <= c, |x2| <= c/delta, |t| <= c/delta^2}.
* squashed cap: the rectangle |xi1 - 1| <= delta^2, |xi2| <= delta, with the
  partner mirrored to xi1 = -1.  |extension| ~ delta^{3/2} on the box
  {|x1| <= c/delta^2, |x2| <= c/delta, |t| <= c/delta^2}.

Products therefore scale like delta^{d-1} = delta and delta^{d+1} = delta^3.
The box constant is c = ``BOX_C`` = 1/4.  The product statistic samples the box
at the times its caller gives (the necessity suite's fractal samples), and
every formula here, the q-thresholds included, is for d = 2.

The extension is the continuum route: midpoint quadrature of the integral
R*f(x,t) = A int_cap e^{i(x.xi + t|xi|)} dxi, with A fixing ||fhat||_2 = 1.
The grid route (indicator coefficients on the lattice, cap dilated to radius
N = nyquist/2), tied to it by the exact rescaling |grid field(x, t)| =
(N/2pi) |R*f(N x, N t)|, lives in the tests as a coarse-delta cross-check: it
resolves delta down to lattice scale only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .exponents import _frac

_KINDS = ("angular", "squashed")
BOX_C = 0.25  # the box constant c of the module docstring
_BOX_FRACTIONS = (-1.0, 0.0, 1.0)  # each box coordinate at -c, 0 and +c times its scale


@dataclass(frozen=True)
class CapProfile:
    """Continuum cap with unit-L^2 frequency profile and a quadrature mesh."""

    kind: str
    delta: float
    mirrored: bool = False
    mesh: int = 96

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        if not 0.0 < self.delta <= 0.25:
            raise ValueError(f"delta must lie in (0, 1/4], got {self.delta}")
        if self.mesh < 16:
            raise ValueError(f"mesh must be >= 16, got {self.mesh}")

    @property
    def half_angle(self) -> float:
        return 2.0 * math.asin(self.delta / 2.0)

    @property
    def area(self) -> float:
        if self.kind == "angular":
            return (15.0 / 4.0) * self.half_angle
        return 4.0 * self.delta**3

    @property
    def amplitude(self) -> float:
        # fixes ||fhat||_2 = amplitude * sqrt(area) = 1
        return self.area**-0.5


@lru_cache(maxsize=128)
def _quad_nodes(profile: CapProfile) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Midpoint nodes (xi1, xi2) and weights including the amplitude."""
    m = profile.mesh
    if profile.kind == "angular":
        th = profile.half_angle
        r = 0.5 + 1.5 * (np.arange(m) + 0.5) / m
        phi = -th + 2.0 * th * (np.arange(m) + 0.5) / m
        w = (1.5 / m) * (2.0 * th / m) * r  # r dr dphi
        xi1 = r[:, None] * np.cos(phi[None, :])
        xi2 = r[:, None] * np.sin(phi[None, :])
        weights = np.broadcast_to(w[:, None], (m, m))
    else:
        d = profile.delta
        xi1 = 1.0 - d**2 + 2.0 * d**2 * (np.arange(m) + 0.5) / m
        xi2 = -d + 2.0 * d * (np.arange(m) + 0.5) / m
        xi1, xi2 = np.broadcast_arrays(xi1[:, None], xi2[None, :])
        weights = np.full((m, m), (2.0 * d**2 / m) * (2.0 * d / m))
    if profile.mirrored:
        xi1 = -xi1
    return (
        xi1.reshape(-1),
        xi2.reshape(-1),
        (profile.amplitude * weights).reshape(-1),
    )


def extension(profile: CapProfile, x1: float, x2: float, t: float) -> complex:
    """R*f(x, t): the half-wave evolution of the cap profile at one point."""
    xi1, xi2, w = _quad_nodes(profile)
    phase = x1 * xi1 + x2 * xi2 + t * np.hypot(xi1, xi2)
    return complex(np.sum(w * np.exp(1j * phase)))


def box_samples(kind: str, delta: float, times) -> list[tuple[float, float, float]]:
    """(x1, x2, t) sample tuples spanning the coherence box of the cap pair: t over
    ``times`` (eg fractal time samples) clipped to |t| <= c/delta^2, and (x1, x2)
    over the box's corners, edge midpoints and center at each t."""
    if kind not in _KINDS:
        raise ValueError(f"kind must be one of {_KINDS}, got {kind!r}")
    tvals = [t for t in times if abs(t) <= BOX_C / delta**2]
    if not tvals:
        raise ValueError("no time sample lies inside the coherence box")
    out = []
    for t in tvals:
        for s2 in _BOX_FRACTIONS:
            x2 = s2 * BOX_C / delta
            for s1 in _BOX_FRACTIONS:
                if kind == "angular":
                    x1 = -t + s1 * BOX_C
                else:
                    x1 = s1 * BOX_C / delta**2
                out.append((x1, x2, t))
    return out


def pair_product_statistic(delta: float, kind: str, times) -> float:
    """min over box samples at ``times`` of |R*f . R*g| — the quantity whose
    delta-scaling realizes the d-1 / d+1 magnitude laws."""
    f = CapProfile(kind, delta, mirrored=False)
    g = CapProfile(kind, delta, mirrored=(kind == "squashed"))
    vals = []
    for x1, x2, t in box_samples(kind, delta, times):
        vals.append(abs(extension(f, x1, x2, t)) * abs(extension(g, x1, x2, t)))
    return min(vals)


def necessary_q_bounds(alpha):
    """Exact q-thresholds implied by the two cap families in d = 2: the angular
    pair forces q >= 2(d-1+2 alpha)/(d-1) = 2 + 4 alpha, the squashed pair
    q >= 2(d+1+2 alpha)/(d+1) = 2 + 4 alpha / 3."""
    a = _frac(alpha)
    if not 0 < a <= 1:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    return 2 + 4 * a, 2 + 4 * a / 3
