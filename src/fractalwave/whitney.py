"""Dyadic Whitney decomposition of an arc's Cartesian square.

Level nu splits the base arc into 2^nu equal sub-arcs.  An ordered pair of
sub-arcs (k, k') enters the decomposition at the first level where the two
indices separate:

* rule pairs (any level): |k - k'| >= 2 while the parents are still adjacent
  or equal, |floor(k/2) - floor(k'/2)| <= 1 — which forces |k - k'| in {2, 3};
* terminal pairs (level nu_max only): |k - k'| <= 1, the pairs that never
  separate.

Together these tile the ordered square of finest-level arcs exactly once,
and every rule pair at level nu is separated by an angular gap of
(|k - k'| - 1) * 2^{-nu} * |base arc| — i.e. between 1 and 2 base-arc lengths
scaled by 2^{-nu}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ArcPair:
    nu: int
    k: int
    k_prime: int
    terminal: bool


@dataclass(frozen=True)
class ArcDecomposition:
    base_arc: tuple[float, float]
    nu_max: int
    pairs: tuple[ArcPair, ...]

    @property
    def base_length(self) -> float:
        return self.base_arc[1] - self.base_arc[0]

    def arc(self, nu: int, k: int) -> tuple[float, float]:
        if not 0 <= nu <= self.nu_max:
            raise ValueError(f"level {nu} outside [0, {self.nu_max}]")
        if not 0 <= k < 2**nu:
            raise ValueError(f"arc index {k} outside [0, 2^{nu})")
        a = self.base_arc[0]
        h = self.base_length / 2**nu
        return (a + k * h, a + (k + 1) * h)

    def pair_separation(self, pair: ArcPair) -> float:
        """Angular gap between the two arcs (0 for adjacent/equal pairs)."""
        h = self.base_length / 2**pair.nu
        return max(abs(pair.k - pair.k_prime) - 1, 0) * h


def whitney(nu_max: int, base_arc: tuple[float, float] = (0.0, 0.25)) -> ArcDecomposition:
    if not 1 <= nu_max <= 12:
        raise ValueError(f"nu_max must be in [1, 12], got {nu_max}")
    ta, tb = base_arc
    if not tb > ta:
        raise ValueError(f"base arc must be ordered, got {base_arc}")
    if tb - ta > math.pi / 4 + 1e-12:
        raise ValueError(f"base arc length must be <= pi/4, got {tb - ta}")
    pairs: list[ArcPair] = []
    for nu in range(nu_max + 1):
        m = 2**nu
        for k in range(m):
            for kp in range(m):
                d = abs(k - kp)
                if d >= 2 and abs(k // 2 - kp // 2) <= 1:
                    pairs.append(ArcPair(nu, k, kp, terminal=False))
                elif nu == nu_max and d <= 1:
                    pairs.append(ArcPair(nu, k, kp, terminal=True))
    return ArcDecomposition(base_arc=(ta, tb), nu_max=nu_max, pairs=tuple(pairs))


def coverage_counts(dec: ArcDecomposition) -> np.ndarray:
    """How many decomposition pairs contain each ordered pair of finest arcs.

    An exact partition shows the all-ones matrix.
    """
    m = 2**dec.nu_max
    counts = np.zeros((m, m), dtype=np.int64)
    for p in dec.pairs:
        w = 2 ** (dec.nu_max - p.nu)
        counts[p.k * w : (p.k + 1) * w, p.k_prime * w : (p.k_prime + 1) * w] += 1
    return counts


def check_coverage(dec: ArcDecomposition) -> bool:
    return bool(np.all(coverage_counts(dec) == 1))


def separation_band(dec: ArcDecomposition) -> tuple[float, float]:
    """Certified (c, C) with gap(pair) in [c 2^{-nu}, C 2^{-nu}] for every
    separated (non-terminal) pair; equals (|base arc|, 2 |base arc|)."""
    lo = math.inf
    hi = 0.0
    for p in dec.pairs:
        if p.terminal:
            continue
        scaled = dec.pair_separation(p) * 2**p.nu
        lo = min(lo, scaled)
        hi = max(hi, scaled)
    if not lo <= hi:
        raise ValueError("decomposition has no separated pairs")
    return (lo, hi)
