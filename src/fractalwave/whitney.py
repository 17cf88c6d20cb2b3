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
scaled by 2^{-nu}.  The base arc is ``BASE_ARC`` = [0, 1/4]: the pair rule and
the band in base-arc lengths do not depend on it, so the certified band is
[1/4, 1/2].
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


BASE_ARC = (0.0, 0.25)  # the arc every decomposition splits, of length <= pi/4


@dataclass(frozen=True)
class ArcDecomposition:
    nu_max: int
    pairs: tuple[ArcPair, ...]

    @property
    def base_length(self) -> float:
        return BASE_ARC[1] - BASE_ARC[0]

    def pair_separation(self, pair: ArcPair) -> float:
        """Angular gap between the two arcs (0 for adjacent/equal pairs)."""
        h = self.base_length / 2**pair.nu
        return max(abs(pair.k - pair.k_prime) - 1, 0) * h


def whitney(nu_max: int) -> ArcDecomposition:
    if not 1 <= nu_max <= 12:
        raise ValueError(f"nu_max must be in [1, 12], got {nu_max}")
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
    return ArcDecomposition(nu_max=nu_max, pairs=tuple(pairs))


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
