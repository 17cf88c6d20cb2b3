"""Cantor-type dilation sets in [1, 2] and their covering calculus.

Conventions used throughout this module:

* A *time set* is a finite, strictly increasing tuple of floats in [1, 2].
  Comparisons tolerate floating noise at the 1e-9 scale.
* Covering numbers count **open** intervals of length ``delta``: two points at
  distance exactly ``delta`` cannot share one interval.  Equivalently, a group
  of points fits in one interval iff its diameter is strictly below ``delta``.
* The Cantor family is parametrized by a similarity ratio
  ``mu = 2**(-1/alpha)`` in (0, 1/2] (so that mu**(-alpha) = 2).  After ``k``
  construction stages the set is

      E = { 1 + mu**k + (1 - mu) * sum_m mu**m * P_m :  P in {0,1}**k },

  with 2**k points, all in (1, 2], and minimal gap (1 - mu) * mu**(k-1).
  The endpoint argument splits it by the lowest stage that is on; those
  levels are position blocks of the sorted set, built in the tests.
"""

from __future__ import annotations

import math
import os
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from decimal import Decimal
from typing import Iterable, Sequence

import numpy as np

_TOL = 1e-9
_BYTES_PER_POINT = 96  # a Cantor set's peak while it is built: 89 B per point by tracemalloc


def check_memory(need: int, what: str) -> None:
    """Refuse, before allocating, ``what`` if its ``need`` bytes exceed physical memory."""
    have = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if need > have:  # need may be an integer too large for a float, so it is shown as a Decimal
        raise ValueError(f"{what} needs about {Decimal(need) / 2**30:.3g} GiB, "
                         f"more than the {have / 2**30:.3g} GiB of physical memory")


@dataclass(frozen=True)
class TimeSet:
    """Sorted tuple of dilation times in [1, 2] with cached minimal gap."""

    points: tuple[float, ...]
    min_gap: float

    @classmethod
    def from_points(cls, points: Iterable[float]) -> "TimeSet":
        pts = tuple(sorted(float(p) for p in points))
        if not all(map(math.isfinite, pts)):
            raise ValueError(f"time set points must be finite, got {next(p for p in pts if not math.isfinite(p))}")
        if pts and (pts[0] < 1.0 - _TOL or pts[-1] > 2.0 + _TOL):
            raise ValueError(f"time set must lie in [1, 2], got range [{pts[0]}, {pts[-1]}]")
        gaps = [b - a for a, b in zip(pts, pts[1:])]
        if any(g <= _TOL for g in gaps):
            raise ValueError("time set points must be strictly increasing (tolerance 1e-9)")
        return cls(points=pts, min_gap=min(gaps) if gaps else math.inf)

    def __iter__(self):
        return iter(self.points)


@dataclass(frozen=True)
class CantorSpec:
    """Parameters of one Cantor construction.

    ``mu = 2**(-1/alpha)`` is the similarity ratio and ``k`` the number of
    stages, calibrated to resolution ``2**-j`` by ``cantor_spec``'s ``L``: ``k`` is
    the largest integer with ``mu**k >= L * 2**-j``, i.e. ``k = floor(alpha * (j -
    log2 L))``.  This keeps the minimal gap at least ``2**-j`` for every ``L >= 1``.
    """

    alpha: float
    mu: float
    k: int
    j: int


def _similarity_ratio(alpha: float) -> float:
    """mu = 2**(-1/alpha), for a dimension ``alpha`` in (0, 1]."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    return 2.0 ** (-1.0 / alpha)


def cantor_spec(alpha: float, j: int, L: float = 16.0) -> CantorSpec:
    """Calibrate a Cantor construction to resolution ``2**-j``."""
    mu = _similarity_ratio(alpha)
    if not 1.0 <= L < math.inf:
        raise ValueError(f"calibration constant L must be finite and >= 1, got {L}")
    k = max(0, math.floor(alpha * (j - math.log2(L)) + _TOL))
    return CantorSpec(alpha=alpha, mu=mu, k=k, j=j)


def _cantor_offsets(mu: float, k: int) -> np.ndarray:
    """(1 - mu) * sum_{m < k} mu**m * P_m over all bits P_m, unsorted."""
    offsets = np.array([0.0])
    for m in range(k):
        offsets = np.concatenate([offsets, offsets + (1.0 - mu) * mu**m])
    return offsets


def cantor_points(spec: CantorSpec) -> TimeSet:
    """Materialize the stage-``k`` Cantor set of a spec, if its 2^k points fit in memory."""
    check_memory(_BYTES_PER_POINT << spec.k, f"a Cantor set of 2^{spec.k} points")
    if spec.k:  # the stage-0 set {2} has no gap, and mu may be 0.0 there
        gap = (1.0 - spec.mu) * spec.mu ** (spec.k - 1)  # the last stage's, the least
        if gap <= _TOL:
            raise ValueError(f"a Cantor set's minimal gap (1 - mu) mu^(k-1) = {gap:.3g} is below the "
                             f"time-set tolerance {_TOL:g}")
    pts = np.sort(1.0 + spec.mu**spec.k + _cantor_offsets(spec.mu, spec.k))
    return TimeSet.from_points(pts.tolist())


def build_cantor(alpha: float, j: int, L: float = 16.0) -> TimeSet:
    """Cantor-type time set at resolution ``2**-j``.

    The number of construction stages is ``k = floor(alpha * (j - log2 L))``
    (clamped at 0), so the set has ``2**k`` points, cardinality comparable to
    ``2**(alpha * j)`` up to the fixed calibration, and all gaps are at least
    ``2**-j``.

    Examples
    --------
    ``build_cantor(1.0, 4, L=4.0)`` has 4 points {1.25, 1.5, 1.75, 2.0};
    ``build_cantor(0.5, j, L)`` with ``k = 1`` gives {1.25, 2.0} (mu = 1/4).
    """
    return cantor_points(cantor_spec(alpha, j, L))


def _subset_in(ts: TimeSet, lo: float, hi: float) -> list[float]:
    i = bisect_left(ts.points, lo - _TOL)
    j = bisect_right(ts.points, hi + _TOL)
    return list(ts.points[i:j])


def _chain_next(pts: np.ndarray, delta: float) -> np.ndarray:
    """nxt[i] = index of the first point not covered by an open interval at pts[i];
    at least i + 1, as the interval covers its start even if pts[i] + delta rounds to pts[i]."""
    nxt = np.searchsorted(pts, pts + delta * (1.0 - _TOL), side="left")
    return np.maximum(nxt, np.arange(1, len(pts) + 1, dtype=np.int64))


def _cover_starts(pts: Sequence[float], delta: float) -> list[float]:
    """Left ends of the greedy open-interval cover of the sorted ``pts``: each
    interval starts at the leftmost point the previous ones leave uncovered."""
    nxt = _chain_next(np.asarray(pts, dtype=float), delta)
    starts, i = [], 0
    while i < len(pts):
        starts.append(pts[i])
        i = nxt[i]
    return starts


def covering_number(ts: TimeSet, interval: tuple[float, float], delta: float) -> int:
    """Minimal number of open length-``delta`` intervals covering E ∩ [a, b].

    Greedy sweep: place an interval starting at the leftmost uncovered point;
    it absorbs exactly the points strictly within ``delta`` of that point.
    Points at distance exactly ``delta`` start a new interval.
    """
    a, b = interval
    if not delta > 0.0:
        raise ValueError(f"delta must be positive, got {delta}")
    if b < a:
        raise ValueError(f"empty interval [{a}, {b}]")
    return len(_cover_starts(_subset_in(ts, a, b), delta))


def discretize(ts: TimeSet, delta: float) -> TimeSet:
    """Maximal ``delta``-separated subset, chosen greedily from the left: the
    starts of the greedy cover.

    Every discarded point lies within ``delta`` of a kept one, and kept points
    at distance exactly ``delta`` are retained (separation is >= delta).
    """
    if not delta > 0.0:
        raise ValueError(f"delta must be positive, got {delta}")
    return TimeSet.from_points(_cover_starts(ts.points, delta))


def assouad_characteristic(ts: TimeSet, delta: float, alpha: float) -> float:
    """sup over windows I (delta <= |I| <= 1) of (delta/|I|)**alpha * N(E ∩ I, delta).

    The supremum over all admissible windows is attained on the candidate
    family {[e_a, e_b]} (windows shorter than ``delta`` clamped to length
    ``delta``), because shrinking a window onto the convex hull of its
    content only increases the value.  Candidates are scanned along the
    greedy covering chain: for a fixed left endpoint the value can only peak
    when the covering count increments.
    """
    if not 0.0 < delta <= 1.0 + _TOL:  # NaN fails too
        raise ValueError(f"delta must be in (0, 1], got {delta}")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    if not ts.points:
        return 0.0
    pts = np.asarray(ts.points)
    n = len(pts)
    nxt = _chain_next(pts, delta)
    best = 1.0  # any single point in its clamped window
    cur, start = nxt, pts  # after m links, cur is the chain's (m+1)-th point
    m = 1
    while True:
        live = cur < n  # chains that have not run off the end
        cur, start = cur[live], start[live]
        if not cur.size:
            break
        span = pts[cur] - start
        vals = (delta / np.maximum(span, delta)) ** alpha * (m + 1)
        best = max(best, float(vals.max()))
        cur = nxt[cur]
        m += 1
    return best


def assouad_characteristic_sup(ts: TimeSet, delta: float, alpha: float) -> float:
    """sup over delta' in [delta, 1) of ``assouad_characteristic(ts, delta', alpha)``.

    The sweep grid is {delta * 2**m} together with the consecutive gaps of the
    set and left-limit probes gap * (1 - 1e-9); the value of the inner sup
    only jumps at gap thresholds, and the probes catch the open-interval jump
    from below.
    """
    at_delta = assouad_characteristic(ts, delta, alpha)  # which checks delta and alpha before the sweep
    grid: set[float] = set()
    d = 2.0 * delta
    while d < 1.0:
        grid.add(d)
        d *= 2.0
    for a, b in zip(ts.points, ts.points[1:]):
        g = b - a
        for cand in (g, g * (1.0 - 1e-9)):
            if delta - _TOL <= cand < 1.0:
                grid.add(max(cand, delta))
    return max([at_delta, *(assouad_characteristic(ts, dp, alpha) for dp in sorted(grid - {delta}))])


@dataclass(frozen=True)
class DimensionFit:
    slope: float
    intercept: float
    counts: tuple[tuple[float, int], ...]


def minkowski_estimate(ts: TimeSet, deltas: Sequence[float]) -> DimensionFit:
    """Least-squares slope of log2 N(E, delta) against log2(1/delta)."""
    if len(deltas) < 2:
        raise ValueError("need at least two scales to fit a slope")
    counts = [(float(d), covering_number(ts, (1.0, 2.0), d)) for d in deltas]
    x = np.array([-math.log2(d) for d, _ in counts])
    y = np.array([math.log2(c) for _, c in counts])
    slope, intercept = np.polyfit(x, y, 1)
    return DimensionFit(slope=float(slope), intercept=float(intercept), counts=tuple(counts))


@dataclass(frozen=True)
class MarginalSum:
    """Direct summation of (t-1)**-alpha over the Cantor set.

    ``ratio`` compares against k * 2**k, the growth forced by the level
    decomposition (each level l contributes ~ 2**(k-l-1) * mu**(-alpha l)
    = 2**(k-1) terms).
    """

    value: float
    ratio: float


def marginal_sum(alpha: float, k: int) -> MarginalSum:
    """Sum of (t-1)**-alpha over the stage-``k`` Cantor set of dimension
    ``alpha``, with its k * 2**k normalization."""
    if k < 0:
        raise ValueError(f"stage count must be >= 0, got {k}")
    mu = _similarity_ratio(alpha)
    if k == 0:
        return MarginalSum(value=1.0, ratio=math.inf)
    check_memory(_BYTES_PER_POINT << k, f"a Cantor set of 2^{k} points")
    if mu**k == 0.0:  # the first term, (mu^k)^-alpha, would divide by zero
        raise ValueError(f"mu^k = 2^(-k/alpha) underflows to 0.0 at alpha = {alpha}, k = {k}")
    terms = (mu**k + _cantor_offsets(mu, k)) ** (-alpha)
    value = math.fsum(terms.tolist())
    return MarginalSum(value=value, ratio=value / (k * 2.0**k))


@dataclass(frozen=True)
class IntervalFamily:
    """Unit-interval family: starts are 1-separated; tiles [s, s+1] cover the
    rescaled time set with density certified by ``certified_constant``:
    any window (t, t+r) with r >= 1 meets at most C * r**alpha tiles."""

    starts: tuple[float, ...]
    alpha: float
    certified_constant: float


def build_interval_family(spec: CantorSpec, theta: float = 1.0) -> IntervalFamily:
    """Rescale the Cantor set at angular parameter ``theta`` into unit tiles.

    ``theta`` in [2**(-j/2), 1].  The set is first thinned to separation
    ``2**-j / theta**2`` and then mapped through t -> 2**j theta**2 (t - 1),
    which makes consecutive starts at least 1 apart.  The covering constant
    C = sup count / r**alpha is certified over a window sweep: window lengths
    from all pairwise start differences (plus dyadic probes) and left end
    points just below each start.
    """
    j = spec.j
    lo = 2.0 ** (-j / 2.0)
    if not lo - _TOL <= theta <= 1.0 + _TOL:
        raise ValueError(f"theta must be in [2**(-j/2), 1] = [{lo:.3g}, 1], got {theta}")
    sep = 2.0**-j / theta**2
    thinned = discretize(cantor_points(spec), sep)
    scale = 2.0**j * theta**2
    starts = np.array([scale * (t - 1.0) for t in thinned.points])
    # Window (t, t+r) meets tile [s, s+1] iff s is in the open (t-1, t+r);
    # sup counts are attained as t-1 approaches a start from below.
    # The distinct positive differences, 128 rows at a time (never the n x n matrix).
    diffs = np.empty(0)
    for i in range(0, len(starts), 128):
        block = np.round(starts[None, :] - starts[i:i + 128, None], 9)
        diffs = np.union1d(diffs, block[block > 0.0])
    dyadic = [1.0]
    while dyadic[-1] * 2.0 < (starts[-1] - starts[0]) + 2.0:
        dyadic.append(dyadic[-1] * 2.0)
    lengths = np.unique(np.concatenate([dyadic, np.maximum(1.0, diffs + 1.0 - 1e-9)]))
    # The counts, 128 lengths at a time (never the lengths x starts matrix).
    best = 0.0
    idx = np.arange(len(starts))
    for i in range(0, len(lengths), 128):
        r = lengths[i:i + 128]
        counts = np.searchsorted(starts, starts + r[:, None] + 1.0 - 1e-9, side="left") - idx
        best = max(best, float((counts.max(axis=1) / r**spec.alpha).max()))
    return IntervalFamily(starts=tuple(starts.tolist()), alpha=spec.alpha, certified_constant=best)
