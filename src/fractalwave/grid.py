"""2D periodic-grid Fourier-multiplier engine.

Conventions (fixed once, everything else follows):

* The torus is [-L/2, L/2)^2 sampled at n x n points, ``cell = L/n``.  Index i
  maps to the signed coordinate ((i + n/2) mod n - n/2) * cell, so index 0 is
  the origin.
* Frequency lattice: xi_k = 2 pi k / L per axis with integer k in [-n/2, n/2);
  ``nyquist = pi n / L`` is the largest resolvable component.
* Forward transform (physical -> frequency) uses e^{-i<x,xi>} and the cell
  measure:  fhat_k = cell^2 * sum_x f(x) e^{-i xi_k . x}; the inverse restores
  f exactly.  Discrete Plancherel holds in the form

      sum |f|^2 cell^2  =  sum |fhat_k|^2 / L^2,

  so the L^2 norm can be read on either side.
* Multiplier operators accept fields in either space and return the same
  space they were given.

The half-wave propagator is the multiplier e^{i t |xi|}; the circular
average over the radius-t circle is J0(t |xi|) (normalized measure: the
multiplier is 1 at xi = 0, so means are preserved).

Spectral supports.  Storage follows space.  A frequency field is stored on
its ``support``, the read-only triple ``(flat, inv, radii)`` of the lattice
points where its transform may be nonzero: ``Field.data`` holds one value per
point, and ``Field.values`` scatters them to n x n on each read, keeping
nothing.  ``flat`` holds the ascending flat indices and ``inv`` (int32) each
point's entry in ``radii``, so radii[inv] is |xi| at ``flat``.  The lattice's
8 symmetries (k1 <-> k2 and the signs) keep |xi|, so a radial band stores one
radius per orbit of them: 166,749 radii for 1,329,820 points at n = 2048, j =
7.  The support is the set a builder filled (see ``extremizers``), or the
whole lattice (``Field``, ``to_frequency``, the cap pairs), met with each band
applied since; it is never found by scanning values.  A physical field holds
n x n values and no support; ``to_physical`` sets its ``spectrum``, the field
it came from.  Multipliers evaluate a symbol of |xi| once per radius and
multiply the stored values, and the inverse FFT transforms only the rows that
hold points, then the columns, a block at a time; both give the same bits as
the full-lattice computation.

Separable fields.  A field may also carry ``factors``: two length-n arrays
``(a, b)`` with transform a[k1] b[k2], read off its builder's formula (see
``extremizers.knapp``).  Its physical field is then the outer product of two
1-D inverse transforms, so ``lp_norm`` multiplies their 1-D norms.  Every
operator that makes a new field drops them.

Mirror-even fields.  A frequency field may also carry ``even``: the axes in
which its transform is even, F[-k] = F[k], read off its builder's formula and
kept by the |xi| multipliers; it is (), (0,) or (0, 1).  Its physical field is
even in the same axes, so ``lp_norm`` asks ``_inverse``, the one inverse
transform (``to_physical`` is its case even = ()), for |f|^p on x_i in [0, n/2]
along them, one real array filled block by block; ``_sum_norm`` weights them
1 on the mirror lines x_i = 0, n/2 and 2 elsewhere.  With few rows k_1 >= 0,
a < 2 n.bit_length() (a Knapp plate's; a radial band has hundreds), the column
pass is their even cosine sum, the FFT with its zero inputs pruned exactly
(Markel, "FFT pruning", 1971).  Every other operator drops ``even``.

Blocks across CPUs.  Each pass of ``_inverse`` (row FFTs, column FFTs or the
cosine sum) loops over blocks that write disjoint parts of its output; from n =
1024 on, ``_split`` gives each CPU one contiguous run of them, the last to the
calling thread and the rest to a module thread pool made on first use.  Each block
is computed as in the serial loop, so the bits are the same; the caller makes every
run's buffer, so no worker grows a malloc arena; no public function runs on the pool.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

import numpy as np

from .bessel import bessel_j0
from .cutoffs import BETA_SUPPORT, beta, step
from .sets import TimeSet, discretize

_SPACES = ("physical", "frequency")
COEFF_RESOLUTION = 512  # samples per axis of a coefficient-decay table's period cell
COEFF_SHELL_MAX = 48  # its last shell s <= |k| < s+1
_BLOCK = 32  # rows or columns per block of the inverse transform; 16..256 timed at n = 2048
_WORKERS = len(os.sched_getaffinity(0))  # runs per pass of the inverse transform
_SPLIT_BYTES = 2**19  # smallest block split across threads, 32 x 1024 complex: they lost at n = 512
_pool = None  # the threads of all runs but the calling thread's, made on first use


@dataclass(frozen=True)
class GridSpec:
    """n x n periodic grid of side length ``period`` (n a power of two >= 64)."""

    n: int
    period: float = 8.0

    def __post_init__(self):
        if self.n < 64 or (self.n & (self.n - 1)) != 0:
            raise ValueError(f"n must be a power of two >= 64, got {self.n}")
        if not self.period > 4.0:
            raise ValueError(f"period must exceed 4, got {self.period}")

    @property
    def cell(self) -> float:
        return self.period / self.n

    @property
    def nyquist(self) -> float:
        return math.pi * self.n / self.period

    def max_band_j(self, support_factor: float) -> int:
        """Largest j whose window support support_factor * 2^j fits under nyquist."""
        j = -1
        while support_factor * 2.0 ** (j + 1) <= self.nyquist:
            j += 1
        return j

    def band(self, j: int, support: tuple[float, float]) -> tuple[float, float]:
        """The band support * 2^j of level j, for a profile's ``support`` read from
        ``cutoffs``, behind the one alias guard: raise unless support[1] * 2^j <=
        nyquist.  Closed, as profiles vanish on their support's edge."""
        top = self.max_band_j(support[1])
        if j > top:
            raise ValueError(f"alias guard: {support[1]:g} * 2^{j} exceeds nyquist = {self.nyquist:.6g} "
                             f"on n={self.n}; max admissible j is {top}")
        return support[0] * 2.0**j, support[1] * 2.0**j


def _axis_freq(spec: GridSpec) -> np.ndarray:
    k = np.fft.fftfreq(spec.n, d=1.0 / spec.n)
    return 2.0 * np.pi * k / spec.period


def _lattice_points(spec: GridSpec, lo: float = -1.0, hi: float = math.inf) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The support ``(flat, inv, radii)`` of the lattice points with lo < |xi| < hi,
    made per call; by default the whole lattice, whose ``flat`` is 0, 1, ..., n^2 - 1.

    ``radii`` holds one |xi| per lattice orbit, the up to 8 points (±k1, ±k2), (±k2, ±k1),
    taken by np.hypot on the quadrant 0 <= k2 <= k1 of |xi_k| < hi; np.hypot reads |xi1| and
    |xi2| and is symmetric in them, so radii[inv] is bit-identical to np.hypot over the full
    lattice at ``flat``.  No per-point radius is made, and nothing is sorted.
    """
    n = spec.n
    xa = np.abs(_axis_freq(spec))
    ks = np.flatnonzero(xa < hi)  # axis indices, ascending
    kabs = np.minimum(ks, n - ks)  # their |k|; index i <= n/2 has |xi| = xa[i]
    q = xa[: kabs.max(initial=-1) + 1]
    r = np.hypot(q[:, None], q[None, :])
    orbit = (r > lo) & (r < hi) & np.tri(q.size, dtype=bool)  # rows k1 >= k2
    radii = r[orbit]
    table = np.full(r.shape, -1, dtype=np.int32)
    table[orbit] = np.arange(radii.size, dtype=np.int32)
    table = np.maximum(table, table.T)  # (k2, k1) is in the orbit of (k1, k2)
    idx = table[kabs][:, kabs]
    inside = idx >= 0
    flat = (ks[:, None] * n + ks[None, :])[inside]
    support = flat, idx[inside], radii
    for a in support:
        a.setflags(write=False)
    return support


_band_points = lru_cache(maxsize=8)(_lattice_points)  # a band's points, shared by builders and projections


def _row_blocks(spec: GridSpec, support) -> tuple[slice, slice]:
    """Rows [0, a) and [b, n) that hold every support point."""
    n = spec.n
    flat = support[0]
    m = int(np.searchsorted(flat, n * n // 2))  # the points in rows [0, n/2)
    a = int(flat[m - 1]) // n + 1 if m else 0
    b = int(flat[m]) // n if m < flat.size else n
    return slice(0, a), slice(b, n)


def _meet(support, band: tuple[float, float]):
    """(the support points with lo < |xi| < hi, the mask of them among
    ``support``'s points).  Only the radii in the band are kept, and ``inv`` is
    renumbered to them."""
    flat, inv, radii = support
    keep = (radii > band[0]) & (radii < band[1])
    inside = np.take(keep, inv)
    renumber = np.cumsum(keep, dtype=np.int32) - 1
    return (flat[inside], np.take(renumber, inv[inside]), radii[keep]), inside


def frequency_lattice(spec: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """Broadcastable (XI1, XI2) arrays of the frequency lattice, made per call."""
    xi = _axis_freq(spec)
    return xi[:, None], xi[None, :]


def physical_coords(spec: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """Broadcastable (X1, X2) signed torus coordinates, made per call."""
    n = spec.n
    x = ((np.arange(n) + n // 2) % n - n // 2) * spec.cell
    return x[:, None], x[None, :]


@dataclass(frozen=True)
class Field:
    """Immutable n x n complex field tagged with its space.

    The values are a read-only copy of the array passed in: the caller's array
    stays writeable and changing it leaves the field alone.  ``data`` is what is
    stored: a physical field's n x n values, or a frequency field's, one per
    entry of ``support[0]`` in that order (the whole lattice for one made here).
    ``factors``, ``even`` and a physical field's ``spectrum`` (not compared) are
    set by this package's operators only (see the module docstring); a field
    made here has None, () and None.
    """

    grid: GridSpec
    data: np.ndarray
    space: str
    support: tuple[np.ndarray, np.ndarray, np.ndarray] | None = field(default=None, init=False)
    factors: tuple[np.ndarray, np.ndarray] | None = field(default=None, init=False)
    even: tuple[int, ...] = field(default=(), init=False)
    spectrum: Field | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.space not in _SPACES:
            raise ValueError(f"space must be one of {_SPACES}, got {self.space!r}")
        vals = np.array(self.data, dtype=np.complex128, order="C")
        if vals.shape != (self.grid.n, self.grid.n):
            raise ValueError(f"values must be {self.grid.n} x {self.grid.n}, got {vals.shape}")
        if self.space == "frequency":  # on the whole lattice, whose flat order is vals' own
            object.__setattr__(self, "support", _lattice_points(self.grid))
            vals = vals.ravel()
        vals.setflags(write=False)
        object.__setattr__(self, "data", vals)

    @property
    def values(self) -> np.ndarray:
        """The read-only n x n complex128 values, scattered afresh (and not kept)
        from a frequency field's support."""
        if self.support is None:
            return self.data
        out = np.zeros(self.grid.n**2, dtype=np.complex128)
        out[self.support[0]] = self.data
        out.setflags(write=False)
        return out.reshape(self.grid.n, self.grid.n)


def _own(grid: GridSpec, vals: np.ndarray, space: str, **attrs) -> Field:
    """Every field this package makes, over ``vals``, a fresh C-contiguous array made
    here (its ``data``): as complex128, not copied if it is one, and frozen with the
    ``support`` and ``factors`` in ``attrs``."""
    vals = np.asarray(vals, dtype=np.complex128)
    for a in (vals, *(attrs.get("support") or ()), *(attrs.get("factors") or ())):
        a.setflags(write=False)
    f = object.__new__(Field)
    vars(f).update(grid=grid, data=vals, space=space, **attrs)
    return f


def to_frequency(f: Field) -> Field:
    if f.space != "physical":
        raise ValueError("to_frequency expects a physical-space field")
    support = _lattice_points(f.grid)  # first: its scratch arrays are freed before the transform
    vals = np.fft.fft2(f.values, out=np.empty_like(f.values))  # in one n x n array, bit for bit
    vals *= f.grid.cell**2
    return _own(f.grid, vals.ravel(), "frequency", support=support)


def to_physical(f: Field) -> Field:
    """Inverse transform as np.fft.ifft2 computes it (see ``_inverse``), with the input as its ``spectrum``."""
    if f.space != "frequency":
        raise ValueError("to_physical expects a frequency-space field")
    return _own(f.grid, _inverse(f), "physical", spectrum=f)


def _as_physical(f: Field) -> Field:
    return f if f.space == "physical" else to_physical(f)


def _apply_multiplier(f: Field, symbol, band: tuple[float, float] | None = None) -> Field:
    """Multiply in frequency space, preserving the caller's space tag.

    ``symbol`` is the multiplier as a function of |xi|, evaluated once per
    support radius and gathered to the points, or its full-lattice array;
    ``band``, if given, is where it may be nonzero.  The result is stored on the
    points of the spectrum's support in the band: ``f``'s own, or a physical
    ``f``'s ``spectrum``'s; a caller's physical array has its transform read at
    the band's points, or the whole lattice's.  A frequency input keeps its
    ``even`` axes under a symbol of |xi|.
    """
    grid = f.grid
    g = f if f.space == "frequency" else f.spectrum
    if g is None:
        support = _lattice_points(grid) if band is None else _band_points(grid, *band)
        vals = np.fft.fft2(f.values).ravel()[support[0]] * grid.cell**2
    else:
        support, inside = (g.support, slice(None)) if band is None else _meet(g.support, band)
        vals = g.data[inside]
    mult = np.take(symbol(support[2]), support[1]) if callable(symbol) else symbol.ravel()[support[0]]
    vals = np.multiply(vals, mult, out=vals if vals.flags.writeable else None)  # in place on a gathered copy
    out = _own(grid, vals, "frequency", support=support, even=f.even if callable(symbol) else ())
    return out if f.space == "frequency" else to_physical(out)


def littlewood_paley(f: Field, j: int) -> Field:
    """Dyadic frequency projection: multiply by beta(|xi| / 2^j).

    The bump is supported in the band (2^{j-1}, 2^{j+1}) that
    ``GridSpec.band`` makes, which demands 2^{j+1} <= nyquist.
    """
    return _apply_multiplier(f, lambda r: beta(r / 2.0**j), f.grid.band(j, BETA_SUPPORT))


def half_wave(f: Field, t: float) -> Field:
    """Propagator e^{i t |xi|}; unitary on the discrete L^2 norm, inverted by -t."""
    return _apply_multiplier(f, lambda r: np.exp(1j * t * r))


def _check_radius(grid: GridSpec, t: float) -> None:
    # Closed right endpoint: radius period/4 still keeps the stencil diameter
    # (2t) strictly below the torus period, so t = 2 works on the default L = 8.
    if not 0.0 < t <= grid.period / 4.0 + 1e-12:
        raise ValueError(
            f"circle radius t={t} outside (0, period/4]; period/4 = {grid.period / 4.0}"
        )


def circular_average(f: Field, t: float) -> Field:
    """Average over the radius-t circle: the multiplier J0(t |xi|)."""
    _check_radius(f.grid, t)
    return _apply_multiplier(f, lambda r: bessel_j0(t * r))


def circular_average_quadrature(f: Field, t: float, m: int = 256) -> Field:
    """m-point uniform circle quadrature: (1/m) sum_i f(x - t y_i), y_i on the unit circle.

    The off-grid samples are evaluated with the exact trigonometric
    interpolant (equivalently: the multiplier (1/m) sum_i e^{-i t <xi, y_i>}),
    an independent oracle for the J0 multiplier that converges
    superexponentially once m >= 4 t B for band limit B.
    """
    _check_radius(f.grid, t)
    if m < 64:
        raise ValueError(f"quadrature needs m >= 64 points, got {m}")
    theta = 2.0 * np.pi * np.arange(m) / m
    xi = _axis_freq(f.grid)
    a = np.exp(-1j * np.outer(xi, t * np.cos(theta)))
    b = np.exp(-1j * np.outer(t * np.sin(theta), xi))
    return _apply_multiplier(f, (a @ b) / m)


def lp_norm(f: Field, p) -> float:
    """Discrete L^p norm (sum |f|^p cell^2)^(1/p); max |f| at p = infinity.

    Norms are taken on the physical-space representation (frequency input is
    transformed to |f|^p first).  A field with ``factors`` (a, b) is ifft(a) ifft(b) /
    cell^2 as an outer product, so its norm is the product of the two 1-D norms,
    from two length-n inverse FFTs.  Else a field with ``even`` axes is
    transformed and summed on x_i in [0, n/2] along each, with mirror weights.
    """
    pv = float(p)
    if pv < 1.0:
        raise ValueError(f"p must be >= 1, got {p}")
    cell = f.grid.cell
    if f.factors is not None:
        return math.prod(_sum_norm(np.fft.ifft(a) / cell, pv, cell) for a in f.factors)
    vals = f.values if f.space == "physical" else _inverse(f, f.even, power=pv)
    return _sum_norm(vals, pv, cell**2, f.even)


def _split(starts: Sequence[int], shape: tuple[int, int], dtype, work) -> None:
    """work(run, buffer) on one contiguous run of ``starts`` per CPU, or one run for blocks under
    _SPLIT_BYTES, each with a ``shape`` buffer made here: the last on this thread, the rest on the pool."""
    global _pool
    w = max(1, min(_WORKERS, len(starts))) if np.dtype(dtype).itemsize * math.prod(shape) >= _SPLIT_BYTES else 1
    runs = [(starts[k * len(starts) // w:(k + 1) * len(starts) // w], np.empty(shape, dtype)) for k in range(w)]
    if w > 1 and _pool is None:
        from concurrent.futures import ThreadPoolExecutor  # not at import: 8 ms of set-up
        _pool = ThreadPoolExecutor(_WORKERS - 1)
    others = _pool.map(work, *zip(*runs[:-1])) if w > 1 else ()
    work(*runs[-1])
    list(others)  # waits for the other runs, raising what one raised


def _inverse(f: Field, even: tuple[int, ...] = (), power: float | None = None) -> np.ndarray:
    """Physical values of the frequency field ``f`` as np.fft.ifft2 computes them, or with
    ``power`` their ``_power``, written _BLOCK rows or columns at a time, each pass ``_split``:
    axis 1 on the rows holding support points (a block's values are a run of the ascending
    ``flat``), then axis 0.  ``even``, (0,) or (0, 1) for an ``f``
    even in those axes, keeps x_i in [0, n/2] along them.  Even with a < 2 n.bit_length()
    rows k_1 >= 0, the column pass is the cosine sum sum_k w_k cos(2 pi k x_1 / n) V_k /
    (n cell^2) of the row transforms V_k, w_0 = 1, w_k = 2: about 2 a n^2 flops against
    5 n^2 log2 n for n FFTs.  einsum: 2-thread OpenBLAS stalls here."""
    n, h = f.grid.n, f.grid.n // 2
    top, bottom = _row_blocks(f.grid, f.support)
    a, rows, cols = top.stop, (h + 1 if even else n), (h + 1 if 1 in even else n)
    b = n - a + 1 if even else bottom.start
    out = np.empty((rows, cols), dtype=np.complex128 if power is None else np.float64)
    put = out.__setitem__ if power is None else (lambda at, block: _power(block, power, out=out[at]))
    if power is not None or even:  # the row transforms, stacked
        v = np.empty((a if even else a + n - b, cols), dtype=np.complex128)
        head, tail = v[:a], (v[a - 1:0:-1] if even else v[a:])
    else:  # in out's own rows: each column block reads them before it writes there
        head, tail = out[:a], out[b:]
    def row_pass(run, buf):
        for r in run:
            part, into = (top, head) if r < a else (bottom, tail)
            block = buf[: min(_BLOCK, part.stop - r)]
            lo, hi = np.searchsorted(f.support[0], (r * n, (r + len(block)) * n))
            block.fill(0.0)
            block.ravel()[f.support[0][lo:hi] - r * n] = f.data[lo:hi]
            np.fft.ifft(block, axis=1, out=block)
            into[r - part.start:r - part.start + len(block)] = block[:, :cols]
    _split([*range(0, a, _BLOCK), *(() if even else range(b, n, _BLOCK))], (_BLOCK, n), np.complex128, row_pass)
    if even and a < 2 * n.bit_length():
        k = np.arange(a)
        table = np.cos(2 * np.pi / n * (np.arange(h + 1)[:, None] * k % n)) * np.where(k, 2.0, 1.0)
        table /= n * f.grid.cell**2
        def cosines(run, buf):
            for x in run:
                block = np.einsum("xk,kc->xc", table[x:x + _BLOCK], head.view(np.float64), out=buf[: rows - x])
                put(slice(x, x + _BLOCK), block.view(np.complex128))
        _split(range(0, rows, _BLOCK), (_BLOCK, 2 * cols), np.float64, cosines)
        return out
    def columns(run, buf):
        for c in run:
            block = buf[:, : min(_BLOCK, cols - c)]
            block[:a], block[a:b], block[b:] = head[:, c:c + _BLOCK], 0.0, tail[:, c:c + _BLOCK]
            np.fft.ifft(block, axis=0, out=block)
            put(np.s_[:, c:c + _BLOCK], np.divide(block[:rows], f.grid.cell**2, out=block[:rows]))
    _split(range(0, cols, _BLOCK), (n, _BLOCK), np.complex128, columns)
    return out


def _power(values: np.ndarray, pv: float, out: np.ndarray | None = None) -> np.ndarray:
    """|values|^pv, into ``out`` if given; |values| at pv = 1 or infinity."""
    a = np.abs(values, out=out)
    if pv not in (1.0, math.inf):
        a **= pv  # in place: same bits as a**pv, for a whole array or a block of it
    return a


def _sum_norm(values: np.ndarray, pv: float, measure: float, even: tuple[int, ...] = ()) -> float:
    """(sum |values|^pv measure)^(1/pv), or max |values| at pv = infinity; real
    ``values`` are ``_power``'s, summed in place.  With ``even`` axes, ``_inverse``'s
    half or quarter grid summed as the whole: weight 1 on x_i = 0, n/2, else 2."""
    a = _power(values, pv) if np.iscomplexobj(values) else values
    if math.isinf(pv):
        return float(a.max())
    for axis in even:
        np.moveaxis(a, axis, 0)[1:-1] *= 2.0
    return float((np.sum(a) * measure) ** (1.0 / pv))


def mixed_norm(norms: Sequence[float], q) -> float:
    """(sum_t n_t^q)^(1/q) of the per-time norms n_t = ||F_t||_q; their max at q = inf."""
    if not len(norms):
        raise ValueError("mixed_norm needs a nonempty sequence of norms")
    qv = float(q)
    if qv < 1.0:
        raise ValueError(f"q must be >= 1, got {q}")
    return _sum_norm(_power(np.array(norms, dtype=np.float64), qv), qv, 1.0)


def maximal_function(f: Field, E: TimeSet, j: int) -> Field:
    """Pointwise sup over t in E of |circular average at radius t| of the dyadic
    projection P_j f.

    E is first thinned to a maximal 2^{-j}-separated subset (finer time
    resolution is invisible to a 2^j-band-limited field).  The field stays in
    frequency space, so each average evaluates J0 on the band only, and
    ``_inverse`` writes its modulus with no complex physical array.
    """
    if not E.points:
        raise ValueError("maximal_function needs a nonempty time set")
    _check_radius(f.grid, max(E.points))
    g = littlewood_paley(f if f.space == "frequency" else f.spectrum or to_frequency(f), j)
    acc = np.zeros((f.grid.n, f.grid.n))
    for t in discretize(E, 2.0**-j).points:
        np.maximum(acc, _inverse(circular_average(g, t), power=1.0), out=acc)
    return _own(f.grid, acc, "physical")


@dataclass(frozen=True)
class CoeffDecayTable:
    """Fourier-series coefficient decay of m(xi) = beta(|xi|) e^{i u |xi|} on [-pi,pi]^2.

    ``shells[s]`` is (s, max |d_k| over s <= |k| < s+1); ``c_m`` certifies
    |d_k| <= c_m (1+|k|)^{-M} over the computed range.  At level j and time step
    dt the symbol is beta(|xi| / 2^j) e^{i dt |xi|} = m(2^{-j} xi) with u = 2^j dt:
    a dilation of m, whose series on the dilated cell has m's coefficients.  So
    the table, and the constant of the locally constant property, depend on u
    alone, and |dt| <= 2^{-j} is |u| <= 1 at every j.
    """

    shells: tuple[tuple[int, float], ...]
    c_m: float
    coeff_sum: float


def multiplier_coeff_decay(u: float, M: int) -> CoeffDecayTable:
    """Per-shell maxima of the multiplier's Fourier-series coefficients.

    Rapid decay here is the quantitative form of the locally constant
    property: a 2^j-band-limited half-wave evolution sampled at times
    |dt| <= 2^{-j} apart, u = 2^j dt, is reproduced by a fixed
    absolutely-summable translation scheme.
    """
    if not 1 <= M <= 12:
        raise ValueError(f"decay order M must be in [1, 12], got {M}")
    if not abs(u) <= 1.0:
        raise ValueError(f"|u| = |2^j dt| must be <= 1, got {u}")
    N = COEFF_RESOLUTION
    xi = -np.pi + 2.0 * np.pi * np.arange(N) / N
    r = np.hypot(xi[:, None], xi[None, :])
    symbol = beta(r) * np.exp(1j * u * r)
    d = np.fft.fft2(symbol) / N**2
    kk = np.fft.fftfreq(N, d=1.0 / N)
    shell = np.floor(np.hypot(kk[:, None], kk[None, :])).astype(np.intp)  # s <= |k| < s+1
    keep = shell <= COEFF_SHELL_MAX
    mag = np.abs(d)
    peaks = np.zeros(COEFF_SHELL_MAX + 1)
    np.maximum.at(peaks, shell[keep], mag[keep])
    shells = tuple((s, float(peak)) for s, peak in enumerate(peaks))
    c_m = max(peak * (1.0 + s) ** M for s, peak in shells)
    total = float(np.where(keep, mag, 0.0).sum())
    return CoeffDecayTable(shells=shells, c_m=c_m, coeff_sum=total)


def sector_project(f: Field, arc: tuple[float, float], smooth_margin: float) -> Field:
    """Smooth angular restriction to an arc of directions.

    The window's rise and fall are crossfades of width ``smooth_margin``
    **centered on the arc endpoints** (plateau: arc shrunk by margin/2;
    support: arc grown by margin/2).  Centering makes adjacent windows of a
    partition sum to exactly 1 across shared endpoints, at the price of the
    last margin/2 sliver inside each arc — fields supported margin/2 inside
    their arc are reproduced exactly.  A full-circle arc acts as the
    identity away from xi = 0.
    """
    ta, tb = arc
    if tb < ta:
        raise ValueError(f"arc must be ordered, got {arc}")
    if smooth_margin <= 0.0:
        raise ValueError("smooth_margin must be positive")
    grid = f.grid
    if tb - ta >= 2.0 * np.pi * (1.0 - 1e-12):
        window = np.ones((grid.n, grid.n))
    else:
        xi1, xi2 = frequency_lattice(grid)
        phi = np.arctan2(xi2, xi1)
        m = smooth_margin

        def wrap(a):
            return (a + np.pi) % (2.0 * np.pi) - np.pi

        rise = step(wrap(phi - ta) / m + 0.5)
        fall = step(wrap(tb - phi) / m + 0.5)
        window = rise * fall
        window[0, 0] = 0.0
    return _apply_multiplier(f, window)


def random_field(grid: GridSpec, seed: int = 0, band_j: int | None = None) -> Field:
    """Seeded complex Gaussian field, optionally band-limited to the dyadic ring
    (used by sanity checks and verification suites; experiments stay deterministic)."""
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal((grid.n, grid.n)) + 1j * rng.standard_normal((grid.n, grid.n))
    f = _own(grid, vals, "physical")
    if band_j is not None:
        f = littlewood_paley(f, band_j)
    return f
