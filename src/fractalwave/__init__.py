"""Numerical laboratory for spherical means over fractal dilation sets.

The package has three layers:

* exact combinatorics and arithmetic: ``sets`` (Cantor-type time sets with
  covering/Assouad calculus) and ``exponents`` (rational exponent thresholds
  and type-set regions);
* spectral operators on a periodic 2-d grid: ``grid`` (transforms, half-wave
  propagator, circular averages, maximal functions), ``cutoffs``, ``bessel``,
  ``whitney``;
* experiment drivers: ``extremizers`` and ``caps`` (explicit test inputs with
  known concentration behavior), ``experiments`` (scaling runs, verification
  suites, persistence), and ``cli``.
"""

__version__ = "0.1.0"
