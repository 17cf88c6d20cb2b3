#!/usr/bin/env python3
"""Re-derive the calibration constants frozen into the extremizer tests.

Each extremizer family comes with a quantitative concentration certificate
(an envelope constant, a center value, a shell minimum, ...).  The test suite
asserts those certificates with fixed margins; this script re-measures the
underlying quantities on a chosen grid so the margins can be audited or
re-tuned after a change to the cutoff calculus or grid conventions.

Usage: python3 scripts/calibrate_extremizers.py [--n 2048] [--jmin 4] [--jmax 6]
"""

import argparse

import numpy as np

from fractalwave import extremizers
from fractalwave.extremizers import (
    annulus_shell_minimum,
    concentration_constant,
    knapp,
    knapp_center_value,
    knapp_coherence,
    knapp_phase_error,
    radial_focusing,
    shell_mass_fraction,
)
from fractalwave.grid import GridSpec, lp_norm


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=2048)
    ap.add_argument("--jmin", type=int, default=4)
    ap.add_argument("--jmax", type=int, default=6)
    args = ap.parse_args()

    grid = GridSpec(args.n)
    js = range(args.jmin, args.jmax + 1)

    print(f"grid: n={args.n} period={grid.period:g} nyquist={grid.nyquist:.2f}")
    print()

    def section(title: str, test: str) -> None:
        print(title)
        print(f"  (bound frozen by tests/test_extremizers.py::{test})")

    section(
        "radial_focusing: near-field envelope C(j) = sup |f| (1 + 2^j||x|-1|)^4 / 2^(3j/2)\n"
        "  on the scaled shell 2^j||x|-1| <= 8; global sup for contrast",
        "test_focusing_near_field_envelope",
    )
    for j in js:
        f = radial_focusing(grid, j)
        near = concentration_constant(f, j, shell_limit=8.0)
        full = concentration_constant(f, j)
        print(f"  j={j}: C_shell = {near:.1f}   C_global = {full:.1f}")
    print()

    section(
        "radial_focusing: shell mass fraction on ||x|-1| <= 8 * 2^-j", "test_focusing_mass_concentrates_on_unit_shell"
    )
    for j in js:
        f = radial_focusing(grid, j)
        frac = shell_mass_fraction(f, 8.0 * 2.0**-j)
        print(f"  j={j}: mass fraction = {frac:.4f}")
    print()

    section("knapp: center value at the refocusing point, in units of 2^(3j/2)", "test_knapp_center_value")
    for j in js:
        print(f"  j={j}: kappa = {knapp_center_value(knapp(grid, j), j):.4f}")
    print()

    section("knapp: coherence = attained center value / triangle-inequality bound", "test_knapp_coherence")
    for j in js:
        print(f"  j={j}: coherence = {knapp_coherence(grid, j):.6f}")
    print()

    section(
        "knapp: quadratic phase error on the tube, in units of c1^2", "test_knapp_phase_error_scales_like_c1_squared"
    )
    for c1 in (0.0625, 0.125, 0.25):
        plat = knapp_phase_error(j=6, c1=c1, region="plateau")
        supp = knapp_phase_error(j=6, c1=c1, region="support")
        print(
            f"  c1={c1:g}: plateau err = {plat:.4f} ({plat / c1**2:.2f} c1^2), "
            f"support err = {supp:.4f} ({supp / c1**2:.2f} c1^2)"
        )
    print()

    section(
        "annulus: minimum of |e^(it sqrt(-Lap)) f| over the shell |x| = t, in units of 2^(3j/2)",
        "test_annulus_shell_minimum",
    )
    for j in js:
        print(f"  j={j}: shell min = {annulus_shell_minimum(grid, j):.4f}")
    print()

    section(
        "L^p norm growth exponents (log2 successive ratios; the closed forms are\n"
        "  CLOSED_FORM_SLOPES there and in the fractalwave.extremizers docstring)",
        "test_norm_growth_matches_closed_forms",
    )
    for family in ("radial_focusing", "knapp", "annulus"):
        for p in (1.0, 2.0, 4.0):
            norms = []
            for j in js:
                f = getattr(extremizers, family)(grid, j)
                norms.append(lp_norm(f, p))
            slopes = np.diff(np.log2(norms))
            print(f"  {family:16s} p={p:g}: slopes {np.array2string(slopes, precision=3)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
