"""Command-line front end.

Subcommands: sets, regions, thresholds, operators, scaling, verify, report.
Exit codes: 0 = success / all certified, 1 = a certification failed,
2 = usage or input error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__
from .exponents import (
    PQPoint,
    RegionSpec,
    region_membership,
    region_plot_data,
    plot_data_to_csv,
    plot_data_to_json,
    threshold_table_to_csv,
    threshold_table_to_json,
    thresholds,
)
from .experiments import (
    RunConfig,
    load,
    persist,
    read_json,
    run_scaling,
    verify_bilinear_necessity,
    verify_locally_constant,
    verify_marginal_divergence,
    verify_whitney,
)
from .grid import (
    Field,
    GridSpec,
    _check_radius,
    circular_average,
    circular_average_quadrature,
    half_wave,
    littlewood_paley,
    lp_norm,
    maximal_function,
    random_field,
    to_frequency,
    to_physical,
)
from .cutoffs import BETA_SUPPORT, beta
from .sets import (
    TimeSet,
    assouad_characteristic,
    assouad_characteristic_sup,
    cantor_points,
    cantor_spec,
    check_memory,
    covering_number,
    discretize,
)

# The operator battery's peak by tracemalloc: 7.0-7.4 n x n complex fields at n = 512
# and 1024 for m up to 256, with under 3 n x m complex arrays more while the
# quadrature's factors exist.
_BATTERY_FIELDS = 10


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r} ({exc})")


def _write_out(out, csv_text: str, doc=None) -> None:
    """The ``--out`` rule: a ``.json`` path gets ``doc`` as JSON, any other
    path gets the CSV text, and no path writes the CSV to stdout."""
    if not out:
        sys.stdout.write(csv_text)
        return
    path = Path(out)
    if doc is not None and path.suffix == ".json":
        path.write_text(json.dumps(doc, indent=2) + "\n")
    else:
        path.write_text(csv_text)
    print(f"wrote {path}")


def _stored_time_set(points) -> TimeSet:
    """The time set of a document ``sets --out`` wrote: a nonempty JSON list of numbers."""
    if not isinstance(points, list) or not points or not all(type(t) in (int, float) for t in points):
        raise ValueError(f"a time set is a nonempty JSON list of numbers, got {json.dumps(points)[:60]}")
    return TimeSet.from_points(points)


def _cmd_sets(args) -> int:
    if args.j is not None and args.j < 1:
        raise ValueError(f"--j must be >= 1, so that delta = 2^-j < 1; got {args.j}")
    if not all(0.0 < d < 1.0 for d in args.delta or ()):
        raise ValueError(f"--delta must lie in (0, 1); got {args.delta}")
    alpha = None if args.alpha is None else float(args.alpha)
    if args.load:
        ts = read_json(args.load, _stored_time_set)
        origin = f"loaded from {args.load}"
    else:
        if args.alpha is None or args.j is None:
            raise ValueError("need --alpha and --j (or --load)")
        spec = cantor_spec(alpha, args.j, L=args.L)
        ts = cantor_points(spec)
        origin = f"cantor alpha={args.alpha} j={args.j} L={args.L:g} (k={spec.k})"
    print(f"time set: {origin}")
    print(f"cardinality: {len(ts.points)}")
    print(f"min gap: {ts.min_gap:.6g}")
    span = (min(ts.points), max(ts.points))
    deltas = args.delta or ([2.0**-args.j] if args.j is not None else [0.25])
    print("delta, covering_number")
    for d in deltas:
        print(f"{d:.6g}, {covering_number(ts, span, d)}")
    if alpha is not None:
        for d in deltas:
            a_plain = assouad_characteristic(ts, d, alpha)
            a_sup = assouad_characteristic_sup(ts, d, alpha)
            print(f"assouad(delta={d:.6g}): A={a_plain:.6g}  sup-variant={a_sup:.6g}")
    if args.out:
        Path(args.out).write_text(json.dumps(list(ts.points)))
        print(f"wrote {args.out}")
    return 0


def _cmd_thresholds(args) -> int:
    table = thresholds(args.d, args.alpha, r=args.r)
    _write_out(args.out, threshold_table_to_csv(table), threshold_table_to_json(table))
    return 0


def _cmd_regions(args) -> int:
    needed = {"--mu": args.mu, "--alpha": args.alpha} if args.point else {"--alpha": args.alpha}
    missing = [name for name, value in needed.items() if value is None]
    if missing:
        raise ValueError(f"need {' and '.join(missing)}{' with --point' if args.point else ''}")
    spec = RegionSpec(d=args.d, mu=args.mu, alpha=args.alpha)
    if args.point:
        pt = PQPoint(args.point[0], args.point[1])
        print(region_membership(pt, spec))
        return 0
    feature_set = f"fig{args.fig}"
    elements = region_plot_data(spec, feature_set, r=args.r if args.r is not None else Fraction(4))
    _write_out(args.out, plot_data_to_csv(elements), plot_data_to_json(elements))
    return 0


def _cmd_operators(args) -> int:
    grid = GridSpec(args.n)
    # every argument is checked before the field is drawn
    grid.band(args.j, BETA_SUPPORT)
    _check_radius(grid, args.t)
    times = TimeSet.from_points([1.1, args.t, 1.9])
    if args.m < 64:
        raise ValueError(f"quadrature needs m >= 64 points, got {args.m}")
    check_memory(16 * args.n * (_BATTERY_FIELDS * args.n + 3 * args.m),
                 f"the operator battery on n={args.n}, m={args.m}")
    f = random_field(grid, seed=args.seed, band_j=args.j)
    checks = []

    # only the error is kept: the round trip would hold a whole-lattice field as its spectrum
    error = float(np.abs(to_physical(to_frequency(f)).values - f.values).max())
    checks.append(("transform round-trip", error, 1e-12))

    hw = half_wave(f, args.t)
    checks.append(("half-wave L2 isometry", abs(lp_norm(hw, 2) - lp_norm(f, 2)) / lp_norm(f, 2), 1e-12))

    ca = circular_average(f, args.t)
    cq = circular_average_quadrature(f, args.t, m=args.m)
    rel = lp_norm(Field(grid, ca.values - cq.values, ca.space), 2) / max(lp_norm(ca, 2), 1e-300)
    checks.append(("circular average vs quadrature", rel, 1e-6))

    ts = np.linspace(1.0, 2.0**6, 2048)
    part = sum(beta(ts / 2.0**j) for j in range(0, 8))
    checks.append(("dyadic partition of unity", float(np.abs(part - 1.0).max()), 1e-12))

    mx = np.abs(maximal_function(f, times, j=args.j).values)
    pj = littlewood_paley(f, args.j)
    kept = discretize(times, 2.0**-args.j).points  # the times the maximal function takes its sup over
    defect = max(float((np.abs(circular_average(pj, t).values) - mx).max()) for t in kept)
    checks.append(("maximal function dominates averages", max(defect, 0.0), 1e-12))

    print(f"grid n={args.n} period={grid.period:g}  seed={args.seed}  t={args.t}  j={args.j}  m={args.m}")
    failed = 0
    for name, value, budget in checks:
        ok = value <= budget
        failed += 0 if ok else 1
        print(f"{'PASS' if ok else 'FAIL'}  {name}: {value:.3e} (budget {budget:g})")
    return 0 if failed == 0 else 1


def _cmd_scaling(args) -> int:
    configs = [read_json(path, RunConfig.from_json) for path in args.config]  # all, before any level runs
    stems = [c.stem for c in configs]
    for i, stem in enumerate(stems):
        if stem in stems[:i]:
            raise ValueError(f"{args.config[stems.index(stem)]} and {args.config[i]} both write the run {stem!r}")
    if args.out:
        Path(args.out).mkdir(parents=True, exist_ok=True)  # fail before the first level
    failed = 0
    for config in configs:
        run = run_scaling(config)
        print(f"family={config.family} p={config.p} q={config.q} alpha={config.alpha}")
        for j, y in run.measured:
            print(f"  j={j}: log2 ratio = {y:+.4f}")
        print(
            f"fitted slope = {run.fitted_slope:.4f}  predicted = {run.predicted} "
            f"(= {float(run.predicted):.4f})  residual = {run.residual:.4f}"
        )
        print(f"verdict: {run.verdict}")
        if args.out:
            jp, cp = persist(run, args.out)
            print(f"wrote {jp} and {cp}")
        failed += run.verdict != "consistent"
    return 1 if failed else 0


def _cmd_verify(args) -> int:
    if args.suite == "marginal":
        rep = verify_marginal_divergence(args.alpha, args.kmax)
        print(f"alpha={rep.alpha}  k in [2, {args.kmax}]")
        print("k, sum/(k 2^k), sum/2^k")
        for k, ratio, per in rep.entries:
            print(f"{k}, {float(ratio):.6f}, {per:.6f}")
        print("band [1/4, 4] and strict growth:", "certified" if rep.passed else "FAILED")
        return 0 if rep.passed else 1
    if args.suite == "locally-constant":
        rep = verify_locally_constant(args.order)
        spread = max(c for _, c in rep.c_values) / min(c for _, c in rep.c_values)
        print(f"order M={rep.order}  u = 2^j dt in {{0, 1/2, 1}}, every j")
        print(f"certified C_M = {rep.certified_c:.6g}, spread across u = 2^j dt = {spread:.4f} (must be <= 4)")
        print("factor-4 stability:", "certified" if rep.passed else "FAILED")
        return 0 if rep.passed else 1
    if args.suite == "whitney":
        rep = verify_whitney(args.numax, seed=args.seed)
        print(f"nu_max={rep.nu_max}  seed={args.seed}")
        print(f"pair coverage exact: {rep.coverage_exact}")
        print(f"separation band (scaled by 2^nu): [{rep.band[0]:.6g}, {rep.band[1]:.6g}]")
        print(f"partition defect: {rep.partition_defect:.3e}  orthogonality defect: {rep.orthogonality_defect:.3e}")
        print("whitney suite:", "certified" if rep.passed else "FAILED")
        return 0 if rep.passed else 1
    rep = verify_bilinear_necessity(alpha=args.alpha)
    print(f"alpha={rep.alpha}")
    print(f"angular product exponent:  {rep.angular_exponent:.4f} (target 1)")
    print(f"squashed product exponent: {rep.squashed_exponent:.4f} (target 3)")
    print(f"necessary q (angular caps):  {rep.angular_q} = {float(rep.angular_q):.6f}")
    print(f"necessary q (squashed caps): {rep.squashed_q} = {float(rep.squashed_q):.6f}")
    print("necessity suite:", "certified" if rep.passed else "FAILED")
    return 0 if rep.passed else 1


def _cmd_report(args) -> int:
    run_dir = Path(args.dir)
    runs = [load(p) for p in sorted(run_dir.glob("*.json"))]
    if not runs:
        raise ValueError(f"no stored runs under {run_dir}")
    lines = ["label,family,p,q,alpha,slope,predicted,residual,verdict"]
    for r in runs:
        c = r.config
        lines.append(
            f"{c.label},{c.family},{c.p},{c.q},{c.alpha},"
            f"{r.fitted_slope:.6f},{r.predicted},{r.residual:.6f},{r.verdict}"
        )
    _write_out(args.out, "\n".join(lines) + "\n")
    return 0


class _Parser(argparse.ArgumentParser):
    """Reads a negative rational or decimal after an option (``--alpha -1/2``) as its value, as it reads -2."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+(/\d+)?|\d*\.\d+)$")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="fractalwave", description=__doc__)
    ap.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sets", help="build/inspect fractal time sets")
    p.add_argument("--alpha", type=_fraction, help="dimension parameter in (0, 1]")
    p.add_argument("--j", type=int, help="resolution exponent (delta = 2^-j)")
    p.add_argument("--L", type=float, default=4.0, help="calibration constant (default 4)")
    p.add_argument("--load", help="load a stored time-set JSON instead of building")
    p.add_argument("--delta", type=float, action="append", help="covering scale (repeatable)")
    p.add_argument("--out", help="write the set as JSON")
    p.set_defaults(func=_cmd_sets)

    p = sub.add_parser("thresholds", help="exact exponent thresholds")
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--alpha", type=_fraction, required=True)
    p.add_argument("--r", type=_fraction, default=None)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_thresholds)

    p = sub.add_parser("regions", help="exponent-region membership and plot data")
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--mu", type=_fraction, default=None)
    p.add_argument("--alpha", type=_fraction, default=None)
    p.add_argument("--r", type=_fraction, default=None)
    p.add_argument("--point", nargs=2, type=_fraction, metavar=("1/P", "1/Q"))
    p.add_argument("--fig", type=int, choices=(1, 2, 3), default=1)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_regions)

    p = sub.add_parser("operators", help="operator sanity battery")
    p.add_argument("--n", type=int, default=256)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--t", type=float, default=1.3)
    p.add_argument("--j", type=int, default=4)
    p.add_argument("--m", type=int, default=256)
    p.set_defaults(func=_cmd_operators)

    p = sub.add_parser("scaling", help="run scaling studies from JSON configs, in order")
    p.add_argument("--config", nargs="+", required=True, help="one or more config files")
    p.add_argument("--out", help="directory for the JSON/CSV outputs")
    p.set_defaults(func=_cmd_scaling)

    p = sub.add_parser("verify", help="certification suites")
    vs = p.add_subparsers(dest="suite", required=True)
    v = vs.add_parser("marginal")
    v.add_argument("--alpha", type=_fraction, required=True)
    v.add_argument("--kmax", type=int, default=12)
    v = vs.add_parser("locally-constant")
    v.add_argument("--order", type=int, default=8)
    # retired, as C_M is the same at every j; accepted and ignored while
    # benchmark/selftest.py still passes them
    for retired in ("--jmin", "--jmax"):
        v.add_argument(retired, type=int, help=argparse.SUPPRESS)
    v = vs.add_parser("whitney")
    v.add_argument("--numax", type=int, default=8)
    v.add_argument("--seed", type=int, default=0)
    v = vs.add_parser("necessity")
    v.add_argument("--alpha", type=_fraction, default=Fraction(1, 2))
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("report", help="aggregate stored runs")
    p.add_argument("--dir", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_report)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, TypeError, OSError) as exc:
        print(f"fractalwave {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
