"""Outside-in tracing of the ``fractalwave`` modules, for one traced pass.

The program has no tracing of its own, so the benchmark wraps the public
functions named in ``BOUNDARIES``.  Entering a ``Tracer`` replaces every
binding of each such function, in every loaded ``fractalwave`` module, by a
wrapper; leaving it puts the originals back.  Patching every binding is what
makes a call visible whoever makes it: ``experiments`` calls ``knapp`` through
its own namespace, and ``grid`` calls ``to_physical`` through ``grid``'s.

Each call becomes a span (name, start, end, parent).  A span's self time is
its duration minus that of its child spans, and it is added to the time
metric of its boundary.  Counters are taken on entry, and only at the
outermost span of a boundary, so ``beta -> psi -> step`` counts its points
once.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

_STUDY_METRIC = {
    "radial_focusing": "experiments.study_s1_s",
    "knapp": "experiments.study_s2_s",
    "annulus": "experiments.study_s3_s",
}


def _one(args, kwargs):
    return 1


def _size(args, kwargs):
    return int(np.size(args[0]))


def _field_size(args, kwargs):
    return int(args[0].values.size)


def _fft_bytes(args, kwargs):
    # computed, not measured: the complex128 input read plus the output written
    return 2 * int(args[0].values.nbytes)


def _fields(args, kwargs):
    return len(args[0])


def _study_metric(args, kwargs):
    config = args[0] if args else kwargs["config"]
    return _STUDY_METRIC[config.family]


@dataclass(frozen=True)
class Boundary:
    """Functions of one module whose self time goes to one time metric."""

    module: str
    functions: tuple[str, ...]
    time_metric: str | Callable
    counters: dict = field(default_factory=dict)  # metric -> fn(args, kwargs) -> number
    maxima: dict = field(default_factory=dict)  # metric -> fn(args, kwargs) -> number


BOUNDARIES = (
    Boundary("extremizers", ("radial_focusing", "knapp", "annulus"), "extremizers.build_s",
             {"extremizers.build_calls": _one}),
    Boundary("cutoffs", ("beta", "beta0", "beta1", "step"), "cutoffs.eval_s",
             {"cutoffs.points": _size}),
    Boundary("grid", ("littlewood_paley",), "grid.project_s"),
    Boundary("grid", ("half_wave", "circular_average"), "grid.multiplier_s",
             {"grid.multiplier_points": _field_size}),
    Boundary("grid", ("to_frequency", "to_physical"), "grid.fft_s",
             {"grid.fft_calls": _one, "grid.fft_bytes_computed": _fft_bytes}),
    Boundary("grid", ("lp_norm",), "grid.norm_s", {"grid.norm_calls": _one}),
    Boundary("grid", ("mixed_norm",), "grid.norm_s", maxima={"grid.fields_held_max": _fields}),
    Boundary("grid", ("maximal_function",), "grid.maximal_s"),
    Boundary("bessel", ("bessel_j0",), "bessel.j0_s", {"bessel.j0_points": _size}),
    Boundary("sets", ("build_cantor", "discretize"), "sets.build_s"),
    Boundary("sets", ("covering_number", "minkowski_estimate", "assouad_characteristic",
                      "assouad_characteristic_sup", "build_interval_family", "marginal_sum"),
             "sets.calculus_s"),
    Boundary("exponents", ("region_membership", "in_region"), "exponents.region_s",
             {"exponents.region_calls": _one}),
    Boundary("exponents", ("s_exponents", "thresholds", "region_plot_data"), "exponents.exact_s"),
    Boundary("whitney", ("whitney", "check_coverage"), "whitney.decompose_s"),
    Boundary("caps", ("extension",), "caps.extension_s", {"caps.extension_calls": _one}),
    Boundary("experiments", ("run_scaling",), _study_metric),
    Boundary("experiments", ("verify_marginal_divergence", "verify_locally_constant",
                             "verify_whitney", "verify_bilinear_necessity"), "experiments.verify_s"),
    Boundary("cli", ("main",), "cli.self_s", {"cli.commands": _one}),
)


def time_metrics() -> list[str]:
    names = []
    for b in BOUNDARIES:
        for name in [b.time_metric] if isinstance(b.time_metric, str) else _STUDY_METRIC.values():
            if name not in names:
                names.append(name)
    return names


def count_metrics() -> list[str]:
    return [m for b in BOUNDARIES for m in (*b.counters, *b.maxima)]


def package_modules(package: str = "fractalwave") -> list:
    """The loaded modules of the package, itself included."""
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == package or name.startswith(package + "."))]


class Tracer:
    """Context manager: patches the boundaries on entry, restores on exit."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.self_s = dict.fromkeys(time_metrics(), 0.0)
        self.counts = dict.fromkeys(count_metrics(), 0)
        self.missing: list[str] = []
        self._stack: list[list] = []  # [span index, boundary, child time]
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str, boundary: Boundary):
        spans, stack, self_s, counts = self.spans, self._stack, self.self_s, self.counts
        metric_of = boundary.time_metric
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            if parent is None or parent[1] is not boundary:
                for metric, amount in boundary.counters.items():
                    counts[metric] += amount(args, kwargs)
                for metric, amount in boundary.maxima.items():
                    counts[metric] = max(counts[metric], amount(args, kwargs))
            metric = metric_of if isinstance(metric_of, str) else metric_of(args, kwargs)
            record = [name, 0.0, 0.0, parent[0] if parent else -1]
            spans.append(record)
            frame = [len(spans) - 1, boundary, 0.0]
            stack.append(frame)
            record[1] = start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = end = clock()
                stack.pop()
                duration = end - start
                self_s[metric] += duration - frame[2]
                if stack:
                    stack[-1][2] += duration

        return wrapper

    def __enter__(self) -> "Tracer":
        modules = package_modules()
        by_name = {m.__name__: m for m in modules}
        try:
            for b in BOUNDARIES:
                home = by_name.get(f"fractalwave.{b.module}")
                for fname in b.functions:
                    original = getattr(home, fname, None)
                    if original is None:
                        self.missing.append(f"{b.module}.{fname}")
                        continue
                    wrapper = self._wrap(original, f"{b.module}.{fname}", b)
                    for m in modules:
                        for attr, value in list(vars(m).items()):
                            if value is original:
                                self._patched.append((m, attr, original))
                                setattr(m, attr, wrapper)
        except BaseException:
            self.restore()
            raise
        return self

    def restore(self) -> None:
        for m, attr, original in reversed(self._patched):
            setattr(m, attr, original)
        self._patched.clear()

    def __exit__(self, *exc) -> None:
        self.restore()
