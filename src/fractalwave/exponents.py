"""Exact-rational exponent calculus for circular means over fractal time sets.

Everything in this module is computed in ``fractions.Fraction`` arithmetic;
floats never enter.  Coordinates live in the unit square of (1/p, 1/q).

The three smoothing exponents for dimension ``d`` and Assouad parameter
``alpha`` are

    s1 = (d-1)/2 + 1/p - d/q
    s2 = (d+1)/2 * (1/p - 1/q) + alpha/q
    s3 = d/p - (1-alpha)/q - (d-1)/2

and the critical exponent is their maximum.  s1 = s2 exactly on the critical
line (d-1)(1 - 1/p) = (d-1+2alpha)/q, and s2 = s3 exactly on 1 - 1/p = 1/q.

The type-set region R is the union of the interior of the convex hull of the
four Q-points with the half-open diagonal edge [Q1, Q2); see
``region_membership`` for how labels are assigned on the boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Sequence

_LABELS = ("s1", "s2", "s3")


def _frac(x) -> Fraction:
    """Coerce ints, strings like '2/5', and Fractions; floats are refused, and a
    zero denominator is a ValueError."""
    if isinstance(x, float):
        raise TypeError(f"exact rational expected, got float {x!r} (pass a Fraction or string)")
    try:
        return Fraction(x)
    except ZeroDivisionError as exc:
        raise ValueError(f"zero denominator in {x!r}") from exc


@dataclass(frozen=True)
class PQPoint:
    inv_p: Fraction
    inv_q: Fraction

    def __post_init__(self):
        object.__setattr__(self, "inv_p", _frac(self.inv_p))
        object.__setattr__(self, "inv_q", _frac(self.inv_q))
        for v in (self.inv_p, self.inv_q):
            if not 0 <= v <= 1:
                raise ValueError(f"(1/p, 1/q) must lie in [0,1]^2, got {self}")

    def as_tuple(self) -> tuple[Fraction, Fraction]:
        return (self.inv_p, self.inv_q)


@dataclass(frozen=True)
class RegionSpec:
    d: int
    mu: Fraction | None = None
    alpha: Fraction | None = None

    def __post_init__(self):
        if self.d < 2:
            raise ValueError(f"dimension must be >= 2, got {self.d}")
        if self.mu is not None:
            object.__setattr__(self, "mu", _frac(self.mu))
        if self.alpha is not None:
            object.__setattr__(self, "alpha", _frac(self.alpha))
        if self.alpha is not None and not 0 <= self.alpha <= 1:
            raise ValueError(f"alpha must be in [0,1], got {self.alpha}")
        if self.mu is not None:
            if not 0 <= self.mu <= 1:
                raise ValueError(f"mu must be in [0,1], got {self.mu}")
            if self.alpha is not None and self.mu > self.alpha:
                raise ValueError(f"need mu <= alpha, got mu={self.mu} > alpha={self.alpha}")


class SExponents(NamedTuple):
    s1: Fraction
    s2: Fraction
    s3: Fraction
    s_c: Fraction


def q_points(spec: RegionSpec) -> tuple[PQPoint, PQPoint, PQPoint, PQPoint]:
    """The four vertices (Q1, Q2, Q3, Q4) of the type-set region.

    Q2 and Q3 depend on the Minkowski parameter mu, Q4 on the Assouad
    parameter alpha.  At (d, mu) = (2, 1) the formulas collapse Q2 = Q3.
    """
    if spec.mu is None or spec.alpha is None:
        raise ValueError("q_points needs both mu and alpha in the spec")
    d, mu, a = Fraction(spec.d), spec.mu, spec.alpha
    q1 = PQPoint(Fraction(0), Fraction(0))
    q2 = PQPoint((d - 1) / (d - 1 + mu), (d - 1) / (d - 1 + mu))
    q3 = PQPoint((d - mu) / (d - mu + 1), 1 / (d - mu + 1))
    return (q1, q2, q3, _q4(d, a))


def _q4(d: Fraction, a: Fraction) -> PQPoint:
    """The marginal vertex Q4 = (d(d-1), d-1) / (d^2 + 2 alpha - 1), which is (1/p_alpha, 1/q_alpha)."""
    return PQPoint(d * (d - 1) / (d * d + 2 * a - 1), (d - 1) / (d * d + 2 * a - 1))


def _cross(o, a, b) -> Fraction:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _hull(points: Sequence[tuple[Fraction, Fraction]]) -> list[tuple[Fraction, Fraction]]:
    """Convex hull (counterclockwise, strict turns) of <= 4 rational points."""
    pts = sorted(set(points))
    lower: list = []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list = []
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def _on_segment(p, a, b) -> bool:
    if _cross(a, b, p) != 0:
        return False
    return min(a[0], b[0]) <= p[0] <= max(a[0], b[0]) and min(a[1], b[1]) <= p[1] <= max(a[1], b[1])


def _classify_hull(p, hull: Sequence[tuple[Fraction, Fraction]]) -> str:
    """'interior' / 'boundary' / 'outside' for a convex CCW hull of >= 3 vertices: the
    Q-hull has Q1 = (0, 0), Q2 = (x, x) with x >= 1/2, and Q4 off the diagonal."""
    strict = True
    for a, b in zip(hull, hull[1:] + hull[:1]):
        c = _cross(a, b, p)
        if c < 0:
            return "outside"
        if c == 0:
            strict = False
    return "interior" if strict else "boundary"


@lru_cache(maxsize=64)
def _q_hull(spec: RegionSpec) -> tuple[tuple[PQPoint, ...], tuple[tuple[Fraction, Fraction], ...]]:
    """The spec's Q-points and their hull, computed once per (frozen) spec."""
    qs = q_points(spec)
    return qs, tuple(_hull([q.as_tuple() for q in qs]))


def region_membership(point: PQPoint, spec: RegionSpec) -> str:
    """Classify a point against the Q-hull: one of interior_Q / boundary_Q / in_R / outside.

    Precedence on the boundary: the four Q-points themselves report
    ``boundary_Q`` (so Q1 and Q2 do, even though Q1 belongs to the region R);
    every other point of the half-open diagonal edge [Q1, Q2) reports
    ``in_R``.  Use :func:`in_region` for the literal region predicate.
    """
    qs, hull = _q_hull(spec)
    where = _classify_hull(point.as_tuple(), hull)
    if where == "interior":
        return "interior_Q"
    if where == "outside":
        return "outside"
    if any(point.as_tuple() == q.as_tuple() for q in qs):
        return "boundary_Q"
    q1, q2 = qs[0].as_tuple(), qs[1].as_tuple()
    if _on_segment(point.as_tuple(), q1, q2) and point.as_tuple() != q2:
        return "in_R"
    return "boundary_Q"


def in_region(point: PQPoint, spec: RegionSpec) -> bool:
    """True iff the point is in R = interior of the Q-hull, or on [Q1, Q2).

    Q1 is the one point of R that :func:`region_membership` labels ``boundary_Q``.
    """
    return region_membership(point, spec) in ("interior_Q", "in_R") or point == _q_hull(spec)[0][0]


def s_exponents(point: PQPoint, d: int, alpha) -> SExponents:
    """Exact (s1, s2, s3, max) at a (1/p, 1/q) point."""
    if d < 2:
        raise ValueError(f"dimension must be >= 2, got {d}")
    a = _frac(alpha)
    if not 0 <= a <= 1:
        raise ValueError(f"alpha must be in [0,1], got {a}")
    x, y = point.inv_p, point.inv_q
    dd = Fraction(d)
    s1 = Fraction(dd - 1, 2) + x - dd * y
    s2 = Fraction(dd + 1, 2) * (x - y) + a * y
    s3 = dd * x - (1 - a) * y - Fraction(dd - 1, 2)
    return SExponents(s1, s2, s3, max(s1, s2, s3))


def regime(point: PQPoint, d: int, alpha) -> tuple[str, ...]:
    """Which exponent attains the max; ties are reported, not broken."""
    s = s_exponents(point, d, alpha)
    return tuple(lbl for lbl, v in zip(_LABELS, s[:3]) if v == s.s_c)


def critical_line(q, d: int, alpha) -> Fraction:
    """1/p on the line (d-1)(1 - 1/p) = (d-1+2 alpha)/q, given the exponent q."""
    qq = _frac(q)
    a = _frac(alpha)
    if qq <= 0:
        raise ValueError(f"q must be positive, got {qq}")
    inv_p = 1 - Fraction(d - 1 + 2 * a, (d - 1)) / qq
    if not 0 <= inv_p <= 1:
        raise ValueError(f"critical line leaves the unit square at q={qq}: 1/p={inv_p}")
    return inv_p


@dataclass(frozen=True)
class ThresholdTable:
    """Closed-form threshold exponents (all exact rationals).

    ``q_circ`` and ``q_star`` bound the local-smoothing range used for the
    sparse branch; ``q_tilde_circ``/``q_tilde_star`` are their analogues for
    the alpha-dependent bilinear route; (p_alpha, q_alpha) is the marginal
    vertex Q4 written as Lebesgue exponents; ``q_star_r`` is the r-refined
    variant (present only when r was supplied).
    """

    d: int
    alpha: Fraction
    q_circ: Fraction
    q_star: Fraction
    p_star: Fraction
    q_tilde_circ: Fraction
    q_tilde_star: Fraction
    q_alpha: Fraction
    p_alpha: Fraction
    q_star_r: Fraction | None = None
    r: Fraction | None = None

    def __post_init__(self):
        bound = 2 * Fraction(self.d - 1 + 2 * self.alpha, self.d - 1)
        if not self.q_tilde_circ < bound:
            raise ValueError(f"q_tilde_circ = {self.q_tilde_circ} must lie below {bound}")


def thresholds(d: int, alpha, r=None) -> ThresholdTable:
    """Evaluate every threshold exponent exactly; ``r`` is optional and must exceed
    the r0 at which the denominator of ``q_star_r`` vanishes."""
    if d < 2:
        raise ValueError(f"dimension must be >= 2, got {d}")
    a = _frac(alpha)
    if not 0 < a <= 1:
        raise ValueError(f"alpha must be in (0,1], got {a}")
    dd = Fraction(d)
    q_circ = 2 * (dd + 3) / (dd + 1)
    q_star = 2 * (dd * dd + (a + 1) * dd + a - 2) / (dd * dd - 1)
    p_star = 2 * q_star / q_circ
    q_tilde_circ = 2 * (dd - 1 + 4 * a) / (dd - 1 + 2 * a)
    q_tilde_star = (2 * (dd - 1 + 2 * a) ** 2 - 4 * a * a) / ((dd - 1) * (dd - 1 + 2 * a))
    q4 = _q4(dd, a)
    q_alpha, p_alpha = 1 / q4.inv_q, 1 / q4.inv_p
    q_star_r = None
    rr = None
    if r is not None:
        rr = _frac(r)
        r0 = 2 * (3 * a + dd - 1) / (2 * a + dd - 1)
        if rr <= r0:
            raise ValueError(f"r must exceed r0 = 2(3 alpha + d - 1)/(2 alpha + d - 1) = {r0}, got {rr}")
        num = rr * (2 * (dd - 1 + 2 * a) ** 2 - 4 * a * a) - 4 * (
            4 * a * a + (dd - 1) ** 2 + 5 * a * (dd - 1)
        )
        den = rr * (dd - 1) * (2 * a + dd - 1) - 2 * (dd - 1) * (3 * a + dd - 1)
        q_star_r = num / den
    return ThresholdTable(
        d=d,
        alpha=a,
        q_circ=q_circ,
        q_star=q_star,
        p_star=p_star,
        q_tilde_circ=q_tilde_circ,
        q_tilde_star=q_tilde_star,
        q_alpha=q_alpha,
        p_alpha=p_alpha,
        q_star_r=q_star_r,
        r=rr,
    )


def marginal_vertex(d: int, alpha) -> PQPoint:
    """The point 1/p = 1/q = (d-1)/(2(alpha+d-1)) where only strict s > s_c works."""
    a = _frac(alpha)
    v = Fraction(d - 1, 1) / (2 * (a + d - 1))
    return PQPoint(v, v)


def necessary_check(point: PQPoint, d: int, alpha, s) -> str:
    """Compare a smoothing exponent s against the necessary conditions.

    Returns 'admissible' when s >= s_c away from the marginal vertex;
    'marginal_point' when the point is the marginal vertex and s does not
    exceed s_c strictly; otherwise the flag of the dominating regime that is
    violated.
    """
    sv = _frac(s)
    se = s_exponents(point, d, alpha)
    marginal = point.as_tuple() == marginal_vertex(d, alpha).as_tuple()
    if sv < se.s_c:
        dominating = regime(point, d, alpha)[0]
        return f"violates_{dominating}"
    if marginal and sv == se.s_c:
        return "marginal_point"
    return "admissible"


@dataclass(frozen=True)
class PlotElement:
    label: str
    kind: str  # 'polyline' | 'point' | 'tick'
    points: tuple[PQPoint, ...]


def region_plot_data(spec: RegionSpec, feature_set: str, r=Fraction(4)) -> list[PlotElement]:
    """Exact polylines/points for the three standard exponent diagrams.

    feature_set 'fig1': the s_c regime partition (diagonal guide to (1/2,1/2),
    critical line from the diagonal corner to (1,0), the s2/s3 boundary
    1 - 1/p = 1/q, and the corner point).  'fig2': adds the sparse-branch
    marks (1/2, 1/q_circ) and (1/p_star, 1/q_star).  'fig3': the r-refined
    interpolation segment from (1/r, 1/r) to (1/2, 1/q_tilde_circ) with its
    axis ticks (r defaults to 4).
    """
    if spec.alpha is None:
        raise ValueError("plot data needs alpha in the spec")
    d, a = spec.d, spec.alpha
    corner = marginal_vertex(d, a)
    half = Fraction(1, 2)
    out = [
        PlotElement("p_equals_q", "polyline", (PQPoint(Fraction(0), Fraction(0)), PQPoint(half, half))),
        PlotElement("critical_line", "polyline", (corner, PQPoint(Fraction(1), Fraction(0)))),
        PlotElement("s2_s3_boundary", "polyline", (PQPoint(half, half), PQPoint(Fraction(1), Fraction(0)))),
        PlotElement("p_equals_1", "polyline", (PQPoint(Fraction(1), Fraction(0)), PQPoint(Fraction(1), Fraction(1)))),
        PlotElement("corner", "point", (corner,)),
    ]
    if feature_set == "fig1":
        return out
    tab = thresholds(d, a, r=r if feature_set == "fig3" else None)
    if feature_set == "fig2":
        out.append(PlotElement("q_circ_mark", "point", (PQPoint(half, 1 / tab.q_circ),)))
        out.append(PlotElement("q_star_mark", "point", (PQPoint(1 / tab.p_star, 1 / tab.q_star),)))
        return out
    if feature_set == "fig3":
        rr = _frac(r)
        out.append(
            PlotElement(
                "interpolation_segment",
                "polyline",
                (PQPoint(1 / rr, 1 / rr), PQPoint(half, 1 / tab.q_tilde_circ)),
            )
        )
        out.append(PlotElement("q_tilde_circ_mark", "point", (PQPoint(half, 1 / tab.q_tilde_circ),)))
        out.append(PlotElement("one_over_r", "tick", (PQPoint(Fraction(0), 1 / rr),)))
        if tab.q_star_r is not None and tab.q_star_r >= 1:  # 1/q_star_r in [0, 1]
            out.append(PlotElement("q_star_r_mark", "tick", (PQPoint(Fraction(0), 1 / tab.q_star_r),)))
        return out
    raise ValueError(f"unknown feature set {feature_set!r} (expected fig1/fig2/fig3)")


# --- serialization -----------------------------------------------------------

def _f12(x: Fraction) -> str:
    return f"{float(x):.12g}"


def threshold_table_to_json(tab: ThresholdTable) -> dict:
    """Every field in declaration order, rationals as [numerator, denominator]; None skipped."""
    values = {f.name: getattr(tab, f.name) for f in fields(tab)}
    return {k: v if k == "d" else [v.numerator, v.denominator]
            for k, v in values.items() if v is not None}


def threshold_table_to_csv(tab: ThresholdTable) -> str:
    rows = ["name,exact,decimal"]
    for name, v in threshold_table_to_json(tab).items():
        if name == "d":
            continue
        fr = Fraction(v[0], v[1])
        rows.append(f"{name},{fr},{_f12(fr)}")
    return "\n".join(rows) + "\n"


def plot_data_to_json(elements: Sequence[PlotElement]) -> list[dict]:
    return [
        {
            "label": el.label,
            "kind": el.kind,
            "points": [
                [[p.inv_p.numerator, p.inv_p.denominator], [p.inv_q.numerator, p.inv_q.denominator]]
                for p in el.points
            ],
        }
        for el in elements
    ]


def plot_data_to_csv(elements: Sequence[PlotElement]) -> str:
    rows = ["label,kind,inv_p,inv_q"]
    for el in elements:
        for p in el.points:
            rows.append(f"{el.label},{el.kind},{_f12(p.inv_p)},{_f12(p.inv_q)}")
    return "\n".join(rows) + "\n"
