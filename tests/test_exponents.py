"""Exact rational exponent calculus: thresholds, regions, pointwise exponents.

Everything here is Fraction arithmetic, so assertions are equalities, not
approximations.  Hypothesis drives the geometric invariants (convexity,
line incidences) over random rational points.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractalwave.exponents import (
    PQPoint,
    RegionSpec,
    ThresholdTable,
    _classify_hull,
    _hull,
    _q_hull,
    critical_line,
    in_region,
    marginal_vertex,
    necessary_check,
    plot_data_to_csv,
    plot_data_to_json,
    q_points,
    regime,
    region_membership,
    region_plot_data,
    s_exponents,
    threshold_table_to_csv,
    threshold_table_to_json,
    thresholds,
)

F = Fraction

rationals01 = st.fractions(min_value=0, max_value=1, max_denominator=40)
alphas = st.fractions(min_value=F(1, 20), max_value=1, max_denominator=20)


# --- frozen threshold values -------------------------------------------------


def test_thresholds_alpha_one():
    tab = thresholds(2, 1)
    assert tab.q_circ == F(10, 3)
    assert tab.q_star == F(14, 3)
    assert tab.p_star == F(14, 5)
    assert tab.q_tilde_circ == F(10, 3)
    assert tab.q_tilde_star == F(14, 3)
    assert tab.q_alpha == F(5)
    assert tab.p_alpha == F(5, 2)


def test_thresholds_alpha_five_sixths():
    tab = thresholds(2, F(5, 6))
    assert 1 / tab.p_star == F(5, 13)
    assert 1 / tab.q_star == F(3, 13)


def test_threshold_r_refinement():
    tab = thresholds(2, 1, r=4)
    assert tab.q_star_r == F(4)
    assert tab.r == F(4)
    # r -> infinity recovers the unrefined tilde threshold
    far = thresholds(2, 1, r=10**6)
    assert abs(far.q_star_r - tab.q_tilde_star) < F(1, 10**4)
    with pytest.raises(ValueError):
        thresholds(2, 1, r=2)
    # the denominator (d-1)[r(2 alpha + d - 1) - 2(3 alpha + d - 1)] vanishes at r0 = 8/3
    with pytest.raises(ValueError, match="r0 = .* = 8/3, got 8/3"):
        thresholds(2, 1, r=F(8, 3))
    with pytest.raises(ValueError, match="r0 = .* = 8/3, got 5/2"):
        thresholds(2, 1, r=F(5, 2))
    assert thresholds(2, 1, r=F(8, 3) + F(1, 10**6)).q_star_r is not None


@given(alphas)
@settings(max_examples=50)
def test_threshold_identities(alpha):
    tab = thresholds(2, alpha)
    assert tab.q_alpha == 2 * alpha + 3  # d = 2 closed form
    assert tab.p_star == 2 * tab.q_star / tab.q_circ
    assert tab.q_tilde_circ < 2 * (1 + 2 * alpha)  # strictly below the necessity bound
    assert tab.p_alpha == tab.q_alpha / 2
    for v in (tab.q_circ, tab.q_star, tab.p_star, tab.q_alpha):
        assert isinstance(v, Fraction)


def test_threshold_validation():
    with pytest.raises(ValueError):
        thresholds(1, 1)
    with pytest.raises(ValueError):
        thresholds(2, 0)
    with pytest.raises(ValueError):
        thresholds(2, 2)


def test_threshold_table_rejects_tilde_circ_at_bound():
    # the check must survive python -O, so it cannot be an assert
    good = thresholds(2, 1)
    fields = {name: getattr(good, name) for name in good.__dataclass_fields__}
    with pytest.raises(ValueError, match="q_tilde_circ"):
        ThresholdTable(**dict(fields, q_tilde_circ=F(6)))  # 2 (d - 1 + 2 alpha)/(d - 1) = 6


# --- pointwise exponents -----------------------------------------------------


def test_s_exponents_at_marginal_vertex_neighborhood():
    s = s_exponents(PQPoint(F(2, 5), F(1, 5)), 2, 1)
    assert (s.s1, s.s2, s.s3) == (F(1, 2), F(1, 2), F(3, 10))
    assert s.s_c == F(1, 2)
    assert regime(PQPoint(F(2, 5), F(1, 5)), 2, 1) == ("s1", "s2")

    s = s_exponents(PQPoint(F(1, 2), F(0)), 2, 1)
    assert (s.s1, s.s2, s.s3) == (F(1), F(3, 4), F(1, 2))
    assert regime(PQPoint(F(1, 2), F(0)), 2, 1) == ("s1",)

    s = s_exponents(PQPoint(F(1), F(1)), 2, 1)
    assert (s.s1, s.s2, s.s3) == (F(-1, 2), F(1), F(3, 2))
    assert regime(PQPoint(F(1), F(1)), 2, 1) == ("s3",)


def test_marginal_vertex_and_necessary_check():
    v = marginal_vertex(2, 1)
    assert v.as_tuple() == (F(1, 4), F(1, 4))
    assert s_exponents(v, 2, 1).s_c == F(1, 4)
    assert necessary_check(v, 2, 1, F(1, 4)) == "marginal_point"
    assert necessary_check(v, 2, 1, F(1, 3)) == "admissible"
    assert necessary_check(PQPoint(F(1, 2), F(0)), 2, 1, F(1, 2)) == "violates_s1"
    assert necessary_check(PQPoint(F(1, 2), F(0)), 2, 1, F(1)) == "admissible"


@given(rationals01, alphas)
@settings(max_examples=80)
def test_diagonal_exponent_floor(x, alpha):
    # on p = q the best possible exponent is alpha / (2 (1 + alpha)),
    # attained exactly at the marginal vertex
    s = s_exponents(PQPoint(x, x), 2, alpha)
    floor = alpha / (2 * (1 + alpha))
    assert s.s_c >= floor
    if s.s_c == floor:
        assert PQPoint(x, x).as_tuple() == marginal_vertex(2, alpha).as_tuple()


@given(st.fractions(min_value=F(7, 2), max_value=30, max_denominator=20), alphas)
@settings(max_examples=60)
def test_critical_line_balances_first_two_exponents(q, alpha):
    inv_p = critical_line(q, 2, alpha)
    s = s_exponents(PQPoint(inv_p, 1 / q), 2, alpha)
    assert s.s1 == s.s2


def test_critical_line_frozen_values():
    assert critical_line(6, 2, 1) == F(1, 2)
    assert critical_line(3, 2, 1) == F(0)
    with pytest.raises(ValueError):
        critical_line(2, 2, 1)  # leaves the unit square


# --- region geometry ---------------------------------------------------------


def test_q_points_alpha_one():
    qs = q_points(RegionSpec(2, 1, 1))
    assert qs[0].as_tuple() == (F(0), F(0))
    assert qs[1].as_tuple() == (F(1, 2), F(1, 2))
    assert qs[2].as_tuple() == (F(1, 2), F(1, 2))  # mu = 1 collapses Q2 = Q3
    assert qs[3].as_tuple() == (F(2, 5), F(1, 5))


def test_membership_classification():
    spec = RegionSpec(2, 1, 1)
    assert region_membership(PQPoint(F(2, 5), F(1, 5)), spec) == "boundary_Q"
    assert region_membership(PQPoint(F(0), F(0)), spec) == "boundary_Q"
    assert region_membership(PQPoint(F(1, 4), F(1, 4)), spec) == "in_R"
    assert region_membership(PQPoint(F(1, 3), F(1, 5)), spec) == "interior_Q"
    assert region_membership(PQPoint(F(2, 3), F(1, 5)), spec) == "outside"
    assert in_region(PQPoint(F(1, 4), F(1, 4)), spec)
    assert in_region(PQPoint(F(1, 3), F(1, 5)), spec)
    assert not in_region(PQPoint(F(1, 2), F(1, 2)), spec)  # Q2 excluded
    assert not in_region(PQPoint(F(2, 3), F(1, 5)), spec)


def test_hull_of_collinear_points_keeps_both_extremes():
    pts = [(F(0), F(0)), (F(1, 4), F(1, 4)), (F(1, 2), F(1, 2))]
    assert _hull(pts) == [(F(0), F(0)), (F(1, 2), F(1, 2))]


SIXTHS = [(F(m, 6), F(a, 6)) for a in range(1, 7) for m in range(a + 1)]


@pytest.mark.parametrize("mu, alpha", SIXTHS)
def test_in_region_on_the_diagonal_edge(mu, alpha):
    spec = RegionSpec(2, mu, alpha)
    q1, q2 = q_points(spec)[:2]
    assert in_region(q1, spec)
    assert not in_region(q2, spec)
    for w in (F(1, 3), F(1, 2), F(5, 6)):  # the open edge (Q1, Q2)
        assert in_region(PQPoint(w * q2.inv_p, w * q2.inv_q), spec)


def test_cached_q_hull_is_immutable():
    qs, hull = _q_hull(RegionSpec(2, F(1, 2), 1))
    assert isinstance(qs, tuple) and isinstance(hull, tuple)
    assert qs == q_points(RegionSpec(2, F(1, 2), 1))
    assert hull == tuple(_hull([q.as_tuple() for q in qs]))


def test_cached_hull_labels_interleaved_specs():
    # two specs alternate point by point, so a hull cached for one spec
    # cannot leak into the other's labels
    specs = (RegionSpec(2, F(1, 2), 1), RegionSpec(3, F(1, 3), F(1, 2)))
    hulls = [_hull([q.as_tuple() for q in q_points(spec)]) for spec in specs]
    expect = {"interior": {"interior_Q"}, "outside": {"outside"}, "boundary": {"boundary_Q", "in_R"}}
    for a in range(49):
        for b in range(49):
            pt = PQPoint(F(a, 48), F(b, 48))
            for spec, hull in zip(specs, hulls):
                assert region_membership(pt, spec) in expect[_classify_hull(pt.as_tuple(), hull)]


def test_membership_needs_parameters():
    with pytest.raises(ValueError):
        q_points(RegionSpec(2, None, 1))
    with pytest.raises(ValueError):
        RegionSpec(2, F(3, 4), F(1, 2))  # mu > alpha


@given(rationals01, rationals01, rationals01, rationals01, alphas)
@settings(max_examples=60)
def test_region_is_convex(x1, y1, x2, y2, alpha):
    spec = RegionSpec(2, alpha, alpha)
    a, b = PQPoint(x1, y1), PQPoint(x2, y2)
    if in_region(a, spec) and in_region(b, spec):
        mid = PQPoint((x1 + x2) / 2, (y1 + y2) / 2)
        assert in_region(mid, spec)


@given(alphas, alphas)
@settings(max_examples=40)
def test_vertices_classify_as_boundary(mu, alpha):
    if mu > alpha:
        mu, alpha = alpha, mu
    spec = RegionSpec(2, mu, alpha)
    for q in q_points(spec):
        assert region_membership(q, spec) == "boundary_Q"


# --- plot data and serialization --------------------------------------------


def test_plot_data_feature_sets():
    spec = RegionSpec(2, 1, 1)
    base = region_plot_data(spec, "fig1")
    labels = [e.label for e in base]
    assert labels == ["p_equals_q", "critical_line", "s2_s3_boundary", "p_equals_1", "corner"]
    corner = next(e for e in base if e.label == "corner")
    assert corner.points[0].as_tuple() == (F(1, 4), F(1, 4))

    fig2 = region_plot_data(spec, "fig2")
    assert {e.label for e in fig2} - {e.label for e in base} == {"q_circ_mark", "q_star_mark"}
    mark = next(e for e in fig2 if e.label == "q_star_mark")
    assert mark.points[0].as_tuple() == (F(5, 14), F(3, 14))

    fig3 = region_plot_data(spec, "fig3", r=4)
    assert "interpolation_segment" in {e.label for e in fig3}
    # q_star_r is 0 at r = 20/7 and negative on (r0, 20/7) = (8/3, 20/7): no tick, no crash
    for r in (F(20, 7), F(11, 4)):
        assert "q_star_r_mark" not in {e.label for e in region_plot_data(spec, "fig3", r=r)}
    with pytest.raises(ValueError):
        region_plot_data(spec, "fig9")


def test_serializers_carry_exact_pairs():
    tab = thresholds(2, 1, r=4)
    js = threshold_table_to_json(tab)
    assert js["q_circ"] == [10, 3]
    assert js["q_star_r"] == [4, 1]
    assert "r" in js and "q_star_r" not in threshold_table_to_json(thresholds(2, 1))
    csv_text = threshold_table_to_csv(tab)
    assert "q_circ,10/3," in csv_text
    assert csv_text.splitlines()[0] == "name,exact,decimal"

    elements = region_plot_data(RegionSpec(2, 1, 1), "fig1")
    js = plot_data_to_json(elements)
    assert js[0]["label"] == "p_equals_q"
    assert js[0]["points"][0] == [[0, 1], [0, 1]]
    assert "p_equals_q" in plot_data_to_csv(elements)


def test_pqpoint_validation():
    with pytest.raises(ValueError):
        PQPoint(F(3, 2), F(0))
    with pytest.raises(ValueError):
        PQPoint(F(1, 2), F(-1, 2))
