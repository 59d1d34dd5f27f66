from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import in_box, on_segment, seg_meet
from vislink import _pure as _k
from vislink.kernel import (
    DegenerateSegment,
    Point,
    Segment,
    parse_rat,
    point,
    point_from_key,
    rat_str,
)

rats = st.fractions(
    min_value=-50, max_value=50, max_denominator=16
)
points = st.builds(Point, rats, rats)


def orient(p, q, r):
    return _k.orient(p.key, q.key, r.key)


def test_orientation_basic():
    assert orient(point(0, 0), point(1, 0), point(0, 1)) == 1
    assert orient(point(0, 0), point(1, 1), point(2, 2)) == 0
    assert orient(point(0, 0), point(0, 1), point(1, 0)) == -1


def test_orientation_rational_coords():
    assert orient(point("1/3", "1/7"), point("2/3", "2/7"), point(1, "3/7")) == 0


@settings(max_examples=200)
@given(points, points, points)
def test_orientation_swap_antisymmetry(p, q, r):
    assert orient(p, q, r) == -orient(q, p, r)


@settings(max_examples=200)
@given(points, points, points, rats, rats)
def test_orientation_translation_invariant(p, q, r, dx, dy):
    def shift(t):
        return Point(t.x + dx, t.y + dy)

    assert orient(p, q, r) == orient(shift(p), shift(q), shift(r))


def line(p, q):
    return _k.line3(p.key, q.key)


def meet(s1, s2):
    return seg_meet(s1.p.key, s1.q.key, s2.p.key, s2.q.key)


def test_line_through_vertical():
    assert line(point(0, -1), point(0, 1)) == (1, 0, 0)


def test_line_through_diagonal():
    assert line(point(0, 0), point(1, 1)) == (1, -1, 0)


def test_line_through_slope_minus_one():
    l = line(point(-1, -1), point(0, -2))
    assert l == (1, 1, -2)
    assert _k.axis_cross(l) == (1, -2, 1)


def test_line_through_coincident_raises():
    # coincident points have no line; line3 fails instead of returning
    # the non-line (0, 0, 0)
    p = point("1/2", 3)
    with pytest.raises(ZeroDivisionError):
        line(p, p)


@settings(max_examples=200)
@given(points, points)
def test_line_through_contains_both(p, q):
    if p == q:
        return
    a, b, c = line(p, q)
    assert a * p.x + b * p.y == c
    assert a * q.x + b * q.y == c
    # canonical: gcd 1, first nonzero of (a, b) positive
    assert gcd(gcd(a, b), c) == 1
    assert a > 0 or (a == 0 and b > 0)


def test_x_axis_crossing_cases():
    vertical = line(point(0, -1), point(0, 1))
    assert _k.axis_cross(vertical) == (1, 0, 1)

    horizontal = line(point(-1, -1), point(1, -1))
    assert _k.axis_cross(horizontal) == (0, 0, 1)

    slanted = line(point(1, -1), point(3, 1))
    assert _k.axis_cross(slanted) == (1, 2, 1)

    axis = line(point(0, 0), point(1, 0))
    assert _k.axis_cross(axis) == (2, 0, 1)


def test_lines_intersection_cases():
    x0 = line(point(0, -1), point(0, 1))
    y0 = line(point(-1, 0), point(1, 0))
    assert _k.line_meet(x0, y0) == (1, point(0, 0).key)

    y1 = line(point(-1, 1), point(1, 1))
    assert _k.line_meet(y0, y1) == (0, None)

    d1 = line(point(0, 0), point(1, 1))
    d2 = line(point(2, 2), point(5, 5))
    assert _k.line_meet(d1, d2) == (2, None)  # same geometric line


def test_segments_intersection_crossing():
    s1 = Segment(point(0, -1), point(0, 1))
    s2 = Segment(point(-1, 0), point(1, 0))
    assert meet(s1, s2) == (1, point(0, 0).key)


def test_segments_intersection_collinear_overlap():
    s1 = Segment(point(0, 0), point(2, 0))
    s2 = Segment(point(1, 0), point(3, 0))
    assert meet(s1, s2) == (2, (point(1, 0).key, point(2, 0).key))


def test_segments_intersection_parallel_disjoint():
    s1 = Segment(point(0, 0), point(1, 0))
    s2 = Segment(point(0, 1), point(1, 1))
    assert meet(s1, s2) == (0, None)


def test_segments_intersection_endpoint_touch():
    s1 = Segment(point(0, 0), point(2, 2))
    s2 = Segment(point(2, 2), point(4, 0))
    assert meet(s1, s2) == (1, point(2, 2).key)
    # touching at the interior of one side
    s3 = Segment(point(1, 1), point(3, -1))
    assert meet(s1, s3) == (1, point(1, 1).key)


def test_segments_intersection_collinear_touch_is_point():
    s1 = Segment(point(0, 0), point(1, 1))
    s2 = Segment(point(1, 1), point(2, 2))
    assert meet(s1, s2) == (1, point(1, 1).key)


@settings(max_examples=200)
@given(points, points, points, points)
def test_segments_intersection_point_lies_on_both(a, b, c, d):
    if a == b or c == d:
        return
    s1, s2 = Segment(a, b), Segment(c, d)
    kind, got = meet(s1, s2)
    ends = {0: (), 1: (got,), 2: got}[kind]
    for e in ends:
        assert on_segment(point_from_key(e), s1)
        assert on_segment(point_from_key(e), s2)


@settings(max_examples=200)
@given(points, points, points, points)
def test_segments_intersection_symmetric(a, b, c, d):
    if a == b or c == d:
        return
    s1, s2 = Segment(a, b), Segment(c, d)
    want = meet(s1, s2)
    assert meet(s2, s1) == want
    # raw keys in either end order: in_box takes its reversed branches
    for p, q in ((a, b), (b, a)):
        for r, t in ((c, d), (d, c)):
            assert seg_meet(p.key, q.key, r.key, t.key) == want
    probes = [a.key, b.key, c.key, d.key] + ([want[1]] if want[0] == 1 else [])
    for t in probes:
        for p, q in ((a, b), (c, d)):
            assert in_box(t, q.key, p.key) == in_box(t, p.key, q.key)


def test_segment_canonical_order_and_degenerate():
    s = Segment(point(2, 0), point(1, 5))
    assert s.p == point(1, 5)
    with pytest.raises(DegenerateSegment):
        Segment(point(1, 1), point(1, 1))


def test_on_segment_endpoints_and_interior():
    s = Segment(point(0, 0), point(4, 2))
    assert on_segment(point(0, 0), s)
    assert on_segment(point(2, 1), s)
    assert not on_segment(point(4, "2/1000"), s)
    assert not on_segment(point(6, 3), s)  # collinear but past the end


def test_rat_round_trip():
    assert rat_str(Fraction(2)) == "2/1"
    assert rat_str(Fraction(-1, 4)) == "-1/4"
    assert parse_rat("-7/3") == Fraction(-7, 3)
    assert parse_rat("5") == Fraction(5)
    assert parse_rat(rat_str(Fraction(22, -8))) == Fraction(-11, 4)


# ------------------------------------------------------------ integer keys

_wide_rats = st.one_of(
    st.just(Fraction(0)),
    st.fractions(max_denominator=16),
    st.fractions(max_denominator=10**30),
    st.integers(min_value=-(10**30), max_value=10**30).map(Fraction),
)
_coords = st.one_of(_wide_rats, st.integers(min_value=-(10**30), max_value=10**30))


@settings(max_examples=300)
@given(_coords, _coords)
def test_key_is_numerators_and_denominators(x, y):
    # int coordinates have the key of the Fraction they equal
    p = Point(x, y)
    fx, fy = Fraction(x), Fraction(y)
    assert p.key == (fx.numerator, fx.denominator, fy.numerator, fy.denominator)
    assert point_from_key(p.key) == p


@settings(max_examples=300)
@given(points, points)
def test_pt_cmp_orders_keys_as_points(p, q):
    assert _k.pt_cmp(p.key, q.key) == (p > q) - (p < q)
