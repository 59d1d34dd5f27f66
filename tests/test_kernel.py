from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vislink.kernel import (
    DegeneratePair,
    DegenerateSegment,
    GeometryError,
    Line,
    Orientation,
    Point,
    Segment,
    line_through,
    lines_intersection,
    on_segment,
    orientation,
    parse_rat,
    point,
    rat_str,
    segments_intersection,
    x_axis_crossing,
)

rats = st.fractions(
    min_value=-50, max_value=50, max_denominator=16
)
points = st.builds(Point, rats, rats)


def test_orientation_basic():
    assert orientation(point(0, 0), point(1, 0), point(0, 1)) is Orientation.CCW
    assert orientation(point(0, 0), point(1, 1), point(2, 2)) is Orientation.COLLINEAR
    assert orientation(point(0, 0), point(0, 1), point(1, 0)) is Orientation.CW


def test_orientation_rational_coords():
    assert (
        orientation(point("1/3", "1/7"), point("2/3", "2/7"), point(1, "3/7"))
        is Orientation.COLLINEAR
    )


@settings(max_examples=200)
@given(points, points, points)
def test_orientation_swap_antisymmetry(p, q, r):
    assert orientation(p, q, r) == -orientation(q, p, r)


@settings(max_examples=200)
@given(points, points, points, rats, rats)
def test_orientation_translation_invariant(p, q, r, dx, dy):
    def shift(t):
        return Point(t.x + dx, t.y + dy)

    assert orientation(p, q, r) == orientation(shift(p), shift(q), shift(r))


def test_line_through_vertical():
    l = line_through(point(0, -1), point(0, 1))
    assert (l.a, l.b, l.c) == (1, 0, 0)


def test_line_through_diagonal():
    l = line_through(point(0, 0), point(1, 1))
    assert (l.a, l.b, l.c) == (1, -1, 0)


def test_line_through_slope_minus_one():
    l = line_through(point(-1, -1), point(0, -2))
    assert (l.a, l.b, l.c) == (1, 1, -2)
    crossing, is_axis = x_axis_crossing(l)
    assert crossing == point(-2, 0)
    assert not is_axis


def test_line_through_coincident_raises():
    with pytest.raises(DegeneratePair):
        line_through(point("1/2", 3), point("1/2", 3))


@settings(max_examples=200)
@given(points, points)
def test_line_through_contains_both(p, q):
    if p == q:
        return
    l = line_through(p, q)
    assert l.a * p.x + l.b * p.y == l.c
    assert l.a * q.x + l.b * q.y == l.c


def test_line_rejects_non_canonical():
    with pytest.raises(GeometryError):
        Line(2, -2, 0)
    with pytest.raises(GeometryError):
        Line(-1, 1, 0)
    with pytest.raises(GeometryError):
        Line(0, 0, 1)


def test_x_axis_crossing_cases():
    vertical = line_through(point(0, -1), point(0, 1))
    assert x_axis_crossing(vertical) == (point(0, 0), False)

    horizontal = line_through(point(-1, -1), point(1, -1))
    assert x_axis_crossing(horizontal) == (None, False)

    slanted = line_through(point(1, -1), point(3, 1))
    assert x_axis_crossing(slanted) == (point(2, 0), False)

    axis = line_through(point(0, 0), point(1, 0))
    assert x_axis_crossing(axis) == (None, True)


def test_lines_intersection_cases():
    x0 = line_through(point(0, -1), point(0, 1))
    y0 = line_through(point(-1, 0), point(1, 0))
    assert lines_intersection(x0, y0) == point(0, 0)

    y1 = line_through(point(-1, 1), point(1, 1))
    assert lines_intersection(y0, y1) is None

    d1 = line_through(point(0, 0), point(1, 1))
    d2 = line_through(point(2, 2), point(5, 5))
    assert lines_intersection(d1, d2) == d1  # same geometric line


def test_segments_intersection_crossing():
    s1 = Segment(point(0, -1), point(0, 1))
    s2 = Segment(point(-1, 0), point(1, 0))
    assert segments_intersection(s1, s2) == point(0, 0)


def test_segments_intersection_collinear_overlap():
    s1 = Segment(point(0, 0), point(2, 0))
    s2 = Segment(point(1, 0), point(3, 0))
    assert segments_intersection(s1, s2) == Segment(point(1, 0), point(2, 0))


def test_segments_intersection_parallel_disjoint():
    s1 = Segment(point(0, 0), point(1, 0))
    s2 = Segment(point(0, 1), point(1, 1))
    assert segments_intersection(s1, s2) is None


def test_segments_intersection_endpoint_touch():
    s1 = Segment(point(0, 0), point(2, 2))
    s2 = Segment(point(2, 2), point(4, 0))
    assert segments_intersection(s1, s2) == point(2, 2)
    # touching at the interior of one side
    s3 = Segment(point(1, 1), point(3, -1))
    assert segments_intersection(s1, s3) == point(1, 1)


def test_segments_intersection_collinear_touch_is_point():
    s1 = Segment(point(0, 0), point(1, 1))
    s2 = Segment(point(1, 1), point(2, 2))
    assert segments_intersection(s1, s2) == point(1, 1)


@settings(max_examples=200)
@given(points, points, points, points)
def test_segments_intersection_point_lies_on_both(a, b, c, d):
    if a == b or c == d:
        return
    s1, s2 = Segment(a, b), Segment(c, d)
    got = segments_intersection(s1, s2)
    if isinstance(got, Point):
        assert on_segment(got, s1)
        assert on_segment(got, s2)
    elif isinstance(got, Segment):
        for e in (got.p, got.q):
            assert on_segment(e, s1)
            assert on_segment(e, s2)


@settings(max_examples=200)
@given(points, points, points, points)
def test_segments_intersection_symmetric(a, b, c, d):
    if a == b or c == d:
        return
    s1, s2 = Segment(a, b), Segment(c, d)
    assert segments_intersection(s1, s2) == segments_intersection(s2, s1)


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
