"""Polygon generation, general-position checking, family assembly."""

import dataclasses
import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import full_general_position, full_midpoints_clear
from vislink import Segment, point
from vislink.complexes import contains_point, contains_segment, incident_segments
from vislink.construct import (
    Construction,
    KTooSmall,
    NotConvex,
    PolygonSpec,
    _midpoints_clear,
    build_family,
    check_strong_general_position,
    make_polygon,
)
from vislink import _pure as _k
from vislink.kernel import (
    GeometryError,
    Orientation,
    on_segment,
    orientation,
    point_from_key,
)


def hand_spec(coords, k):
    return PolygonSpec(
        k=k,
        vertices=tuple(point(x, y) for x, y in coords),
        seed=0,
        retry_count=0,
    )


# ------------------------------------------------------------ make_polygon


def test_make_polygon_hexagon():
    p = make_polygon(2, seed=11)
    assert len(p.vertices) == 6
    assert p.kappa == 1
    ok, witness = check_strong_general_position(p)
    assert ok and witness is None


def test_make_polygon_octagon():
    p = make_polygon(3, seed=11)
    assert len(p.vertices) == 8


def test_make_polygon_clockwise():
    p = make_polygon(4, seed=3)
    m = len(p.vertices)
    for i in range(m):
        o = orientation(
            p.vertices[i], p.vertices[(i + 1) % m], p.vertices[(i + 2) % m]
        )
        assert o == Orientation.CW


def test_make_polygon_never_retries_and_passes_the_full_checks():
    # the a-b chord checks accept whatever the all-diagonal checks accept,
    # so a polygon the full checks took at retry 0 stays where it was
    for k in range(2, 9):
        for s in range(30):
            p = make_polygon(k, s)
            assert p.retry_count == 0, (k, s)
            assert full_general_position(p) == (True, None), (k, s)
            assert full_midpoints_clear(p), (k, s)


def test_make_polygon_deterministic():
    assert make_polygon(3, seed=99) == make_polygon(3, seed=99)
    assert make_polygon(3, seed=99) != make_polygon(3, seed=100)


def test_k_too_small():
    with pytest.raises(KTooSmall):
        make_polygon(1, seed=0)


def test_index_accessors_reduce_modulo():
    p = make_polygon(2, seed=5)
    assert p.a(3) == p.a(0)
    assert p.b(-1) == p.b(2)


# ---------------------------------------------- check_strong_general_position


def test_symmetric_hexagon_rejected():
    # centrally symmetric: the three main diagonals meet at the origin
    spec = hand_spec(
        [(2, 0), (1, -2), (-1, -2), (-2, 0), (-1, 2), (1, 2)], k=2
    )
    ok, witness = check_strong_general_position(spec)
    assert not ok
    assert witness is not None and len(witness) == 3
    # every reported diagonal really passes through the common point
    for (i, j) in witness:
        s = Segment(spec.vertices[i], spec.vertices[j])
        from vislink.kernel import on_segment

        assert on_segment(point(0, 0), s)


def test_not_convex_rejected():
    spec = hand_spec(
        [(2, 0), (1, -2), (-1, -2), (-2, 0), (0, 1), (1, 2)], k=2
    )
    with pytest.raises(NotConvex):
        check_strong_general_position(spec)


def test_polygon_winding_twice_rejected():
    # every vertex triple turns clockwise, but the boundary winds twice
    # round the centre, so diagonals that interleave need not cross
    ts = ("0", "-10/7", "7/4", "1/11", "-6/5", "15/7")
    spec = hand_spec(
        [(p.x, p.y) for p in (_on_circle(Fraction(t)) for t in ts)], k=2
    )
    m = len(spec.vertices)
    for i in range(m):
        o = orientation(
            spec.vertices[i], spec.vertices[(i + 1) % m], spec.vertices[(i + 2) % m]
        )
        assert o == Orientation.CW
    with pytest.raises(NotConvex):
        check_strong_general_position(spec)


def test_quadrilateral_precondition():
    spec = hand_spec([(1, 1), (1, -1), (-1, -1), (-1, 1)], k=1)
    with pytest.raises(KTooSmall):
        check_strong_general_position(spec)


def _ab_diagonals(m):
    """Index pairs of the diagonals of an m-gon that join an a-vertex
    (even index) to a b-vertex (odd index)."""
    return [
        (i, j)
        for i in range(m)
        for j in range(i + 1, m)
        if (j - i) % m not in (1, m - 1) and (i + j) % 2 == 1
    ]


def _reference_general_position(spec):
    """The concurrency scan on Point values: pairs of a-b diagonals in
    order, crossing points bucketed by Point. On a strictly convex polygon
    two diagonals with four distinct endpoints meet in a point or not at
    all."""
    verts = spec.vertices
    diags = _ab_diagonals(len(verts))
    hits = {}
    for di, (i1, j1) in enumerate(diags):
        for i2, j2 in diags[di + 1:]:
            if len({i1, j1, i2, j2}) < 4:
                continue
            kind, z = _k.seg_meet(
                verts[i1].key, verts[j1].key, verts[i2].key, verts[j2].key
            )
            if kind != 1:
                continue
            z = point_from_key(z)
            if z in verts:
                continue
            bucket = hits.setdefault(z, [])
            for d in ((i1, j1), (i2, j2)):
                if d not in bucket:
                    bucket.append(d)
            if len(bucket) >= 3:
                return False, tuple(sorted(bucket[:3]))
    return True, None


def _on_circle(t):
    return point((1 - t * t) / (1 + t * t), 2 * t / (1 + t * t))


def _through_center(p, o):
    """The second point where the line from p (on the unit circle)
    through o meets the circle."""
    dx, dy = o.x - p.x, o.y - p.y
    s = -2 * (p.x * dx + p.y * dy) / (dx * dx + dy * dy)
    return point(p.x + s * dx, p.y + s * dy)


_param = st.fractions(min_value=-8, max_value=8, max_denominator=12)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(_param, min_size=3, max_size=3, unique=True),
    st.lists(_param, min_size=0, max_size=2, unique=True),
    st.tuples(
        st.fractions(min_value=-Fraction(1, 3), max_value=Fraction(1, 3),
                     max_denominator=7),
        st.fractions(min_value=-Fraction(1, 3), max_value=Fraction(1, 3),
                     max_denominator=7),
    ),
)
def test_general_position_matches_reference_on_planted_concurrency(
    chords, extra, center
):
    # three chords of the unit circle through one inner point o. Their six
    # ends interleave, so each chord has one end of each other chord on
    # either side: an odd index difference, an a-b chord. Extra vertices
    # come in neighbouring pairs, which keeps every difference odd
    o = point(*center)
    pts, planted = [], []
    for t in chords:
        p = _on_circle(t)
        planted.append((p, _through_center(p, o)))
        pts += planted[-1]
    for t in extra:
        pts += [_on_circle(t), _on_circle(t + Fraction(1, 1000))]
    assume(len(set(pts)) == len(pts))
    # clockwise around the origin, the centre of the circle
    pts.sort(key=lambda p: -math.atan2(p.y, p.x))
    assume(all((pts.index(p) + pts.index(q)) % 2 == 1 for p, q in planted))
    spec = hand_spec([(p.x, p.y) for p in pts], k=len(pts) // 2 - 1)
    got = check_strong_general_position(spec)
    assert got == _reference_general_position(spec)
    assert not got[0]


def test_diagonals_that_no_fan_holds_are_not_checked():
    # four chords through the centre of the circle join vertices four
    # apart, a to a or b to b: the all-diagonal scan rejects the octagon
    ts = [Fraction(1, 3), Fraction(4, 5), Fraction(2), Fraction(7)]
    pts = [_on_circle(t) for t in ts] + [_on_circle(-1 / t) for t in ts]
    octagon = hand_spec(
        [(p.x, p.y) for p in sorted(pts, key=_clockwise_key)], k=3
    )
    assert not full_general_position(octagon)[0]
    assert check_strong_general_position(octagon) == (True, None)
    # b-b diagonal 1-5 passes through the centre, the midpoint of removed
    # matching diagonal 0-3
    pts = [_on_circle(Fraction(t)) for t in ("0", "-1/2", "-3", "5", "2")]
    pts.insert(3, point(-1, 0))  # the circle's point at t = infinity
    hexagon = hand_spec([(p.x, p.y) for p in pts], k=2)
    assert not full_midpoints_clear(hexagon)
    assert _midpoints_clear(hexagon)


def _mid(p, q):
    return point((p.x + q.x) / 2, (p.y + q.y) / 2)


def _reference_midpoints_clear(spec):
    """The midpoint genericity test on Segment values: every edge midpoint
    c_i and every removed-matching midpoint against every a-b diagonal,
    the removed diagonal itself excepted for its own midpoint."""
    verts = spec.vertices
    k1 = spec.k + 1
    diags = _ab_diagonals(len(verts))
    for i in range(k1):
        ci = _mid(spec.b(i), spec.a(i + 1))
        match = tuple(sorted((2 * ((i - spec.kappa) % k1), 2 * i + 1)))
        mmid = _mid(verts[match[0]], verts[match[1]])
        for d in diags:
            s = Segment(verts[d[0]], verts[d[1]])
            if on_segment(ci, s) or (d != match and on_segment(mmid, s)):
                return False
    return True


def _clockwise_key(p):
    return -math.atan2(p.y, p.x)


def _plant_through_matching_midpoint(pts, k, i, v):
    """pts (on the unit circle, clockwise) with one vertex replaced so that
    the a-b diagonal from vertex v passes through the midpoint of removed
    matching diagonal i; None when the replacement point is a vertex or
    would replace an end of the matching diagonal."""
    k1 = k + 1
    a, b = 2 * ((i - k // 2) % k1), 2 * i + 1
    if v in (a, b):
        return None
    w = _through_center(pts[v], _mid(pts[a], pts[b]))
    if w in pts:
        return None
    # w lies on the far side of [a, b] from v, between two consecutive
    # vertices u and u + 1; replacing either keeps the clockwise order,
    # and the one of parity opposite to v's makes [v, w] an a-b chord
    m = len(pts)
    keys = [_clockwise_key(p) for p in pts]
    u = sum(1 for t in keys if t < _clockwise_key(w)) - 1
    x = u % m if (u + v) % 2 == 1 else (u + 1) % m
    if x in (a, b):
        return None
    out = list(pts)
    out[x] = w
    return out


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from((6, 8)).flatmap(
        lambda m: st.lists(_param, min_size=m, max_size=m, unique=True)
    ),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=7),
    st.booleans(),
)
def test_midpoints_clear_matches_reference_on_planted_diagonals(ts, i, v, plant):
    pts = sorted((_on_circle(t) for t in ts), key=_clockwise_key)
    k = len(pts) // 2 - 1
    i, v = i % (k + 1), v % len(pts)
    if plant:
        pts = _plant_through_matching_midpoint(pts, k, i, v)
        assume(pts is not None)
    spec = hand_spec([(p.x, p.y) for p in pts], k=k)
    try:
        check_strong_general_position(spec)  # the strict convexity it needs
    except NotConvex:
        assume(False)
    got = _midpoints_clear(spec)
    assert got == _reference_midpoints_clear(spec)
    if plant:
        assert not got


@st.composite
def _circle_specs(draw):
    """Clockwise polygons inscribed in the unit circle. Parameters past the
    drawn ones cluster just above the first, at a drawn spacing from
    10**-1 down to 10**-7, so some edges are very short."""
    k = draw(st.integers(2, 4))
    m = 2 * k + 2
    ts = draw(st.lists(_param, min_size=1, max_size=m, unique=True))
    step = Fraction(1, 10 ** draw(st.integers(1, 7)))
    ts += [ts[0] + j * step for j in range(1, m - len(ts) + 1)]
    assume(len(set(ts)) == m)
    pts = sorted((_on_circle(t) for t in ts), key=_clockwise_key)
    return hand_spec([(p.x, p.y) for p in pts], k=k)


@settings(max_examples=100, deadline=None)
@given(_circle_specs())
def test_ab_chord_checks_accept_what_the_full_checks_accept(spec):
    # the a-b chords are a subset of the diagonals
    if full_general_position(spec)[0]:
        assert check_strong_general_position(spec) == (True, None)
    if full_midpoints_clear(spec):
        assert _midpoints_clear(spec)


# ------------------------------------------------------------ build_family


def test_hexagon_family_is_boundary():
    p = make_polygon(2, seed=7)
    c = build_family(p)
    assert c.n == 2 and c.k == 2
    assert len(c.complex.maximal_segments) == 6
    edges = {
        Segment(p.vertices[i], p.vertices[(i + 1) % 6]) for i in range(6)
    }
    assert set(c.complex.maximal_segments) == edges
    assert all(len(g) == 2 for g in c.B)


def test_octagon_family_counts():
    c = build_family(make_polygon(3, seed=7))
    assert len(c.complex.maximal_segments) == 12  # 8 edges + 4 diagonals
    boundary = 0
    m = len(c.polygon.vertices)
    verts = c.polygon.vertices
    edge_set = {Segment(verts[i], verts[(i + 1) % m]) for i in range(m)}
    for s in c.complex.maximal_segments:
        if s in edge_set:
            boundary += 1
    assert boundary == 8


def test_k4_fan_membership():
    p = make_polygon(4, seed=7)
    c = build_family(p)
    for i in (1, 2, 3, 4):
        assert contains_segment(c.complex, p.a(3), p.b(i))
    assert not contains_segment(c.complex, p.a(3), p.b(0))


def test_segment_count_law():
    for n, k in [(2, 2), (2, 5), (3, 2), (4, 3), (5, 4)]:
        c = build_family(make_polygon(k, seed=13), n)
        want = (k + 1) * k + (k + 1) * (n - 2)
        assert len(c.complex.maximal_segments) == want, (n, k)


def test_matching_midpoints_absent():
    p = make_polygon(3, seed=21)
    c = build_family(p)
    for i in range(4):
        am, bi = p.a(i - p.kappa), p.b(i)
        mid = point((am.x + bi.x) / 2, (am.y + bi.y) / 2)
        assert not contains_point(c.complex, mid)
        assert not contains_segment(c.complex, am, bi)


def test_midpoint_incidence_n2():
    c = build_family(make_polygon(2, seed=7))
    for ci in c.c:
        assert len(incident_segments(c.complex, ci)) == 1


def test_midpoint_incidence_with_tails():
    c = build_family(make_polygon(2, seed=7), 4)
    for ci in c.c:
        assert len(incident_segments(c.complex, ci)) == 2


def _strictly_outside(p, verts):
    m = len(verts)
    for i in range(m):
        if orientation(verts[i], verts[(i + 1) % m], p) == Orientation.CCW:
            return True  # clockwise polygon: CCW side of an edge is outside
    return False


def test_tails_outside_polygon():
    p = make_polygon(2, seed=7)
    c = build_family(p, 5)
    assert c.gamma and all(len(t) == 4 for t in c.gamma)  # 3 edges each
    for t in c.gamma:
        assert not _strictly_outside(t[0], p.vertices)  # base on boundary
        for g in t[1:]:
            assert _strictly_outside(g, p.vertices)


@settings(max_examples=100, deadline=None)
@given(
    st.one_of(
        st.builds(make_polygon, st.integers(2, 4), st.integers(0, 999)),
        _circle_specs(),
    ),
    st.integers(3, 8),
)
@example(make_polygon(3, seed=7), 5)
def test_tails_pairwise_disjoint(spec, n):
    # the slab lemma: on any clockwise strictly convex polygon the tails
    # never meet
    assume(_midpoints_clear(spec))  # make_polygon's genericity condition
    c = build_family(spec, n)
    assert all(len(t) == n - 1 for t in c.gamma)
    tails = [[Segment(*e) for e in zip(t, t[1:])] for t in c.gamma]
    for i in range(len(tails)):
        for j in range(i + 1, len(tails)):
            for s1 in tails[i]:
                for s2 in tails[j]:
                    kind, _ = _k.seg_meet(s1.p.key, s1.q.key, s2.p.key, s2.q.key)
                    assert kind == 0


def test_build_family_rejects_counterclockwise_and_non_convex():
    p = make_polygon(3, seed=7)
    ccw = dataclasses.replace(p, vertices=p.vertices[::-1])
    v = list(p.vertices)
    v[1], v[2] = v[2], v[1]
    swapped = dataclasses.replace(p, vertices=tuple(v))
    for spec in (ccw, swapped):
        for n in (2, 4):
            with pytest.raises(NotConvex):
                build_family(spec, n)


def test_tail_edges_never_consecutively_collinear():
    c = build_family(make_polygon(2, seed=7), 6)
    for t in c.gamma:
        for r in range(len(t) - 2):
            assert orientation(t[r], t[r + 1], t[r + 2]) != Orientation.COLLINEAR


def test_n3_tails_are_single_edges():
    c = build_family(make_polygon(2, seed=7), 3)
    assert len(c.gamma) == 3
    assert all(len(t) == 2 for t in c.gamma)
    assert all(e == t[-1] for e, t in zip(c.e, c.gamma))


def test_n2_has_no_tails_and_e_is_c():
    c = build_family(make_polygon(2, seed=7))
    assert c.gamma == ()
    assert c.e == c.c


def test_build_family_deterministic():
    a = build_family(make_polygon(3, seed=42), 4)
    b = build_family(make_polygon(3, seed=42), 4)
    assert a == b


def test_n_too_small():
    with pytest.raises(GeometryError):
        build_family(make_polygon(2, seed=7), 1)


def test_side_condition_failure_is_an_explicit_error():
    # at k = 1, kappa = 0 pairs each b_i with its neighbour a_i: the removed
    # matching segment would be a polygon edge, not a diagonal
    p = hand_spec([(0, 1), (1, 0), (0, -1), (-1, 0)], 1)
    with pytest.raises(KTooSmall):
        build_family(p)
