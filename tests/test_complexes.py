"""Normalization, containment, and the region intersection fold."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import RegionReference, covered, on_segment, reference_merge, seg_meet
from vislink import Segment, point
from vislink import _pure as _k
from vislink.complexes import (
    EmptyInput,
    OneSet,
    PointNotOnComplex,
    SegmentComplex,
    _merge_collinear,
    contains_point,
    contains_segment,
    incident_segments,
    intersection_fold,
    least_point,
    normalize,
    segment_index,
)
from vislink.kernel import DegenerateSegment, point_from_key
from vislink.links import _meet_point
from vislink.rng import Stream, derive


def seg(a, b, c, d):
    return Segment(point(a, b), point(c, d))


# ---------------------------------------------------------------- normalize


def test_merge_touching_collinear():
    C = normalize([seg(0, 0, 1, 0), seg(1, 0, 2, 0)])
    assert C.maximal_segments == (seg(0, 0, 2, 0),)


def test_merge_overlapping_collinear():
    C = normalize([seg(0, 0, 2, 0), seg(1, 0, 3, 0)])
    assert C.maximal_segments == (seg(0, 0, 3, 0),)


def test_transversal_crossing_never_merges():
    C = normalize([seg(0, -1, 0, 1), seg(-1, 0, 1, 0)])
    assert len(C.maximal_segments) == 2
    assert C.adjacency == ((1,), (0,))


def test_collinear_gap_stays_split():
    C = normalize([seg(0, 0, 1, 0), seg(2, 0, 3, 0)])
    assert len(C.maximal_segments) == 2
    # disjoint closed hulls: no graph edge either
    assert C.adjacency == ((), ())


def test_empty_input():
    with pytest.raises(EmptyInput):
        normalize([])


def test_degenerate_segment_rejected_at_construction():
    with pytest.raises(DegenerateSegment):
        Segment(point(1, 1), point(1, 1))


def test_normalize_idempotent_example():
    C = normalize([seg(0, 0, 1, 0), seg(1, 0, 2, 0), seg(0, -1, 0, 1)])
    again = normalize(list(C.maximal_segments))
    assert again == C


# Sub-segments a + [s, t] * d of a few base lines, with parameters on a
# coarse grid (so that runs touch, overlap and repeat) or a fine one, in
# either order. Some base lines are vertical. Every direction d points
# towards larger points and the parameters are >= 0, so the anchor a is
# the least point of its line that a piece can reach; many lines share
# one anchor, so that merged segments on different lines share their
# first endpoint and only their second ones order them.
_rat16 = st.fractions(min_value=-3, max_value=3, max_denominator=16)
_t = st.one_of(
    st.just(Fraction(0)),
    st.integers(0, 8).map(lambda n: Fraction(n, 4)),
    st.fractions(min_value=0, max_value=2, max_denominator=16),
)
_direction = st.one_of(
    st.just((0, 1)),
    st.tuples(st.integers(1, 3), st.integers(-3, 3)),
)
_pieces_on_line = st.lists(
    st.tuples(_t, _t).filter(lambda e: e[0] != e[1]), min_size=1, max_size=4
)


@st.composite
def _collinear_pieces(draw):
    shared = draw(st.tuples(_rat16, _rat16))
    anchor = st.one_of(st.just(shared), st.tuples(_rat16, _rat16))
    lines = draw(st.lists(st.tuples(anchor, _direction), min_size=2, max_size=4))
    segs = []
    for a, d in lines:
        for s, t in draw(_pieces_on_line):
            segs.append(
                Segment(
                    point(a[0] + s * d[0], a[1] + s * d[1]),
                    point(a[0] + t * d[0], a[1] + t * d[1]),
                )
            )
    segs += draw(st.lists(st.sampled_from(segs), max_size=3))  # exact repeats
    return draw(st.permutations(segs))


@settings(max_examples=300, deadline=None)
@given(_collinear_pieces())
def test_merge_matches_fraction_reference(segs):
    merged = _merge_collinear(segs)
    view = [Segment(point_from_key(pk), point_from_key(qk)) for (pk, qk), _ in merged]
    assert view == reference_merge(segs)
    for ((pk, qk), line), s in zip(merged, view):
        assert (pk, qk) == (s.p.key, s.q.key)  # the view swaps no endpoint
        assert line == _k.line3(pk, qk)


# -------------------------------------------------------------- containment


def test_contains_point_basic():
    C = normalize([seg(0, 0, 2, 0)])
    assert contains_point(C, point(1, 0))
    assert contains_point(C, point(0, 0))
    assert contains_point(C, point(Fraction(1, 3), 0))
    assert not contains_point(C, point(1, 1))
    assert not contains_point(C, point(3, 0))


def test_contains_segment_subsegment():
    C = normalize([seg(0, 0, 3, 0)])
    assert contains_segment(C, point(1, 0), point(2, 0))
    assert contains_segment(C, point(0, 0), point(3, 0))


def test_contains_segment_rejects_gap_bridge():
    C = normalize([seg(0, 0, 1, 0), seg(2, 0, 3, 0)])
    assert not contains_segment(C, point(0, 0), point(3, 0))
    assert contains_segment(C, point(2, 0), point(3, 0))


def test_contains_segment_point_case():
    C = normalize([seg(0, 0, 3, 0)])
    assert contains_segment(C, point(1, 0), point(1, 0))
    assert not contains_segment(C, point(1, 1), point(1, 1))


def test_contains_segment_not_fooled_by_crossing():
    # the bend at the crossing is not a straight segment of the union
    C = normalize([seg(0, -1, 0, 1), seg(-1, 0, 1, 0)])
    assert not contains_segment(C, point(-1, 0), point(0, 1))


def test_incident_segments():
    C = normalize([seg(0, -1, 0, 1), seg(-1, 0, 1, 0)])
    assert incident_segments(C, point(0, 0)) == (0, 1)
    single = incident_segments(C, point(1, 0))
    assert len(single) == 1
    with pytest.raises(PointNotOnComplex):
        incident_segments(C, point(5, 5))


def test_single_segment_incident():
    C = normalize([seg(0, 0, 3, 0)])
    assert incident_segments(C, point(1, 0)) == (0,)


# ------------------------------------------------------------------ oracles


def _random_raw(stream, count):
    raws = []
    while len(raws) < count:
        x1 = stream.below(17) - 8
        y1 = stream.below(17) - 8
        x2 = stream.below(17) - 8
        y2 = stream.below(17) - 8
        if (x1, y1) != (x2, y2):
            raws.append(seg(x1, y1, x2, y2))
    return raws


def _lerp(s, t):
    return point(s.p.x + t * (s.q.x - s.p.x), s.p.y + t * (s.q.y - s.p.y))


def test_membership_oracle_thousand_points():
    """contains_point agrees with the raw 'on any input segment' test."""
    stream = Stream(derive(20260822, 11))
    checked = 0
    case = 0
    while checked < 1000:
        case += 1
        raws = _random_raw(Stream(derive(20260822, 12, case)), 3 + case % 8)
        C = normalize(raws)
        for _ in range(20):
            s = raws[stream.below(len(raws))]
            t = Fraction(stream.below(257), 256)
            p = _lerp(s, t)
            if stream.below(2):
                # perturb; agreement must hold whatever the truth is
                p = point(
                    p.x + Fraction(stream.below(3) - 1, 1000003),
                    p.y + Fraction(stream.below(3) - 1, 1000003),
                )
            oracle = any(on_segment(p, r) for r in raws)
            assert contains_point(C, p) == oracle
            checked += 1


def test_contains_segment_covering_oracle():
    stream = Stream(derive(20260822, 13))
    for case in range(200):
        raws = _random_raw(Stream(derive(20260822, 14, case)), 3 + case % 6)
        C = normalize(raws)
        for _ in range(5):
            sa = raws[stream.below(len(raws))]
            sb = raws[stream.below(len(raws))]
            p = _lerp(sa, Fraction(stream.below(9), 8))
            q = _lerp(sb, Fraction(stream.below(9), 8))
            if p == q:
                continue
            assert contains_segment(C, p, q) == covered(raws, p, q)


# ------------------------------------------------------ intersection fold


def test_fold_keeps_a_crossing_as_a_point():
    C = normalize([seg(0, -1, 0, 1), seg(-1, 0, 1, 0)])
    first, both = intersection_fold(C, [frozenset({0}), frozenset({1})])
    assert C.maximal_segments[0] == seg(-1, 0, 1, 0)
    assert first == OneSet((0,))
    assert least_point(C, first) == point(-1, 0)
    assert both == OneSet((), (point(0, 0).key,))
    assert least_point(C, both) == point(0, 0)


def test_fold_of_disjoint_regions_is_empty():
    C = normalize([seg(0, 0, 1, 0), seg(2, 0, 3, 0)])
    got = intersection_fold(C, [frozenset({0}), frozenset({1})])[-1]
    assert got.is_empty() and least_point(C, got) is None


_coord = st.integers(min_value=-4, max_value=4)
_pt = st.tuples(_coord, _coord)
_rawseg = st.tuples(_pt, _pt).filter(lambda t: t[0] != t[1])


@settings(max_examples=100, deadline=None)
@given(st.lists(_rawseg, min_size=1, max_size=6))
def test_normalize_idempotent(pairs):
    raws = [seg(a[0], a[1], b[0], b[1]) for a, b in pairs]
    C = normalize(raws)
    assert normalize(list(C.maximal_segments)) == C


@settings(max_examples=100, deadline=None)
@given(st.lists(_rawseg, min_size=1, max_size=5), _pt)
def test_normalize_preserves_membership(pairs, probe):
    raws = [seg(a[0], a[1], b[0], b[1]) for a, b in pairs]
    C = normalize(raws)
    p = point(probe[0], probe[1])
    assert contains_point(C, p) == any(on_segment(p, r) for r in raws)


# ------------------------------------------- fast paths against brute force
#
# Point location reads the integer keys, lines and vertex index kept on
# the complex, and normalize finds adjacency from the lines. Each is checked
# against the exact Point/Segment predicates over maximal_segments.

_small = st.integers(min_value=-3, max_value=3)
_vertical = st.tuples(_small, _small, _small).filter(lambda t: t[1] != t[2]).map(
    lambda t: [((t[0], t[1]), (t[0], t[2]))]
)
_horizontal = st.tuples(_small, _small, _small).filter(lambda t: t[1] != t[2]).map(
    lambda t: [((t[1], t[0]), (t[2], t[0]))]
)
# two or three collinear pieces, each starting where the last one ends
_touching = st.tuples(
    st.tuples(_small, _small),
    st.tuples(st.integers(-2, 2), st.integers(-2, 2)).filter(lambda d: d != (0, 0)),
    st.integers(min_value=2, max_value=3),
).map(
    lambda t: [
        (
            (t[0][0] + r * t[1][0], t[0][1] + r * t[1][1]),
            (t[0][0] + (r + 1) * t[1][0], t[0][1] + (r + 1) * t[1][1]),
        )
        for r in range(t[2])
    ]
)
_general = st.tuples(st.tuples(_small, _small), st.tuples(_small, _small)).filter(
    lambda t: t[0] != t[1]
).map(lambda t: [t])
_complex_raws = st.lists(
    st.one_of(_vertical, _horizontal, _touching, _general), min_size=1, max_size=6
).map(lambda groups: [seg(*a, *b) for g in groups for a, b in g])
# probes on the half-integer grid hit endpoints, interiors and crossings
_probe = st.tuples(
    st.integers(min_value=-16, max_value=16), st.integers(min_value=-16, max_value=16)
).map(lambda t: point(Fraction(t[0], 2), Fraction(t[1], 2)))


# lerp parameters of points on a segment's line just outside the segment
_JUST_OUTSIDE = (
    Fraction(-1, 3), Fraction(4, 3), -Fraction(1, 2**40), 1 + Fraction(1, 2**40)
)


def _brute_through(C, p):
    return tuple(i for i, s in enumerate(C.maximal_segments) if on_segment(p, s))


def _meet_points(C):
    """Every point where two maximal segments meet in a single point."""
    keys = [(s.p.key, s.q.key) for s in C.maximal_segments]
    for i, (a, b) in enumerate(keys):
        for c, d in keys[i + 1 :]:
            kind, payload = seg_meet(a, b, c, d)
            if kind == 1:
                yield point_from_key(payload)


@settings(max_examples=200, deadline=None)
@given(_complex_raws, st.lists(_probe, min_size=1, max_size=8))
def test_point_location_matches_brute_scan(raws, probes):
    C = normalize(raws)
    for s in C.maximal_segments:
        probes += [s.p, s.q, _lerp(s, Fraction(1, 3))]
        probes += [_lerp(s, t) for t in _JUST_OUTSIDE]
    # meet points are mostly off the half-integer grid of the probes
    probes += _meet_points(C)
    for p in probes:
        want = _brute_through(C, p)
        assert contains_point(C, p) == bool(want)
        if want:
            assert incident_segments(C, p) == want
        else:
            with pytest.raises(PointNotOnComplex):
                incident_segments(C, p)


@settings(max_examples=200, deadline=None)
@given(_complex_raws)
def test_segment_index_names_exactly_the_maximal_segments(raws):
    C = normalize(raws)
    for i, s in enumerate(C.maximal_segments):
        assert segment_index(C, s) == i
        half = _lerp(s, Fraction(1, 2))
        assert segment_index(C, Segment(s.p, half)) is None
        assert segment_index(C, Segment(half, s.q)) is None
    for r in raws:
        if r not in C.maximal_segments:  # a merge absorbed it
            assert segment_index(C, r) is None
    assert segment_index(C, seg(1000, 0, 1001, 0)) is None  # off the union


@settings(max_examples=200, deadline=None)
@given(_complex_raws, st.lists(st.tuples(_probe, _probe), min_size=1, max_size=8))
def test_contains_segment_matches_brute_scan(raws, pairs):
    C = normalize(raws)
    segs = C.maximal_segments
    off = point(1000, Fraction(1, 7))  # off every complex drawn here
    for s in segs:
        inner = _lerp(s, Fraction(1, 3))
        # inside, then running past either end along the segment's line,
        # where only the bounding box rejects the far end
        pairs += [
            (s.p, s.q),
            (s.q, _lerp(s, Fraction(1, 2))),
            (s.p, _lerp(s, Fraction(3, 2))),
            (s.q, _lerp(s, Fraction(3, 2))),
            (_lerp(s, -1), s.q),
            (inner, _lerp(s, Fraction(-1, 2))),
            (s.p, off),
        ]
        pairs += [(a, _lerp(s, t)) for t in _JUST_OUTSIDE for a in (s.p, s.q, inner)]
        # from a vertex and from an interior point to those of every segment
        pairs += [
            (a, b)
            for t in segs
            for a in (s.p, inner)
            for b in (t.q, _lerp(t, Fraction(1, 5)))
        ]
    pairs.append((off, off))
    for p, q in pairs:
        if p == q:
            want = bool(_brute_through(C, p))
        else:
            want = any(on_segment(p, s) and on_segment(q, s) for s in segs)
        # contains_segment locates only its first point: try both orders
        assert contains_segment(C, p, q) == contains_segment(C, q, p) == want


@settings(max_examples=200, deadline=None)
@given(_complex_raws)
def test_segment_view_matches_keys(raws):
    # the Segments are built from the stored keys without swapping an
    # end, and they normalize back to the same complex
    C = normalize(raws)
    assert [(s.p.key, s.q.key) for s in C.maximal_segments] == list(C.keys)
    assert normalize(C.maximal_segments) == C


@settings(max_examples=200, deadline=None)
@given(_complex_raws)
def test_vertex_index_matches_brute_force(raws):
    # the vertices are the endpoints and the single-point meets of two
    # maximal segments; each maps to every segment through it
    C = normalize(raws)
    vertices = [p for s in C.maximal_segments for p in (s.p, s.q)]
    vertices += _meet_points(C)
    want = {p.key: _brute_through(C, p) for p in vertices}
    assert C.vertex_segments == want


@settings(max_examples=200, deadline=None)
@given(_complex_raws)
def test_adjacency_matches_segment_intersection(raws):
    def meet(s, t):
        return seg_meet(s.p.key, s.q.key, t.p.key, t.q.key)[0] != 0

    C = normalize(raws)
    segs = C.maximal_segments
    want = tuple(
        tuple(j for j in range(len(segs)) if j != i and meet(segs[i], segs[j]))
        for i in range(len(segs))
    )
    assert C.adjacency == want
    # a path's bend, the crossing of the stored lines, is the meet point
    for i, row in enumerate(C.adjacency):
        for j in row:
            s, t = segs[i], segs[j]
            kind, at = seg_meet(s.p.key, s.q.key, t.p.key, t.q.key)
            assert kind == 1 and _meet_point(C, i, j) == at


@settings(max_examples=200, deadline=None)
@given(_complex_raws, st.data())
def test_fold_matches_region_reference(raws, data):
    # random index sets, each the region of its segments; the reference
    # decides membership from the segment list alone
    C = normalize(raws)
    index = st.integers(min_value=0, max_value=len(C) - 1)
    sets = data.draw(
        st.lists(st.frozensets(index, min_size=1), min_size=1, max_size=4)
    )
    trace = intersection_fold(C, sets)
    assert RegionReference(C.maximal_segments).errors(sets, trace) == []
    # the least point by its definition: the least isolated point or first
    # endpoint of a kept segment, as Points
    for X in trace:
        firsts = [point_from_key(v) for v in X.points]
        firsts += [C.maximal_segments[i].p for i in X.segments]
        assert least_point(C, X) == (min(firsts) if firsts else None)
