"""Link regions, link distances, certificates, common viewers."""

from dataclasses import replace
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    RegionReference,
    cycle_rank,
    oracle_link_distances,
    reference_certificate_valid,
)
from vislink import Point, Segment, point
from vislink.complexes import (
    PointNotOnComplex,
    _bfs,
    incident_segments,
    intersection_fold,
    normalize,
)
from vislink.kernel import point_from_key
from vislink.links import (
    PathCertificate,
    _lookup,
    certificate_valid,
    common_viewer,
    link_distance,
    link_region,
    n_visible,
    search_tree,
)
from vislink.rng import Stream, derive


def seg(a, b, c, d):
    return Segment(point(a, b), point(c, d))


def path(links, *vertices):
    """The certificate of a path given as Points."""
    return PathCertificate(tuple(v.key for v in vertices), links)


# convex hexagon boundary, counterclockwise
HEX_V = [
    point(4, 0),
    point(2, 3),
    point(-2, 3),
    point(-4, 0),
    point(-2, -3),
    point(2, -3),
]
HEX = normalize([Segment(HEX_V[i], HEX_V[(i + 1) % 6]) for i in range(6)])


def test_region_radius_zero():
    with pytest.raises(ValueError):
        link_region(HEX, HEX_V[0], 0)


def test_region_radius_one_is_incident_edges():
    r = link_region(HEX, HEX_V[0], 1)
    assert len(r) == 2
    for i in r:
        s = HEX.maximal_segments[i]
        assert HEX_V[0] in (s.p, s.q)


def test_region_radius_three_covers_hexagon():
    assert link_region(HEX, HEX_V[0], 3) == frozenset(range(6))


def test_region_monotone_and_stabilizes():
    prev = frozenset()
    for j in range(1, 8):
        cur = link_region(HEX, HEX_V[0], j)
        assert prev <= cur
        prev = cur
    assert prev == frozenset(range(6))


def test_region_off_complex():
    with pytest.raises(PointNotOnComplex):
        link_region(HEX, point(0, 0), 1)


def test_distance_same_point():
    assert link_distance(HEX, HEX_V[0], HEX_V[0]) == 0


def test_distance_adjacent_vertices():
    assert link_distance(HEX, HEX_V[0], HEX_V[1]) == 1


def test_distance_one_apart_is_two():
    assert link_distance(HEX, HEX_V[0], HEX_V[2]) == 2


def test_distance_opposite_is_three():
    assert link_distance(HEX, HEX_V[0], HEX_V[3]) == 3


def test_distance_disconnected():
    C = normalize([seg(0, 0, 1, 0), seg(5, 5, 6, 5)])
    assert link_distance(C, point(0, 0), point(5, 5)) is None
    assert n_visible(C, point(0, 0), point(5, 5), 9) is None


def test_distance_off_complex_raises_for_p_first():
    off, other = point(0, 0), point(1, 1)
    with pytest.raises(PointNotOnComplex, match=r"^\(0/1, 0/1\) is not"):
        link_distance(HEX, off, HEX_V[0])
    with pytest.raises(PointNotOnComplex, match=r"^\(0/1, 0/1\) is not"):
        link_distance(HEX, HEX_V[0], off)
    with pytest.raises(PointNotOnComplex, match=r"^\(0/1, 0/1\) is not"):
        link_distance(HEX, off, off)
    with pytest.raises(PointNotOnComplex, match=r"^\(0/1, 0/1\) is not"):
        link_distance(HEX, off, other)


def test_certificate_two_links_bends_at_shared_vertex():
    cert = n_visible(HEX, HEX_V[0], HEX_V[2], 2)
    assert cert is not None
    assert cert.links == 2
    assert cert.vertices == (HEX_V[0], HEX_V[1], HEX_V[2])
    assert certificate_valid(HEX, cert, 2)


def test_certificate_edited_as_points_keeps_only_keys():
    # dataclasses.replace(cert, vertices=...) is how a caller moves a
    # vertex given as Points; the copy stores their keys
    cert = n_visible(HEX, HEX_V[0], HEX_V[2], 2)
    assert replace(cert, vertices=cert.vertices) == cert
    moved = replace(cert, vertices=(HEX_V[0], Point(0, 0), HEX_V[2]))
    assert moved.keys == (HEX_V[0].key, (0, 1, 0, 1), HEX_V[2].key)
    assert moved.vertices == (HEX_V[0], point(0, 0), HEX_V[2])
    assert not certificate_valid(HEX, moved, 2)


def test_certificate_absent_when_bound_too_small():
    assert n_visible(HEX, HEX_V[0], HEX_V[2], 1) is None
    assert n_visible(HEX, HEX_V[0], HEX_V[3], 2) is None


def test_certificate_same_point():
    cert = n_visible(HEX, HEX_V[1], HEX_V[1], 1)
    assert cert == path(0, HEX_V[1])
    assert certificate_valid(HEX, cert, 1)


def test_certificate_one_link():
    cert = n_visible(HEX, HEX_V[0], HEX_V[1], 5)
    assert cert.links == 1
    assert certificate_valid(HEX, cert, 5)


def test_certificate_validator_rejects_garbage():
    bogus = path(1, HEX_V[0], HEX_V[3])  # chord, not on union
    assert not certificate_valid(HEX, bogus, 1)
    wrong_count = path(2, HEX_V[0], HEX_V[1])
    assert not certificate_valid(HEX, wrong_count, 2)
    repeated = path(4, HEX_V[0], HEX_V[1], HEX_V[0], HEX_V[1], HEX_V[2])
    assert not certificate_valid(HEX, repeated, 4)


def test_certificate_validator_compares_points_by_value():
    # HEX_V[1] written with int coordinates: equal to the Fraction one
    v1 = Point(2, 3)
    # only the inner-vertex test rejects the first, only the consecutive
    # test the second, and only point location the third
    repeat = path(4, HEX_V[0], v1, HEX_V[0], HEX_V[1], HEX_V[2])
    stutter = path(2, HEX_V[0], HEX_V[1], v1)
    off = path(0, point(0, 0))
    for cert in (repeat, stutter, off):
        assert not certificate_valid(HEX, cert, 5)
        assert not reference_certificate_valid(HEX, cert, 5)
    mixed = path(2, HEX_V[0], v1, HEX_V[2])
    assert certificate_valid(HEX, mixed, 2)
    assert reference_certificate_valid(HEX, mixed, 2)


def test_common_viewer_single_target():
    C = normalize([seg(0, 0, 3, 0)])
    assert common_viewer(C, [point(0, 0)], 1) == point(0, 0)


def test_common_viewer_is_least_point_of_intersection():
    # two crossing segments: viewers of both far endpoints within 1 link
    C = normalize([seg(0, -2, 0, 2), seg(-2, 0, 2, 0)])
    got = common_viewer(C, [point(0, 2), point(2, 0)], 1)
    assert got == point(0, 0)  # regions intersect exactly at the crossing


def test_common_viewer_absent():
    # two parallel segments, disconnected
    C = normalize([seg(0, 0, 1, 0), seg(0, 1, 1, 1)])
    assert common_viewer(C, [point(0, 0), point(0, 1)], 3) is None


def test_common_viewer_needs_a_link_bound_of_at_least_one():
    # link_region owns the bound
    with pytest.raises(ValueError):
        common_viewer(HEX, [HEX_V[0]], 0)


def test_common_viewer_matches_region_fold():
    # the least probe of the reference's common region is its least
    # point: a closed segment's least point is an endpoint, a vertex
    ref = RegionReference(HEX.maximal_segments)
    for n in (1, 2):
        for targets in combinations(HEX_V, 3):
            sets = [link_region(HEX, t, n) for t in targets]
            common = [ref.probes[j] for j in ref.members(sets)[-1]]
            want = min(common) if common else None
            assert common_viewer(HEX, list(targets), n) == want, (n, targets)


def _grid_point(stream):
    return stream.below(9) - 4, stream.below(9) - 4


def _planted_raws(stream, count):
    """At least count segments with ends on the integer grid [-4, 4]^2.
    One complex in three is a star: every segment runs through one grid
    point c, ending there or going on to the mirror image of its far end.
    One in three starts with a short cycle, the edges of a triangle or a
    quadrilateral on random corners. The rest are random."""
    kind = stream.below(3)
    raws = []
    if kind == 1:
        m = 3 + stream.below(2)
        corners = [_grid_point(stream) for _ in range(m)]
        for i in range(m):
            a, b = corners[i], corners[(i + 1) % m]
            if a != b:
                raws.append(seg(*a, *b))
    c = _grid_point(stream)
    while len(raws) < count:
        a = _grid_point(stream)
        if kind == 0:
            b = c if stream.below(2) else (2 * c[0] - a[0], 2 * c[1] - a[1])
        else:
            b = _grid_point(stream)
        if a != b:
            raws.append(seg(*a, *b))
    return raws


def _meet(C, a, b):
    """Whether two regions, sets of whole maximal segments given by their
    indices, share a point: they hold a common segment or two adjacent
    ones. Decided on the intersection graph, not by the fold."""
    return not a.isdisjoint(b) or any(not b.isdisjoint(C.adjacency[i]) for i in a)


def test_helly_on_acyclic_complexes():
    # an n-link region is a connected union of whole segments, a subtree
    # when the union has no cycle, and subtrees that meet pairwise share
    # a point: there the fold of regions meeting pairwise is not empty.
    # The planted cycles give the contrast, pairwise meets with an empty
    # fold, so a fold that empties too often cannot pass
    held = contrast = 0
    for case in range(3000):
        stream = Stream(derive(9173, case))
        C = normalize(_planted_raws(stream, 2 + stream.below(6)))
        acyclic = cycle_rank(C) == 0
        vertices = sorted(C.vertex_segments)
        targets = [
            point_from_key(vertices[stream.below(len(vertices))])
            for _ in range(3 + stream.below(3))
        ]
        for n in (1, 2, 3):
            regions = [link_region(C, t, n) for t in targets]
            if all(_meet(C, a, b) for a, b in combinations(regions, 2)):
                empty = intersection_fold(C, regions)[-1].is_empty()
                assert not (acyclic and empty), (case, n)
                held += acyclic
                contrast += empty
    assert held > 1000 and contrast > 20, (held, contrast)


def _edge_midpoints(C):
    """The midpoint of every subdivision edge: two consecutive vertices
    along a maximal segment. It lies on that segment alone."""
    out = []
    for i in range(len(C)):
        on = sorted(point_from_key(v) for v, t in C.vertex_segments.items() if i in t)
        out += [Point((a.x + b.x) / 2, (a.y + b.y) / 2) for a, b in zip(on, on[1:])]
    return out


def test_one_link_regions_meeting_in_triples_share_a_point():
    # n = 1: a midpoint's 1-link region is its one maximal segment. Two
    # distinct maximal segments meet in at most one point, so if every
    # triple of them is concurrent, all pass through one point: folds
    # non-empty on every triple are non-empty on the whole set. Meeting
    # pairwise is not enough (a triangle), and some case must show it
    held = contrast = 0
    for case in range(2000):
        stream = Stream(derive(5501, case))
        C = normalize(_planted_raws(stream, 2 + stream.below(7)))
        mids = _edge_midpoints(C)
        points = [mids[stream.below(len(mids))] for _ in range(4 + stream.below(3))]
        regions = [link_region(C, p, 1) for p in points]
        if all(
            not intersection_fold(C, t)[-1].is_empty()
            for t in combinations(regions, 3)
        ):
            assert not intersection_fold(C, regions)[-1].is_empty(), case
            held += 1
        elif all(_meet(C, a, b) for a, b in combinations(regions, 2)):
            contrast += 1
    assert held > 500 and contrast > 20, (held, contrast)


def test_common_viewer_result_sees_all_targets():
    targets = [HEX_V[1], HEX_V[2]]
    z = common_viewer(HEX, targets, 2)
    assert z is not None
    for t in targets:
        cert = n_visible(HEX, z, t, 2)
        assert cert is not None and certificate_valid(HEX, cert, 2)


# ------------------------------------------------------------------ oracle


def _random_raw(stream, count):
    raws = []
    while len(raws) < count:
        x1 = stream.below(13) - 6
        y1 = stream.below(13) - 6
        x2 = stream.below(13) - 6
        y2 = stream.below(13) - 6
        if (x1, y1) != (x2, y2):
            raws.append(seg(x1, y1, x2, y2))
    return raws


def test_link_distance_matches_subdivision_oracle():
    for case in range(40):
        raws = _random_raw(Stream(derive(771, case)), 3 + case % 6)
        C = normalize(raws)
        vs, dmat = oracle_link_distances(raws)
        for i in range(len(vs)):
            for j in range(i, len(vs)):
                got = link_distance(C, vs[i], vs[j])
                assert got == dmat[i][j], (case, vs[i], vs[j])


# -------------------------------------------------------------- properties


_coord = st.integers(min_value=-5, max_value=5)
_pt = st.tuples(_coord, _coord)
_rawseg = st.tuples(_pt, _pt).filter(lambda t: t[0] != t[1])


@settings(max_examples=120, deadline=None)
@given(st.lists(_rawseg, min_size=1, max_size=6), st.data())
def test_link_distance_symmetric(pairs, data):
    raws = [seg(a[0], a[1], b[0], b[1]) for a, b in pairs]
    C = normalize(raws)
    ends = sorted({s.p for s in raws} | {s.q for s in raws})
    p = data.draw(st.sampled_from(ends))
    q = data.draw(st.sampled_from(ends))
    assert link_distance(C, p, q) == link_distance(C, q, p)


@settings(max_examples=80, deadline=None)
@given(st.lists(_rawseg, min_size=1, max_size=6), st.data())
def test_certificates_sound_whenever_present(pairs, data):
    raws = [seg(a[0], a[1], b[0], b[1]) for a, b in pairs]
    C = normalize(raws)
    ends = sorted({s.p for s in raws} | {s.q for s in raws})
    p = data.draw(st.sampled_from(ends))
    q = data.draw(st.sampled_from(ends))
    n = data.draw(st.integers(min_value=1, max_value=5))
    cert = n_visible(C, p, q, n)
    d = link_distance(C, p, q)
    if cert is None:
        assert d is None or d > n
    else:
        assert d == cert.links <= n
        assert certificate_valid(C, cert, n)


@settings(max_examples=80, deadline=None)
@given(st.lists(_rawseg, min_size=1, max_size=6))
def test_distance_table_matches_search_tree(pairs):
    # the probes are the vertices and one midpoint per subdivision edge; a
    # midpoint is not a vertex, so locating it takes the segment scan
    C = normalize([seg(a[0], a[1], b[0], b[1]) for a, b in pairs])
    D = C.distances
    m = len(C)
    assert all(D[i] == tuple(_bfs(C, (i,))[0]) for i in range(m))
    assert all(D[i][i] == 0 for i in range(m))
    assert all(D[i][j] == D[j][i] for i in range(m) for j in range(m))
    probes = RegionReference(C.maximal_segments).probes
    for p in probes:
        tree = search_tree(C, p)
        for q in probes:
            want = _lookup(tree, q.key, incident_segments(C, q))[0]
            assert link_distance(C, p, q) == want, (p, q)
