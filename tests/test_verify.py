"""Witness-formula and emptiness verification on generated families."""

import os
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction

import vislink

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    RegionReference,
    on_segment,
    reference_certificate_valid,
    reference_draw,
    reference_tree_path,
)
from test_acceptance import GRID_SEED, build_grid
from test_complexes import _complex_raws
from vislink import Point, Segment, point
from vislink.complexes import OneSet, PointNotOnComplex, contains_point, normalize
from vislink.construct import build_family, make_polygon
from vislink.cli import main
from vislink.docio import construction_from_doc, construction_to_doc, read_doc
from vislink.kernel import parse_rat, rat_str
from vislink.links import (
    PathCertificate,
    certificate_valid,
    n_visible,
    search_tree,
    tree_path,
)
from vislink.rng import STREAM_TUPLES, Stream, derive
from vislink.verify import (
    EmptinessReport,
    IndexOutOfRange,
    PointOnNoPiece,
    VerificationFailed,
    WrongArity,
    _draw_on_complex,
    sample_tuples,
    verify_common_witness,
    verify_targets_blocked,
)


def lerp(s: Segment, t) -> "point":
    return point(s.p.x + t * (s.q.x - s.p.x), s.p.y + t * (s.q.y - s.p.y))


# --------------------------------------------------------- witness formula


def test_witness_index_examples():
    assert make_polygon(4, seed=5).partner(0) == 3
    assert make_polygon(2, seed=5).partner(0) == 2
    assert make_polygon(5, seed=5).partner(2) == 0


def test_witness_vertex_joined_to_all_other_fans():
    # defining property: a_m is in every fan B_i except i = untouched
    for k in (2, 3, 4, 5):
        p = make_polygon(k, seed=5)
        c = build_family(p)
        pieces = c.pieces
        for j0 in range(k + 1):
            m = p.partner(j0)
            am = p.a(m)
            for i in range(k + 1):
                on_fan = any(
                    am in (c.complex.maximal_segments[s].p, c.complex.maximal_segments[s].q)
                    for s in pieces[i]
                )
                assert on_fan == (i != j0), (k, j0, i)


# ------------------------------------------------------ common witness


def test_s24_tuple_on_four_fans():
    p = make_polygon(4, seed=7)
    c = build_family(p)
    pts = [
        lerp(c.complex.maximal_segments[c.B[i][0]], Fraction(1, 3))
        for i in (1, 2, 3, 4)
    ]
    report = verify_common_witness(c, pts)
    assert report.method == "proof-formula"
    assert report.witness == p.a(3)
    assert len(report.paths) == 4
    for cert in report.paths:
        assert cert.links <= 2
        assert certificate_valid(c.complex, cert, 2)


def test_s22_repeated_vertex_tuple():
    p = make_polygon(2, seed=7)
    c = build_family(p)
    report = verify_common_witness(c, [p.a(0), p.a(0)])
    assert report.method == "proof-formula"
    for cert in report.paths:
        assert certificate_valid(c.complex, cert, 2)


def test_s54_tuple_with_tail_point():
    p = make_polygon(4, seed=7)
    c = build_family(p, 5)
    tail_pt = lerp(Segment(c.gamma[2][-2], c.gamma[2][-1]), Fraction(1, 2))
    pts = [
        lerp(c.complex.maximal_segments[c.B[1][0]], Fraction(1, 3)),
        tail_pt,
        lerp(c.complex.maximal_segments[c.B[3][0]], Fraction(1, 5)),
        lerp(c.complex.maximal_segments[c.B[4][1]], Fraction(2, 7)),
    ]
    report = verify_common_witness(c, pts)
    assert report.method == "proof-formula"
    assert report.witness == p.a(3)
    tail_cert = report.paths[1]
    assert tail_cert.links <= 5
    assert c.c[2] in tail_cert.vertices  # only gateway onto tail 2
    for cert in report.paths:
        assert certificate_valid(c.complex, cert, 5)


def test_wrong_arity():
    c = build_family(make_polygon(2, seed=7))
    with pytest.raises(WrongArity):
        verify_common_witness(c, [c.polygon.a(0)])


def test_tuple_not_on_complex():
    c = build_family(make_polygon(2, seed=7))
    with pytest.raises(PointNotOnComplex):
        verify_common_witness(c, [c.polygon.a(0), point(50, 50)])


def test_point_on_no_piece_is_an_input_error():
    # a construction whose fans do not cover its complex (as read from an
    # edited document) is rejected, not certified
    c = build_family(make_polygon(2, seed=7))
    seg = c.complex.maximal_segments[c.B[1][0]]
    uncovered = replace(c, B=(c.B[0], (), c.B[2]))
    with pytest.raises(PointOnNoPiece):
        verify_common_witness(uncovered, [c.polygon.a(0), lerp(seg, Fraction(1, 2))])


def test_formula_miss_raises():
    # the first maximal segment cut at its midpoint: the formula witness
    # misses a point of sampled tuple 8, and the claim fails with the
    # witness, the point in p/q form and the link budget
    doc = construction_to_doc(build_family(make_polygon(2, seed=7)))
    p, q = doc["segments"][0]
    doc["segments"][0] = [
        p, [rat_str((parse_rat(a) + parse_rat(b)) / 2) for a, b in zip(p, q)]
    ]
    c = construction_from_doc(doc)
    pts = sample_tuples(c.complex, c.k, 10, seed=7)[8]
    with pytest.raises(VerificationFailed) as e:
        verify_common_witness(c, pts)
    msg = str(e.value)
    assert msg.startswith("formula witness a_0 for untouched piece 1 ")
    assert msg.endswith(" within 2 links") and "Fraction(" not in msg


def test_sampled_tuples_use_formula_witness():
    for k in (2, 3):
        for n in (2, 4):
            c = build_family(make_polygon(k, seed=3), n)
            for pts in sample_tuples(c.complex, k, 10, seed=31):
                report = verify_common_witness(c, pts)
                assert report.method == "proof-formula"
                for cert in report.paths:
                    assert certificate_valid(c.complex, cert, c.n)


def test_witness_tree_certificates_match_fresh_searches():
    # verify_common_witness looks tuple points up in one search tree per
    # formula witness, kept on the construction; each certificate must be
    # the one a fresh n_visible search from the same witness returns
    for n in (2, 3, 4, 5):
        for k in (2, 3, 4, 5, 6):
            c = build_family(make_polygon(k, 20260822), n)
            for pts in sample_tuples(c.complex, k, 8, seed=10 * n + k):
                report = verify_common_witness(c, pts)
                assert report.method == "proof-formula"
                for x, cert in zip(pts, report.paths):
                    assert cert == n_visible(c.complex, report.witness, x, c.n)
            assert [t.source for t in c.witness_trees] == [
                c.polygon.a(m) for m in range(k + 1)
            ]


def _interior_point(C, s):
    """A point inside maximal segment s that is no vertex: it lies on s alone."""
    seg = C.maximal_segments[s]
    for t in (Fraction(1, 3), Fraction(2, 7), Fraction(5, 11), Fraction(7, 13)):
        x = lerp(seg, t)
        if x.key not in C.vertex_segments:
            return x
    raise AssertionError(f"no interior probe of segment {s} avoids the vertices")


def test_bend_memo_matches_reference_chain_walk():
    # every witness tree of every acceptance-grid cell: the tabled path
    # to a point inside each segment within graph distance n-1 of the
    # witness is the one the per-call chain walk builds, and the table,
    # built with the tree, holds every segment the tree reaches.
    for (n, k), c in build_grid().items():
        C = c.complex
        # a generated family's pieces are disjoint; the copy shares fan 0
        # with every later fan, so the least piece is the first of several
        shared = replace(c, B=tuple(tuple(sorted({*c.B[0], *b})) for b in c.B))
        for d in (c, shared):
            holders = [
                [i for i, piece in enumerate(d.pieces) if s in piece]
                for s in range(len(C))
            ]
            assert d.least_piece == tuple(min(h, default=None) for h in holders)
        assert shared.least_piece[c.B[0][0]] == 0
        for tree in c.witness_trees:
            reach = [s for s, d in enumerate(tree.dist) if d is not None and d < n]
            for s in sorted(reach, key=lambda s: (-tree.dist[s], s)):
                x = _interior_point(C, s)
                cert = tree_path(C, tree, x.key, n, (s,))
                assert cert == reference_tree_path(C, tree, x, n, (s,)), (n, k, s)
                assert cert.links == tree.dist[s] + 1
                assert reference_certificate_valid(C, cert, n)
            assert set(tree.bends) == {
                s for s, d in enumerate(tree.dist) if d is not None
            }
    # control: one tabled bend moved to a vertex off its segment
    c = build_family(make_polygon(3, GRID_SEED), 4)
    C = c.complex
    tree = search_tree(C, c.polygon.a(0))
    s = next(s for s, d in enumerate(tree.dist) if d == 2)
    x = _interior_point(C, s)
    assert tree_path(C, tree, x.key, 4, (s,)) is not None
    off = next(v for v, through in C.vertex_segments.items() if s not in through)
    tree.bends[s] = tree.bends[s][:-1] + (off,)
    with pytest.raises(VerificationFailed):
        tree_path(C, tree, x.key, 4, (s,))


# -------------------------------------------------------- targets blocked


def test_hexagon_targets_blocked():
    c = build_family(make_polygon(2, seed=7))
    report = verify_targets_blocked(c)
    assert report.final.is_empty()
    assert len(report.per_target_regions) == 3
    for region in report.per_target_regions:
        assert len(region.segments) == 3  # edge plus its two neighbors


def test_k5_targets_blocked():
    report = verify_targets_blocked(build_family(make_polygon(5, seed=7)))
    assert report.final.is_empty()


def test_s43_targets_blocked():
    report = verify_targets_blocked(build_family(make_polygon(3, seed=7), 4))
    assert report.final.is_empty()
    assert report.n == 4


def test_trace_is_left_fold():
    c = build_family(make_polygon(3, seed=9))
    report = verify_targets_blocked(c)
    sets = c.target_regions
    ref = RegionReference(c.complex.maximal_segments)
    for s, region in zip(sets, report.per_target_regions, strict=True):
        assert region == OneSet(tuple(sorted(s)))
        assert ref.errors([s], (region,)) == []
    assert report.intersection_trace[0] == report.per_target_regions[0]
    assert ref.errors(sets, report.intersection_trace) == []
    assert report.final == report.intersection_trace[-1]


def test_drop_controls_equal_unshared_folds():
    # each drop control is the fold of the remaining targets' regions
    for n in (2, 3, 4, 5):
        for k in (2, 3, 4, 5, 6):
            c = build_family(make_polygon(k, 20260822), n)
            ref = RegionReference(c.complex.maximal_segments)
            for d in range(k + 1):
                report = verify_targets_blocked(c, drop_index=d)
                sets = c.target_regions[:d] + c.target_regions[d + 1 :]
                assert report.targets == c.e[:d] + c.e[d + 1 :]
                for s, region in zip(sets, report.per_target_regions, strict=True):
                    assert ref.errors([s], (region,)) == [], (n, k, d)
                assert ref.errors(sets, report.intersection_trace) == [], (n, k, d)
            full = verify_targets_blocked(c)
            assert ref.errors(c.target_regions, full.intersection_trace) == []
            assert full.final.is_empty()


def test_drop_one_target_restores_viewer():
    c = build_family(make_polygon(3, seed=7))
    for drop in range(4):
        report = verify_targets_blocked(c, drop_index=drop)
        assert not report.final.is_empty(), drop
        assert len(report.targets) == 3


def test_beyond_the_grid_k16_n8(tmp_path):
    # one cell past the acceptance grid: gen, then both claims on the
    # document it writes
    path = str(tmp_path / "s8-16.json")
    assert main(["gen", "--k", "16", "--n", "8", "--seed", "7", "--out", path]) == 0
    c = construction_from_doc(read_doc(path))
    assert (c.k, c.n, c.polygon.retry_count) == (16, 8, 0)
    assert verify_targets_blocked(c).final.is_empty()
    for d in range(17):
        assert not verify_targets_blocked(c, drop_index=d).final.is_empty(), d
    for pts in sample_tuples(c.complex, 16, 20, 7):
        assert len(verify_common_witness(c, pts).paths) == 16


def test_drop_index_range():
    c = build_family(make_polygon(2, seed=7))
    with pytest.raises(IndexOutOfRange):
        verify_targets_blocked(c, drop_index=3)


def test_corrupted_complex_fails_verification():
    p = make_polygon(2, seed=7)
    c = build_family(p)
    # re-add one removed matching diagonal; a common viewer appears
    extra = Segment(p.a(0 - p.kappa), p.b(0))
    corrupted = replace(
        c, complex=normalize(list(c.complex.maximal_segments) + [extra])
    )
    with pytest.raises(VerificationFailed):
        verify_targets_blocked(corrupted)


_REJECTED_CERTIFICATE = """
import sys
import vislink.links as links
from vislink.construct import build_family, make_polygon
from vislink.verify import VerificationFailed, verify_common_witness

assert sys.flags.optimize == 1
links.certificate_valid = lambda *args, **kwargs: False
c = build_family(make_polygon(3, 1), 3)
try:
    verify_common_witness(c, c.c[:3])
except VerificationFailed:
    print("raised")
else:
    print("returned")
"""


def test_rejected_certificate_raises_under_python_O():
    # `python -O` strips assert statements, so the certificate re-check in
    # n_visible must be an explicit raise to stay in force
    src = os.path.dirname(os.path.dirname(os.path.abspath(vislink.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-O", "-c", _REJECTED_CERTIFICATE],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "raised"


# ----------------------------------------------------------------- sampling


def test_sample_on_complex_basic():
    c = build_family(make_polygon(4, seed=7))
    pts = [p for t in sample_tuples(c.complex, 4, 250, seed=5) for p in t]
    assert len(pts) == 1000
    assert all(contains_point(c.complex, q) for q in pts)
    pieces = c.pieces
    from vislink.complexes import incident_segments

    touched = set()
    for q in pts:
        inc = set(incident_segments(c.complex, q))
        for i in range(5):
            if pieces[i] & inc:
                touched.add(i)
                break
    assert len(touched) >= 2


def test_sample_deterministic():
    c = build_family(make_polygon(2, seed=7))
    assert sample_tuples(c.complex, 2, 5, 9) == sample_tuples(
        c.complex, 2, 5, 9
    )


def _retyped(raws, den):
    """raws with int coordinates (den 0) or each coordinate divided by den."""

    def pt(p):
        return Point(int(p.x), int(p.y)) if den == 0 else Point(p.x / den, p.y / den)

    return [Segment(pt(s.p), pt(s.q)) for s in raws]


@settings(max_examples=200, deadline=None)
@given(
    _complex_raws,
    st.integers(min_value=0, max_value=12),
    st.integers(min_value=0, max_value=2**64 - 1),
    st.integers(min_value=0, max_value=12),
    st.integers(min_value=1, max_value=4),
)
def test_sampling_matches_fraction_lerp(raws, den, seed, count, k):
    # the draw interpolates on integer keys; the Fraction lerp it replaced
    # gives the same points, coordinate types included
    C = normalize(_retyped(raws, den))
    stream, ref = Stream(seed), Stream(seed)
    points = [_draw_on_complex(C, stream) for _ in range(count)]
    assert points == [reference_draw(C, ref) for _ in range(count)]
    stream = Stream(derive(seed, STREAM_TUPLES))
    tuples = sample_tuples(C, k, count, seed)
    assert tuples == [
        tuple(reference_draw(C, stream) for _ in range(k)) for _ in range(count)
    ]
    drawn = points + [p for t in tuples for p in t]
    assert all(type(v) is Fraction for p in drawn for v in p)


# ------------------------------------------------------ certificate re-check


def _mutations(C, cert):
    """(certificate, bound, expected verdict or None) for cert and copies of
    it with a wrong link count, a tighter bound, one inner vertex dropped,
    or one bend moved along its incoming link's line past that segment's
    end. The copies are built on keys; the bend is moved on Points."""
    ks, vs, m = list(cert.keys), cert.vertices, cert.links
    yield cert, m, True
    yield replace(cert, links=m + 1), m + 1, False
    if m >= 1:
        yield cert, m - 1, False
        yield replace(cert, links=m - 1), m, False
    for i in range(1, m):
        yield PathCertificate(tuple(ks[:i] + ks[i + 1 :]), m - 1), m, None
        a, x = vs[i - 1], vs[i]
        s = next(s for s in C.maximal_segments if on_segment(a, s) and on_segment(x, s))
        ahead = (s.q.x - s.p.x) * (x.x - a.x) + (s.q.y - s.p.y) * (x.y - a.y) > 0
        e = s.q if ahead else s.p
        moved = Point(2 * e.x - a.x, 2 * e.y - a.y)  # past e, on the line of s
        yield PathCertificate(tuple(ks[:i] + [moved.key] + ks[i + 1 :]), m), m, False


@pytest.mark.parametrize("k, n", [(2, 2), (3, 4), (4, 3), (5, 5)])
def test_certificate_recheck_matches_point_reference(k, n):
    c = build_family(make_polygon(k, seed=7), n)
    tuples = sample_tuples(c.complex, k, 8, seed=10 * n + k)
    tuples.append(tuple(c.polygon.a(i) for i in range(k)))  # 0-link paths too
    bends = 0
    for pts in tuples:
        for cert in verify_common_witness(c, pts).paths:
            bends += max(cert.links - 1, 0)
            for mutant, bound, want in _mutations(c.complex, cert):
                got = certificate_valid(c.complex, mutant, bound)
                assert got == reference_certificate_valid(c.complex, mutant, bound)
                assert want is None or got == want
    assert bends > 0
