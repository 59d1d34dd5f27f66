"""Document round-trips, canonical bytes, and malformed-input rejection."""

import dataclasses
import json
import os
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import reference_form
from test_acceptance import build_grid
from vislink.complexes import segment_index
from vislink.construct import build_family, make_polygon
from vislink.docio import (
    DocumentError,
    audit_to_doc,
    construction_from_doc,
    construction_to_doc,
    doc_bytes,
    drop_control_doc,
    point_from_doc,
    point_to_doc,
    read_doc,
    segment_from_doc,
    segment_to_doc,
    shutter_input_from_doc,
    shutter_input_to_doc,
    verify_report_doc,
    write_doc,
)
from vislink.kernel import point, point_from_key
from vislink.shutter import gen_kset, gen_tuples, run_schedule
from vislink.verify import sample_tuples, verify_common_witness, verify_targets_blocked

K3 = (point(-1, -1), point(0, -2), point(1, -1))


def small(k=2, n=2, seed=7):
    return build_family(make_polygon(k, seed), n)


def test_construction_round_trip_is_lossless():
    for k, n in ((2, 2), (3, 3), (2, 4)):
        c = small(k, n, seed=5)
        rebuilt = construction_from_doc(construction_to_doc(c))
        assert rebuilt == c


def test_segment_index_after_reading_a_document():
    c = small(3, 3)
    read = construction_from_doc(construction_to_doc(c))
    C = read.complex
    assert [segment_index(C, s) for s in C.maximal_segments] == list(range(len(C)))
    assert read.B == c.B and read.pieces == c.pieces


def test_doc_bytes_canonical():
    c = small()
    b1 = doc_bytes(construction_to_doc(c))
    b2 = doc_bytes(construction_to_doc(small()))
    assert b1 == b2
    assert b1.endswith(b"\n")
    b1.decode("ascii")  # raises if not ASCII


# ---------------------------------------------------------------------------
# the canonical writer against the json.dumps call it replaced


def reference_bytes(doc) -> bytes:
    return (
        json.dumps(doc, sort_keys=True, separators=(",", ": "), indent=1) + "\n"
    ).encode("ascii")


STRINGS = st.text() | st.sampled_from(
    ["", "0/1", '"', "\\", "\n\t\r\b\f", "\x00\x1f\x7f", "é€", "\U0001f600", "\ud800"]
)
SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**40), max_value=-(10**18))
    | STRINGS
)
# lists of strings, pairs of strings and mixed lists reach the writer's
# fast paths and their fallbacks
TREES = st.recursive(
    SCALARS | st.lists(STRINGS, max_size=3) | st.tuples(STRINGS, STRINGS),
    lambda kids: st.lists(kids, max_size=4)
    | st.lists(kids, max_size=4).map(tuple)
    | st.dictionaries(STRINGS, kids, max_size=4),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(TREES)
@example({})
@example([])
@example({"a": [], "b": {}, "c": [[]], "d": [{}], "e": [[], ["x"], "y", ("0/1",)]})
@example([["x", "y"], "ab", ["x", 1], [], ("p", "q"), {"k": ["v"]}])
def test_doc_bytes_matches_json_dumps(doc):
    assert doc_bytes(doc) == reference_bytes(doc)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(STRINGS, max_size=4),
    st.floats(),
    st.integers(0, 4),
)
def test_doc_bytes_rejects_floats(strings, x, at):
    items = list(strings)
    items.insert(min(at, len(items)), x)
    for doc in ({"a": items}, [items], [[items]], {"a": {"b": tuple(items)}}):
        with pytest.raises(TypeError):
            doc_bytes(doc)


@pytest.mark.parametrize(
    "doc", [{1: "x"}, {"a": {2: []}}, {"a": 1, None: 2}, [{True: 0}], {(1,): 0}]
)
def test_doc_bytes_rejects_non_str_keys(doc):
    with pytest.raises(TypeError):
        doc_bytes(doc)


def test_real_documents_match_json_dumps():
    c = small(3, 3, seed=5)
    s = run_schedule(K3, gen_tuples(2, 6, seed=2))
    for doc in (construction_to_doc(c), audit_to_doc(s, seed=2), shutter_input_to_doc(K3)):
        assert doc_bytes(doc) == reference_bytes(reference_form(doc))


def _points_route(r):
    """An emptiness report as written from Points: each region's
    segments as maximal Segments and its vertex keys as Points."""
    segs = r.complex.maximal_segments

    def region(X):
        return {
            "segments": [segment_to_doc(segs[i]) for i in X.segments],
            "points": [point_to_doc(point_from_key(v)) for v in X.points],
        }

    return {
        "targets": [point_to_doc(p) for p in r.targets],
        "n": r.n,
        "per_target_regions": [region(X) for X in r.per_target_regions],
        "intersection_trace": [region(X) for X in r.intersection_trace],
        "final": region(r.final),
        "final_empty": r.final.is_empty(),
    }


def test_region_writer_matches_points_route():
    # every grid cell's full fold and drop controls, written from keys,
    # give the bytes the Points give
    for c in build_grid().values():
        reports = [verify_targets_blocked(c)]
        reports += [verify_targets_blocked(c, drop_index=d) for d in range(c.k + 1)]
        for r in reports:
            got = doc_bytes({"report": r})
            assert got == doc_bytes({"report": _points_route(r)}), (c.k, c.n)


def test_segment_and_path_writers_match_points_route():
    # every grid cell's segments and witness paths, written from keys,
    # give the bytes the Segment and Point views give
    for c in build_grid().values():
        got = construction_to_doc(c)["segments"]
        want = [segment_to_doc(s) for s in c.complex.maximal_segments]
        assert doc_bytes({"segments": got}) == doc_bytes({"segments": want})
        tuples = sample_tuples(c.complex, c.k, 5, seed=10 * c.n + c.k)
        tuples.append(tuple(c.polygon.a(i) for i in range(c.k)))  # 0-link paths
        for pts in tuples:
            w = verify_common_witness(c, pts)
            want = {
                "tuple": [point_to_doc(p) for p in w.tuple],
                "witness": point_to_doc(w.witness),
                "method": w.method,
                "paths": [
                    {
                        "vertices": [point_to_doc(v) for v in cert.vertices],
                        "links": cert.links,
                    }
                    for cert in w.paths
                ],
            }
            assert doc_bytes({"w": [w]}) == doc_bytes({"w": [want]})


# ---------------------------------------------------------------------------
# the record templates against the dict trees they replaced


def assert_reference_bytes(doc):
    assert doc_bytes(doc) == reference_bytes(reference_form(doc))


def test_grid_reports_match_reference():
    # every grid cell's verify report (with and without witnesses) and
    # the drop-control report for every dropped target
    seen = {"zero_links": 0, "no_points": 0, "points": 0}
    for c in build_grid().values():
        emptiness = verify_targets_blocked(c)
        tuples = sample_tuples(c.complex, c.k, 10, seed=10 * c.n + c.k)
        tuples.append(tuple(c.polygon.a(i) for i in range(c.k)))  # 0-link paths
        witnesses = [verify_common_witness(c, t) for t in tuples]
        seen["zero_links"] += sum(
            p.links == 0 for w in witnesses for p in w.paths
        )
        report = verify_report_doc(c.k, c.n, 3, emptiness, witnesses)
        assert_reference_bytes(report)
        tuples0 = verify_report_doc(c.k, c.n, 3, emptiness, [])  # --tuples 0
        assert b'"witnesses": []' in doc_bytes(tuples0)
        assert_reference_bytes(tuples0)
        for d in range(c.k + 1):
            r = verify_targets_blocked(c, drop_index=d)
            for X in r.per_target_regions + r.intersection_trace:
                seen["points" if X.points else "no_points"] += 1
            assert_reference_bytes(drop_control_doc(c.k, c.n, d, r))
    # the edge cases occurred: 0-link paths, regions with and without points
    assert all(seen.values()), seen


@pytest.mark.parametrize("k, steps", [(2, 40), (3, 70), (2, 0), (3, 0)])
def test_audit_logs_match_reference(k, steps):
    s = run_schedule(gen_kset(k, 7), gen_tuples(k, steps + 1, 7))
    assert len(s.audit) == steps + 1
    assert_reference_bytes(audit_to_doc(s, seed=7))


def test_empty_added_lists_match_reference():
    # a repeated tuple adds nothing; the first tuple again admits points
    # but blocks none
    t0, t1 = gen_tuples(2, 2, seed=2)
    s = run_schedule(K3, [t0, t1, t1, t0])
    assert [(bool(r.a_scalars), bool(r.b_scalars)) for r in s.audit[2:]] == [
        (False, False),
        (True, False),
    ]
    assert_reference_bytes(audit_to_doc(s, seed=2))


def test_write_doc_streams_the_audit_log(tmp_path):
    # one piece per record: the writer's peak stays a few records' size,
    # far below the whole log
    s = run_schedule(gen_kset(3, 7), gen_tuples(3, 71, 7))
    doc = audit_to_doc(s, seed=7)
    path = str(tmp_path / "audit.json")
    tracemalloc.start()
    try:
        write_doc(path, doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = os.path.getsize(path)
    assert size > 3_000_000
    assert peak < size // 10, (peak, size)


def test_write_doc_removes_a_partial_file(tmp_path):
    path = tmp_path / "doc.json"
    with pytest.raises(TypeError):
        write_doc(str(path), {"a": "x", "b": 1.5})
    assert not path.exists()
    # a record that fails after the records before it were written
    s = run_schedule(K3, gen_tuples(2, 40, seed=2))
    doc = audit_to_doc(s, seed=2)
    last = doc["records"][-1]
    doc["records"][-1] = dataclasses.replace(last, b_scalars=(("1", 2),))
    with pytest.raises(TypeError):
        write_doc(str(path), doc)
    assert not path.exists()
    doc["records"][-1] = last
    write_doc(str(path), doc)
    assert path.read_bytes() == doc_bytes(doc)


def test_write_read_round_trip(tmp_path):
    c = small(3, 2)
    path = str(tmp_path / "c.json")
    write_doc(path, construction_to_doc(c))
    assert construction_from_doc(read_doc(path)) == c


def test_point_parsing_errors():
    assert point_from_doc(["-1/4", "0/1"]) == point("-1/4", 0)
    with pytest.raises(DocumentError):
        point_from_doc(["1/0", "0/1"])
    with pytest.raises(DocumentError):
        point_from_doc("not a pair")
    with pytest.raises(DocumentError):
        point_from_doc(["1/2"])
    with pytest.raises(DocumentError):
        point_from_doc(["x", "y"])


def test_segment_parsing_errors():
    with pytest.raises(DocumentError):
        segment_from_doc([["0/1", "0/1"], ["0/1", "0/1"]])  # degenerate
    with pytest.raises(DocumentError):
        segment_from_doc([["0/1", "0/1"]])


def test_construction_document_validation():
    base = construction_to_doc(small())

    def broken(**changes):
        doc = json.loads(doc_bytes(base).decode())
        doc.update(changes)
        return doc

    with pytest.raises(DocumentError, match="JSON object"):
        construction_from_doc([])
    with pytest.raises(DocumentError, match="no segments"):
        construction_from_doc(broken(segments=[]))
    with pytest.raises(DocumentError):
        construction_from_doc(broken(schema="2"))
    with pytest.raises(DocumentError):
        construction_from_doc(broken(kind="report"))
    with pytest.raises(DocumentError):
        construction_from_doc(broken(k=1))
    for bad in (5, True, 1.0):  # k = 2 needs the integer 1
        with pytest.raises(DocumentError):
            construction_from_doc(broken(kappa=bad))
    with pytest.raises(DocumentError):
        construction_from_doc(broken(polygon=base["polygon"][:-1]))
    with pytest.raises(DocumentError):
        construction_from_doc(broken(fans=base["fans"][:-1]))
    with pytest.raises(DocumentError):
        construction_from_doc(broken(fans=[[99]] + base["fans"][1:]))
    for bad in ("x", True, None, 1.5):
        with pytest.raises(DocumentError):
            construction_from_doc(broken(seed=bad))
    for bad in (-1, False, "0"):
        with pytest.raises(DocumentError):
            construction_from_doc(broken(retry_count=bad))
    # a tail that leaves the listed complex
    doc = construction_to_doc(small(n=3))
    doc["gamma"][0][1] = doc["polygon"][3]
    with pytest.raises(DocumentError, match="tail segment"):
        construction_from_doc(doc)
    # a tail edge that is a proper part of a listed segment
    doc = construction_to_doc(small(n=3))
    c0, g1 = (point_from_doc(v) for v in doc["gamma"][0][:2])
    mid = point((c0.x + g1.x) / 2, (c0.y + g1.y) / 2)
    doc["gamma"][0].insert(1, point_to_doc(mid))
    with pytest.raises(DocumentError, match="tail segment"):
        construction_from_doc(doc)
    doc = json.loads(doc_bytes(base).decode())
    del doc["segments"]
    with pytest.raises(DocumentError):
        construction_from_doc(doc)


def test_non_maximal_fan_segment_rejected():
    # extend a fan segment collinearly; it merges during reconstruction, so
    # the fan index no longer names a maximal segment
    doc = construction_to_doc(small())
    from fractions import Fraction

    sp, sq = doc["segments"][0]
    p = point_from_doc(sp)
    q = point_from_doc(sq)
    ext = point(q.x + (q.x - p.x), q.y + (q.y - p.y))
    doc["segments"].append(
        [[f"{q.x.numerator}/{q.x.denominator}", f"{q.y.numerator}/{q.y.denominator}"],
         [f"{ext.x.numerator}/{ext.x.denominator}", f"{ext.y.numerator}/{ext.y.denominator}"]]
    )
    with pytest.raises(DocumentError):
        construction_from_doc(doc)


def test_covered_listed_segment_rejected():
    # half of a listed segment, listed too: normalization absorbs it, so a
    # listed segment is not maximal, though no fan names it
    doc = construction_to_doc(small())
    p, q = (point_from_doc(v) for v in doc["segments"][0])
    half = point((p.x + q.x) / 2, (p.y + q.y) / 2)
    doc["segments"].append([point_to_doc(p), point_to_doc(half)])
    with pytest.raises(DocumentError, match="listed segment"):
        construction_from_doc(doc)


def test_shutter_input_round_trip():
    doc = shutter_input_to_doc(K3)
    K, tuples = shutter_input_from_doc(doc)
    assert K == K3 and tuples is None

    ts = gen_tuples(2, 3, seed=1)
    doc = shutter_input_to_doc(K3, ts)
    K, tuples = shutter_input_from_doc(doc)
    assert K == K3
    assert tuples == ts

    with pytest.raises(DocumentError):
        shutter_input_from_doc({"schema": "1", "kind": "shutter-input", "k": 3, "K": doc["K"]})


def test_audit_document_shape():
    s = run_schedule(K3, gen_tuples(2, 4, seed=2))
    doc = json.loads(doc_bytes(audit_to_doc(s, seed=2)))
    assert doc["kind"] == "shutter-audit"
    assert doc["steps"] == 3
    assert len(doc["records"]) == 4
    assert doc["seed"] == 2
    assert doc["b0_size"] == 2
    assert doc["records"][0]["step"] == 0
    assert all(r["viewer_absent"] for r in doc["records"])
    assert len(doc["a_final"]) == doc["records"][-1]["a_size"]


def test_read_doc_errors(tmp_path):
    with pytest.raises(DocumentError):
        read_doc(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(DocumentError):
        read_doc(str(bad))
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    with pytest.raises(DocumentError):
        read_doc(str(arr))
