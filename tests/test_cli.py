"""End-to-end command tests, run in process through cli.main(argv).

Exit-code contract: 0 all checks pass, 1 a mathematical claim failed,
2 usage or input error. The verify path exercises the full round trip:
gen writes a document, verify reads only that document.
"""

import contextlib
import copy
import io
import json
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vislink.cli import main
from vislink.complexes import intersection_fold
from vislink.construct import build_family, make_polygon
from vislink.docio import (
    construction_from_doc,
    construction_to_doc,
    read_doc,
    shutter_input_to_doc,
    write_doc,
)
from vislink.kernel import parse_rat, point, point_from_key, point_str, rat_str

K3 = (point(-1, -1), point(0, -2), point(1, -1))


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture()
def s22(tmp_path):
    path = str(tmp_path / "s22.json")
    assert run("gen", "--k", 2, "--n", 2, "--seed", 7, "--out", path) == 0
    return path


# ---------------------------------------------------------------------------
# gen


def test_gen_document_and_figure(tmp_path):
    doc_path = str(tmp_path / "c.json")
    svg_path = str(tmp_path / "c.svg")
    assert run("gen", "--k", 2, "--seed", 7, "--out", doc_path, "--svg-out", svg_path) == 0
    doc = read_doc(doc_path)
    assert doc["kind"] == "construction"
    assert doc["k"] == 2 and doc["n"] == 2 and doc["seed"] == 7
    assert len(doc["segments"]) == 6  # the hexagon
    svg = Path(svg_path).read_text()
    assert svg.startswith("<svg") and svg.count("<line") == 6


def test_gen_writes_stdout_without_out_flag(capsys):
    assert run("gen", "--k", 2, "--seed", 1) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "construction"


def test_gen_rejects_bad_parameters(tmp_path, capsys):
    out = str(tmp_path / "x.json")
    assert "k must be >= 2, got 1" in _one_line_usage_error(
        capsys, "gen", "--k", 1, "--out", out
    )
    assert "n must be >= 2, got 1" in _one_line_usage_error(
        capsys, "gen", "--k", 3, "--n", 1, "--out", out
    )


# ---------------------------------------------------------------------------
# verify


def test_verify_round_trip(s22, tmp_path):
    report = str(tmp_path / "report.json")
    assert run("verify", "--in", s22, "--tuples", 25, "--out", report) == 0
    doc = read_doc(report)
    assert doc["kind"] == "verify-report"
    assert doc["tuples_checked"] == 25
    assert doc["formula_failures"] == 0
    assert doc["no_common_viewer"]["final_empty"] is True
    assert all(w["method"] == "proof-formula" for w in doc["witnesses"])


def test_verify_larger_instance(tmp_path):
    path = str(tmp_path / "s43.json")
    assert run("gen", "--k", 3, "--n", 4, "--seed", 2, "--out", path) == 0
    assert run("verify", "--in", path, "--tuples", 10) == 0


def test_verify_drop_control(s22, tmp_path):
    report = str(tmp_path / "drop.json")
    for i in range(3):
        assert run("verify", "--in", s22, "--drop-target", i, "--out", report) == 0
        doc = read_doc(report)
        assert doc["kind"] == "drop-control-report"
        assert doc["nonempty"] is True
    assert run("verify", "--in", s22, "--drop-target", 99) == 2


def test_verify_drop_control_fails_on_an_empty_fold(s22, tmp_path, monkeypatch, capsys):
    # a control that drops no target folds every region, which is empty on
    # a valid family: the control claim fails with one line, and the
    # report written records the empty fold
    from vislink import cli, verify

    monkeypatch.setattr(
        cli, "verify_targets_blocked", lambda c, drop_index: verify.verify_targets_blocked(c)
    )
    report = tmp_path / "drop.json"
    capsys.readouterr()
    assert run("verify", "--in", s22, "--drop-target", 1, "--out", report) == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert lines == ["verify: control FAILED, intersection empty without target 1"]
    assert read_doc(str(report))["nonempty"] is False


def test_verify_tuples_from_document(s22, tmp_path):
    from vislink.docio import construction_from_doc
    from vislink.verify import sample_tuples

    c = construction_from_doc(read_doc(s22))
    ts = sample_tuples(c.complex, c.k, 4, seed=9)
    tdoc = {
        "schema": "1",
        "kind": "tuple-input",
        "tuples": [
            [[f"{p.x.numerator}/{p.x.denominator}", f"{p.y.numerator}/{p.y.denominator}"] for p in t]
            for t in ts
        ],
    }
    tpath = str(tmp_path / "tuples.json")
    write_doc(tpath, tdoc)
    assert run("verify", "--in", s22, "--tuples", tpath) == 0


def test_verify_corrupted_document_fails(s22, tmp_path, capsys):
    doc = read_doc(s22)
    a2, b0 = doc["polygon"][4], doc["polygon"][1]
    doc["segments"].append(sorted([a2, b0]))  # re-add a removed diagonal
    bad = str(tmp_path / "corrupt.json")
    write_doc(bad, doc)
    capsys.readouterr()
    assert run("verify", "--in", bad, "--tuples", 5) == 1
    err = capsys.readouterr().err
    # the message names the least point of the common region: the least
    # isolated point or first endpoint of a kept segment, as Points
    c = construction_from_doc(read_doc(bad))
    final = intersection_fold(c.complex, c.target_regions)[-1]
    firsts = [point_from_key(v) for v in final.points]
    firsts += [c.complex.maximal_segments[i].p for i in final.segments]
    assert f"common 2-link viewer: {point_str(min(firsts))}\n" in err
    assert "Fraction(" not in err


def test_formula_miss_fails_the_claim_without_a_report(s22, tmp_path, capsys):
    # the first maximal segment cut at its midpoint: some sampled tuples
    # leave the formula witness's reach, and every tuple count gives the
    # same one-line claim failure and writes no report
    doc = read_doc(s22)
    p, q = doc["segments"][0]
    doc["segments"][0] = [
        p, [rat_str((parse_rat(a) + parse_rat(b)) / 2) for a, b in zip(p, q)]
    ]
    bad = str(tmp_path / "cut.json")
    write_doc(bad, doc)
    for count in (10, 20):
        out = tmp_path / f"report{count}.json"
        capsys.readouterr()
        assert run("verify", "--in", bad, "--tuples", count, "--out", out) == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("verify: claim failed: formula witness a_")
        assert "Fraction(" not in lines[0]
        assert not out.exists()


def test_path_through_overlapping_segments_is_a_claim_failure(
    s12, monkeypatch, capsys
):
    # two maximal segments of a normalized complex meet in at most one
    # point; a kernel reporting an overlap where a path bends must fail the
    # claim with one line, not escape as a traceback
    from types import SimpleNamespace

    from vislink import _pure, links

    overlapping = SimpleNamespace(**vars(_pure))
    overlapping.line_meet = lambda l1, l2: (2, None)
    monkeypatch.setattr(links, "_k", overlapping)
    capsys.readouterr()
    assert run("verify", "--in", s12, "--tuples", 20) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1
    assert "claim failed" in lines[0] and "single point" in lines[0]


def test_verify_malformed_inputs(s22, tmp_path):
    assert run("verify", "--in", str(tmp_path / "missing.json")) == 2
    doc = read_doc(s22)
    doc["schema"] = "9"
    bad = str(tmp_path / "bad.json")
    write_doc(bad, doc)
    assert run("verify", "--in", bad) == 2
    (tmp_path / "trash.json").write_text("{")
    assert run("verify", "--in", str(tmp_path / "trash.json")) == 2
    assert run("verify", "--in", s22, "--tuples", "-3") == 2


def test_covered_listed_segment_is_a_usage_error(s22, tmp_path, capsys):
    doc = read_doc(s22)
    (px, py), (qx, qy) = (map(parse_rat, v) for v in doc["segments"][0])
    half = [rat_str((px + qx) / 2), rat_str((py + qy) / 2)]
    doc["segments"].append([doc["segments"][0][0], half])
    bad = str(tmp_path / "covered.json")
    write_doc(bad, doc)
    svg = str(tmp_path / "fig.svg")
    for argv in (("verify", "--in", bad), ("render", "--in", bad, "--svg-out", svg)):
        capsys.readouterr()
        assert run(*argv) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and "listed segment" in lines[0]
    assert not os.path.exists(svg)


def test_verify_rejects_non_integer_seed(s22, tmp_path, capsys):
    doc = read_doc(s22)
    doc["seed"] = "x"
    bad = str(tmp_path / "bad-seed.json")
    write_doc(bad, doc)
    capsys.readouterr()
    assert run("verify", "--in", bad, "--tuples", 5) == 2
    assert "seed must be an integer" in capsys.readouterr().err


def test_verify_rejects_malformed_tuple_document(s22, tmp_path, capsys):
    tpath = str(tmp_path / "tuples.json")
    for tuples in (5, [5], None):
        write_doc(tpath, {"schema": "1", "kind": "tuple-input", "tuples": tuples})
        capsys.readouterr()
        assert run("verify", "--in", s22, "--tuples", tpath) == 2
        assert "tuples must be a list of point lists" in capsys.readouterr().err
    write_doc(tpath, {"schema": "1", "kind": "construction", "tuples": []})
    assert run("verify", "--in", s22, "--tuples", tpath) == 2


@pytest.fixture()
def s12(tmp_path):
    path = str(tmp_path / "s12.json")
    assert run("gen", "--k", 2, "--n", 2, "--seed", 1, "--out", path) == 0
    return path


def _edited(path, tmp_path, key, value):
    doc = read_doc(path)
    doc[key] = value
    bad = str(tmp_path / f"bad-{key}.json")
    write_doc(bad, doc)
    return bad


def _one_line_usage_error(capsys, *argv):
    capsys.readouterr()
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    return err


def test_verify_rejects_non_list_fans(s12, tmp_path, capsys):
    bad = _edited(s12, tmp_path, "fans", 5)
    assert "fans must be a list" in _one_line_usage_error(
        capsys, "verify", "--in", bad, "--tuples", 5
    )


def test_verify_rejects_null_polygon(s12, tmp_path, capsys):
    bad = _edited(s12, tmp_path, "polygon", None)
    assert "polygon must be a list" in _one_line_usage_error(
        capsys, "verify", "--in", bad, "--tuples", 5
    )


def test_verify_rejects_non_list_gamma(s12, tmp_path, capsys):
    bad = _edited(s12, tmp_path, "gamma", 3)
    assert "gamma must be a list" in _one_line_usage_error(
        capsys, "verify", "--in", bad, "--tuples", 5
    )


@pytest.mark.parametrize(
    "edit",
    [lambda v: v[::-1], lambda v: [v[1], v[0]] + v[2:]],
    ids=["counterclockwise", "vertices-0-1-swapped"],
)
def test_verify_rejects_a_polygon_that_is_not_clockwise_convex(
    tmp_path, capsys, edit
):
    # PolygonSpec refuses such a polygon; read from a document it is an
    # input error, not a failed claim
    path = str(tmp_path / "doc.json")
    assert run("gen", "--k", 3, "--seed", 7, "--out", path) == 0
    bad = _edited(path, tmp_path, "polygon", edit(read_doc(path)["polygon"]))
    assert (
        "polygon is not strictly convex clockwise: vertex 2 is not strictly "
        "right of edge 0"
        in _one_line_usage_error(capsys, "verify", "--in", bad, "--tuples", 5)
    )


@pytest.mark.parametrize(
    "edit, count", [(lambda v: v[:-1], 7), (lambda v: v + v[:2], 10)]
)
def test_verify_rejects_a_polygon_with_the_wrong_vertex_count(
    tmp_path, capsys, edit, count
):
    # PolygonSpec names the counts; the reader reports them as a usage error
    path = str(tmp_path / "doc.json")
    assert run("gen", "--k", 3, "--seed", 7, "--out", path) == 0
    bad = _edited(path, tmp_path, "polygon", edit(read_doc(path)["polygon"]))
    assert f"k=3 needs 8 vertices, got {count}" in _one_line_usage_error(
        capsys, "verify", "--in", bad, "--tuples", 5
    )


@pytest.mark.parametrize(
    "k, n, edited_n, tail_length",
    [(2, 3, 2, 2), (2, 3, 4, 2), (2, 2, 3, 0)],
)
def test_verify_rejects_tails_that_disagree_with_n(
    tmp_path, capsys, k, n, edited_n, tail_length
):
    # an n = 2 document has no tails, an n > 2 one k+1 tails of n-1 points
    path = str(tmp_path / "doc.json")
    assert run("gen", "--k", k, "--n", n, "--seed", 1, "--out", path) == 0
    bad = _edited(path, tmp_path, "n", edited_n)
    want = edited_n - 1 if edited_n > 2 else 0
    assert (
        f"tails at n={edited_n} need {want} points each, got {tail_length}"
        in _one_line_usage_error(capsys, "verify", "--in", bad, "--tuples", 5)
    )


def test_verify_rejects_non_list_marked_points(s12, tmp_path, capsys):
    bad = _edited(s12, tmp_path, "c", 7)
    assert "c must be a list" in _one_line_usage_error(
        capsys, "verify", "--in", bad, "--tuples", 5
    )


@pytest.mark.parametrize("value", ["--5", "²"])
def test_verify_reads_a_non_count_tuples_value_as_a_path(s12, capsys, value):
    # "²" passes str.isdigit but not int(); every such value names a
    # tuple document, here a missing one
    _one_line_usage_error(capsys, "verify", "--in", s12, f"--tuples={value}")


# ---------------------------------------------------------------------------
# shutter


def test_shutter_seeded_run(tmp_path):
    audit = str(tmp_path / "audit.json")
    assert run("shutter", "--k", 2, "--steps", 8, "--seed", 7, "--out", audit) == 0
    doc = read_doc(audit)
    assert doc["kind"] == "shutter-audit"
    assert doc["steps"] == 8
    assert len(doc["records"]) == 9
    assert all(r["viewer_absent"] for r in doc["records"])


@pytest.mark.parametrize(
    "name, stub, message",
    [
        ("verify_history", lambda state: False,
         "shutter: a historical witness no longer verifies"),
        ("find_common_viewer", lambda state: point(0, 1),
         f"shutter: final cross-check found {point_str(point(0, 1))} seeing "
         "all of K via A"),
    ],
)
def test_shutter_final_checks_fail_the_claim(name, stub, message, tmp_path, monkeypatch, capsys):
    from vislink import cli

    monkeypatch.setattr(cli, name, stub)
    audit = tmp_path / "audit.json"
    capsys.readouterr()
    assert run("shutter", "--k", 2, "--steps", 3, "--seed", 7, "--out", audit) == 1
    assert capsys.readouterr().err.strip().splitlines() == [message]
    assert not audit.exists()


def test_shutter_init_only_from_document(tmp_path):
    path = str(tmp_path / "input.json")
    write_doc(path, shutter_input_to_doc(K3, [(point(-1, -3), point(2, -1))]))
    audit = str(tmp_path / "audit.json")
    assert run("shutter", "--in", path, "--steps", 0, "--out", audit) == 0
    doc = read_doc(audit)
    assert doc["steps"] == 0
    assert len(doc["records"]) == 1


def test_shutter_upper_point_is_usage_error(tmp_path):
    path = str(tmp_path / "input.json")
    bad = (point(-1, -1), point(0, -2), point(1, 1))
    write_doc(path, shutter_input_to_doc(bad))
    assert run("shutter", "--in", path) == 2


def test_shutter_rejects_non_list_k_set(tmp_path, capsys):
    path = str(tmp_path / "input.json")
    write_doc(path, shutter_input_to_doc(K3))
    bad = _edited(path, tmp_path, "K", 5)
    assert "K must be a list" in _one_line_usage_error(
        capsys, "shutter", "--in", bad
    )


def test_shutter_rejects_non_list_tuples(tmp_path, capsys):
    path = str(tmp_path / "input.json")
    write_doc(path, shutter_input_to_doc(K3, [(point(-1, -3), point(2, -1))]))
    bad = _edited(path, tmp_path, "tuples", 5)
    assert "tuples must be a list of point lists" in _one_line_usage_error(
        capsys, "shutter", "--in", bad
    )


def test_shutter_requires_k_or_input(capsys):
    assert run("shutter") == 2
    assert "k must be >= 2, got 1" in _one_line_usage_error(capsys, "shutter", "--k", 1)
    assert run("shutter", "--k", 2, "--steps", -1) == 2


def test_shutter_input_and_k_are_exclusive(tmp_path, capsys):
    # K comes from the document or from --k, never both
    path = str(tmp_path / "input.json")
    write_doc(path, shutter_input_to_doc(K3, [(point(-1, -3), point(2, -1))]))
    capsys.readouterr()
    assert run("shutter", "--in", path, "--k", 5) == 2
    assert "not allowed with argument" in capsys.readouterr().err


def test_shutter_steps_must_match_the_input_schedule(tmp_path, capsys):
    # a document's tuple schedule fixes the step count; a --steps that
    # disagrees is a usage error, not silently dropped
    path = str(tmp_path / "input.json")
    tuples = [(point(-1, -3), point(2, -1)), (point(3, -2), point(-2, -5))]
    write_doc(path, shutter_input_to_doc(K3, tuples))
    assert "does not match the 2 tuples of --in" in _one_line_usage_error(
        capsys, "shutter", "--in", path, "--steps", 7
    )
    assert run("shutter", "--in", path, "--steps", 1) == 0
    assert run("shutter", "--in", path) == 0


def test_shutter_input_checks_steps(tmp_path, capsys):
    # with --in as with --k, a negative --steps is a usage error of its own
    path = str(tmp_path / "input.json")
    write_doc(path, shutter_input_to_doc(K3))
    assert "--steps must be >= 0" in _one_line_usage_error(
        capsys, "shutter", "--in", path, "--steps", -1
    )


# ---------------------------------------------------------------------------
# render


def test_render_from_document(s22, tmp_path):
    svg = str(tmp_path / "fig.svg")
    assert run("render", "--in", s22, "--svg-out", svg) == 0
    text = Path(svg).read_text()
    assert text.count("<line") == 6
    assert ">a0<" in text and ">b2<" in text


def test_render_draws_a_segment_on_no_piece(s22, tmp_path):
    doc = read_doc(s22)
    a2, b0 = doc["polygon"][4], doc["polygon"][1]
    doc["segments"].append(sorted([a2, b0]))  # as in the corruption control
    bad = str(tmp_path / "corrupt.json")
    write_doc(bad, doc)
    svg = str(tmp_path / "fig.svg")
    assert run("render", "--in", bad, "--svg-out", svg) == 0
    assert Path(svg).read_text().count("<line") == len(doc["segments"]) == 7


def test_render_colours_a_shared_segment_by_its_least_fan(tmp_path):
    # verify assigns a segment listed in two fans to the lesser one; the
    # figure must draw it in that fan's colour
    from vislink.complexes import segment_index
    from vislink.docio import segment_from_doc
    from vislink.render import PALETTE

    path = str(tmp_path / "s3.json")
    assert run("gen", "--k", 3, "--seed", 7, "--out", path) == 0
    doc = read_doc(path)
    shared, own = doc["fans"][1][:2]
    doc["fans"][0].append(shared)
    edited = str(tmp_path / "shared.json")
    write_doc(edited, doc)
    svg = str(tmp_path / "fig.svg")
    assert run("render", "--in", edited, "--svg-out", svg) == 0
    lines = [t for t in Path(svg).read_text().splitlines() if t.startswith("<line")]
    C = construction_from_doc(doc).complex
    for j, colour in ((shared, PALETTE[0]), (own, PALETTE[1])):
        m = segment_index(C, segment_from_doc(doc["segments"][j]))
        assert f'stroke="{colour}"' in lines[m]


def test_render_malformed_input(tmp_path):
    assert run("render", "--in", str(tmp_path / "nope.json"), "--svg-out", str(tmp_path / "x.svg")) == 2


def test_render_rejects_a_coordinate_too_large_for_a_float(s22, tmp_path, capsys):
    # c only marks the edge midpoints, so verify still passes; drawing the
    # mark needs a float, which must fail as bad input and leave no file.
    # 10^306 fits a float, but its position in the figure does not
    for zeros in (400, 306):
        doc = read_doc(s22)
        doc["c"][0] = ["1" + "0" * zeros + "/1", "0/1"]
        bad = str(tmp_path / "huge.json")
        write_doc(bad, doc)
        assert run("verify", "--in", bad, "--tuples", 5) == 0
        svg = tmp_path / "fig.svg"
        err = _one_line_usage_error(capsys, "render", "--in", bad, "--svg-out", svg)
        assert "too large to draw" in err
        assert not svg.exists()


def test_deeply_nested_json_is_a_usage_error(s22, tmp_path, capsys):
    # json's decoder recurses once per level and gives up near 1000 levels
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 1500 + "]" * 1500)
    for argv in (
        ("verify", "--in", deep),
        ("verify", "--in", s22, "--tuples", deep),
        ("shutter", "--in", deep),
        ("render", "--in", deep, "--svg-out", tmp_path / "fig.svg"),
    ):
        assert "nests too deeply" in _one_line_usage_error(capsys, *argv)


# ---------------------------------------------------------------------------
# usage and determinism


@pytest.mark.parametrize(
    "argv",
    [
        ("gen", "--k", 2, "--seed", 1, "--out", "{bad}"),
        ("gen", "--k", 2, "--seed", 1, "--out", "{ok}", "--svg-out", "{bad}"),
        ("verify", "--in", "{s12}", "--tuples", 3, "--out", "{bad}"),
        ("verify", "--in", "{s12}", "--drop-target", 0, "--out", "{bad}"),
        ("shutter", "--k", 2, "--steps", 2, "--out", "{bad}"),
        ("render", "--in", "{s12}", "--svg-out", "{bad}"),
    ],
)
def test_unwritable_output_is_a_usage_error(argv, s12, tmp_path, capsys):
    paths = {
        "bad": str(tmp_path / "no-such-dir" / "out"),
        "ok": str(tmp_path / "ok.json"),
        "s12": s12,
    }
    argv = [str(a).format(**paths) for a in argv]
    assert paths["bad"] in _one_line_usage_error(capsys, *argv)
    # a failed gen leaves no document behind its unwritable figure
    assert not os.path.exists(paths["ok"])


def test_usage_errors():
    assert run() == 2
    assert run("frobnicate") == 2
    assert run("gen") == 2  # --k required


def test_messages_print_points_as_rationals(s22, tmp_path, capsys):
    # an error that names a point prints it as (p/q, p/q), not as a repr
    off = ["7/3", "100/1"]
    doc = read_doc(s22)
    tuples = {"schema": "1", "kind": "tuple-input", "tuples": [[off, doc["e"][0]]]}
    moved = copy.deepcopy(doc)
    moved["e"][0] = off
    p = doc["segments"][0][0]
    degenerate = copy.deepcopy(doc)
    degenerate["segments"].append([p, p])
    K = (point(-1, -1), point(*map(parse_rat, off)), point(1, -1))
    cases = []
    for name, d in (
        ("tuples", tuples),
        ("moved", moved),
        ("degenerate", degenerate),
        ("K", shutter_input_to_doc(K)),
    ):
        path = str(tmp_path / f"{name}.json")
        write_doc(path, d)
        cases.append(path)
    for argv, named in (
        (("verify", "--in", s22, "--tuples", cases[0]), off),
        (("verify", "--in", cases[1]), off),
        (("verify", "--in", cases[2]), p),
        (("shutter", "--in", cases[3]), off),
    ):
        err = _one_line_usage_error(capsys, *argv)
        assert "Fraction(" not in err and f"({named[0]}, {named[1]})" in err, err


def test_byte_determinism(tmp_path):
    pairs = []
    for tag in ("one", "two"):
        doc = str(tmp_path / f"c-{tag}.json")
        svg = str(tmp_path / f"c-{tag}.svg")
        rep = str(tmp_path / f"r-{tag}.json")
        audit = str(tmp_path / f"a-{tag}.json")
        assert run("gen", "--k", 3, "--n", 3, "--seed", 11, "--out", doc, "--svg-out", svg) == 0
        assert run("verify", "--in", doc, "--tuples", 5, "--out", rep) == 0
        assert run("shutter", "--k", 2, "--steps", 5, "--seed", 11, "--out", audit) == 0
        pairs.append((doc, svg, rep, audit))
    for a, b in zip(*pairs):
        assert Path(a).read_bytes() == Path(b).read_bytes()


# ---------------------------------------------------------------------------
# mutated input documents: a usage error or a verdict, never a crash

# what `gen --k 2 --n 2 --seed 1` writes, and a two-tuple shutter input
CONSTRUCTION_DOC = construction_to_doc(build_family(make_polygon(2, 1), 2))
SHUTTER_DOC = shutter_input_to_doc(
    K3, [(point(-1, -3), point(2, -1)), (point(3, -2), point(-2, -5))]
)
OTHER_VALUES = (None, 5, -1, True, 2.5, "x", "1/0", [], {})


@st.composite
def mutated(draw, doc):
    """doc with one node deleted, swapped for another type, nested in a
    list, or (for a list) truncated. The node is found by a random walk
    from the root; the root itself only loses a key."""
    doc = copy.deepcopy(doc)
    parent, key, node = None, None, doc
    while isinstance(node, (dict, list)) and node:
        if parent is not None and draw(st.booleans()):
            break
        keys = sorted(node) if isinstance(node, dict) else range(len(node))
        parent, key = node, draw(st.sampled_from(keys))
        node = parent[key]
    op = draw(st.sampled_from(("delete", "swap", "nest", "truncate")))
    if op == "delete":
        del parent[key]
    elif op == "swap":
        parent[key] = draw(
            st.sampled_from([v for v in OTHER_VALUES if type(v) is not type(node)])
        )
    elif op == "nest":
        parent[key] = [node]
    elif isinstance(node, list) and node:
        parent[key] = node[: draw(st.integers(0, len(node) - 1))]
    else:
        del parent[key]
    return doc


def _run_on(doc, *argv):
    """Exit code and stderr of one in-process command on doc as --in.
    json.dump writes the file, since a mutation can put a float into doc,
    which vislink's own writer refuses."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "in.json")
        with open(path, "w") as f:
            json.dump(doc, f)
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main([argv[0], "--in", path, *argv[1:]])
    return code, err.getvalue()


@settings(max_examples=150, deadline=None)
@given(mutated(CONSTRUCTION_DOC))
def test_verify_survives_mutated_documents(doc):
    code, err = _run_on(doc, "verify", "--tuples", "2")
    assert code in (0, 2), err
    assert "Traceback" not in err


@settings(max_examples=150, deadline=None)
@given(mutated(SHUTTER_DOC))
def test_shutter_survives_mutated_documents(doc):
    code, err = _run_on(doc, "shutter", "--steps", "1")
    assert code in (0, 2), err
    assert "Traceback" not in err
