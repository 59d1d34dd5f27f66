"""Structured-text documents: constructions, reports, audit logs.

Every artifact is a JSON object with a "schema" version field and all
coordinates as canonical rational strings "p/q". Serialization is
canonical (sorted keys, fixed separators, trailing newline), so identical
inputs produce byte-identical files; the determinism tests rely on this.

A document is plain data (dicts with str keys, lists, tuples, str, int,
bool and None) plus three record types, held as the package made them:
a report's WitnessReports and EmptinessReport, and an audit log's
StepRecords. doc_bytes is the one writer, with a byte contract: it
returns exactly
json.dumps(ref, sort_keys=True, separators=(",", ": "), indent=1) + "\n"
encoded as ASCII, where ref is the document with each record replaced by
its reference form (the dict trees in tests/oracles.py); strings are
escaped by json's encode_basestring_ascii, empty containers are [] and
{}, and a float, a non-str key or any other type raises TypeError.

_parts writes the plain data (a construction, a header, an input),
joining a whole list of strings in one call, and hands each record to
its template, which writes it from the record's own fields with no dict
tree between. A point is written from its integer key: the point with
key (xn, xd, yn, yd) is ["xn/xd", "yn/yd"], the strings rat_str gives.
A report's paths and regions repeat the same few sources and bends, so
each key's text is formatted once per document and depth, through a
memo keyed on the integer key. An audit log's crossings are canonical
scalars: the axis point with abscissa (n, d) is ["n/d", "0/1"], and
each list of them is one %-format.

The text comes in pieces, one per record (one per region of a fold):
doc_bytes joins them, and write_doc writes them as they come, so a file
never needs the whole text in memory (a 200-step k=3 audit log is about
32 MB; its largest record, about 0.3 MB). A write that fails partway
removes the file.

Readers validate shape and reconstruct full domain objects from the
serialized geometry alone. A construction document carries its complex
explicitly, so a reader never re-derives geometry from the embedded seed;
hand edits (for corruption controls) therefore take effect, and the
verify round-trip proves the format is complete.
"""

from __future__ import annotations

import contextlib
import json
import os
from itertools import chain
from json.encoder import encode_basestring_ascii as _quote
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from .complexes import Key, OneSet, SegmentComplex, normalize, segment_index
from .construct import Construction, PolygonSpec
from .kernel import GeometryError, Point, Segment, parse_rat, rat_str
from .shutter import Scalar, ShutterState, StepRecord
from .verify import EmptinessReport, WitnessReport

SCHEMA_VERSION = "1"


class DocumentError(GeometryError):
    """Malformed or inconsistent document (usage error, not a math failure)."""


# ---------------------------------------------------------------------------
# primitives


def point_to_doc(p: Point) -> List[str]:
    return [rat_str(p.x), rat_str(p.y)]


def point_from_doc(v: Any) -> Point:
    if not isinstance(v, (list, tuple)) or len(v) != 2:
        raise DocumentError(f"point must be a [x, y] pair, got {v!r}")
    try:
        return Point(parse_rat(v[0]), parse_rat(v[1]))
    except (ValueError, TypeError, ZeroDivisionError, AttributeError) as e:
        raise DocumentError(f"bad rational in point {v!r}: {e}") from None


def segment_to_doc(s: Segment) -> List[List[str]]:
    return [point_to_doc(s.p), point_to_doc(s.q)]


def segment_from_doc(v: Any) -> Segment:
    if not isinstance(v, (list, tuple)) or len(v) != 2:
        raise DocumentError(f"segment must be a [p, q] pair, got {v!r}")
    try:
        return Segment(point_from_doc(v[0]), point_from_doc(v[1]))
    except GeometryError as e:
        if isinstance(e, DocumentError):
            raise
        raise DocumentError(str(e)) from None


def _key_doc(k: Key) -> List[str]:
    """point_to_doc of the point with key k: a key is reduced with a
    positive denominator, as rat_str writes."""
    xn, xd, yn, yd = k
    return [f"{xn}/{xd}", f"{yn}/{yd}"]


# ---------------------------------------------------------------------------
# construction documents


def construction_to_doc(c: Construction) -> Dict[str, Any]:
    return {
        "schema": SCHEMA_VERSION,
        "kind": "construction",
        "k": c.k,
        "n": c.n,
        "kappa": c.polygon.kappa,
        "seed": c.polygon.seed,
        "retry_count": c.polygon.retry_count,
        "polygon": [point_to_doc(p) for p in c.polygon.vertices],
        "segments": [list(map(_key_doc, ks)) for ks in c.complex.keys],
        "fans": [list(g) for g in c.B],
        "c": [point_to_doc(p) for p in c.c],
        "gamma": [[point_to_doc(p) for p in t] for t in c.gamma],
        "e": [point_to_doc(p) for p in c.e],
    }


def _need(doc: Dict[str, Any], key: str) -> Any:
    if key not in doc:
        raise DocumentError(f"missing document field {key!r}")
    return doc[key]


def _check_schema(doc: Any, kind: str) -> Dict[str, Any]:
    if not isinstance(doc, dict):
        raise DocumentError("document must be a JSON object")
    if _need(doc, "schema") != SCHEMA_VERSION:
        raise DocumentError(f"unsupported schema {doc.get('schema')!r}")
    if _need(doc, "kind") != kind:
        raise DocumentError(f"expected a {kind} document, got {doc.get('kind')!r}")
    return doc


def _is_int(v: Any) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _list_field(doc: Dict[str, Any], key: str) -> List[Any]:
    v = _need(doc, key)
    if not isinstance(v, list):
        raise DocumentError(f"{key} must be a list, got {type(v).__name__}")
    return v


def _nested_list_field(doc: Dict[str, Any], key: str, what: str) -> List[List[Any]]:
    v = _need(doc, key)
    if not isinstance(v, list) or not all(isinstance(t, list) for t in v):
        raise DocumentError(f"{key} must be a list of {what}")
    return v


def construction_from_doc(doc: Any) -> Construction:
    """Rebuild a Construction from its serialized geometry.

    The complex is re-normalized from the listed segments; a document
    whose listed segments or tail edges are not maximal in it (merged or
    covered by another) is rejected, and fan indices are remapped. So is
    one whose polygon PolygonSpec refuses (k < 2, a vertex count other
    than 2k+2, or a cycle that is not clockwise and strictly convex), and
    one whose tails disagree with its n: none at n = 2, k+1 tails of n-1
    points each at n > 2.
    """
    _check_schema(doc, "construction")
    k = _need(doc, "k")
    n = _need(doc, "n")
    if not (_is_int(k) and _is_int(n) and n >= 2):
        raise DocumentError(f"bad parameters k={k!r} n={n!r}")
    vertices = tuple(point_from_doc(v) for v in _list_field(doc, "polygon"))
    kappa = _need(doc, "kappa")  # written for readers; fixed by k
    if not _is_int(kappa) or kappa != k // 2:
        raise DocumentError(f"kappa must be {k // 2}, got {kappa!r}")
    seed = _need(doc, "seed")
    if not _is_int(seed):
        raise DocumentError(f"seed must be an integer, got {seed!r}")
    retry_count = _need(doc, "retry_count")
    if not (_is_int(retry_count) and retry_count >= 0):
        raise DocumentError(
            f"retry_count must be a non-negative integer, got {retry_count!r}"
        )
    try:
        poly = PolygonSpec(
            k=k, vertices=vertices, seed=seed, retry_count=retry_count
        )
    except GeometryError as exc:
        raise DocumentError(str(exc)) from None
    listed = [segment_from_doc(v) for v in _list_field(doc, "segments")]
    if not listed:
        raise DocumentError("construction document lists no segments")
    complex_ = normalize(listed)
    named = [segment_index(complex_, s) for s in listed]
    if None in named:
        s = segment_to_doc(listed[named.index(None)])
        raise DocumentError(f"listed segment {s} is not maximal in the listed complex")
    fans_doc = _nested_list_field(doc, "fans", "index lists")
    if len(fans_doc) != k + 1:
        raise DocumentError(f"need {k + 1} fans, got {len(fans_doc)}")
    fans: List[Tuple[int, ...]] = []
    for g in fans_doc:
        for j in g:
            if not _is_int(j) or not 0 <= j < len(listed):
                raise DocumentError(f"fan index {j!r} out of range")
        fans.append(tuple(sorted(named[j] for j in g)))
    mids = tuple(point_from_doc(v) for v in _list_field(doc, "c"))
    gamma = tuple(
        tuple(point_from_doc(v) for v in t)
        for t in _nested_list_field(doc, "gamma", "point lists")
    )
    e = tuple(point_from_doc(v) for v in _list_field(doc, "e"))
    if len(mids) != k + 1 or len(e) != k + 1:
        raise DocumentError("need k+1 marked points and k+1 targets")
    if gamma and len(gamma) != k + 1:
        raise DocumentError("tails must be absent or one per fan")
    for t in gamma:
        for p, q in zip(t, t[1:]):
            if p == q or segment_index(complex_, Segment(p, q)) is None:
                raise DocumentError(
                    f"tail segment {point_to_doc(p)}-{point_to_doc(q)} is "
                    "not maximal in the listed complex"
                )
    # n = 2 has no tails; n > 2 has k+1 tails, each of n-1 points
    want = n - 1 if n > 2 else 0
    for t in gamma or ((),):
        if len(t) != want:
            raise DocumentError(
                f"tails at n={n} need {want} points each, got {len(t)}"
            )
    return Construction(
        n=n, k=k, polygon=poly, complex=complex_, B=tuple(fans),
        c=mids, gamma=gamma, e=e,
    )


# ---------------------------------------------------------------------------
# tuple-input documents


def _tuples_field(doc: Dict[str, Any]) -> List[Tuple[Point, ...]]:
    return [
        tuple(point_from_doc(v) for v in t)
        for t in _nested_list_field(doc, "tuples", "point lists")
    ]


def tuples_from_doc(doc: Any) -> List[Tuple[Point, ...]]:
    """The point tuples of a tuple-input document."""
    _check_schema(doc, "tuple-input")
    return _tuples_field(doc)


# ---------------------------------------------------------------------------
# report documents


def verify_report_doc(
    k: int,
    n: int,
    seed: int,
    emptiness: EmptinessReport,
    witnesses: Sequence[WitnessReport],
) -> Dict[str, Any]:
    return {
        "schema": SCHEMA_VERSION,
        "kind": "verify-report",
        "k": k,
        "n": n,
        "seed": seed,
        "no_common_viewer": emptiness,
        "tuples_checked": len(witnesses),
        "formula_failures": 0,  # a formula miss raises; no report is written
        "witnesses": list(witnesses),
    }


def drop_control_doc(
    k: int, n: int, dropped: int, report: EmptinessReport
) -> Dict[str, Any]:
    """The positive control: the fold of every target but `dropped`."""
    return {
        "schema": SCHEMA_VERSION,
        "kind": "drop-control-report",
        "k": k,
        "n": n,
        "dropped_target": dropped,
        "report": report,
        "nonempty": not report.final.is_empty(),
    }


# ---------------------------------------------------------------------------
# axis-screen documents


def shutter_input_to_doc(
    K: Sequence[Point], tuples: Optional[Sequence[Sequence[Point]]] = None
) -> Dict[str, Any]:
    doc: Dict[str, Any] = {
        "schema": SCHEMA_VERSION,
        "kind": "shutter-input",
        "k": len(K) - 1,
        "K": [point_to_doc(p) for p in K],
    }
    if tuples is not None:
        doc["tuples"] = [[point_to_doc(p) for p in t] for t in tuples]
    return doc


def shutter_input_from_doc(
    doc: Any,
) -> Tuple[Tuple[Point, ...], Optional[List[Tuple[Point, ...]]]]:
    _check_schema(doc, "shutter-input")
    K = tuple(point_from_doc(v) for v in _list_field(doc, "K"))
    k = _need(doc, "k")
    if not _is_int(k) or len(K) != k + 1:
        raise DocumentError(f"K size {len(K)} does not match k={k!r}")
    return K, _tuples_field(doc) if "tuples" in doc else None


def audit_to_doc(s: ShutterState, seed: int) -> Dict[str, Any]:
    return {
        "schema": SCHEMA_VERSION,
        "kind": "shutter-audit",
        "k": s.k,
        "K": [point_to_doc(p) for p in s.K],
        "steps": s.step,
        "b0_size": s.b0_size,
        "a_final": [_key_doc((n, d, 0, 1)) for n, d in s.a_scalars],
        "b_size_final": s.audit[-1].b_size,
        "records": list(s.audit),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# canonical bytes


def _point(k: Key, indent: str) -> str:
    """The point with key k as a list; `indent` precedes its closing
    bracket."""
    xn, xd, yn, yd = k
    inner = indent + " "
    return f'[{inner}"{xn}/{xd}",{inner}"{yn}/{yd}"{indent}]'


class _Memo(dict):
    """A document's vertex-key texts, by depth: memo[indent][k] is
    _point(k, indent), formatted on its first use."""

    def __missing__(self, indent: str) -> _PointTexts:
        texts = self[indent] = _PointTexts(indent)
        return texts


class _PointTexts(dict):
    def __init__(self, indent: str) -> None:
        super().__init__()
        self.indent = indent

    def __missing__(self, k: Key) -> str:
        text = self[k] = _point(k, self.indent)
        return text


def _items(texts: Sequence[str], indent: str) -> str:
    """A list of written items; `indent` precedes its closing bracket."""
    if not texts:
        return "[]"
    inner = indent + " "
    return "[" + inner + ("," + inner).join(texts) + indent + "]"


def _axis(scalars: Sequence[Scalar], indent: str) -> str:
    """The list of axis points with these canonical abscissae: the point
    with abscissa (n, d) is ["n/d", "0/1"], the strings rat_str gives.
    One %-format over the whole list: no string per point."""
    if not scalars:
        return "[]"
    i1 = indent + " "
    i2 = i1 + " "
    point = f'{i1}[{i2}"%d/%d",{i2}"0/1"{i1}]'
    return (
        "[" + ",".join([point] * len(scalars)) % tuple(chain.from_iterable(scalars))
        + indent + "]"
    )


def _witness_record(r: WitnessReport, indent: str, memo: _Memo) -> Iterator[str]:
    i1 = indent + " "
    i2 = i1 + " "
    i3 = i2 + " "
    vertex = memo[i3 + " "].__getitem__  # a path's vertices, one level deeper
    paths = _items(
        [
            f'{{{i3}"links": {c.links},{i3}"vertices": '
            f"{_items(list(map(vertex, c.keys)), i3)}{i2}}}"
            for c in r.paths
        ],
        i1,
    )
    points = memo[i2]
    tuple_ = _items([points[p.key] for p in r.tuple], i1)
    yield (
        f'{{{i1}"method": {_quote(r.method)},{i1}"paths": {paths},'
        f'{i1}"tuple": {tuple_},{i1}"witness": {memo[i1][r.witness.key]}'
        f"{indent}}}"
    )


def _region(C: SegmentComplex, s: OneSet, indent: str, memo: _Memo) -> str:
    """A OneSet: its vertices, and its segments as their end points."""
    i1 = indent + " "
    i2 = i1 + " "
    i3 = i2 + " "
    points = _items(list(map(memo[i2].__getitem__, s.points)), i1)
    ends = memo[i3]
    segments = _items(
        [
            f"[{i3}{ends[p]},{i3}{ends[q]}{i2}]"
            for p, q in map(C.keys.__getitem__, s.segments)
        ],
        i1,
    )
    return f'{{{i1}"points": {points},{i1}"segments": {segments}{indent}}}'


def _emptiness_record(
    r: EmptinessReport, indent: str, memo: _Memo
) -> Iterator[str]:
    """One piece per region: the fold can list many."""
    C = r.complex
    i1 = indent + " "
    targets = _items([memo[i1 + " "][p.key] for p in r.targets], i1)
    yield (
        f'{{{i1}"final": {_region(C, r.final, i1, memo)},'
        f'{i1}"final_empty": {"true" if r.final.is_empty() else "false"},'
        f'{i1}"intersection_trace": '
    )
    yield from _regions(C, r.intersection_trace, i1, memo)
    yield f',{i1}"n": {r.n},{i1}"per_target_regions": '
    yield from _regions(C, r.per_target_regions, i1, memo)
    yield f",{i1}\"targets\": {targets}{indent}}}"


def _regions(
    C: SegmentComplex, regions: Sequence[OneSet], indent: str, memo: _Memo
) -> Iterator[str]:
    if not regions:
        yield "[]"
        return
    inner = indent + " "
    lead = "[" + inner
    for s in regions:
        yield lead + _region(C, s, inner, memo)
        lead = "," + inner
    yield indent + "]"


def _step_record(r: StepRecord, indent: str, memo: _Memo) -> Iterator[str]:
    # its points are not vertices and seldom repeat, so they skip the
    # memo; a step whose scan finds a viewer raises, so no record has
    # viewer_absent false
    i1 = indent + " "
    tuple_ = _items([_point(p.key, i1 + " ") for p in r.tuple], i1)
    yield (
        f'{{{i1}"a_added": {_axis(r.a_scalars, i1)},{i1}"a_size": {r.a_size},'
        f'{i1}"b_added": {_axis(r.b_scalars, i1)},{i1}"b_size": {r.b_size},'
        f'{i1}"step": {r.step},{i1}"tuple": {tuple_},{i1}"viewer_absent": true,'
        f'{i1}"witness": {_point(r.witness.key, i1)},{i1}"z_new": {r.z_new}'
        f"{indent}}}"
    )


# the records a document may hold besides plain data, each with its
# template: a generator of the record's text in pieces
_RECORDS = {
    WitnessReport: _witness_record,
    EmptinessReport: _emptiness_record,
    StepRecord: _step_record,
}


def _parts(o: Any, indent: str, memo: _Memo) -> Iterator[str]:
    """The indent=1 JSON text of o, in pieces; `indent` is the newline and
    indentation that precede o's closing bracket. A list of strings, and
    each run of list items that are lists of strings, is one piece; a
    record is written by its template."""
    if isinstance(o, dict):
        if not o:
            yield "{}"
            return
        inner = indent + " "
        lead = "{" + inner
        for key in sorted(o):  # _quote raises TypeError on a non-str key
            yield lead + _quote(key) + ": "
            yield from _parts(o[key], inner, memo)
            lead = "," + inner
        yield indent + "}"
        return
    if isinstance(o, (list, tuple)):
        if not o:
            yield "[]"
            return
        inner = indent + " "
        sep = "," + inner
        try:  # a list of strings: one join, no call per item
            yield "[" + inner + sep.join(map(_quote, o)) + indent + "]"
            return
        except TypeError:
            pass
        # items that are lists of strings (the points of a document) are
        # written in place; _quote raises TypeError on anything but a str
        deeper = inner + " "
        head, comma, tail = "[" + deeper, "," + deeper, inner + "]"
        lead = "[" + inner
        run: List[str] = []
        for x in o:
            if x and (x.__class__ is tuple or x.__class__ is list):
                try:
                    run.append(head + comma.join(map(_quote, x)) + tail)
                    continue
                except TypeError:
                    pass
            if run:
                yield lead + sep.join(run)
                run = []
                lead = sep
            yield lead
            yield from _parts(x, inner, memo)
            lead = sep
        if run:
            yield lead + sep.join(run)
        yield indent + "]"
        return
    if isinstance(o, str):
        yield _quote(o)
    elif o is None:
        yield "null"
    elif o is True:
        yield "true"
    elif o is False:
        yield "false"
    elif isinstance(o, int):
        yield int.__repr__(o)
    elif o.__class__ in _RECORDS:
        yield from _RECORDS[o.__class__](o, indent, memo)
    else:
        raise TypeError(f"cannot write a {type(o).__name__} into a document")


def doc_bytes(doc: Dict[str, Any]) -> bytes:
    """Canonical bytes of a document (the contract: module docstring)."""
    return ("".join(_parts(doc, "\n", _Memo())) + "\n").encode("ascii")


def write_doc(path: str, doc: Dict[str, Any]) -> None:
    """Write doc_bytes(doc) to path piece by piece, never holding the
    whole text. A write that fails partway removes the file."""
    f = open(path, "w", encoding="ascii", newline="\n")
    try:
        with f:
            f.writelines(_parts(doc, "\n", _Memo()))
            f.write("\n")
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(path)
        raise


def read_doc(path: str) -> Dict[str, Any]:
    try:
        with open(path, "rb") as f:
            raw = f.read()
    except OSError as e:
        raise DocumentError(f"cannot read {path}: {e}") from None
    try:
        doc = json.loads(raw)
    except ValueError as e:
        raise DocumentError(f"{path} is not valid JSON: {e}") from None
    except RecursionError:
        # json's decoder recurses once per nesting level
        raise DocumentError(f"{path} nests too deeply to read") from None
    if not isinstance(doc, dict):
        raise DocumentError(f"{path} does not hold a JSON object")
    return doc
