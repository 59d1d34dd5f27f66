"""Structured-text documents: constructions, reports, audit logs.

Every artifact is a JSON object with a "schema" version field and all
coordinates as canonical rational strings "p/q". Serialization is
canonical (sorted keys, fixed separators, trailing newline), so identical
inputs produce byte-identical files; the determinism tests rely on this.

doc_bytes is one hand-written writer with a byte contract: for every
document of dicts with str keys, lists, tuples, str, int, bool and None
it returns exactly
json.dumps(doc, sort_keys=True, separators=(",", ": "), indent=1) + "\n"
encoded as ASCII (strings escaped by json's encode_basestring_ascii,
empty containers as [] and {}), and it raises TypeError on a float, a
non-str key or any other type. With indent set, json.dumps runs the
pure-Python encoder; this writer joins whole lists of strings in one call
instead. It yields the text in pieces: doc_bytes joins them, and
write_doc writes them as they come, so a file never needs the whole text
in memory (a 200-step k=3 audit log is about 32 MB). Audit logs are
written from the shutter's integer scalars: the axis point with canonical
abscissa (n, d) is ["n/d", "0/1"], the strings rat_str gives for it. A
construction's segments, report regions and witness paths are written
from the integer keys the complex and the certificates store, the same
way: the point with key (xn, xd, yn, yd) is ["xn/xd", "yn/yd"].

Readers validate shape and reconstruct full domain objects from the
serialized geometry alone. A construction document carries its complex
explicitly, so a reader never re-derives geometry from the embedded seed;
hand edits (for corruption controls) therefore take effect, and the
verify round-trip proves the format is complete.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _quote
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from .complexes import Key, OneSet, SegmentComplex, normalize, segment_index
from .construct import Construction, NotConvex, PolygonSpec, _require_convex
from .kernel import GeometryError, Point, Segment, parse_rat, rat_str
from .links import PathCertificate
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


def _key_doc(k: Key) -> Tuple[str, str]:
    """point_to_doc of the point with key k, as a pair (see _axis_doc): a
    key is reduced with a positive denominator, as rat_str writes."""
    xn, xd, yn, yd = k
    return (f"{xn}/{xd}", f"{yn}/{yd}")


def oneset_to_doc(C: SegmentComplex, s: OneSet) -> Dict[str, Any]:
    keys = C.keys
    return {
        "segments": [list(map(_key_doc, keys[i])) for i in s.segments],
        "points": [_key_doc(v) for v in s.points],
    }


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
    one whose polygon is not clockwise and strictly convex, as build_family
    requires, and one whose tails disagree with its n: none at n = 2, k+1
    tails of n-1 points each at n > 2.
    """
    _check_schema(doc, "construction")
    k = _need(doc, "k")
    n = _need(doc, "n")
    if not (_is_int(k) and k >= 2 and _is_int(n) and n >= 2):
        raise DocumentError(f"bad parameters k={k!r} n={n!r}")
    vertices = tuple(point_from_doc(v) for v in _list_field(doc, "polygon"))
    if len(vertices) != 2 * (k + 1):
        raise DocumentError(
            f"polygon needs {2 * (k + 1)} vertices, got {len(vertices)}"
        )
    try:
        _require_convex([v.key for v in vertices])
    except NotConvex as exc:
        raise DocumentError(
            f"polygon is not strictly convex clockwise: {exc}"
        ) from None
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
    poly = PolygonSpec(k=k, vertices=vertices, seed=seed, retry_count=retry_count)
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


def _certificate_to_doc(cert: PathCertificate) -> Dict[str, Any]:
    return {
        "vertices": [_key_doc(k) for k in cert.keys],
        "links": cert.links,
    }


def witness_report_to_doc(r: WitnessReport) -> Dict[str, Any]:
    return {
        "tuple": [point_to_doc(p) for p in r.tuple],
        "witness": point_to_doc(r.witness),
        "method": r.method,
        "paths": [_certificate_to_doc(c) for c in r.paths],
    }


def emptiness_report_to_doc(r: EmptinessReport) -> Dict[str, Any]:
    C = r.complex
    return {
        "targets": [point_to_doc(p) for p in r.targets],
        "n": r.n,
        "per_target_regions": [oneset_to_doc(C, s) for s in r.per_target_regions],
        "intersection_trace": [oneset_to_doc(C, s) for s in r.intersection_trace],
        "final": oneset_to_doc(C, r.final),
        "final_empty": r.final.is_empty(),
    }


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
        "no_common_viewer": emptiness_report_to_doc(emptiness),
        "tuples_checked": len(witnesses),
        "formula_failures": 0,  # a formula miss raises; no report is written
        "witnesses": [witness_report_to_doc(w) for w in witnesses],
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
        "report": emptiness_report_to_doc(report),
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


def _axis_doc(scalars: Sequence[Scalar]) -> List[Tuple[str, str]]:
    """point_to_doc of the axis points with these canonical abscissae, as
    pairs: doc_bytes writes them as lists, and a tuple of strings leaves the
    garbage collector's tracking, where 400k lists made the collector walk
    them again and again (0.6 s of a 200-step k=3 log)."""
    return [(f"{n}/{d}", "0/1") for n, d in scalars]


def _step_record_to_doc(r: StepRecord) -> Dict[str, Any]:
    return {
        "step": r.step,
        "tuple": [point_to_doc(p) for p in r.tuple],
        "witness": point_to_doc(r.witness),
        "z_new": r.z_new,
        "b_added": _axis_doc(r.b_scalars),
        "a_added": _axis_doc(r.a_scalars),
        "a_size": r.a_size,
        "b_size": r.b_size,
        "viewer_absent": r.viewer_absent,
    }


def audit_to_doc(s: ShutterState, seed: int) -> Dict[str, Any]:
    return {
        "schema": SCHEMA_VERSION,
        "kind": "shutter-audit",
        "k": s.k,
        "K": [point_to_doc(p) for p in s.K],
        "steps": s.step,
        "b0_size": s.b0_size,
        "a_final": _axis_doc(s.a_scalars),
        "b_size_final": s.audit[-1].b_size,
        "records": [_step_record_to_doc(r) for r in s.audit],
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# canonical bytes


def _parts(o: Any, indent: str) -> Iterator[str]:
    """The indent=1 JSON text of o, in pieces; `indent` is the newline and
    indentation that precede o's closing bracket. A list of strings, and
    each run of list items that are lists of strings, is one piece."""
    if isinstance(o, dict):
        if not o:
            yield "{}"
            return
        inner = indent + " "
        lead = "{" + inner
        for key in sorted(o):  # _quote raises TypeError on a non-str key
            yield lead + _quote(key) + ": "
            yield from _parts(o[key], inner)
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
            yield from _parts(x, inner)
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
    else:
        raise TypeError(f"cannot write a {type(o).__name__} into a document")


def doc_bytes(doc: Dict[str, Any]) -> bytes:
    """Canonical bytes of a document (the contract: module docstring)."""
    return ("".join(_parts(doc, "\n")) + "\n").encode("ascii")


def write_doc(path: str, doc: Dict[str, Any]) -> None:
    """Write doc_bytes(doc) to path piece by piece, never holding the
    whole text."""
    with open(path, "w", encoding="ascii", newline="\n") as f:
        f.writelines(_parts(doc, "\n"))
        f.write("\n")


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
