"""Unions of closed segments, normalized into maximal segments.

A SegmentComplex is the working form of "a finite union of closed segments":
collinear pieces whose closed hulls touch or overlap are merged, so that a
straight subsegment of the union always lies inside exactly one maximal
segment. That reduction is what makes 1-link visibility a common-maximal-
segment test, and it is why the intersection graph over maximal segments is
the whole story for link distances.

OneSet is the small algebra of viewer regions: finitely many segments plus
isolated points, closed under exact pairwise intersection. Canonical form
is non-redundant rather than disjoint: no two collinear components touch or
overlap (they merge), no listed point lies on a listed segment, components
are sorted. Transversal crossings between listed segments are expected;
regions routinely contain whole pencils of segments through one point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from . import _pure as _k
from .kernel import (
    DegenerateSegment,  # re-exported: normalization is where callers meet it
    GeometryError,
    Point,
    Segment,
    line_through,
    on_segment,
    point_from_key,
)


class EmptyInput(GeometryError):
    """A complex needs at least one segment."""


class PointNotOnComplex(GeometryError):
    """Query point does not lie on the union."""


def _merge_collinear(segs: Iterable[Segment]) -> List[Segment]:
    """Merge collinear segments with touching or overlapping closed hulls.

    Lexicographic order restricted to one line is a linear order along the
    line, so a sort-and-sweep per line group suffices.
    """
    groups: Dict[Tuple[int, int, int], List[Segment]] = {}
    for s in segs:
        groups.setdefault(line_through(s.p, s.q).key, []).append(s)
    out: List[Segment] = []
    for key in sorted(groups):
        group = sorted(groups[key])
        cur_p, cur_q = group[0].p, group[0].q
        for s in group[1:]:
            if s.p <= cur_q:
                if cur_q < s.q:
                    cur_q = s.q
            else:
                out.append(Segment(cur_p, cur_q))
                cur_p, cur_q = s.p, s.q
        out.append(Segment(cur_p, cur_q))
    out.sort()
    return out


@dataclass(frozen=True)
class SegmentComplex:
    """Normalized union of segments plus its intersection graph.

    adjacency[i] holds the indices of maximal segments whose closed hulls
    meet maximal_segments[i] (i itself excluded).
    """

    maximal_segments: Tuple[Segment, ...]
    adjacency: Tuple[frozenset, ...]

    def __len__(self) -> int:
        return len(self.maximal_segments)


def normalize(raw: Sequence[Segment]) -> SegmentComplex:
    """Build the canonical complex for a union of raw segments.

    Point-set equal to the input union; degenerate segments cannot occur
    here (Segment construction rejects them with DegenerateSegment).
    """
    segs = list(raw)
    if not segs:
        raise EmptyInput("no segments")
    maximal = _merge_collinear(segs)
    m = len(maximal)
    adj: List[set] = [set() for _ in range(m)]
    keys = [(s.p.key, s.q.key) for s in maximal]
    for i in range(m):
        pi, qi = keys[i]
        for j in range(i + 1, m):
            pj, qj = keys[j]
            if _k.seg_meet(pi, qi, pj, qj)[0] != 0:
                adj[i].add(j)
                adj[j].add(i)
    return SegmentComplex(tuple(maximal), tuple(frozenset(a) for a in adj))


def contains_point(C: SegmentComplex, p: Point) -> bool:
    pk = p.key
    return any(
        _k.on_seg(pk, s.p.key, s.q.key) for s in C.maximal_segments
    )


def incident_segments(C: SegmentComplex, p: Point) -> List[int]:
    """Indices of all maximal segments through p; error if there are none."""
    pk = p.key
    found = [
        i
        for i, s in enumerate(C.maximal_segments)
        if _k.on_seg(pk, s.p.key, s.q.key)
    ]
    if not found:
        raise PointNotOnComplex(f"{p} is not on the complex")
    return found


def contains_segment(C: SegmentComplex, p: Point, q: Point) -> bool:
    """Whether the whole closed segment [p, q] lies inside the union.

    After normalization this is exactly "some single maximal segment
    contains both": a straight in-union segment cannot bridge the gap
    between two distinct collinear maximal segments, and transversal
    segments cover only isolated points of its line.
    """
    pk, qk = p.key, q.key
    if p == q:
        return contains_point(C, p)
    for s in C.maximal_segments:
        a, b = s.p.key, s.q.key
        if _k.on_seg(pk, a, b) and _k.on_seg(qk, a, b):
            return True
    return False


@dataclass(frozen=True)
class OneSet:
    """Canonical finite union of closed segments and isolated points."""

    segments: Tuple[Segment, ...] = ()
    points: Tuple[Point, ...] = ()

    def is_empty(self) -> bool:
        return not self.segments and not self.points

    def least_point(self) -> Optional[Point]:
        """Lexicographically least point of the union, if any.

        The least point of a canonical segment is its stored first endpoint,
        so the minimum ranges over endpoints and isolated points.
        """
        candidates = list(self.points) + [s.p for s in self.segments]
        return min(candidates) if candidates else None

    def contains(self, p: Point) -> bool:
        return p in self.points or any(on_segment(p, s) for s in self.segments)


def make_oneset(
    segments: Iterable[Segment] = (), points: Iterable[Point] = ()
) -> OneSet:
    """Canonicalize: merge collinear touching segments, drop points lying
    on kept segments, deduplicate, sort."""
    segs = _merge_collinear(segments) if segments else []
    kept: List[Point] = []
    for p in sorted(set(points)):
        pk = p.key
        if not any(_k.on_seg(pk, s.p.key, s.q.key) for s in segs):
            kept.append(p)
    return OneSet(tuple(segs), tuple(kept))


def oneset_union(X: OneSet, Y: OneSet) -> OneSet:
    return make_oneset(X.segments + Y.segments, X.points + Y.points)


def oneset_intersect(X: OneSet, Y: OneSet) -> OneSet:
    """Exact point-set intersection of two canonical OneSets."""
    segs: List[Segment] = []
    pts: List[Point] = []
    for sx in X.segments:
        a, b = sx.p.key, sx.q.key
        for sy in Y.segments:
            kind, payload = _k.seg_meet(a, b, sy.p.key, sy.q.key)
            if kind == 1:
                pts.append(point_from_key(payload))
            elif kind == 2:
                lo, hi = payload
                segs.append(Segment(point_from_key(lo), point_from_key(hi)))
    for sx in X.segments:
        for py in Y.points:
            if on_segment(py, sx):
                pts.append(py)
    for px in X.points:
        if any(on_segment(px, sy) for sy in Y.segments):
            pts.append(px)
        if px in Y.points:
            pts.append(px)
    return make_oneset(segs, pts)
