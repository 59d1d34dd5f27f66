"""Minimum-link visibility over a segment complex.

A polygonal path of m links connects p to q inside the union; the link
distance is the least such m. Because the complex is normalized, a straight
in-union segment always lies inside a single maximal segment, so one link
is exactly "common maximal segment" and everything reduces to BFS over the
intersection graph of maximal segments:

    link_distance(p, q) = 1 + min graph distance between a maximal segment
                          through p and one through q.

Minimal paths bend only where two maximal segments meet, which keeps all
certificates exact and rational: a bend is the crossing of the two
segments' stored lines (C.lines), and the certificate re-check rejects
one that lies off its segments. For the same reason an n-link region of
radius j >= 1 is a union of whole maximal segments, so a region is the
frozenset of their indices; regions are intersected on those indices
(complexes.intersection_fold).

A certificate holds the integer keys of its vertices, the form the search
finds them in: the source's, the key of each bend as the crossing of the
stored lines, and the target's. Its Points (PathCertificate.vertices) are
a view for callers. The re-check (certificate_valid) runs on those keys,
as complexes.contains_segment does, and locates from the certificate's
own vertices, never from the search that built it.

Distances come from the complex's segment distance table
(SegmentComplex.distances, one BFS per maximal segment, built on first
use): link_distance locates p and q once each and answers 1 plus the
least table entry between a segment through p and one through q, one
entry when each point lies on a single segment. Paths come from the
search tree.
search_tree builds the BFS tree from the maximal segments through a
source point; tree_path looks a target up in it (the p == q exit, on
keys, then the nearest segment through the target, least index among
ties) and re-checks the certificate it builds. Every path ending on one
segment shares its vertices up to the target: the source and the bends
on that segment's parent chain. The tree memoizes them per end segment
(SearchTree.bends), so the chain is walked, and its bends formed, once
per tree, up to the nearest segment already memoized; the re-check
still runs on every certificate. n_visible pairs the two for one query;
a caller that certifies many targets from one source (the verifier's
formula witnesses) builds the tree once and looks every target up in
it. link_region reads one tree too, since a region needs one search
where the table needs one per segment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from . import _pure as _k
from .complexes import (
    Key,
    SegmentComplex,
    _bfs,
    _contains,
    incident_segments,
    intersection_fold,
    least_point,
)
from .kernel import GeometryError, Point, point_from_key, point_str


class VerificationFailed(GeometryError):
    """A mathematical claim check came out false."""


@dataclass(frozen=True, init=False)
class PathCertificate:
    """Witness path (p, x_1, ..., x_{m-1}, q) with m = links, stored as the
    keys of its vertices; vertices is their Point view, built on each read.

    A caller that edits a path as Points, dataclasses.replace(cert,
    vertices=...), passes them as vertices, and their keys are stored.
    """

    keys: Tuple[Key, ...]
    links: int

    def __init__(self, keys: Tuple[Key, ...], links: int, *, vertices=None):
        if vertices is not None:
            keys = tuple(v.key for v in vertices)
        object.__setattr__(self, "keys", keys)
        object.__setattr__(self, "links", links)

    @property
    def vertices(self) -> Tuple[Point, ...]:
        return tuple(map(point_from_key, self.keys))


def certificate_valid(C: SegmentComplex, cert: PathCertificate, bound: int) -> bool:
    """Independent re-check: links contained, consecutive vertices distinct,
    intermediate vertices pairwise distinct, link count within bound.

    Runs on the certificate's keys. A key is canonical, so two keys are
    equal exactly when the points are. Each link is checked from the
    certificate's own vertices (complexes._contains), not from the search
    that built it.
    """
    ks = cert.keys
    if not ks or cert.links != len(ks) - 1:
        return False
    if cert.links > bound:
        return False
    if len(ks) == 1:
        return _contains(C, ks[0], ks[0])
    for a, b in zip(ks, ks[1:]):
        if a == b or not _contains(C, a, b):
            return False
    inner = ks[1:-1]
    return len(set(inner)) == len(inner)


class SearchTree:
    """BFS over the intersection graph from the maximal segments through
    source: dist[i] is the graph distance of segment i from them and
    parent[i] its predecessor (None for the seeds and unreached segments).
    key is the source's key.

    bends memoizes the paths: bends[i], for a segment i the tree reaches,
    holds the keys of the source and of the bends on i's parent chain,
    source first, so a path ending on i is bends[i] plus its target. The
    seeds' entries, the source alone, are set here; tree_path fills the
    rest on first use (_chain).

    A plain class because every import of the package defines it, and
    defining a NamedTuple instead costs about 17 times as much, a
    dataclass about 100.
    """

    __slots__ = ("source", "key", "dist", "parent", "bends")

    def __init__(
        self,
        source: Point,
        dist: Tuple[Optional[int], ...],
        parent: Tuple[Optional[int], ...],
        seeds: Sequence[int],
    ):
        self.source = source
        self.key = source.key
        self.dist = dist
        self.parent = parent
        self.bends: Dict[int, Tuple[Key, ...]] = dict.fromkeys(seeds, (self.key,))


def search_tree(C: SegmentComplex, p: Point) -> SearchTree:
    """The search tree from p; PointNotOnComplex when p is off the union."""
    seeds = incident_segments(C, p)
    dist, parent = _bfs(C, seeds)
    return SearchTree(p, tuple(dist), tuple(parent), seeds)


def _lookup(tree: SearchTree, q: Key, through_q: Sequence[int]):
    """Link distance from the tree's source to the point with key q (None
    when disconnected) and the nearest segment through it, least index
    among ties.

    through_q lists the segments through q in ascending order. A segment
    at distance 0 contains the source too, so one link suffices.
    """
    if tree.key == q:
        return 0, None
    links = last = None
    for t in through_q:  # ascending, so ties keep the least index
        d = tree.dist[t]
        if d is not None and (links is None or d + 1 < links):
            links, last = d + 1, t
    return links, last


def link_region(C: SegmentComplex, p: Point, j: int) -> frozenset:
    """Exact region R_j(p) for j >= 1, as segment indices: R_j(p) is the
    union of the maximal segments within graph distance j-1 of a segment
    through p."""
    if j < 1:
        raise ValueError("radius must be >= 1")
    tree = search_tree(C, p)  # raises PointNotOnComplex
    return frozenset(
        i for i, d in enumerate(tree.dist) if d is not None and d <= j - 1
    )


def link_distance(C: SegmentComplex, p: Point, q: Point) -> Optional[int]:
    """Least number of links joining p to q inside the union; None when they
    lie in different connected components.

    Reads each point's key once and locates it in the vertex index,
    falling back to incident_segments for a point that is not a vertex
    (p first, so an off-complex p raises). Then it reads the segment
    distance table. A multi-source BFS distance is the least of the
    single-source ones, so this is the search tree's answer.
    """
    kp, kq = p.key, q.key
    through_p = C.vertex_segments.get(kp) or incident_segments(C, p)
    through_q = C.vertex_segments.get(kq) or incident_segments(C, q)
    if kp == kq:
        return 0
    D = C.distances
    # the segments through one point meet there, so they lie in one
    # component: the entries below are all None or all integers
    d = D[through_p[0]][through_q[0]]
    if d is None:
        return None
    if len(through_p) > 1 or len(through_q) > 1:
        d = min(D[s][t] for s in through_p for t in through_q)
    return 1 + d


def _meet_point(C: SegmentComplex, i: int, j: int) -> Key:
    """The key of the single point where two distinct maximal segments
    meet: the crossing of their lines. certificate_valid checks that it
    lies on both."""
    kind, payload = _k.line_meet(C.lines[i], C.lines[j])
    if kind != 1:
        raise VerificationFailed(
            f"maximal segments {i} and {j} do not meet in a single point"
        )
    return payload


def _chain(C: SegmentComplex, tree: SearchTree, last: int) -> Tuple[Key, ...]:
    """tree.bends[last], filled on first use: the walk up the parent chain
    stops at the nearest memoized segment, and each segment passed gets
    its parent's entry plus the bend where the two meet."""
    bends, parent = tree.bends, tree.parent
    walk = []
    s = last
    while s not in bends:
        walk.append(s)
        s = parent[s]
    for s in reversed(walk):  # nearest the source first
        up = parent[s]
        bends[s] = bends[up] + (_meet_point(C, up, s),)
    return bends[last]


def tree_path(
    C: SegmentComplex,
    tree: SearchTree,
    q: Key,
    n: int,
    through_q: Sequence[int],
) -> Optional[PathCertificate]:
    """A verified certificate from the tree's source to the point with
    key q with at most n links, or None when the link distance exceeds n
    (or the points are disconnected). through_q must be the ascending
    indices of the segments through q (incident_segments)."""
    links, last = _lookup(tree, q, through_q)
    if links is None or links > n:
        return None
    if links == 0:
        return PathCertificate((q,), 0)
    cert = PathCertificate(_chain(C, tree, last) + (q,), links)
    if links > 1 and not certificate_valid(C, cert, n):
        raise VerificationFailed(
            f"path certificate {point_str(tree.source)} -> "
            f"{point_str(point_from_key(q))} fails its re-check"
        )
    return cert


def n_visible(
    C: SegmentComplex, p: Point, q: Point, n: int
) -> Optional[PathCertificate]:
    """A verified certificate with at most n links, or None when the link
    distance exceeds n (or the points are disconnected)."""
    if n < 1:
        raise ValueError("link bound must be >= 1")
    return tree_path(C, search_tree(C, p), q.key, n, incident_segments(C, q))


def common_viewer(
    C: SegmentComplex, targets: Sequence[Point], n: int
) -> Optional[Point]:
    """Canonically least point that sees every target within n links.

    Folds the segment indices of the targets' n-link regions
    (intersection_fold); path reversibility makes membership in every
    region equivalent to seeing every target. Empty targets raise
    ValueError, and so does n < 1, from link_region.
    """
    if not targets:
        raise ValueError("targets must be non-empty")
    regions = [link_region(C, t, n) for t in targets]
    return least_point(C, intersection_fold(C, regions)[-1])
