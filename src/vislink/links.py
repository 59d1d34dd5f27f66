"""Minimum-link visibility over a segment complex.

A polygonal path of m links connects p to q inside the union; the link
distance is the least such m. Because the complex is normalized, a straight
in-union segment always lies inside a single maximal segment, so one link
is exactly "common maximal segment" and everything reduces to BFS over the
intersection graph of maximal segments:

    link_distance(p, q) = 1 + min graph distance between a maximal segment
                          through p and one through q.

Minimal paths bend only where two maximal segments meet, which keeps all
certificates exact and rational.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from . import _pure as _k
from .complexes import (
    OneSet,
    PointNotOnComplex,
    SegmentComplex,
    contains_point,
    contains_segment,
    incident_segments,
    make_oneset,
    oneset_intersect,
)
from .kernel import GeometryError, Point, point_from_key


class VerificationFailed(GeometryError):
    """A mathematical claim check came out false."""


@dataclass(frozen=True)
class LinkRegion:
    """All points reachable from source by at most radius links."""

    source: Point
    radius: int
    region: OneSet
    segment_indices: frozenset


@dataclass(frozen=True)
class PathCertificate:
    """Witness path: vertices (p, x_1, ..., x_{m-1}, q) with m = links."""

    vertices: Tuple[Point, ...]
    links: int


def certificate_valid(
    C: SegmentComplex, cert: PathCertificate, bound: Optional[int] = None
) -> bool:
    """Independent re-check: links contained, consecutive vertices distinct,
    intermediate vertices pairwise distinct, link count within bound."""
    vs = cert.vertices
    if not vs or cert.links != len(vs) - 1:
        return False
    if bound is not None and cert.links > bound:
        return False
    if len(vs) == 1:
        return contains_point(C, vs[0])
    for a, b in zip(vs, vs[1:]):
        if a == b or not contains_segment(C, a, b):
            return False
    inner = vs[1:-1]
    return len(set(inner)) == len(inner)


def _bfs(C: SegmentComplex, seeds: Sequence[int]):
    """Deterministic multi-source BFS over the intersection graph.

    Returns (dist, parent); unreached entries stay None.
    """
    m = len(C.maximal_segments)
    dist: List[Optional[int]] = [None] * m
    parent: List[Optional[int]] = [None] * m
    queue = deque()
    for s in sorted(seeds):
        if dist[s] is None:
            dist[s] = 0
            queue.append(s)
    while queue:
        i = queue.popleft()
        for j in sorted(C.adjacency[i]):
            if dist[j] is None:
                dist[j] = dist[i] + 1
                parent[j] = i
                queue.append(j)
    return dist, parent


def link_region(C: SegmentComplex, p: Point, j: int) -> LinkRegion:
    """Exact region R_j(p); R_0 = {p}, R_j for j >= 1 is a union of full
    maximal segments (those within graph distance j-1 of a segment
    through p)."""
    if j < 0:
        raise ValueError("radius must be >= 0")
    seeds = incident_segments(C, p)  # raises PointNotOnComplex
    if j == 0:
        return LinkRegion(p, 0, OneSet((), (p,)), frozenset())
    dist, _ = _bfs(C, seeds)
    idx = frozenset(
        i for i, d in enumerate(dist) if d is not None and d <= j - 1
    )
    region = make_oneset([C.maximal_segments[i] for i in sorted(idx)])
    return LinkRegion(p, j, region, idx)


def _search(C: SegmentComplex, p: Point, q: Point):
    """The search behind link_distance and n_visible.

    Returns (links, last, parent): the link distance from p to q (None
    when disconnected) and, for paths of two or more links, the nearest
    maximal segment through q (least index among ties) and the BFS
    parents that lead from it back to a segment through p.
    """
    sp = incident_segments(C, p)
    sq = incident_segments(C, q)
    if p == q:
        return 0, None, None
    if not set(sp).isdisjoint(sq):
        return 1, None, None
    dist, parent = _bfs(C, sp)
    links = last = None
    for t in sq:  # ascending, so ties keep the least index
        d = dist[t]
        if d is not None and (links is None or d + 1 < links):
            links, last = d + 1, t
    return links, last, parent


def link_distance(C: SegmentComplex, p: Point, q: Point) -> Optional[int]:
    """Least number of links joining p to q inside the union; None when they
    lie in different connected components."""
    return _search(C, p, q)[0]


def _meet_point(C: SegmentComplex, i: int, j: int) -> Point:
    """The single point where two distinct maximal segments meet."""
    a = C.maximal_segments[i]
    b = C.maximal_segments[j]
    kind, payload = _k.seg_meet(a.p.key, a.q.key, b.p.key, b.q.key)
    if kind != 1:
        raise AssertionError(
            "normalized maximal segments must meet in at most one point"
        )
    return point_from_key(payload)


def n_visible(
    C: SegmentComplex, p: Point, q: Point, n: int
) -> Optional[PathCertificate]:
    """A verified certificate with at most n links, or None when the link
    distance exceeds n (or the points are disconnected)."""
    if n < 1:
        raise ValueError("link bound must be >= 1")
    links, last, parent = _search(C, p, q)
    if links is None or links > n:
        return None
    if links == 0:
        return PathCertificate((p,), 0)
    if links == 1:
        return PathCertificate((p, q), 1)
    chain = [last]
    while parent[chain[-1]] is not None:
        chain.append(parent[chain[-1]])
    chain.reverse()  # segment through p first
    vertices = [p]
    for a, b in zip(chain, chain[1:]):
        vertices.append(_meet_point(C, a, b))
    vertices.append(q)
    cert = PathCertificate(tuple(vertices), len(chain))
    if not certificate_valid(C, cert, n):
        raise VerificationFailed(f"path certificate {p} -> {q} fails its re-check")
    return cert


def common_viewer(
    C: SegmentComplex, targets: Sequence[Point], n: int
) -> Optional[Point]:
    """Canonically least point that sees every target within n links.

    Folds the exact n-link regions of the targets with oneset_intersect;
    path reversibility makes membership in every region equivalent to
    seeing every target.
    """
    if not targets:
        raise ValueError("targets must be non-empty")
    if n < 1:
        raise ValueError("link bound must be >= 1")
    acc: Optional[OneSet] = None
    for t in targets:
        region = link_region(C, t, n).region
        acc = region if acc is None else oneset_intersect(acc, region)
        if acc.is_empty():
            return None
    return acc.least_point()
