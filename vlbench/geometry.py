"""Exact plane geometry over Fractions, written apart from the program.

The checkers use these functions instead of vislink's predicate core, so an
agreement between the two is a cross-check rather than a repeat. Points are
(x, y) pairs of Fractions; vislink's Point is such a pair, so both mix.
Lexicographic order on points is a linear order along any line, which is
what the interval covers below rely on.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

Pt = Tuple[Fraction, Fraction]


def cross(o: Pt, a: Pt, b: Pt) -> Fraction:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def line_key(p: Pt, q: Pt) -> Tuple[Fraction, Fraction, Fraction]:
    """(a, b, c) with a*x + b*y = c through p != q, scaled so that the first
    non-zero of (a, b) is 1: one key per geometric line."""
    a = q[1] - p[1]
    b = p[0] - q[0]
    c = a * p[0] + b * p[1]
    s = a if a != 0 else b
    return (a / s, b / s, c / s)


def on_line(key, p: Pt) -> bool:
    a, b, c = key
    return a * p[0] + b * p[1] == c


def on_segment(t: Pt, p: Pt, q: Pt) -> bool:
    lo, hi = (p, q) if p <= q else (q, p)
    return cross(p, q, t) == 0 and lo <= t <= hi


def _crossing(p1: Pt, q1: Pt, p2: Pt, q2: Pt):
    """(point, t, u) where the lines p1q1 and p2q2 cross, with the point at
    p1 + t(q1 - p1) = p2 + u(q2 - p2); None when they are parallel."""
    rx, ry = q1[0] - p1[0], q1[1] - p1[1]
    sx, sy = q2[0] - p2[0], q2[1] - p2[1]
    den = rx * sy - ry * sx
    if den == 0:
        return None
    wx, wy = p2[0] - p1[0], p2[1] - p1[1]
    t = (wx * sy - wy * sx) / den
    u = (wx * ry - wy * rx) / den
    return (p1[0] + t * rx, p1[1] + t * ry), t, u


def meet(p1: Pt, q1: Pt, p2: Pt, q2: Pt) -> Optional[Pt]:
    """The crossing of two non-parallel closed segments, or None. Parallel
    pairs give None: a collinear overlap adds no point but endpoints."""
    got = _crossing(p1, q1, p2, q2)
    if got is None or not (0 <= got[1] <= 1 and 0 <= got[2] <= 1):
        return None
    return got[0]


def line_meet(p1: Pt, q1: Pt, p2: Pt, q2: Pt) -> Optional[Pt]:
    """Crossing of the lines p1q1 and p2q2, or None when parallel."""
    got = _crossing(p1, q1, p2, q2)
    return None if got is None else got[0]


def ends(seg) -> Tuple[Pt, Pt]:
    """Endpoints of a vislink Segment or of a (p, q) pair, lex-ordered."""
    p, q = (seg.p, seg.q) if hasattr(seg, "p") else seg
    p = (Fraction(p[0]), Fraction(p[1]))
    q = (Fraction(q[0]), Fraction(q[1]))
    return (p, q) if p <= q else (q, p)


def subdivision_vertices(raws: Sequence) -> List[Pt]:
    """Endpoints plus every pairwise crossing, sorted."""
    segs = [ends(s) for s in raws]
    pts = set()
    for p, q in segs:
        pts.add(p)
        pts.add(q)
    for i in range(len(segs)):
        for j in range(i + 1, len(segs)):
            z = meet(*segs[i], *segs[j])
            if z is not None:
                pts.add(z)
    return sorted(pts)


class Cover:
    """The union of raw closed segments, grouped by supporting line.

    A straight segment of positive length lies in the union exactly when
    the raw segments on its own line cover it: raws on other lines meet
    that line in single points, which cannot fill a gap of positive length.
    """

    def __init__(self, raws: Iterable):
        self.segs = [ends(s) for s in raws]
        self.by_line: Dict[tuple, List[Tuple[Pt, Pt]]] = {}
        for p, q in self.segs:
            self.by_line.setdefault(line_key(p, q), []).append((p, q))
        # maximal covered intervals per line: the labels of the link graph
        self.intervals: Dict[tuple, List[Tuple[Pt, Pt]]] = {}
        for key, segs in self.by_line.items():
            merged: List[Tuple[Pt, Pt]] = []
            for lo, hi in sorted(segs):
                if merged and lo <= merged[-1][1]:
                    if hi > merged[-1][1]:
                        merged[-1] = (merged[-1][0], hi)
                else:
                    merged.append((lo, hi))
            self.intervals[key] = merged

    def contains(self, t: Pt) -> bool:
        return any(on_segment(t, p, q) for p, q in self.segs)

    def covered(self, p: Pt, q: Pt) -> bool:
        """Closed segment [p, q] inside the union: an interval-cover sweep
        over the traces of the collinear raws on [p, q]."""
        if p == q:
            return self.contains(p)
        lo, hi = (p, q) if p <= q else (q, p)
        traces = []
        for a, b in self.by_line.get(line_key(lo, hi), ()):
            s, e = max(a, lo), min(b, hi)
            if s <= e:
                traces.append((s, e))
        cur = None
        for s, e in sorted(traces):
            if cur is None:
                if s != lo:
                    return False
                cur = e
            elif s > cur:
                return False
            elif e > cur:
                cur = e
        return cur == hi

    def labels(self, t: Pt) -> List[tuple]:
        """The maximal covered intervals through t, as (line, index)."""
        out = []
        for key, merged in self.intervals.items():
            if on_line(key, t):
                for i, (lo, hi) in enumerate(merged):
                    if lo <= t <= hi:
                        out.append((key, i))
        return out


class LinkOracle:
    """Brute-force link distances on the subdivided arrangement.

    Vertices are the subdivision vertices; two of them are one link apart
    when a maximal covered interval holds both. A minimal path bends only
    where two covered intervals on different lines meet, which is a
    subdivision vertex, so BFS over vertices and intervals gives exact
    link distances from any point of the union.
    """

    def __init__(self, raws: Sequence):
        self.cover = Cover(raws)
        self.vertices = subdivision_vertices(raws)
        self.index = {v: i for i, v in enumerate(self.vertices)}
        self.vlabels = [self.cover.labels(v) for v in self.vertices]
        self.members: Dict[tuple, List[int]] = {}
        for i, labs in enumerate(self.vlabels):
            for lab in labs:
                self.members.setdefault(lab, []).append(i)

    def distances_from(self, t: Pt) -> List[Optional[int]]:
        """Link distance from t (any point of the union) to every vertex."""
        dist: List[Optional[int]] = [None] * len(self.vertices)
        if t in self.index:
            dist[self.index[t]] = 0
        seen = set()
        frontier = [lab for lab in self.cover.labels(t)]
        seen.update(frontier)
        links = 0
        while frontier:
            links += 1
            nxt = []
            for lab in frontier:
                for v in self.members.get(lab, ()):
                    if dist[v] is None:
                        dist[v] = links
                        for lab2 in self.vlabels[v]:
                            if lab2 not in seen:
                                seen.add(lab2)
                                nxt.append(lab2)
            frontier = nxt
        return dist


def axis_crossing(z: Pt, y: Pt) -> Fraction:
    """Abscissa where [z, y] meets the x-axis; z above it, y below."""
    return z[0] + (y[0] - z[0]) * z[1] / (z[1] - y[1])


def axis_crossing_line(p: Pt, q: Pt) -> Fraction:
    """Abscissa where the line pq (not horizontal) meets the x-axis."""
    return p[0] - p[1] * (q[0] - p[0]) / (q[1] - p[1])

