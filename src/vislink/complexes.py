"""Unions of closed segments, normalized into maximal segments.

A SegmentComplex is the working form of "a finite union of closed segments":
collinear pieces whose closed hulls touch or overlap are merged, so that a
straight subsegment of the union always lies inside exactly one maximal
segment. That reduction is what makes 1-link visibility a common-maximal-
segment test, and it is why the intersection graph over maximal segments is
the whole story for link distances.

Normalization and point location run on integers. A complex stores each
maximal segment only as its endpoint keys (the predicate core's (xn, xd,
yn, yd) tuples), lesser end first by _k.pt_cmp, the order Point defines;
the merge compares points the same way. Beside them it keeps their
canonical lines and a vertex index. Its Segments (maximal_segments) are a
view, built on first read for callers that want Points. The vertices of
the arrangement are the segment endpoints and the points where two
maximal segments meet; the vertex index maps each to the segments
through it. A point that is not a vertex lies on at most one maximal
segment: two collinear maximal segments never touch (they would have
merged), so two segments through one point meet only there, and that
point is a vertex. A point t lies on segment i exactly when it satisfies
the integer line equation a*xn*yd + b*yn*xd == c*xd*yd of lines[i] and
passes _on, the one in-segment test, which compares a single coordinate.
Its lemma: a point on the line of a maximal segment stored lesser end
first lies on the segment exactly when it lies between the endpoints
along x, or along y when the segment is vertical (b == 0). On a line that
is not vertical, x determines the point and the stored ends have px < qx;
on a vertical one, px == qx and py < qy. normalize decides with the same
test whether the crossing of two lines lies on both segments.

Point location is one lookup for a vertex. Any other point is tested
only against the segments its box masks admit (box_masks, built on first
use). Per axis, a coordinate a = n/d has the floor key
floor(a * 2**64) = (n << 64) // d, the shutter's axis key, and the masks
hold, for each distinct key of a segment end and each open gap between
two such keys, the segments whose range of end keys covers it. The
masks of t's two keys are ANDed. The box lemma: floor is monotone, so a
point between two ends along an axis has a key between theirs, and the
segment through t is never masked out. Keys coarsen the box, so a point
off the segment may pass the masks (a probe 2**-80 past an end shares
that end's key); the exact test still rejects it. A query locates each
of its points once.

A segment [p, q] lies in the union exactly when one maximal segment
contains both endpoints, so segment membership is one point location
plus a test of q: p is located, and q must lie on one of the segments
through p. When q is a vertex, its index entry lists every segment
through it, and the test is whether that entry shares an index with p's;
only a q that is not a vertex gets the arithmetic test, on at most
deg(p) segments. Naming a segment (a fan, a tail edge) reads the vertex
index too: both ends of a maximal segment are vertices, so segment_index
compares endpoint keys with the segments through the first end.

A viewer region of radius >= 1 is a union of whole maximal segments, so
a region is a set of segment indices, and intersection_fold intersects
regions through the vertex index alone. Two distinct maximal segments
meet at most in one point, a vertex, so the common part of some regions
is the segments every region holds plus the vertices every region touches
that no such segment passes through. OneSet is the value the fold
reports, in index form: the ascending indices of those segments and the
keys of those isolated vertices, sorted by _k.pt_cmp, no listed vertex on
a listed segment. Transversal crossings between listed segments are
expected; regions routinely contain whole pencils of segments through one
point. A Point is built from a OneSet only by least_point; documents
write its indices and keys directly.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property, cmp_to_key
from itertools import accumulate
from operator import xor
from typing import (
    AbstractSet,
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from . import _pure as _k
from .kernel import (
    DegenerateSegment,  # re-exported: normalization is where callers meet it
    GeometryError,
    Point,
    Segment,
    point_from_key,
    point_str,
)


class EmptyInput(GeometryError):
    """A complex needs at least one segment."""


class PointNotOnComplex(GeometryError):
    """Query point does not lie on the union."""


Key = Tuple[int, int, int, int]
LineKey = Tuple[int, int, int]
AxisMasks = Tuple[List[int], Tuple[int, ...]]


def _pair_cmp(a: Tuple[Key, Key], b: Tuple[Key, Key]) -> int:
    """Segment order on endpoint-key pairs."""
    return _k.pt_cmp(a[0], b[0]) or _k.pt_cmp(a[1], b[1])


_pair_order = cmp_to_key(_pair_cmp)
_key_order = cmp_to_key(_k.pt_cmp)


def _merge_collinear(
    segs: Iterable[Segment],
) -> List[Tuple[Tuple[Key, Key], LineKey]]:
    """Merge collinear segments with touching or overlapping closed hulls.

    Returns (endpoint keys, canonical line) per merged segment, in Segment
    order. Points are compared on their integer keys by _k.pt_cmp, the
    order Point defines. Restricted to one line that order is a linear
    order along the line, so a sort-and-sweep per line group suffices, and
    each merged pair keeps its lesser end first, as Segment stores it.
    """
    groups: Dict[LineKey, List[Tuple[Key, Key]]] = {}
    for s in segs:
        ks = (s.p.key, s.q.key)
        groups.setdefault(_k.line3(*ks), []).append(ks)
    cmp = _k.pt_cmp
    out: List[Tuple[Tuple[Key, Key], LineKey]] = []
    for line, group in groups.items():
        group.sort(key=_pair_order)
        start, end = group[0]
        for pk, qk in group[1:]:
            if cmp(pk, end) > 0:
                out.append(((start, end), line))
                start, end = pk, qk
            elif cmp(end, qk) < 0:
                end = qk
        out.append(((start, end), line))
    out.sort(key=lambda e: _pair_order(e[0]))
    return out


@dataclass(frozen=True)
class SegmentComplex:
    """Normalized union of segments plus its intersection graph.

    keys[i] is the endpoint-key pair of maximal segment i, lesser end
    first, in Segment order; it is the one stored form of a maximal
    segment. adjacency[i] holds, in ascending order, the indices of the
    maximal segments whose closed hulls meet segment i (i itself
    excluded). lines[i] is the canonical line of segment i.
    vertex_segments maps the key of every vertex (an endpoint, or a point
    where two maximal segments meet) to the ascending indices of the
    segments through it; every other point of the union lies on exactly
    one maximal segment. The vertex index locates vertices, answers
    segment membership between two of them, and names a maximal segment
    (segment_index): both its endpoints are vertices. lines and
    vertex_segments are derived from keys, so equality ignores them.

    Three views are built on first read and then kept by the complex; as
    cached properties they take no part in equality or repr.
    maximal_segments holds the Segment of every key pair, for callers
    that want Points. distances[i][j] is the graph distance from segment
    i to segment j, None when they lie in different components. Row i is
    _bfs(C, (i,))[0], one BFS per maximal segment. box_masks holds the x
    and then the y masks of _axis_masks, over the floor keys of the
    segment ends; it is first read when a point that is not a vertex is
    located, so vertex-only callers never build it.
    """

    keys: Tuple[Tuple[Key, Key], ...]
    adjacency: Tuple[Tuple[int, ...], ...]
    lines: Tuple[LineKey, ...] = field(compare=False, repr=False)
    vertex_segments: Dict[Key, Tuple[int, ...]] = field(compare=False, repr=False)

    def __len__(self) -> int:
        return len(self.keys)

    @cached_property
    def maximal_segments(self) -> Tuple[Segment, ...]:
        return tuple(
            Segment(point_from_key(p), point_from_key(q)) for p, q in self.keys
        )

    @cached_property
    def distances(self) -> Tuple[Tuple[Optional[int], ...], ...]:
        return tuple(tuple(_bfs(self, (i,))[0]) for i in range(len(self)))

    @cached_property
    def box_masks(self) -> Tuple[AxisMasks, AxisMasks]:
        # stored lesser end first, so px <= qx; y may run either way
        xs = [((p[0] << 64) // p[1], (q[0] << 64) // q[1]) for p, q in self.keys]
        ys = [
            sorted(((p[2] << 64) // p[3], (q[2] << 64) // q[3])) for p, q in self.keys
        ]
        return _axis_masks(xs), _axis_masks(ys)


def _axis_masks(ranges: Sequence[Sequence[int]]) -> AxisMasks:
    """One axis of the box masks. ranges[i] holds the floor keys of the
    ends of segment i, lesser first. Returns the sorted distinct keys and
    one bitmask per slot: slot 2j+1 is keys[j], slot 2j the open gap below
    it (below every key for j = 0, above every key for j = len(keys)).
    Bit i is set in the slots from segment i's lesser key to its greater
    one, so each segment toggles its bit on at its first slot and off
    after its last, and a running XOR gives the masks."""
    keys = sorted({k for r in ranges for k in r})
    slot = {k: 2 * j + 1 for j, k in enumerate(keys)}
    toggles = [0] * (2 * len(keys) + 1)
    for i, (lo, hi) in enumerate(ranges):
        toggles[slot[lo]] ^= 1 << i
        toggles[slot[hi] + 1] ^= 1 << i
    return keys, tuple(accumulate(toggles, xor))


def _bfs(C: SegmentComplex, seeds: Sequence[int]):
    """Deterministic multi-source BFS over the intersection graph.

    Seeds are visited in ascending order and each segment's neighbours in
    the ascending order normalize stores them in, so dist and parent
    depend only on the complex and the seeds. Returns (dist, parent);
    unreached entries stay None.
    """
    m = len(C.keys)
    dist: List[Optional[int]] = [None] * m
    parent: List[Optional[int]] = [None] * m
    queue = deque()
    for s in sorted(seeds):
        if dist[s] is None:
            dist[s] = 0
            queue.append(s)
    while queue:
        i = queue.popleft()
        for j in C.adjacency[i]:
            if dist[j] is None:
                dist[j] = dist[i] + 1
                parent[j] = i
                queue.append(j)
    return dist, parent


def _on(t: Key, pq: Tuple[Key, Key], b: int) -> bool:
    """Whether the point t, which lies on the line a*x + b*y = c of the
    maximal segment pq, lies on the segment. pq is stored lesser end
    first, so t must lie between its ends along x, or along y when the
    segment is vertical (b == 0). t's denominators must be positive;
    they need not be reduced."""
    p, q = pq
    if b:
        return p[0] * t[1] <= t[0] * p[1] and t[0] * q[1] <= q[0] * t[1]
    return p[2] * t[3] <= t[2] * p[3] and t[2] * q[3] <= q[2] * t[3]


def normalize(raw: Sequence[Segment]) -> SegmentComplex:
    """Build the canonical complex for a union of raw segments.

    Point-set equal to the input union; degenerate segments cannot occur
    here (Segment construction rejects them with DegenerateSegment).
    """
    segs = list(raw)
    if not segs:
        raise EmptyInput("no segments")
    keys, lines = zip(*_merge_collinear(segs))
    m = len(keys)
    # Maximal segments on one line never touch (they would have merged),
    # so two of them meet exactly when their lines cross at a point on
    # both segments (_on). That point is (xn/det, yn/det) with det > 0,
    # unreduced, which _on accepts; the vertex index stores it reduced.
    # Row i appends i's later neighbours after the rows before it appended
    # its earlier ones, so every adjacency list comes out ascending.
    adj: List[List[int]] = [[] for _ in range(m)]
    vertices: Dict[Key, set] = {}
    for i, (p, q) in enumerate(keys):
        vertices.setdefault(p, set()).add(i)
        vertices.setdefault(q, set()).add(i)
    norm2 = _k.norm2
    for i in range(m):
        a1, b1, c1 = lines[i]
        ki = keys[i]
        for j in range(i + 1, m):
            a2, b2, c2 = lines[j]
            det = a1 * b2 - a2 * b1
            if det == 0:
                continue
            xn = c1 * b2 - c2 * b1
            yn = a1 * c2 - a2 * c1
            if det < 0:
                xn, yn, det = -xn, -yn, -det
            t = (xn, det, yn, det)
            if _on(t, ki, b1) and _on(t, keys[j], b2):
                adj[i].append(j)
                adj[j].append(i)
                meet = vertices.setdefault(norm2(xn, det) + norm2(yn, det), set())
                meet.add(i)
                meet.add(j)
    return SegmentComplex(
        keys,
        tuple(map(tuple, adj)),
        lines,
        {t: tuple(sorted(idx)) for t, idx in vertices.items()},
    )


def _containing(
    C: SegmentComplex, t: Key, candidates: Iterable[int]
) -> Iterator[int]:
    """The indices among candidates of the maximal segments through the
    point t: t satisfies the integer line equation a*xn*yd + b*yn*xd ==
    c*xd*yd of lines[i] and passes _on. A scan and a test of a few
    candidates both read this one generator, which forms t's products
    once."""
    xn, xd, yn, yd = t
    u, v, w = xn * yd, yn * xd, xd * yd
    lines, keys = C.lines, C.keys
    for i in candidates:
        a, b, c = lines[i]
        if a * u + b * v == c * w and _on(t, keys[i], b):
            yield i


def _box_mask(C: SegmentComplex, t: Key) -> int:
    """Bitmask of the segments whose floor-key box holds the point t: the
    AND of the x and y masks of t's floor keys. A key k falls in slot
    bisect_left + bisect_right of the sorted keys: 2j+1 when it is
    keys[j], else 2j for the gap below keys[j]. By the box lemma (module
    docstring) every segment through t is set."""
    (xk, xm), (yk, ym) = C.box_masks
    kx = (t[0] << 64) // t[1]
    ky = (t[2] << 64) // t[3]
    return (
        xm[bisect_left(xk, kx) + bisect_right(xk, kx)]
        & ym[bisect_left(yk, ky) + bisect_right(yk, ky)]
    )


def _bits(mask: int) -> Iterator[int]:
    """The indices of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _through(C: SegmentComplex, t: Key) -> Tuple[int, ...]:
    """Ascending indices of the maximal segments through the point t: its
    vertex index entry, else the first segment through it among those its
    box masks admit, in ascending order (a point that is not a vertex lies
    on at most one)."""
    found = C.vertex_segments.get(t)
    if found is not None:
        return found
    for i in _containing(C, t, _bits(_box_mask(C, t))):
        return (i,)
    return ()


def contains_point(C: SegmentComplex, p: Point) -> bool:
    return bool(_through(C, p.key))


def incident_segments(C: SegmentComplex, p: Point) -> Tuple[int, ...]:
    """Ascending indices of all maximal segments through p;
    PointNotOnComplex when there are none."""
    found = _through(C, p.key)
    if not found:
        raise PointNotOnComplex(f"{point_str(p)} is not on the complex")
    return found


def segment_index(C: SegmentComplex, s: Segment) -> Optional[int]:
    """The index of s among C's maximal segments; None when s is not one
    (a proper part of one, or not in the union)."""
    ks = (s.p.key, s.q.key)
    for i in C.vertex_segments.get(ks[0], ()):
        if C.keys[i] == ks:
            return i
    return None


def _contains(C: SegmentComplex, p: Key, q: Key) -> bool:
    """contains_segment on the keys of the two ends. A vertex q lies on
    exactly the segments its index entry lists, so one segment holds p
    and q exactly when that entry shares an index with p's segments; any
    other q is tested on the segments through p. With p == q either way
    answers whether p lies on the complex."""
    through_p = _through(C, p)
    through_q = C.vertex_segments.get(q)
    if through_q is not None:
        return not set(through_p).isdisjoint(through_q)
    return next(_containing(C, q, through_p), None) is not None


def contains_segment(C: SegmentComplex, p: Point, q: Point) -> bool:
    """Whether the whole closed segment [p, q] lies inside the union.

    After normalization this is exactly "some single maximal segment
    contains both": a straight in-union segment cannot bridge the gap
    between two distinct collinear maximal segments, and transversal
    segments cover only isolated points of its line. A maximal segment is
    convex, so it contains [p, q] exactly when it passes through p and
    through q: p is located, and q must lie on one of the segments
    through it, read from the vertex index when q is a vertex and tested
    by its line equation otherwise.
    """
    return _contains(C, p.key, q.key)


class OneSet(NamedTuple):
    """Canonical finite union of closed maximal segments and isolated
    vertices of a complex: segments holds their ascending indices, points
    the vertices' keys sorted by _k.pt_cmp."""

    segments: Tuple[int, ...] = ()
    points: Tuple[Key, ...] = ()

    def is_empty(self) -> bool:
        return not self.segments and not self.points


def least_point(C: SegmentComplex, s: OneSet) -> Optional[Point]:
    """Lexicographically least point of s, None when s is empty.

    The least point of a maximal segment is its first endpoint, and
    maximal segments are stored in Segment order, so the least endpoint
    of s's segments is that of its first; its points are sorted.
    """
    firsts = s.points[:1] + tuple(C.keys[i][0] for i in s.segments[:1])
    return point_from_key(min(firsts, key=_key_order)) if firsts else None


def intersection_fold(
    C: SegmentComplex, index_sets: Sequence[AbstractSet[int]]
) -> Tuple[OneSet, ...]:
    """The left fold of the regions given by index_sets, each a set of
    maximal-segment indices of C: entry i is the intersection of regions
    0..i. Its segments are those every set 0..i holds, in index order; its
    points are the keys of the vertices every set touches that no kept
    segment passes through, sorted by _k.pt_cmp."""
    out: List[OneSet] = []
    kept: Optional[AbstractSet[int]] = None
    touched = list(C.vertex_segments.items())
    for idx in index_sets:
        kept = frozenset(idx) if kept is None else kept & idx
        touched = [(v, t) for v, t in touched if not idx.isdisjoint(t)]
        points = sorted((v for v, t in touched if kept.isdisjoint(t)), key=_key_order)
        out.append(OneSet(tuple(sorted(kept)), tuple(points)))
    return tuple(out)
