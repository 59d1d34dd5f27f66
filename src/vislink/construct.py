"""Generation of the fan-family counterexample complexes.

The base object is a strictly convex polygon with 2k+2 vertices labeled
clockwise a_0, b_0, a_1, b_1, ..., a_k, b_k, all on a rational circle.
From it:

- the 2-link family removes a perfect matching from the complete a-to-b
  join: B_i keeps [a_v, b_i] for every v except v = partner(i) = i - kappa
  (mod k+1), with kappa = floor(k/2) fixed by k. The omitted segment joins
  cycle positions 2*kappa+1 and 2k+1-2*kappa apart, so it is a diagonal
  exactly when k >= 2. The union of the B_i fans is the complex;
- the n-link family (n > 2) attaches to each fan an outward zigzag tail
  of n-2 edges starting at the midpoint c_i of the boundary edge
  [b_i, a_{i+1}].

Vertices sit in "strong general position": strictly convex, no three
diagonals concurrent inside the polygon, and additionally no diagonal
other than a removed matching diagonal passes through that diagonal's
midpoint (the edge midpoints c_i avoid every diagonal by strict
convexity). All of this is verified exactly on integer keys; failures
trigger a deterministic reseed of the jitter, never silent acceptance.

Tail geometry is chosen so the required side conditions hold by
construction where possible: tail vertices march outward along the edge
normal (strictly outside the polygon after the first vertex), lateral
offsets alternate with distinct consecutive differences (so no two
consecutive tail edges are collinear and the tail is simple). Only
pairwise disjointness of different tails needs an explicit exact check;
the lateral amplitude is halved until it passes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

from . import _pure as _k
from .complexes import (
    PointNotOnComplex,
    SegmentComplex,
    contains_point,
    contains_segment,
    incident_segments,
    normalize,
    segment_index,
)
from .kernel import GeometryError, Point, Segment, orientation
from .links import SearchTree, link_region, search_tree
from .rng import STREAM_POLYGON, Stream, derive


class KTooSmall(GeometryError):
    """The family needs k >= 2 (at least a hexagon)."""


class RetryLimitExceeded(GeometryError):
    """No admissible vertex placement found within the retry bound."""


class NotConvex(GeometryError):
    """Vertex cycle is not strictly convex clockwise."""


class GammaPlacementFailed(GeometryError):
    """No disjoint tail placement found within the amplitude schedule."""


class SideConditionFailed(GeometryError):
    """A structural side condition that the family's claims rely on fails."""


_RETRY_LIMIT = 1000
_AMP_HALVINGS = 64
_NORMAL_STEP = Fraction(1, 4)
_BASE_AMP = Fraction(1, 8)


@dataclass(frozen=True)
class PolygonSpec:
    """Clockwise cyclic vertex list a_0, b_0, ..., a_k, b_k."""

    k: int
    vertices: Tuple[Point, ...]
    seed: int
    retry_count: int

    @property
    def kappa(self) -> int:
        """The matching offset floor(k/2), fixed by k."""
        return self.k // 2

    def partner(self, i: int) -> int:
        """Index of the a-vertex that fan i omits: a_partner(j0) is in every
        fan but B_j0, the proof's viewer of a tuple that misses C_j0."""
        return (i - self.kappa) % (self.k + 1)

    def a(self, i: int) -> Point:
        # single choke point for index reduction mod k+1
        return self.vertices[2 * (i % (self.k + 1))]

    def b(self, i: int) -> Point:
        return self.vertices[2 * (i % (self.k + 1)) + 1]


@dataclass(frozen=True)
class Construction:
    """A generated family member with all features indexed.

    Fans and pieces hold maximal-segment indices, each found from the
    segment's endpoints through the complex's vertex index (segment_index).
    What verification and rendering derive from the geometry is built once
    per construction, on first use, and kept on it: the pieces, the least
    piece holding each segment, one search tree per formula witness (with
    its bend memo) and the targets' link regions.
    """

    n: int
    k: int
    polygon: PolygonSpec
    complex: SegmentComplex
    B: Tuple[Tuple[int, ...], ...]
    c: Tuple[Point, ...]
    gamma: Tuple[Tuple[Point, ...], ...]
    e: Tuple[Point, ...]

    @cached_property
    def pieces(self) -> Tuple[frozenset, ...]:
        """Maximal-segment indices of each piece C_i = B_i plus its tail."""
        C = self.complex
        tails = self.gamma or ((),) * (self.k + 1)
        return tuple(
            frozenset(b).union(segment_index(C, Segment(*e)) for e in zip(t, t[1:]))
            for b, t in zip(self.B, tails)
        )

    @cached_property
    def least_piece(self) -> Tuple[Optional[int], ...]:
        """least_piece[s] is the least i with pieces[i] holding maximal
        segment s, None when no piece holds it."""
        table: List[Optional[int]] = [None] * len(self.complex)
        for i, piece in enumerate(self.pieces):
            for s in piece:
                if table[s] is None:
                    table[s] = i
        return tuple(table)

    @cached_property
    def witness_trees(self) -> Tuple[SearchTree, ...]:
        """The search tree from each polygon vertex a_m, m = 0..k: the
        candidates for the formula witness of a tuple."""
        return tuple(
            search_tree(self.complex, self.polygon.a(m)) for m in range(self.k + 1)
        )

    @cached_property
    def target_regions(self) -> Tuple[frozenset, ...]:
        """The n-link region of each distinguished target e_i, as the
        indices of its maximal segments."""
        return tuple(link_region(self.complex, t, self.n) for t in self.e)


def _diagonal_index_pairs(m: int) -> List[Tuple[int, int]]:
    """Vertex index pairs of all diagonals of an m-gon, sorted."""
    out = []
    for i in range(m):
        for j in range(i + 1, m):
            if (j - i) % m in (1, m - 1):
                continue
            out.append((i, j))
    return out


def check_strong_general_position(
    p: PolygonSpec,
) -> Tuple[bool, Optional[Tuple[Tuple[int, int], ...]]]:
    """Exact no-three-concurrent-diagonals test.

    Returns (True, None) or (False, first violating triple of diagonals),
    each diagonal given as a pair of vertex indices. Raises NotConvex
    unless the polygon is strictly convex with its vertices in clockwise
    order: every vertex lies strictly to the right of every edge.
    """
    verts = p.vertices
    m = len(verts)
    if m < 6:
        raise KTooSmall("need k >= 2, i.e. at least 6 vertices")
    keys = [v.key for v in verts]
    for i in range(m):
        a, b = keys[i], keys[(i + 1) % m]
        for j in range(m):
            if j != i and j != (i + 1) % m and _k.orient(a, b, keys[j]) != -1:
                raise NotConvex(f"vertex {j} is not strictly right of edge {i}")
    diags = _diagonal_index_pairs(m)
    lines = [_k.line3(keys[i], keys[j]) for i, j in diags]
    # crossing point key -> diagonals through it, in order of discovery;
    # keys of canonical scalars are equal exactly when the points are
    hits: Dict[Tuple[int, int, int, int], List[Tuple[int, int]]] = {}
    for di in range(len(diags)):
        i1, j1 = diags[di]
        for dj in range(di + 1, len(diags)):
            i2, j2 = diags[dj]
            # in a convex polygon two diagonals cross, at a point inside
            # it, exactly when their endpoints interleave; diags is sorted,
            # so i1 <= i2, and none from i2 = j1 on crosses this one
            if i2 >= j1:
                break
            if i2 == i1 or j2 <= j1:
                continue
            z = _k.line_meet(lines[di], lines[dj])[1]
            bucket = hits.setdefault(z, [])
            for d in (diags[di], diags[dj]):
                if d not in bucket:
                    bucket.append(d)
            if len(bucket) >= 3:
                return False, tuple(sorted(bucket[:3]))
    return True, None


def _midpoint(p: Point, q: Point) -> Point:
    return Point((p.x + q.x) / 2, (p.y + q.y) / 2)


def _midpoints_clear(p: PolygonSpec) -> bool:
    """No diagonal but the removed one passes through the midpoint of a
    removed matching diagonal. That midpoint is inside the polygon, where
    a diagonal's line meets it only along the diagonal, so the integer
    line equation decides. Edge midpoints need no test: a diagonal of a
    strictly convex polygon (proved first by
    check_strong_general_position) meets the boundary only at its two
    vertices, and build_family re-checks their incident segments.
    """
    verts = p.vertices
    keys = [v.key for v in verts]
    diags = _diagonal_index_pairs(len(verts))
    lines = [_k.line3(keys[i], keys[j]) for i, j in diags]
    for i in range(p.k + 1):
        match = tuple(sorted((2 * p.partner(i), 2 * i + 1)))
        xn, xd, yn, yd = _midpoint(verts[match[0]], verts[match[1]]).key
        u, v, w = xn * yd, yn * xd, xd * yd
        for d, (a, b, c) in zip(diags, lines):
            if d != match and a * u + b * v == c * w:
                return False
    return True


def make_polygon(k: int, seed: int) -> PolygonSpec:
    """Deterministic admissible vertex placement on the rational circle.

    Parameters t_j come from a jittered strictly increasing grid mapped
    through t = s(3 - s^2) / (2(1 - s^2)); the image points
    ((1-t^2)/(1+t^2), 2t/(1+t^2)) trace the unit circle monotonically, so
    strict convexity holds by construction. The jitter is re-derived from
    (seed, retry) until the exact genericity checks pass.
    """
    if k < 2:
        raise KTooSmall(f"k must be >= 2, got {k}")
    m = 2 * k + 2
    for retry in range(_RETRY_LIMIT):
        stream = Stream(derive(seed, STREAM_POLYGON, retry))
        pts: List[Point] = []
        for j in range(m):
            eps = Fraction(stream.below(4096), 4096)
            u = (j + Fraction(1, 4) + eps / 2) / m
            s = 2 * u - 1
            t = s * (3 - s * s) / (2 * (1 - s * s))
            pts.append(Point((1 - t * t) / (1 + t * t), 2 * t / (1 + t * t)))
        pts.reverse()  # monotone parameter runs counterclockwise; flip
        spec = PolygonSpec(k=k, vertices=tuple(pts), seed=seed, retry_count=retry)
        ok, _ = check_strong_general_position(spec)
        if ok and _midpoints_clear(spec):
            return spec
    raise RetryLimitExceeded(f"no admissible polygon after {_RETRY_LIMIT} retries")


def _fan_segments(p: PolygonSpec) -> Tuple[List[Segment], List[List[int]]]:
    """Raw fan segments in document order plus per-fan raw indices."""
    k1 = p.k + 1
    raw: List[Segment] = []
    groups: List[List[int]] = []
    for i in range(k1):
        skip = p.partner(i)
        groups.append(list(range(len(raw), len(raw) + p.k)))
        raw.extend(Segment(p.a(v), p.b(i)) for v in range(k1) if v != skip)
    return raw, groups


def _outward_normal(p: PolygonSpec, i: int) -> Tuple[Fraction, Fraction]:
    """Outward normal vector of boundary edge [b_i, a_{i+1}]."""
    u, w = p.b(i), p.a(i + 1)
    dx, dy = w.x - u.x, w.y - u.y
    other = p.a(i)  # any vertex off the edge line marks the inner side
    inner = orientation(u, w, other)
    cand = Point(u.x - dy, u.y + dx)
    if orientation(u, w, cand) == inner:
        return (dy, -dx)
    return (-dy, dx)


def _tails(p: PolygonSpec, n: int, amp: Fraction) -> List[List[Point]]:
    """Candidate tails: outward march with alternating lateral offsets.

    Vertex r sits at c_i + r*step*N + amp*alt_r*E with alt_r =
    (-1)^(r+1) / 2^r. Consecutive offset differences are all distinct, so
    no two consecutive tail edges are collinear; the strictly increasing
    normal coordinate makes each tail simple and keeps every point after
    the base strictly outside the polygon.
    """
    k1 = p.k + 1
    tails: List[List[Point]] = []
    for i in range(k1):
        u, w = p.b(i), p.a(i + 1)
        ci = _midpoint(u, w)
        nx, ny = _outward_normal(p, i)
        ex, ey = w.x - u.x, w.y - u.y
        verts = [ci]
        for r in range(1, n - 1):
            alt = Fraction((-1) ** (r + 1), 2**r)
            verts.append(
                Point(
                    ci.x + _NORMAL_STEP * r * nx + amp * alt * ex,
                    ci.y + _NORMAL_STEP * r * ny + amp * alt * ey,
                )
            )
        tails.append(verts)
    return tails


def _tails_disjoint(tails: Sequence[Sequence[Point]]) -> bool:
    """Exact pairwise disjointness across different tails."""
    edges: List[List[Segment]] = [
        [Segment(t[r], t[r + 1]) for r in range(len(t) - 1)] for t in tails
    ]
    for i in range(len(edges)):
        for j in range(i + 1, len(edges)):
            for s1 in edges[i]:
                for s2 in edges[j]:
                    kind, _ = _k.seg_meet(
                        s1.p.key, s1.q.key, s2.p.key, s2.q.key
                    )
                    if kind != 0:
                        return False
    return True


def build_family(p: PolygonSpec, n: int = 2) -> Construction:
    """Assemble the (n, k) family member over an admissible polygon.

    n = 2 is the pure fan union; n > 2 additionally grows the tails,
    halving the lateral amplitude until all tails are pairwise disjoint.
    Structural side conditions that the later claims rely on are checked
    after normalization (SideConditionFailed). k < 2 raises KTooSmall: the
    omitted matching segments would be polygon edges, not diagonals.
    """
    if p.k < 2:
        raise KTooSmall(f"k must be >= 2, got {p.k}")
    if n < 2:
        raise GeometryError(f"n must be >= 2, got {n}")
    k1 = p.k + 1
    raw, groups = _fan_segments(p)

    mids = tuple(_midpoint(p.b(i), p.a(i + 1)) for i in range(k1))
    gamma: Tuple[Tuple[Point, ...], ...] = ()
    if n > 2:
        for attempt in range(_AMP_HALVINGS):
            tails = _tails(p, n, _BASE_AMP / 2**attempt)
            if _tails_disjoint(tails):
                gamma = tuple(tuple(t) for t in tails)
                break
        else:
            raise GammaPlacementFailed(
                f"tails still intersect after {_AMP_HALVINGS} amplitude halvings"
            )
        for t in gamma:
            for r in range(len(t) - 1):
                raw.append(Segment(t[r], t[r + 1]))

    C = normalize(raw)
    if len(C) != len(raw):
        raise SideConditionFailed(
            "construction segments must survive normalization unmerged"
        )
    B = tuple(tuple(sorted(segment_index(C, raw[r]) for r in g)) for g in groups)

    for i in range(k1):
        # midpoint of each kept boundary edge lies on exactly that edge,
        # plus the base tail edge when tails are present
        try:
            hits = incident_segments(C, mids[i])
        except PointNotOnComplex:
            hits = ()
        if len(hits) != (1 if n == 2 else 2):
            raise SideConditionFailed(
                f"edge midpoint {i} lies on unexpected segments"
            )
        # removed matching diagonal is genuinely absent
        am, bi = p.a(p.partner(i)), p.b(i)
        if contains_segment(C, am, bi) or contains_point(C, _midpoint(am, bi)):
            raise SideConditionFailed(f"removed diagonal {i} is still covered")

    e = tuple(t[-1] for t in gamma) if n > 2 else mids
    return Construction(
        n=n, k=p.k, polygon=p, complex=C, B=B, c=mids, gamma=gamma, e=e
    )
