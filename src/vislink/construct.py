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
a-b chords concurrent inside the polygon, and no a-b chord except the
removed one through a removed matching midpoint (the edge midpoints c_i
avoid every diagonal by strict convexity). An a-b chord joins an
a-vertex to a b-vertex, vertex indices of odd sum; every fan segment is
one, and the a-a and b-b diagonals lie in no fan, so where they meet
cannot change the complex. PolygonSpec checks k >= 2, 2k+2 vertices and
strict convexity, check_strong_general_position the rest, all exactly on
integer keys; make_polygon reseeds the jitter until the latter passes.

Tail geometry makes the side conditions hold by construction: tail
vertices march outward along the edge normal (strictly outside the
polygon after the first vertex), and lateral offsets alternate with
distinct consecutive differences (so no two consecutive tail edges are
collinear and the tail is simple). Different tails are disjoint by the
slab lemma: every tail vertex past c_i lies over the middle of its edge
(edge parameter 1/2 +- 1/16) and strictly outside it, so in the open
outward slab over that edge; the slabs over two distinct edges of a
convex polygon are disjoint, because a point outside the polygon has
exactly one nearest point in it. The only hypothesis, a clockwise
strictly convex polygon, holds for every PolygonSpec.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

from . import _pure as _k
from .complexes import (
    SegmentComplex,
    _through,
    contains_point,
    contains_segment,
    normalize,
    segment_index,
)
from .kernel import GeometryError, Point, Segment
from .links import SearchTree, link_region, search_tree
from .rng import STREAM_POLYGON, Stream, derive


class KTooSmall(GeometryError):
    """The family needs k >= 2 (at least a hexagon)."""


class RetryLimitExceeded(GeometryError):
    """No admissible vertex placement found within the retry bound."""


class NotConvex(GeometryError):
    """Vertex cycle is not strictly convex clockwise."""


class SideConditionFailed(GeometryError):
    """A structural side condition that the family's claims rely on fails."""


_RETRY_LIMIT = 1000
_NORMAL_STEP = Fraction(1, 4)
_LATERAL_AMP = Fraction(1, 8)


def _require_convex(keys: Sequence[Tuple[int, int, int, int]]) -> None:
    """Raise NotConvex unless every vertex lies strictly to the right of
    every edge: the cycle is strictly convex and clockwise."""
    m = len(keys)
    for i in range(m):
        a, b = keys[i], keys[(i + 1) % m]
        for j in range(m):
            if j != i and j != (i + 1) % m and _k.orient(a, b, keys[j]) != -1:
                raise NotConvex(
                    "polygon is not strictly convex clockwise: "
                    f"vertex {j} is not strictly right of edge {i}"
                )


@dataclass(frozen=True)
class PolygonSpec:
    """Clockwise cyclic vertex list a_0, b_0, ..., a_k, b_k.

    Construction (and dataclasses.replace) checks the family's hypotheses
    in this order: k < 2 raises KTooSmall (the omitted matching segments
    would be polygon edges, not diagonals), a vertex count other than
    2k+2 GeometryError, a cycle not clockwise strictly convex NotConvex.
    make_polygon's specs are also in strong general position.
    """

    k: int
    vertices: Tuple[Point, ...]
    seed: int
    retry_count: int

    def __post_init__(self):
        if self.k < 2:
            raise KTooSmall(f"k must be >= 2, got {self.k}")
        if len(self.vertices) != 2 * (self.k + 1):
            raise GeometryError(
                f"k={self.k} needs {2 * (self.k + 1)} vertices, "
                f"got {len(self.vertices)}"
            )
        _require_convex([v.key for v in self.vertices])

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
    its bend table, built with the tree) and the targets' link regions.
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


def _ab_chords(m: int) -> List[Tuple[int, int]]:
    """Vertex index pairs (i, j), i < j, of the a-b chords of an m-gon
    (m even) that are diagonals, sorted: j - i is odd, and neither 1 nor
    m - 1."""
    return [
        (i, j) for i in range(m) for j in range(i + 3, m, 2) if j - i != m - 1
    ]


def _midpoint(p: Point, q: Point) -> Point:
    return Point((p.x + q.x) / 2, (p.y + q.y) / 2)


def check_strong_general_position(
    p: PolygonSpec,
) -> Tuple[bool, Optional[Tuple[Tuple[int, int], ...]]]:
    """Exact test of strong general position; every PolygonSpec is
    already strictly convex.

    Only a-b chords are scanned, the diagonals the fans are built from,
    on one table of their integer line equations. No three may be
    concurrent, and none but the removed one may pass through the
    midpoint of a removed matching diagonal: that midpoint is inside the
    polygon, where a chord's line meets it only along the chord. Edge
    midpoints need no test: a diagonal of a strictly convex polygon meets
    the boundary only at its two vertices, and build_family re-checks
    their incident segments.

    Returns (True, None), or (False, witness) for the first violation:
    the three concurrent chords, sorted, or (removed matching diagonal,
    chord through its midpoint); each chord is a pair of vertex indices.
    """
    verts = p.vertices
    keys = [v.key for v in verts]
    diags = _ab_chords(len(verts))
    lines = [_k.line3(keys[i], keys[j]) for i, j in diags]
    # crossing point key -> chords through it, in order of discovery;
    # keys of canonical scalars are equal exactly when the points are
    hits: Dict[Tuple[int, int, int, int], List[Tuple[int, int]]] = {}
    for di in range(len(diags)):
        i1, j1 = diags[di]
        for dj in range(di + 1, len(diags)):
            i2, j2 = diags[dj]
            # in a convex polygon two chords cross, at a point inside
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
    for i in range(p.k + 1):
        match = tuple(sorted((2 * p.partner(i), 2 * i + 1)))
        xn, xd, yn, yd = _midpoint(verts[match[0]], verts[match[1]]).key
        u, v, w = xn * yd, yn * xd, xd * yd
        for d, (a, b, c) in zip(diags, lines):
            if d != match and a * u + b * v == c * w:
                return False, (match, d)
    return True, None


def make_polygon(k: int, seed: int) -> PolygonSpec:
    """Deterministic admissible vertex placement on the rational circle.

    Parameters t_j come from a jittered strictly increasing grid mapped
    through t = s(3 - s^2) / (2(1 - s^2)); the image points
    ((1-t^2)/(1+t^2), 2t/(1+t^2)) trace the unit circle monotonically, so
    strict convexity holds by construction. The jitter is re-derived from
    (seed, retry) until check_strong_general_position passes; k < 2
    raises KTooSmall from PolygonSpec.
    """
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
        if check_strong_general_position(spec)[0]:
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


def _tails(
    p: PolygonSpec, mids: Sequence[Point], n: int
) -> Tuple[Tuple[Point, ...], ...]:
    """Tails: outward march with alternating lateral offsets.

    Vertex r sits at c_i + r*step*N + amp*alt_r*E with c_i = mids[i],
    alt_r = (-1)^(r+1) / 2^r, E the edge vector a_{i+1} - b_i and N
    the outward normal, E turned a quarter counterclockwise (the polygon
    is clockwise, so the outside is on the edge's left). Consecutive
    offset differences are all distinct, so no two consecutive tail edges
    are collinear; the strictly increasing normal coordinate makes each
    tail simple. Every vertex after c_i lies at edge parameter 1/2 +- 1/16
    and at height r*step > 0 over the edge, in its open outward slab, so
    on a clockwise strictly convex polygon different tails never meet (the
    slab lemma, module docstring).
    """
    tails = []
    for i, ci in enumerate(mids):
        u, w = p.b(i), p.a(i + 1)
        ex, ey = w.x - u.x, w.y - u.y
        nx, ny = -ey, ex
        verts = [ci]
        for r in range(1, n - 1):
            alt = Fraction((-1) ** (r + 1), 2**r)
            verts.append(
                Point(
                    ci.x + _NORMAL_STEP * r * nx + _LATERAL_AMP * alt * ex,
                    ci.y + _NORMAL_STEP * r * ny + _LATERAL_AMP * alt * ey,
                )
            )
        tails.append(tuple(verts))
    return tuple(tails)


def build_family(p: PolygonSpec, n: int = 2) -> Construction:
    """Assemble the (n, k) family member over an admissible polygon.

    n = 2 is the pure fan union; n > 2 additionally grows the tails,
    which the slab lemma keeps pairwise disjoint. Every PolygonSpec has
    k >= 2 and is clockwise strictly convex, so only n < 2 is refused
    here (GeometryError). Structural side conditions that the later
    claims rely on are checked after normalization (SideConditionFailed).
    """
    if n < 2:
        raise GeometryError(f"n must be >= 2, got {n}")
    k1 = p.k + 1
    raw, groups = _fan_segments(p)

    mids = tuple(_midpoint(p.b(i), p.a(i + 1)) for i in range(k1))
    gamma = _tails(p, mids, n) if n > 2 else ()
    for t in gamma:
        raw.extend(Segment(*e) for e in zip(t, t[1:]))

    C = normalize(raw)
    if len(C) != len(raw):
        raise SideConditionFailed(
            "construction segments must survive normalization unmerged"
        )
    B = tuple(tuple(sorted(segment_index(C, raw[r]) for r in g)) for g in groups)

    for i in range(k1):
        # midpoint of each kept boundary edge lies on exactly that edge,
        # plus the base tail edge when tails are present
        if len(_through(C, mids[i].key)) != (1 if n == 2 else 2):
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
