"""Brute-force reference computations used by several test modules.

The general segment predicates live here, not in the package: seg_meet
meets two closed segments on keys (a point, a collinear overlap or
nothing), in_box is its bounding-box test, and on_segment decides a Point
on a Segment by orientation and that box. The package needs none of
them: normalize meets only maximal segments, and a point is located by
complexes._on and the stored line equation. They are the references that
covered, subdivision_vertices and the normalize and adjacency tests
compare against.

Everything here works on the RAW segment list, never on the normalized
complex, so agreement with the package is a genuine cross-check; the
region reference reads no index of the complex either, only its segment
list. cycle_rank is the exception: it reads the complex's vertex index
and intersection graph, and serves a theorem control of the region fold
(Helly on trees), not a recomputation. reference_merge is the collinear
merge as normalize ran it when it sorted and compared Segments by their
Fractions. reference_draw is the sampler's point draw as a Fraction lerp
along the drawn segment, and reference_certificate_valid the certificate
re-check on Points, with containment decided by on_segment over the
maximal segments. reference_tree_path is the search tree's path lookup
as it walked the parent chain on every call, before the tree held a
bend table. The shutter references work on Fraction pairs;
planted_state builds the shutter state with a known viewer that both
scans must detect, and reference_danger_scan is the shutter's per-step
scan as it ran over every pair of sight lines, before its candidates
were bisected. full_general_position and full_midpoints_clear are the
two halves of the polygon genericity check as they ran over every
diagonal, a-a and b-b included, before they were restricted to the a-b
chords the fans hold.
"""

from collections import deque
from fractions import Fraction
from itertools import combinations
from math import gcd
from typing import Dict, Iterable, List, Optional, Tuple

from vislink import _pure as _k
from vislink._pure import _other_coefs, norm2, orient
from vislink.construct import PolygonSpec, _midpoint
from vislink.kernel import Point, Segment, point_from_key, point_str
from vislink.links import (
    PathCertificate,
    VerificationFailed,
    _meet_point,
    certificate_valid,
)
from vislink.shutter import ShutterState, _admit_crossing


def in_box(t, p, q):
    """t inside the coordinate bounding box of [p, q] (closed)."""
    lo = p[0] * q[1] - q[0] * p[1]  # sign of px - qx
    if lo <= 0:
        xok = p[0] * t[1] - t[0] * p[1] <= 0 and t[0] * q[1] - q[0] * t[1] <= 0
    else:
        xok = q[0] * t[1] - t[0] * q[1] <= 0 and t[0] * p[1] - p[0] * t[1] <= 0
    if not xok:
        return False
    lo = p[2] * q[3] - q[2] * p[3]
    if lo <= 0:
        return p[2] * t[3] - t[2] * p[3] <= 0 and t[2] * q[3] - q[2] * t[3] <= 0
    return q[2] * t[3] - t[2] * q[3] <= 0 and t[2] * p[3] - p[2] * t[3] <= 0


def on_segment(t, s):
    """The Point t on the closed Segment s."""
    p, q = s.p.key, s.q.key
    return _k.orient(p, q, t.key) == 0 and in_box(t.key, p, q)


def seg_meet(p1, q1, p2, q2):
    """Exact intersection of closed segments [p1,q1] and [p2,q2].

    Returns (0, None), (1, point), or (2, (lo, hi)) for a collinear overlap
    with lo < hi lexicographically.
    """
    o1 = _k.orient(p1, q1, p2)
    o2 = _k.orient(p1, q1, q2)
    o3 = _k.orient(p2, q2, p1)
    o4 = _k.orient(p2, q2, q1)
    if o1 == 0 and o2 == 0:
        # all four collinear: 1-D interval intersection in lex order
        lo1, hi1 = (p1, q1) if _k.pt_cmp(p1, q1) <= 0 else (q1, p1)
        lo2, hi2 = (p2, q2) if _k.pt_cmp(p2, q2) <= 0 else (q2, p2)
        lo = lo1 if _k.pt_cmp(lo1, lo2) >= 0 else lo2
        hi = hi1 if _k.pt_cmp(hi1, hi2) <= 0 else hi2
        s = _k.pt_cmp(lo, hi)
        if s > 0:
            return (0, None)
        if s == 0:
            return (1, lo)
        return (2, (lo, hi))
    # endpoint touching a segment (at most one contact point possible)
    if o1 == 0 and in_box(p2, p1, q1):
        return (1, p2)
    if o2 == 0 and in_box(q2, p1, q1):
        return (1, q2)
    if o3 == 0 and in_box(p1, p2, q2):
        return (1, p1)
    if o4 == 0 and in_box(q1, p2, q2):
        return (1, q1)
    if o1 != o2 and o3 != o4 and o1 != 0 and o2 != 0 and o3 != 0 and o4 != 0:
        kind, z = _k.line_meet(_k.line3(p1, q1), _k.line3(p2, q2))
        return (1, z)
    return (0, None)


def covered(raws, p, q):
    """Straight closed segment [p,q] inside the union of raw segments.

    Interval-cover sweep over the traces of every raw segment on [p,q].
    """
    if p == q:
        return any(on_segment(p, r) for r in raws)
    lo, hi = (p, q) if p <= q else (q, p)
    traces = []
    for r in raws:
        kind, payload = seg_meet(lo.key, hi.key, r.p.key, r.q.key)
        if kind == 1:
            z = point_from_key(payload)
            traces.append((z, z))
        elif kind == 2:
            traces.append((point_from_key(payload[0]), point_from_key(payload[1])))
    cur = lo
    first = True
    for s, e in sorted(traces):
        if first:
            if s != lo:
                return False
            first = False
        elif s > cur:
            return False
        if e > cur:
            cur = e
    return not first and cur == hi


def subdivision_vertices(raws):
    """Endpoints plus every pairwise intersection point, sorted."""
    pts = set()
    for s in raws:
        pts.add(s.p)
        pts.add(s.q)
    for i in range(len(raws)):
        a = raws[i]
        for j in range(i + 1, len(raws)):
            b = raws[j]
            kind, payload = seg_meet(a.p.key, a.q.key, b.p.key, b.q.key)
            if kind == 1:
                pts.add(point_from_key(payload))
            elif kind == 2:
                pts.add(point_from_key(payload[0]))
                pts.add(point_from_key(payload[1]))
    return sorted(pts)


def oracle_link_distances(raws):
    """All-pairs link distances between subdivision vertices.

    Graph: vertices are subdivision vertices, an edge joins two of them
    when the straight segment between them lies in the union; BFS edge
    count is then exactly the link distance, because a minimal path can
    always be rerouted to bend only at subdivision vertices (each bend
    between non-collinear links sits on two segments).
    """
    vs = subdivision_vertices(raws)
    n = len(vs)
    adj = [[] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if covered(raws, vs[i], vs[j]):
                adj[i].append(j)
                adj[j].append(i)
    dmat = []
    for s in range(n):
        dist = [None] * n
        dist[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if dist[w] is None:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        dmat.append(dist)
    return vs, dmat


def reference_merge(segs: Iterable[Segment]) -> List[Segment]:
    """Merge collinear segments with touching or overlapping closed hulls.

    Lexicographic order restricted to one line is a linear order along the
    line, so a sort-and-sweep per line group suffices.
    """
    groups: Dict[Tuple[int, int, int], List[Segment]] = {}
    for s in segs:
        groups.setdefault(_k.line3(s.p.key, s.q.key), []).append(s)
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


def reference_draw(C, stream):
    """One on-complex point: a segment index and a rational parameter in
    [0,1] drawn from the stream, in that order."""
    s = C.maximal_segments[stream.below(len(C.maximal_segments))]
    t = Fraction(stream.below(65537), 65536)
    return Point(s.p.x + t * (s.q.x - s.p.x), s.p.y + t * (s.q.y - s.p.y))


def _contains_point(C, p):
    return any(on_segment(p, s) for s in C.maximal_segments)


def _contains_segment(C, p, q):
    """[p, q] in the union: one maximal segment holds both ends."""
    return any(on_segment(p, s) and on_segment(q, s) for s in C.maximal_segments)


def reference_certificate_valid(C, cert, bound):
    """Independent re-check: links contained, consecutive vertices distinct,
    intermediate vertices pairwise distinct, link count within bound."""
    vs = cert.vertices
    if not vs or cert.links != len(vs) - 1:
        return False
    if cert.links > bound:
        return False
    if len(vs) == 1:
        return _contains_point(C, vs[0])
    for a, b in zip(vs, vs[1:]):
        if a == b or not _contains_segment(C, a, b):
            return False
    inner = vs[1:-1]
    return len(set(inner)) == len(inner)


def _reference_lookup(tree, q, through_q):
    """The search tree lookup as it compared the source with q as Points."""
    if tree.source == q:
        return 0, None
    links = last = None
    for t in through_q:  # ascending, so ties keep the least index
        d = tree.dist[t]
        if d is not None and (links is None or d + 1 < links):
            links, last = d + 1, t
    return links, last


def reference_tree_path(C, tree, q, n, through_q):
    """tree_path as it walked the parent chain on every call, forming each
    bend anew; q is a Point. It reads the tree's source, dist and parent,
    never its bend table."""
    links, last = _reference_lookup(tree, q, through_q)
    if links is None or links > n:
        return None
    p = tree.source
    if links == 0:
        return PathCertificate((p.key,), 0)
    if links == 1:
        return PathCertificate((p.key, q.key), 1)
    chain = [last]
    while tree.parent[chain[-1]] is not None:
        chain.append(tree.parent[chain[-1]])
    chain.reverse()  # segment through p first
    keys = [p.key]
    for a, b in zip(chain, chain[1:]):
        keys.append(_meet_point(C, a, b))
    keys.append(q.key)
    cert = PathCertificate(tuple(keys), len(chain))
    if not certificate_valid(C, cert, n):
        raise VerificationFailed(
            f"path certificate {point_str(p)} -> {point_str(q)} fails its re-check"
        )
    return cert


class RegionReference:
    """Brute-force intersection of regions that are unions of whole
    segments of segs, each region given by its set of segment indices.

    The probes are every subdivision vertex of segs and the midpoint of
    each subdivision edge (two consecutive vertices on one segment). Such
    a region, and any intersection of them, is a union of vertices and
    open edges, so membership at the probes decides it. through[j] lists
    the segments through probes[j], found by on_segment; probe sets are
    sets of these positions.
    """

    def __init__(self, segs):
        self.segs = list(segs)
        vs = subdivision_vertices(self.segs)
        self.probes = list(vs)
        for s in self.segs:
            on = [v for v in vs if on_segment(v, s)]  # in order along s
            self.probes += [
                Point((a.x + b.x) / 2, (a.y + b.y) / 2) for a, b in zip(on, on[1:])
            ]
        self.through = [
            {i for i, s in enumerate(self.segs) if on_segment(p, s)}
            for p in self.probes
        ]
        self.vertex_at = {v.key: j for j, v in enumerate(vs)}

    def members(self, index_sets):
        """Entry i: the probes through which every set 0..i has a segment."""
        out = []
        inside = set(range(len(self.probes)))
        for idx in map(set, index_sets):
            inside = {j for j in inside if self.through[j] & idx}
            out.append(inside)
        return out

    def errors(self, index_sets, trace):
        """Where trace, a tuple of OneSets (indices into segs and vertex
        keys), is not the left fold of the regions: a probe it gets wrong,
        a listed index that is not one of segs, a listed key that is not a
        vertex or lies on a listed segment, or an unsorted tuple."""
        want = self.members(index_sets)
        if len(trace) != len(want):
            return [f"{len(trace)} entries for {len(want)} regions"]
        out = []
        for i, (X, inside) in enumerate(zip(trace, want)):
            listed = {s for s in X.segments if s in range(len(self.segs))}
            if len(listed) != len(X.segments):
                out.append(f"entry {i} lists a segment that is not in segs")
            points = {self.vertex_at.get(v) for v in X.points}
            if None in points:
                out.append(f"entry {i} lists a point that is not a vertex")
            for j, through in enumerate(self.through):
                got = j in points or bool(through & listed)
                if got != (j in inside):
                    out.append(f"entry {i}: probe {self.probes[j]} in it is {got}")
            pts = [point_from_key(v) for v in X.points]
            for p in pts:
                if any(on_segment(p, self.segs[s]) for s in listed):
                    out.append(f"entry {i}: point {p} lies on a listed segment")
            for part in (list(X.segments), pts):
                if part != sorted(part):
                    out.append(f"entry {i} is not sorted")
        return out


def cycle_rank(C):
    """The first Betti number E - V + C of the union, read from the
    complex's vertex index: V vertices, E subdivision edges (the vertices
    on each maximal segment less one, summed) and C components of the
    intersection graph."""
    on_segment_count = [0] * len(C)
    for through in C.vertex_segments.values():
        for i in through:
            on_segment_count[i] += 1
    edges = sum(on_segment_count) - len(C)
    seen = set()
    components = 0
    for start in range(len(C)):
        if start in seen:
            continue
        components += 1
        seen.add(start)
        stack = [start]
        while stack:
            for j in C.adjacency[stack.pop()]:
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
    return edges - len(C.vertex_segments) + components


# ---------------------------------------------------------------------------
# the axis-screen process with two scans per step


class ReferenceViolation(Exception):
    """The reference process found an upper point seeing all of K."""


def _meet(p1, q1, p2, q2):
    """Crossing of the lines p1q1 and p2q2 (Fraction pairs), None when
    they are parallel or equal."""
    d1x, d1y = q1[0] - p1[0], q1[1] - p1[1]
    d2x, d2y = q2[0] - p2[0], q2[1] - p2[1]
    det = d1x * d2y - d1y * d2x
    if det == 0:
        return None
    t = ((p2[0] - p1[0]) * d2y - (p2[1] - p1[1]) * d2x) / det
    return (p1[0] + t * d1x, p1[1] + t * d1y)


def _cross(z, y):
    """Axis abscissa of [z, y] for z strictly upper, y strictly lower."""
    return z[0] + (y[0] - z[0]) * z[1] / (z[1] - y[1])


def reference_viewer(K, A):
    """First upper point seeing every point of K via the axis points A
    (Points), or None. Meets every pair of sight lines through different
    K-points, with no shortcut, and checks every K-point from each upper
    crossing. Two such lines that coincide are one line through an
    A-point and two K-points; its point at y = 1 is checked too."""
    K = [(p.x, p.y) for p in K]
    admitted = {a.x for a in A}
    lines = [((a.x, a.y), y, i) for a in A for i, y in enumerate(K)]
    for (a1, y1, i1), (a2, y2, i2) in combinations(lines, 2):
        if i1 == i2:
            continue
        z = _meet(a1, y1, a2, y2)
        if z is None and a1 == a2:
            # y1 and y2 on one line through a1: take its point at y = 1
            z = (a1[0] + (y1[0] - a1[0]) / y1[1], Fraction(1))
        if z is not None and z[1] > 0 and all(_cross(z, y) in admitted for y in K):
            return z
    return None


def planted_state(K, zstar):
    """State whose admitted set is exactly the crossings from zstar to K,
    so zstar is a common viewer the scans must detect."""
    s = ShutterState(K)
    for y in K:
        _admit_crossing(s, _k.cross_lower(zstar.key, y.key))
    return s


class ReferenceShutter:
    """The shutter process on Fraction pairs, with the design it had
    before the one-scan step: each step first runs a danger scan over the
    pairs of sight lines that involve a line the previous step added,
    committing a block for each new upper crossing, and after admitting
    its crossings runs a separate viewer scan over the pairs that involve
    a line it added. records holds (step, witness, z_new, b_added,
    a_added, b_size) per step, the abscissae as canonical (n, d) pairs."""

    def __init__(self, K):
        self.K = [(p.x, p.y) for p in K]
        self.A = []
        self.B = set()
        self.zseen = set()
        self.lines = []  # (axis point, K point) per sight line
        self.done = 0
        self.step = 0
        self.records = []
        for i, yi in enumerate(self.K):
            for yj in self.K[i + 1:]:
                if yi[1] != yj[1]:  # the line yi yj crosses the axis
                    self.B.add(yi[0] - yi[1] * (yj[0] - yi[0]) / (yj[1] - yi[1]))
        self.B0 = sorted(self.B)

    def first(self, tup):
        tup = [(p.x, p.y) for p in tup]
        q = 0
        while True:
            z = (Fraction(q), Fraction(1))
            if self._clear(z, tup):
                break
            q = -q if q > 0 else -q + 1
        self._admit(z, tup, 0, self.B0)

    def advance(self, tup):
        tup = [(p.x, p.y) for p in tup]
        before = len(self.zseen)
        b_added = self._danger()
        z_new = len(self.zseen) - before
        x, (a1x, a1y) = self.A[0], tup[0]
        m = 1
        while True:
            z = (x + m * (x - a1x), -m * a1y)
            if self._clear(z, tup[1:]):
                break
            m += 1
        self.step += 1
        self._admit(z, tup[1:], z_new, b_added)

    def _clear(self, z, pts):
        return all(_cross(z, a) not in self.B for a in pts)

    def _upper_crossings(self, start):
        for p in range(start, len(self.lines)):
            for q in range(p):
                z = _meet(*self.lines[p], *self.lines[q])
                if z is not None and z[1] > 0:
                    yield z

    def _danger(self):
        added = []
        for z in self._upper_crossings(self.done):
            if z in self.zseen:
                continue
            self.zseen.add(z)
            for y in self.K:
                c = _cross(z, y)
                if c not in self.A:
                    if c not in self.B:
                        self.B.add(c)
                        added.append(c)
                    break
            else:
                raise ReferenceViolation(z)
        self.done = len(self.lines)
        return added

    def _admit(self, z, pts, z_new, b_added):
        a_added = []
        for a in pts:
            c = _cross(z, a)
            if c not in self.A:
                self.A.append(c)
                a_added.append(c)
        for c in a_added:
            self.lines += [((c, Fraction(0)), y) for y in self.K]
        if set(self.A) & self.B:
            raise ReferenceViolation("A and B intersect")
        for z2 in self._upper_crossings(self.done):
            if all(_cross(z2, y) in self.A for y in self.K):
                raise ReferenceViolation(z2)
        self.records.append((
            self.step,
            z,
            z_new,
            tuple((c.numerator, c.denominator) for c in b_added),
            tuple((c.numerator, c.denominator) for c in a_added),
            len(self.B),
        ))


def reference_danger_scan(lines, start, ys, aidx, pending):
    """The shutter's danger scan as it ran before its candidates were
    bisected: every pair p > q of a line added since the last scan with
    an earlier line through a different forbidden point is intersected,
    and every crossing toward the other forbidden points is reduced and
    looked up. Same arguments, return value and pending list as
    _pure.danger_scan, which must match it call by call."""
    k1 = len(ys)
    n = len(lines)
    others = _other_coefs(ys)
    collinear = all(orient(ys[0], ys[1], y) == 0 for y in ys[2:])
    for p in range(start, n):
        i = p % k1
        rest = others[i]
        a1, b1, c1 = lines[p]
        for q in range(p):
            j = q % k1
            if j == i:
                continue
            a2, b2, c2 = lines[q]
            det = a1 * b2 - a2 * b1
            if det == 0:
                if collinear and (a1, b1, c1) == (a2, b2, c2):
                    return norm2(c1 - b1, a1) + (1, 1)
                continue
            yn = a1 * c2 - a2 * c1
            if yn == 0 or (yn > 0) != (det > 0):
                continue
            xn = c1 * b2 - c2 * b1
            if det < 0:
                xn, yn, det = -xn, -yn, -det
            block = None
            new = True
            for m, ca, cb, cc in rest[j]:
                num = yn * ca - xn * cb
                den = yn * cc - det * cb
                g = gcd(num, den)
                c = (num // g, den // g)
                u = aidx.get(c)
                if u is None:
                    if block is None:
                        block = c
                elif u * k1 + m < p:
                    new = False
            if block is None:
                return norm2(xn, det) + norm2(yn, det)
            if new:
                pending.append(block)
    return None


def _diagonal_index_pairs(m: int) -> List[Tuple[int, int]]:
    """Vertex index pairs of all diagonals of an m-gon, sorted."""
    out = []
    for i in range(m):
        for j in range(i + 1, m):
            if (j - i) % m in (1, m - 1):
                continue
            out.append((i, j))
    return out


def full_general_position(
    p: PolygonSpec,
) -> Tuple[bool, Optional[Tuple[Tuple[int, int], ...]]]:
    """Exact no-three-concurrent-diagonals test.

    Returns (True, None) or (False, first violating triple of diagonals),
    each diagonal given as a pair of vertex indices. The polygon is
    clockwise and strictly convex, as every PolygonSpec is.
    """
    verts = p.vertices
    m = len(verts)
    keys = [v.key for v in verts]
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


def full_midpoints_clear(p: PolygonSpec) -> bool:
    """No diagonal but the removed one passes through the midpoint of a
    removed matching diagonal. That midpoint is inside the polygon, where
    a diagonal's line meets it only along the diagonal, so the integer
    line equation decides. Edge midpoints need no test: a diagonal of a
    strictly convex polygon (every PolygonSpec is one) meets the boundary
    only at its two vertices, and build_family re-checks their incident
    segments.
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
