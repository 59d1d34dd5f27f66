"""Brute-force reference computations used by several test modules.

Everything here works on the RAW segment list, never on the normalized
complex, so agreement with the package is a genuine cross-check.
"""

from collections import deque

from vislink import _pure as _k
from vislink.kernel import on_segment, point_from_key


def covered(raws, p, q):
    """Straight closed segment [p,q] inside the union of raw segments.

    Interval-cover sweep over the traces of every raw segment on [p,q].
    """
    if p == q:
        return any(on_segment(p, r) for r in raws)
    lo, hi = (p, q) if p <= q else (q, p)
    traces = []
    for r in raws:
        kind, payload = _k.seg_meet(lo.key, hi.key, r.p.key, r.q.key)
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
            kind, payload = _k.seg_meet(a.p.key, a.q.key, b.p.key, b.q.key)
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
