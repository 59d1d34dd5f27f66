"""The exact integer predicate core.

Every exact predicate of the package bottoms out here. Callers reach these
functions as module attributes (``_k.orient``), never as names bound at
import, so a profiler or tracer can wrap them from outside.

Representations (plain int tuples, no Fraction objects in these hot paths):

- scalar: (n, d) with d > 0 and gcd(n, d) = 1; zero is (0, 1)
- point:  (xn, xd, yn, yd), both coordinates canonical scalars
- line:   (a, b, c) for the locus a*x + b*y = c, integer, gcd(a, b, c) = 1,
          first nonzero of (a, b) positive; unique per geometric line

All functions assume canonical inputs and return canonical outputs, except
where a docstring says otherwise. Denominators are positive everywhere, so
sign tests reduce to numerator products.
"""

from math import gcd


def norm2(n, d):
    """Canonical scalar for the fraction n/d. Pre: d != 0."""
    if d < 0:
        n = -n
        d = -d
    if n == 0:
        return (0, 1)
    g = gcd(n, d)
    return (n // g, d // g)


def pt_cmp(p, q):
    """Lexicographic (x, then y) comparison of two points."""
    t = p[0] * q[1] - q[0] * p[1]
    if t:
        return 1 if t > 0 else -1
    t = p[2] * q[3] - q[2] * p[3]
    return (t > 0) - (t < 0)


def orient(p, q, r):
    """Sign of cross(q - p, r - p): 1 counterclockwise, -1 clockwise."""
    pxn, pxd, pyn, pyd = p
    qxn, qxd, qyn, qyd = q
    rxn, rxd, ryn, ryd = r
    ux = qxn * pxd - pxn * qxd
    uy = qyn * pyd - pyn * qyd
    vx = rxn * pxd - pxn * rxd
    vy = ryn * pyd - pyn * ryd
    t = ux * vy * (qyd * rxd) - uy * vx * (qxd * ryd)
    return (t > 0) - (t < 0)


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


def on_seg(t, p, q):
    """t on the closed segment [p, q]."""
    return orient(p, q, t) == 0 and in_box(t, p, q)


def line3(p, q):
    """Canonical line through two distinct points. Pre: p != q."""
    pxn, pxd, pyn, pyd = p
    qxn, qxd, qyn, qyd = q
    dxn = qxn * pxd - pxn * qxd  # over qxd*pxd
    dyn = qyn * pyd - pyn * qyd  # over qyd*pyd
    a0 = -dyn * (qxd * pxd)
    b0 = dxn * (qyd * pyd)
    a = a0 * (pxd * pyd)
    b = b0 * (pxd * pyd)
    c = a0 * (pxn * pyd) + b0 * (pyn * pxd)
    g = gcd(gcd(abs(a), abs(b)), abs(c))
    a //= g
    b //= g
    c //= g
    if a < 0 or (a == 0 and b < 0):
        a, b, c = -a, -b, -c
    return (a, b, c)


def line_meet(l1, l2):
    """Intersection of two canonical lines.

    Returns (0, None) disjoint parallels, (1, point) proper crossing,
    (2, None) same line. Canonical form makes 'same line' a tuple equality.
    """
    a1, b1, c1 = l1
    a2, b2, c2 = l2
    det = a1 * b2 - a2 * b1
    if det == 0:
        return (2, None) if l1 == l2 else (0, None)
    xn = c1 * b2 - c2 * b1
    yn = a1 * c2 - a2 * c1
    return (1, norm2(xn, det) + norm2(yn, det))


def axis_cross(l):
    """Crossing of a line with the x-axis.

    Returns (0, 0, 1) for a horizontal line off the axis, (2, 0, 1) when the
    line IS the axis, else (1, n, d) with x = n/d canonical.
    """
    a, b, c = l
    if a == 0:
        return (2, 0, 1) if c == 0 else (0, 0, 1)
    n, d = norm2(c, a)
    return (1, n, d)


def seg_meet(p1, q1, p2, q2):
    """Exact intersection of closed segments [p1,q1] and [p2,q2].

    Returns (0, None), (1, point), or (2, (lo, hi)) for a collinear overlap
    with lo < hi lexicographically.
    """
    o1 = orient(p1, q1, p2)
    o2 = orient(p1, q1, q2)
    o3 = orient(p2, q2, p1)
    o4 = orient(p2, q2, q1)
    if o1 == 0 and o2 == 0:
        # all four collinear: 1-D interval intersection in lex order
        lo1, hi1 = (p1, q1) if pt_cmp(p1, q1) <= 0 else (q1, p1)
        lo2, hi2 = (p2, q2) if pt_cmp(p2, q2) <= 0 else (q2, p2)
        lo = lo1 if pt_cmp(lo1, lo2) >= 0 else lo2
        hi = hi1 if pt_cmp(hi1, hi2) <= 0 else hi2
        s = pt_cmp(lo, hi)
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
        kind, z = line_meet(line3(p1, q1), line3(p2, q2))
        return (1, z)
    return (0, None)


def cross_lower(z, y):
    """Axis crossing abscissa of [z, y] as a canonical scalar.

    Pre: z strictly above the axis, y strictly below.
    """
    zxn, zxd, zyn, zyd = z
    yxn, yxd, yyn, yyd = y
    num = yxn * zyn * zxd * yyd - zxn * yyn * yxd * zyd
    den = zxd * yxd * (zyn * yyd - yyn * zyd)
    return norm2(num, den)


def _other_coefs(ys):
    """others[i][j]: (m, a, b, c) for every m other than i and j, where the
    axis crossing of [z, ys[m]] for z = (xn/d, yn/d), d > 0, not
    necessarily reduced, is (yn*a - xn*b) / (yn*c - d*b). For z strictly
    upper and ys[m] strictly lower the denominator is positive."""
    c = [(yxn * yyd, yyn * yxd, yxd * yyd) for yxn, yxd, yyn, yyd in ys]
    r = range(len(ys))
    return [[[(m,) + c[m] for m in r if m != i and m != j] for j in r] for i in r]


def viewer_scan(ys, aset, lines):
    """First upper point seeing every y through admitted axis points.

    ys: the forbidden points (all strictly lower), in fixed order.
    aset: the admitted axis abscissae, a container of scalars.
    lines: flat list, lines[u*len(ys) + i] = canonical line through the
    u-th admitted point and ys[i].

    A viewer z sees ys[0] via some a_u and ys[1] via some a_v. If u != v,
    z is the upper crossing of sight lines u*len(ys) and v*len(ys) + 1,
    so every line through ys[1] is met with every line through ys[0]. If
    u == v, a_u is the axis crossing c01 of the line ys[0]ys[1], and z is
    where that line meets the sight line toward some ys[w] off it; so when
    c01 is admitted, that line is met with every sight line too. Each
    strictly upper crossing z sees ys[0] and ys[1]; it is returned, as a
    canonical point, when its crossings toward ys[2:] are all admitted.
    If all of ys is collinear and c01 is admitted, every upper point of
    that line is a viewer and no sight line crosses it above the axis,
    so its point at y = 1 is returned. Returns None when there is no
    viewer. The shutter's per-step check is danger_scan.
    """
    k1 = len(ys)
    rest = _other_coefs(ys)[1][0]
    pairs = [(l1, lines[0::k1]) for l1 in lines[1::k1]]
    l01 = line3(ys[0], ys[1])
    kind, n, d = axis_cross(l01)
    if kind == 1 and (n, d) in aset:
        if all(orient(ys[0], ys[1], y) == 0 for y in ys[2:]):
            a, b, c = l01
            return norm2(c - b, a) + (1, 1)
        pairs.append((l01, lines))
    for (a1, b1, c1), family in pairs:
        for a2, b2, c2 in family:
            det = a1 * b2 - a2 * b1
            if det == 0:
                continue
            yn = a1 * c2 - a2 * c1
            if yn == 0 or (yn > 0) != (det > 0):
                continue
            xn = c1 * b2 - c2 * b1
            if det < 0:
                xn, yn, det = -xn, -yn, -det
            for _, ca, cb, cc in rest:
                num = yn * ca - xn * cb
                den = yn * cc - det * cb
                g = gcd(num, den)
                if (num // g, den // g) not in aset:
                    break
            else:
                return norm2(xn, det) + norm2(yn, det)
    return None


def danger_scan(lines, start, ys, aidx, pending):
    """The shutter's one scan per step: find a viewer, or block each new
    dangerous crossing.

    lines: flat family as in viewer_scan; entries from start on are the
    ones added since the last scan. aidx maps each admitted abscissa to
    its admission index u, so line u*len(ys) + m runs through it and
    ys[m]. Every pair p > q of a new line with an earlier line through a
    different forbidden point is intersected, p ascending and then q, so
    over all scans pairs are met in lexicographic (p, q) order. For a
    strictly upper crossing z of lines p and q, through ys[i] and ys[j],
    the crossing of [z, ys[m]] is computed for every other m. If all are
    admitted, z sees every forbidden point and is returned as a canonical
    point. Otherwise, if z is new, the first unadmitted one is appended
    to pending, the caller's list of blocks still to commit.

    z is new when no earlier pair met there, which aidx decides: only one
    line joins z to ys[m], so the sight lines through z are p, q and, for
    each other m whose crossing is admitted with index u, line
    u*len(ys) + m. They are distinct lines, since a line through two
    forbidden points has an axis crossing the caller never admits. The
    first pair met at z is their two least indices, so z is new exactly
    when none of the others is below p. The viewer test does not depend
    on newness. Two equal lines p and q run through ys[i], ys[j] and an
    admitted point; if all of ys is on that line, its point at y = 1 is
    returned as a viewer, as in viewer_scan. Returns None when no viewer
    was found.
    """
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
