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

The shutter's scans (viewer_scan, danger_scan) meet sight lines, each
through an admitted axis point and a forbidden lower point. Two facts
prune them:

- Axis keys. An axis point a = n/d has the integer key
  floor(a * 2**64) = (n << 64) // d. The key never decreases as a grows,
  and equal rationals have equal keys, so a rational whose key is no
  admitted point's key is not admitted.
- The interval lemma. Let line p run through a_u and the lower point Y_i,
  and let w be where the parallel to p through another lower point Y_j
  meets the axis. As z runs up the part of p above the axis, starting at
  a_u, the line z Y_j crosses the axis at points running strictly
  monotonically from a_u toward w. So the sight line through a_v and Y_j
  meets p strictly above the axis exactly when a_v lies strictly between
  a_u and w. The admitted points whose keys lie between the keys of a_u
  and w, both included, are a superset of them (_between), and each
  candidate still gets the exact sign test.
"""

from bisect import bisect_left, bisect_right
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


def _axis_table(aidx):
    """(av, keys, vs): av[u] is the abscissa with admission index u in
    aidx; keys lists the admitted points' axis keys ascending, and vs
    their admission indices in the same order (the bisect table of
    _between)."""
    av = [None] * len(aidx)
    for c, u in aidx.items():
        av[u] = c
    table = sorted(((n << 64) // d, u) for u, (n, d) in enumerate(av))
    return av, [key for key, _ in table], [u for _, u in table]


def _between(keys, vs, ku, line, y):
    """Admission indices, in key order, of the admitted points a_v whose
    sight line toward the lower point y may cross line above the axis.
    line is canonical, through a_u (axis key ku) and another lower point.
    By the interval lemma these are the points strictly between a_u and
    w, the axis crossing of the parallel to line through y; the slice of
    keys from ku to w's key, both included, holds them all."""
    a, b, _ = line
    xn, xd, yn, yd = y
    # w = x(y) + b*y(y)/a; a > 0, since a line through an axis point and
    # a lower point is not horizontal
    kw = ((xn * yd * a + b * yn * xd) << 64) // (xd * yd * a)
    if kw < ku:
        ku, kw = kw, ku
    return vs[bisect_left(keys, ku) : bisect_right(keys, kw)]


def viewer_scan(ys, aidx, lines):
    """First upper point seeing every y through admitted axis points.

    ys: the forbidden points (all strictly lower), in fixed order.
    aidx: maps each admitted abscissa (a canonical scalar) to its
    admission index u. lines: flat list, lines[u*len(ys) + i] = canonical
    line through the u-th admitted point and ys[i].

    A viewer z sees ys[0] via some a_u and ys[1] via some a_v. If u != v,
    z is the upper crossing of sight lines u*len(ys) and v*len(ys) + 1,
    so every line through ys[1] is met with the lines through ys[0] that
    _between names, in admission order. If u == v, a_u is the axis
    crossing c01 of the line ys[0]ys[1], and z is where that line meets
    the sight line toward some ys[w] off it; so when c01 is admitted,
    that line is met with every sight line too. Each strictly upper
    crossing z sees ys[0] and ys[1]; it is returned, as a canonical
    point, when its crossings toward ys[2:] are all admitted. If all of
    ys is collinear and c01 is admitted, every upper point of that line
    is a viewer and no sight line crosses it above the axis, so its point
    at y = 1 is returned. Returns None when there is no viewer. The
    shutter's per-step check is danger_scan.
    """
    k1 = len(ys)
    rest = _other_coefs(ys)[1][0]
    av, keys, vs = _axis_table(aidx)
    pairs = []
    for u, (n, d) in enumerate(av):
        l1 = lines[u * k1 + 1]
        near = sorted(_between(keys, vs, (n << 64) // d, l1, ys[0]))
        pairs.append((l1, [lines[v * k1] for v in near]))
    l01 = line3(ys[0], ys[1])
    kind, n, d = axis_cross(l01)
    if kind == 1 and (n, d) in aidx:
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
                if (num // g, den // g) not in aidx:
                    break
            else:
                return norm2(xn, det) + norm2(yn, det)
    return None


def _pair_forms(line, col, rest):
    """Coefficients, linear in the admitted point's (n, d), of a pair of
    the line (a1, b1, c1) with the sight line (al*d, be*n - ga*d, al*n)
    through (n/d, 0) and the forbidden point of col = (al, be, ga): det,
    yn and xn of their crossing z = (xn/det, yn/det), and for each
    (m, ca, cb, cc) of rest the numerator and denominator of the axis
    crossing of [z, ys[m]], as in _other_coefs. Each is a pair (c1, c0)
    for c1*n + c0*d. Evaluated, they are one multiple of the values for
    the canonical lines with det > 0, so den has the sign of det."""
    a1, b1, c1 = line
    al, be, ga = col
    t1, t0 = a1 * be, -a1 * ga - al * b1
    y1, y0 = al * a1, -al * c1
    x1, x0 = c1 * be - al * b1, -c1 * ga
    cross = [
        (m, y1 * ca - x1 * cb, y0 * ca - x0 * cb,
         y1 * cc - t1 * cb, y0 * cc - t0 * cb)
        for m, ca, cb, cc in rest
    ]
    return t1, t0, y1, y0, x1, x0, cross


def danger_scan(lines, start, ys, aidx, pending):
    """The shutter's one scan per step: find a viewer, or block each new
    dangerous crossing.

    lines: flat family as in viewer_scan; entries from start on are the
    ones added since the last scan. aidx maps each admitted abscissa to
    its admission index u, so line u*len(ys) + m runs through it and
    ys[m]. Every pair p > q of a new line with an earlier line through a
    different forbidden point that can cross above the axis is
    intersected, p ascending and then q, so over all scans pairs are met
    in lexicographic (p, q) order. For a strictly upper crossing z of
    lines p and q, through ys[i] and ys[j], the crossing of [z, ys[m]] is
    computed for every other m. If all are admitted, z sees every
    forbidden point and is returned as a canonical point. Otherwise, if z
    is new, the first unadmitted one is appended to pending, the caller's
    list of blocks still to commit.

    The candidates q of line p, through a_u, are the lines u*len(ys) + j
    for j < i, and the lines v*len(ys) + j with v < u that _between names
    (the interval lemma of the module docstring). Every candidate still
    gets the exact sign test. Pairs with v > u have q > p; the others
    cross on the axis (v == u) or not above it, so no upper pair is left
    out. Two equal lines p and q run through ys[i], ys[j] and an admitted
    point, so they have v == u; if all of ys is on that line, its point
    at y = 1 is returned as a viewer, as in viewer_scan.

    The crossings are linear forms in a_v = n/d (_pair_forms), computed
    once per (p, j). Only the block is reduced: a crossing num/den whose
    axis key (num << 64) // den is no admitted point's key is not
    admitted, since equal rationals have equal keys. The first such one
    is the block, reduced by the gcd carrying den's sign; later ones
    cannot make z old and are skipped. A crossing whose key is an
    admitted point's is reduced and looked up.

    z is new when no earlier pair met there, which aidx decides: only one
    line joins z to ys[m], so the sight lines through z are p, q and, for
    each other m whose crossing is admitted with index u, line
    u*len(ys) + m. They are distinct lines, since a line through two
    forbidden points has an axis crossing the caller never admits. The
    first pair met at z is their two least indices, so z is new exactly
    when none of the others is below p. The viewer test does not depend
    on newness. Returns None when no viewer was found.
    """
    k1 = len(ys)
    others = _other_coefs(ys)
    collinear = all(orient(ys[0], ys[1], y) == 0 for y in ys[2:])
    av, keys, vs = _axis_table(aidx)
    admitted_keys = set(keys)
    # the sight line through (n/d, 0) and ys[j] is (al*d, be*n - ga*d, al*n)
    cols = [(yn * xd, yd * xd, yd * xn) for xn, xd, yn, yd in ys]
    nd = [c for c in av for _ in ys]  # nd[q]: the admitted point of line q
    for p in range(start, len(lines)):
        u, i = divmod(p, k1)
        line = lines[p]
        rest = others[i]
        nu, du = av[u]
        ku = (nu << 64) // du
        cands = [u * k1 + j for j in range(i)]
        forms = [None] * k1
        for j in range(k1):
            if j != i:
                forms[j] = _pair_forms(line, cols[j], rest[j])
                near = _between(keys, vs, ku, line, ys[j])
                cands += [v * k1 + j for v in near if v < u]
        cands.sort()
        for q in cands:
            n, d = nd[q]
            t1, t0, y1, y0, x1, x0, cross = forms[q % k1]
            det = t1 * n + t0 * d
            if det == 0:
                if collinear and lines[q] == line:
                    a1, b1, c1 = line
                    return norm2(c1 - b1, a1) + (1, 1)
                continue
            yn = y1 * n + y0 * d
            if yn == 0 or (yn > 0) != (det > 0):
                continue
            block = None
            new = True
            for m, n1, n0, d1, d0 in cross:
                num = n1 * n + n0 * d
                den = d1 * n + d0 * d
                known = (num << 64) // den in admitted_keys
                if block is not None and not known:
                    continue
                g = gcd(num, den) if den > 0 else -gcd(num, den)
                c = (num // g, den // g)
                adm = aidx.get(c) if known else None
                if adm is None:
                    if block is None:
                        block = c
                elif adm * k1 + m < p:
                    new = False
            if block is None:
                return norm2(x1 * n + x0 * d, det) + norm2(yn, det)
            if new:
                pending.append(block)
    return None
