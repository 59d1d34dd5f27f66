"""Independent checks of each workload's outputs, and their self-tests.

Nothing here calls the program's own checks (certificate_valid,
verify_history, find_common_viewer, ...): every claim is recomputed with the
Fraction geometry in geometry.py from the raw inputs. Each check returns a
list of error strings; an empty list means the outputs are right. Each
self-test plants one fault and returns True when the check rejects it.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction
from typing import List, Sequence

from geometry import Cover, LinkOracle, axis_crossing, axis_crossing_line, line_meet

MAX_ERRORS = 20


# ---------------------------------------------------------------------------
# grid


def _raw_pieces(k: int, n: int, vertices, gamma) -> List[List[tuple]]:
    """Raw segments of each piece C_i, from the paper's definition: fan i
    joins b_i to every a_v except v = i - floor(k/2) (mod k+1), plus the
    tail gamma_i when n > 2."""
    k1 = k + 1
    pieces = []
    for i in range(k1):
        skip = (i - k // 2) % k1
        segs = [(vertices[2 * v], vertices[2 * i + 1]) for v in range(k1) if v != skip]
        if n > 2:
            t = gamma[i]
            segs += [(t[r], t[r + 1]) for r in range(len(t) - 1)]
        pieces.append(segs)
    return pieces


def check_grid(cells) -> List[str]:
    errors: List[str] = []
    for n, k, c, c2, emptiness, drops, tuples, reports in cells:
        errors += _check_cell(n, k, c, c2, emptiness, drops, tuples, reports)
        if len(errors) >= MAX_ERRORS:
            break
    return errors


def _check_cell(n, k, c, c2, emptiness, drops, tuples, reports) -> List[str]:
    where = f"grid n={n} k={k}"
    err: List[str] = []
    if c.polygon.vertices != c2.polygon.vertices:
        err.append(f"{where}: polygon changed in the document round trip")
    for name in ("e", "gamma", "B"):
        if getattr(c, name) != getattr(c2, name):
            err.append(f"{where}: {name} changed in the document round trip")
    if c.complex.maximal_segments != c2.complex.maximal_segments:
        err.append(f"{where}: segments changed in the document round trip")

    pieces = _raw_pieces(k, n, c2.polygon.vertices, c2.gamma)
    raws = [s for p in pieces for s in p]
    law = (k + 1) * k + (k + 1) * (n - 2)
    if len(raws) != law or len(c2.complex.maximal_segments) != law:
        err.append(
            f"{where}: {len(raws)} raw and {len(c2.complex.maximal_segments)} "
            f"maximal segments, the law says {law}"
        )
    cover = Cover(raws)
    piece_covers = [Cover(p) for p in pieces]

    targets = tuple(c2.e)
    if tuple(emptiness.targets) != targets:
        err.append(f"{where}: the fold did not use the k+1 targets")
    if emptiness.final.segments or emptiness.final.points:
        err.append(f"{where}: the full-target fold is not empty")
    if len(drops) != k + 1:
        err.append(f"{where}: {len(drops)} drop-one controls, expected {k + 1}")
    for i, rep in enumerate(drops):
        if tuple(rep.targets) != targets[:i] + targets[i + 1:]:
            err.append(f"{where}: drop-one control {i} used the wrong targets")
        if not (rep.final.segments or rep.final.points):
            err.append(f"{where}: drop-one fold {i} is empty")

    if len(reports) != len(tuples):
        err.append(f"{where}: {len(reports)} reports for {len(tuples)} tuples")
    for t, rep in zip(tuples, reports):
        err += _check_witness(where, n, k, c2, cover, piece_covers, t, rep)
        if len(err) >= MAX_ERRORS:
            break
    return err


def _check_witness(where, n, k, c2, cover, piece_covers, t, rep) -> List[str]:
    if tuple(rep.tuple) != tuple(t):
        return [f"{where}: report for another tuple than {t}"]
    assigned = set()
    for x in t:
        for i, pc in enumerate(piece_covers):
            if pc.contains(x):
                assigned.add(i)
                break
        else:
            return [f"{where}: tuple point {x} is not on the union"]
    j0 = min(i for i in range(k + 1) if i not in assigned)
    formula = c2.polygon.vertices[2 * ((j0 - k // 2) % (k + 1))]
    if rep.method != "proof-formula" or rep.witness != formula:
        return [f"{where}: tuple {t} not certified by the formula witness {formula}"]
    if len(rep.paths) != len(t):
        return [f"{where}: {len(rep.paths)} paths for {len(t)} points"]
    for x, path in zip(t, rep.paths):
        vs = path.vertices
        if not vs or vs[0] != rep.witness or vs[-1] != x:
            return [f"{where}: path does not run from the witness to {x}"]
        if path.links != len(vs) - 1 or path.links > n:
            return [f"{where}: path to {x} has {len(vs) - 1} links, bound {n}"]
        for a, b in zip(vs, vs[1:]):
            if a == b or not cover.covered(a, b):
                return [f"{where}: link {a} -> {b} of the path to {x} leaves the union"]
    return []


def selftest_grid(cells) -> bool:
    """A path vertex moved off the union must be rejected."""
    for n, k, c, c2, emptiness, drops, tuples, reports in cells:
        for ri, rep in enumerate(reports):
            for pi, path in enumerate(rep.paths):
                if path.links >= 2:
                    v = path.vertices[1]
                    bad_v = type(v)(v[0] + Fraction(1, 7), v[1])
                    bad_path = dataclasses.replace(
                        path, vertices=(path.vertices[0], bad_v) + path.vertices[2:]
                    )
                    paths = list(rep.paths)
                    paths[pi] = bad_path
                    bad = list(reports)
                    bad[ri] = dataclasses.replace(rep, paths=tuple(paths))
                    cell = (n, k, c, c2, emptiness, drops, tuples, bad)
                    return bool(check_grid([cell]))
    return False


# ---------------------------------------------------------------------------
# shutter


def common_viewer_over(K: Sequence, A: Sequence) -> List[str]:
    """Upper points seeing all of K through the axis points A.

    A viewer z sees K[0] through some a_u and K[1] through some a_v, so it
    lies on both lines a_u K[0] and a_v K[1]. If u = v, a_u lies on the line
    K[0] K[1]; that case is ruled out first, after which every viewer is
    the crossing of two such lines with u != v.
    """
    xs = [a[0] for a in A]
    aset = set(xs)
    y0, y1 = K[0], K[1]
    if y0[1] != y1[1]:
        c01 = axis_crossing_line(y0, y1)
        if c01 in aset:
            return [f"the line through K[0] and K[1] crosses the axis in A at {c01}"]
    rest = K[2:]
    zero = Fraction(0)
    found = []
    for u, xu in enumerate(xs):
        au = (xu, zero)
        for v, xv in enumerate(xs):
            if u == v:
                continue
            z = line_meet(au, y0, (xv, zero), y1)
            if z is None or z[1] <= 0:
                continue
            if all(axis_crossing(z, y) in aset for y in rest):
                found.append(f"upper point {z} sees all of K via A")
                if len(found) >= MAX_ERRORS:
                    return found
    return found


def check_shutter(K, schedule, steps: int, s, history_ok) -> List[str]:
    err: List[str] = []
    k = len(K) - 1
    if tuple(s.K) != tuple(K):
        err.append("the state's K is not the input K")
    if history_ok is not True:
        err.append("the program's own history check did not pass")
    if len(s.history) != steps + 1:
        err.append(f"{len(s.history)} witnesses for {steps + 1} tuples")
    A, B = list(s.A), list(s.B)
    if any(p[1] != 0 for p in A) or any(p[1] != 0 for p in B):
        err.append("A or B holds a point off the axis")
    aset = {p[0] for p in A}
    bset = {p[0] for p in B}
    if len(aset) != len(A):
        err.append("A holds a point twice")
    if aset & bset:
        err.append(f"A and B meet at {sorted(aset & bset)[:3]}")
    if len(A) > k + steps * (k - 1):
        err.append(f"|A| = {len(A)} exceeds k + steps*(k-1) = {k + steps * (k - 1)}")
    for i, (tup, z) in enumerate(s.history):
        if i < len(schedule) and tuple(tup) != tuple(schedule[i]):
            err.append(f"witness {i} answers another tuple than scheduled")
        if z[1] <= 0:
            err.append(f"witness {i} at {z} is not above the axis")
            continue
        for y in tup:
            if axis_crossing(z, y) not in aset:
                err.append(f"witness {i} at {z} does not see {y} via A")
        if len(err) >= MAX_ERRORS:
            return err
    return err + common_viewer_over(K, A)


def selftest_shutter() -> bool:
    """The planted viewer of acceptance criterion 6 must be found."""
    F = Fraction
    K = ((F(-1), F(-1)), (F(0), F(-2)), (F(1), F(-1)))
    zstar = (F(0), F(2))
    A = [(axis_crossing(zstar, y), F(0)) for y in K]
    return bool(common_viewer_over(K, A))


# ---------------------------------------------------------------------------
# oracle


def check_oracle(items, answers) -> List[str]:
    err: List[str] = []
    if len(answers) != len(items):
        return [f"{len(answers)} answers for {len(items)} complexes"]
    for case, ((raws, verts, folds), ans) in enumerate(zip(items, answers)):
        if ans is None:
            continue  # a failed op, counted as such
        dist, viewers = ans
        oracle = LinkOracle(raws)
        if [tuple(v) for v in verts] != oracle.vertices:
            err.append(f"complex {case}: query points are not its subdivision vertices")
            continue
        rows = [oracle.distances_from(v) for v in oracle.vertices]
        m = len(rows)
        want = [rows[i][j] for i in range(m) for j in range(i, m)]
        if dist != want:
            err.append(f"complex {case}: link distances differ from the oracle's")
        for (targets, n), z in zip(folds, viewers):
            idx = [oracle.index[tuple(t)] for t in targets]
            if z is not None:
                d = oracle.distances_from(tuple(z))
                if any(d[i] is None or d[i] > n for i in idx):
                    err.append(f"complex {case}: viewer {z} misses a target within {n}")
            elif any(
                all(rows[w][i] is not None and rows[w][i] <= n for i in idx)
                for w in range(m)
            ):
                err.append(f"complex {case}: no viewer reported, but a vertex sees all")
        if len(err) >= MAX_ERRORS:
            break
    return err


def selftest_oracle(items, answers) -> bool:
    """One perturbed link distance must be rejected."""
    for case, ans in enumerate(answers):
        if ans and ans[0]:
            dist, viewers = ans
            d0 = dist[0]
            bad = [(1 if d0 is None else d0 + 1)] + dist[1:]
            return bool(check_oracle([items[case]], [(bad, viewers)]))
    return False

