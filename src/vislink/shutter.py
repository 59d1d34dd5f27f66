"""Finite prefix of the axis-screen ("shutter") process, exactly checked.

The screen is a finite set of x-axis points. A point x sees y "via A" when
the segment [x, y] stays inside the union of the two open half-planes and
A, i.e. when its unique axis crossing belongs to A. The process maintains
two disjoint axis sets:

- A: admitted points. After every processed k-tuple of lower points, some
  upper witness z sees the whole tuple via A, and A only ever grows, so
  witnesses stay valid forever.
- B: blocked points, seeded with every axis crossing of a line through two
  points of the distinguished (k+1)-set K. Whenever two admitted sight
  lines (lines through an A-point and a K-point) cross in the upper half
  plane, the crossing is a potential viewer of all of K; the step
  neutralizes each such point by blocking one of its required crossings
  before extending A.

The decisive invariant, re-checked exactly after every step, is that no
upper point sees all of K via A. The check is a finite scan: a common
viewer would have to see two distinct K-points via two distinct A-points
(one shared A-point would lie on a K-pair line, and those crossings are
blocked from the start), so it must be an intersection of two candidate
sight lines; with fewer than k+1 admitted points no viewer exists at all.

After the basis, each step scans only the pairs of sight lines that
involve a line added in that step. The other pairs carry a certificate:
the step's danger scan processed every upper crossing of two older lines
and gave it a blocked crossing toward some K-point, and A and B are
checked disjoint after every step, so that crossing is never admitted and
the point never sees all of K. A viewer therefore lies on a new sight
line, either because it was never processed or because its blocked
crossing was admitted in this step (which the disjointness check also
catches). find_common_viewer stays the full scan over all pairs; the CLI
runs it once on the final state as an independent cross-check.

All hot loops run on plain integer tuples in the predicate core (_pure);
this module owns state, validation, auditing, and the public Point API.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from . import _pure as _k
from .kernel import GeometryError, Point
from .rng import STREAM_KSET, STREAM_TUPLES, Stream, derive


class SameSideInput(GeometryError):
    """sees_via needs one strictly upper and one strictly lower point."""


class DegenerateK(GeometryError):
    """K or a tuple has repeated or non-lower points."""


class InvariantViolation(GeometryError):
    """A process invariant failed; carries the offending data."""


class PointNotInT(GeometryError):
    """An axis point outside A was used where membership in the screen
    is required."""


@dataclass(frozen=True)
class StepRecord:
    """One audit-log entry (step 0 is initialization)."""

    step: int
    tuple: Tuple[Point, ...]
    z_new: int  # newly seen upper crossings of sight lines (|Z| increment)
    b_added: Tuple[Point, ...]
    a_added: Tuple[Point, ...]
    witness: Point
    a_size: int
    b_size: int
    viewer_absent: bool


class ShutterState:
    """Mutable process state; modified in place by advance()."""

    __slots__ = (
        "k",
        "K",
        "A",
        "b0_size",
        "history",
        "step",
        "audit",
        "_ys",
        "_alist",
        "_aset",
        "_bset",
        "_zseen",
        "_lines",
        "_danger_done",
    )

    def __init__(self, k: int, K: Tuple[Point, ...]):
        self.k = k
        self.K = K
        self.A: List[Point] = []
        self.b0_size = 0
        self.history: List[Tuple[Tuple[Point, ...], Point]] = []
        self.step = 0
        self.audit: List[StepRecord] = []
        self._ys = [p.key for p in K]
        self._alist: List[Tuple[int, int]] = []
        self._aset: Set[Tuple[int, int]] = set()
        self._bset: Set[Tuple[int, int]] = set()
        self._zseen: Set[Tuple[int, int, int, int]] = set()
        self._lines: List[Tuple[int, int, int]] = []
        self._danger_done = 0

    @property
    def B(self) -> FrozenSet[Point]:
        """The blocked axis points, built on demand from the integer set."""
        return frozenset(_axis_point(b) for b in self._bset)


def _axis_point(scalar: Tuple[int, int]) -> Point:
    return Point(Fraction(scalar[0], scalar[1]), Fraction(0))


def _scalar(x: Fraction) -> Tuple[int, int]:
    return (x.numerator, x.denominator)


def _check_lower_distinct(pts: Sequence[Point], what: str) -> None:
    if len(set(pts)) != len(pts):
        raise DegenerateK(f"{what} contains repeated points")
    for p in pts:
        if p.y >= 0:
            raise DegenerateK(f"{what} point {p} is not strictly below the axis")


def sees_via(z: Point, y: Point, A: Sequence[Point]) -> Optional[Point]:
    """Axis crossing of [z, y] if it is an admitted point, else None."""
    if z.y <= 0 or y.y >= 0:
        raise SameSideInput("need z strictly above and y strictly below")
    c = _k.cross_lower(z.key, y.key)
    admitted = {_scalar(p.x) for p in A if p.y == 0}
    return _axis_point(c) if c in admitted else None


def _append_a(s: ShutterState, scalar: Tuple[int, int]) -> bool:
    """Admit an axis point unless already present. Keeps mirrors in sync;
    sight-line rows for it are appended by the caller."""
    if scalar in s._aset:
        return False
    s._aset.add(scalar)
    s._alist.append(scalar)
    s.A.append(_axis_point(scalar))
    return True


def _extend_lines(s: ShutterState, from_index: int) -> None:
    """Append sight-line rows (A-point x K-point) for A[from_index:]."""
    for u in range(from_index, len(s._alist)):
        n, d = s._alist[u]
        akey = (n, d, 0, 1)
        for ykey in s._ys:
            s._lines.append(_k.line3(akey, ykey))


def find_common_viewer(s: ShutterState) -> Optional[Point]:
    """Exact finite search for an upper point seeing all of K via A.

    Any such point must see two distinct K-points via two distinct
    admitted points (a shared admitted point would lie on the line
    through the two K-points, whose axis crossing was blocked at
    initialization), so it is an intersection of two sight lines; the
    scan enumerates those in a fixed order and checks the remaining
    crossings by hash lookup. With |A| < k+1 a viewer is impossible
    outright (k+1 sight crossings over fewer admitted points would
    force a shared one). Returns the first viewer found, else None.
    """
    return _viewer_point(_k.viewer_scan(s._ys, s._aset, s._lines, 0))


def _viewer_point(got: Optional[Tuple[int, int, int, int]]) -> Optional[Point]:
    if got is None:
        return None
    return Point(Fraction(got[0], got[1]), Fraction(got[2], got[3]))


def _check_invariants(s: ShutterState, context: str) -> bool:
    if s._aset & s._bset:
        raise InvariantViolation(
            f"{context}: A and B intersect at {sorted(s._aset & s._bset)[:3]}"
        )
    bound = s.k + s.step * (s.k - 1)
    if len(s.A) > bound:
        raise InvariantViolation(
            f"{context}: |A|={len(s.A)} exceeds bound {bound}"
        )
    # only pairs with a line added since the last danger scan (see the
    # module docstring); the basis has _danger_done == 0, a full scan
    viewer = _viewer_point(
        _k.viewer_scan(s._ys, s._aset, s._lines, s._danger_done)
    )
    if viewer is not None:
        raise InvariantViolation(
            f"{context}: upper point {viewer} sees all of K via A"
        )
    return True


def init_state(K: Sequence[Point], first: Sequence[Point]) -> ShutterState:
    """Induction basis: block all K-pair-line crossings, then admit the
    crossings of one generic upper point's sight segments to `first`.

    The witness z is the first sweep candidate (q, 1) for
    q = 0, 1, -1, 2, -2, ... that avoids every line through a point of
    `first` and a blocked point; avoidance is equivalent to the crossing
    of [z, a] being unblocked for every tuple point a, which is one hash
    lookup per point.
    """
    K = tuple(K)
    if len(K) < 3:
        raise DegenerateK("K needs at least 3 points (k >= 2)")
    _check_lower_distinct(K, "K")
    k = len(K) - 1
    first = tuple(first)
    if len(first) != k:
        raise DegenerateK(f"first tuple must have k={k} points")
    _check_lower_distinct(first, "first tuple")

    s = ShutterState(k, K)
    for i in range(k + 1):
        for j in range(i + 1, k + 1):
            l = _k.line3(s._ys[i], s._ys[j])
            kind, n, d = _k.axis_cross(l)
            if kind == 1:
                s._bset.add((n, d))
    s.b0_size = len(s._bset)

    fkeys = [p.key for p in first]
    z_scalar = None
    q = 0
    while True:
        zkey = (q, 1, 1, 1)
        if all(_k.cross_lower(zkey, a) not in s._bset for a in fkeys):
            z_scalar = q
            break
        q = -q if q > 0 else -q + 1
    z = Point(Fraction(z_scalar), Fraction(1))
    zkey = z.key

    added: List[Point] = []
    for a in fkeys:
        c = _k.cross_lower(zkey, a)
        if _append_a(s, c):
            added.append(_axis_point(c))
    _extend_lines(s, 0)
    s.history.append((first, z))
    ok = _check_invariants(s, "init")
    s.audit.append(
        StepRecord(
            step=0,
            tuple=first,
            z_new=0,
            b_added=tuple(sorted(_axis_point(b) for b in s._bset)),
            a_added=tuple(added),
            witness=z,
            a_size=len(s.A),
            b_size=len(s._bset),
            viewer_absent=ok,
        )
    )
    return s


def advance(s: ShutterState, tup: Sequence[Point]) -> ShutterState:
    """One induction step; mutates s in place and returns it.

    Phases: (1)+(2) process every new upper crossing of two sight lines,
    blocking one unadmitted crossing toward K for each; (3) sweep for a
    generic witness z on the line through the first admitted point and
    the tuple's first point; (4) admit the crossings of [z, a_i] for the
    remaining tuple points. The invariant suite runs before return, its
    viewer scan over the pairs that involve the sight lines of phase (4).
    """
    tup = tuple(tup)
    if len(tup) != s.k:
        raise DegenerateK(f"tuple must have k={s.k} points")
    _check_lower_distinct(tup, "tuple")

    zseen_before = len(s._zseen)
    b_added: List[Tuple[int, int]] = []
    bad = _k.danger_scan(
        s._lines, s._danger_done, s._ys, s._aset, s._bset, s._zseen, b_added
    )
    if bad is not None:
        raise InvariantViolation(
            f"step {s.step + 1}: crossing {bad} already sees all of K via A"
        )
    s._danger_done = len(s._lines)

    # witness sweep along the line through x = A[0] and the first tuple
    # point; never horizontal since x is on the axis and a_1 strictly below
    x = s.A[0]
    a1 = tup[0]
    if x.y != 0:
        raise InvariantViolation(f"step {s.step + 1}: A[0] = {x} is off the axis")
    rest_keys = [p.key for p in tup[1:]]
    m = 0
    while True:
        zx = x.x + (m + 1) * (x.x - a1.x)
        zy = (m + 1) * (0 - a1.y)
        z = Point(zx, zy)
        zkey = z.key
        if all(_k.cross_lower(zkey, a) not in s._bset for a in rest_keys):
            break
        m += 1

    a_added: List[Point] = []
    old_len = len(s._alist)
    for a in rest_keys:
        c = _k.cross_lower(zkey, a)
        if c in s._bset:  # the sweep rules this out
            raise InvariantViolation(
                f"step {s.step + 1}: witness sweep admitted blocked {c}"
            )
        if _append_a(s, c):
            a_added.append(_axis_point(c))
    _extend_lines(s, old_len)

    s.step += 1
    s.history.append((tup, z))
    ok = _check_invariants(s, f"step {s.step}")
    s.audit.append(
        StepRecord(
            step=s.step,
            tuple=tup,
            z_new=len(s._zseen) - zseen_before,
            b_added=tuple(_axis_point(b) for b in b_added),
            a_added=tuple(a_added),
            witness=z,
            a_size=len(s.A),
            b_size=len(s._bset),
            viewer_absent=ok,
        )
    )
    return s


def run_schedule(
    K: Sequence[Point], tuples: Iterable[Sequence[Point]]
) -> ShutterState:
    """Fold init_state then advance over a finite tuple stream."""
    state: Optional[ShutterState] = None
    for tup in tuples:
        if state is None:
            state = init_state(K, tup)
        else:
            advance(state, tup)
    if state is None:
        raise DegenerateK("tuple stream is empty")
    return state


def verify_history(s: ShutterState) -> bool:
    """Re-check every stored witness against the final A.

    sees_via certificates are monotone in A, so all of them must still
    hold; used by the acceptance suite at end of run.
    """
    for tup, z in s.history:
        for a in tup:
            if sees_via(z, a, s.A) is None:
                return False
    return True


def sees_through_screen(x: Point, y: Point, A: Sequence[Point]) -> bool:
    """Visibility through (open upper half-plane) U A U (open lower).

    Same strict side: always true (half-planes are convex). Axis point to
    off-axis point: true, provided the axis point is admitted (else
    PointNotInT) since the open segment leaves the axis immediately.
    Opposite strict sides: true iff the crossing of [x, y] is admitted.
    Two axis points: true iff they are equal (the screen is finite, so it
    contains no axis segment).
    """
    admitted = {_scalar(p.x) for p in A if p.y == 0}

    def on_axis(p: Point) -> bool:
        if p.y != 0:
            return False
        if _scalar(p.x) not in admitted:
            raise PointNotInT(f"axis point {p} is not in the screen")
        return True

    x_axis = on_axis(x)
    y_axis = on_axis(y)
    if x_axis and y_axis:
        return x == y
    if x_axis or y_axis:
        return True
    if (x.y > 0) == (y.y > 0):
        return True
    upper, lower = (x, y) if x.y > 0 else (y, x)
    return _k.cross_lower(upper.key, lower.key) in admitted


def gen_kset(k: int, seed: int) -> Tuple[Point, ...]:
    """Deterministic distinguished (k+1)-set strictly below the axis."""
    if k < 2:
        raise DegenerateK(f"k must be >= 2, got {k}")
    stream = Stream(derive(seed, STREAM_KSET))
    pts: List[Point] = []
    seen = set()
    while len(pts) < k + 1:
        x = Fraction(stream.below(4001) - 2000, 16)
        y = -Fraction(1 + stream.below(2000), 16)
        if (x, y) not in seen:
            seen.add((x, y))
            pts.append(Point(x, y))
    return tuple(pts)


def gen_tuples(k: int, count: int, seed: int) -> List[Tuple[Point, ...]]:
    """Deterministic stream of k-tuples of distinct lower points."""
    stream = Stream(derive(seed, STREAM_TUPLES))
    out: List[Tuple[Point, ...]] = []
    for _ in range(count):
        pts: List[Point] = []
        seen = set()
        while len(pts) < k:
            x = Fraction(stream.below(4001) - 2000, 16)
            y = -Fraction(1 + stream.below(2000), 16)
            if (x, y) not in seen:
                seen.add((x, y))
                pts.append(Point(x, y))
        out.append(tuple(pts))
    return out
