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
sight lines.

Each step runs that scan once, at the end of its admission, over the
pairs of sight lines that involve a line the step added (the basis scans
every pair). Of those it meets only the pairs that can cross strictly
above the axis: a sight line through a_v meets one through a_u there
exactly when a_v lies in an interval that a bisection of the sorted
admitted points finds (the interval lemma of _pure), and every candidate
still gets the exact test. For each strictly upper crossing z it finds
the least K-point whose crossing from z is not admitted. If there is
none, z sees all of K and the step fails. Otherwise, if z is new, that
crossing becomes a pending block: the next step commits it to B before
its sweep and lists it in its record, and the last step's pending blocks
are never committed. Only the block is reduced to lowest terms: a
crossing is first screened on its integer key floor(x * 2**64), and one
whose key no admitted point has is not admitted. Pairs of two older
lines need no scan: the state before the step had no viewer, and a
viewer after it sees some K-point through a crossing the step admitted,
so it lies on a line the step added.

A step cannot create a viewer. A viewer z sees each K-point via its own
A-point, since an A-point serving two K-points would put z on a K-pair
line, whose crossing is in B0. A step admits at most k-1 crossings, so z
sees at least two of the k+1 K-points via older A-points: it is the upper
crossing of two older sight lines. An earlier scan met that pair and
blocked one of z's crossings; the block entered B before this step's
sweep, the sweep admits nothing in B, and A and B are checked disjoint
before the scan. So the step's viewer test fires only on a corrupted
state. It stays, as a check.

The witness sweeps are bounded. The basis candidates lie on the line
y = 1, and a step's on the line L through A[0] and the tuple's first
point. Along such a line the crossing of [z, a] toward a fixed lower
point a is injective, or constant at A[0] when a is on L. So each pair of
a blocked point and a tuple point rules out at most one candidate (B
holds A[0] only in a corrupted state), and a witness is among the first
|B|*len(keys) + 1 candidates. Past that count the sweep raises
InvariantViolation instead of running on.

Newness is derived from A, not remembered. Sight line u*(k+1) + m joins
the u-th admitted point to K-point m, and the scans meet pairs in
lexicographic index order. Only one line joins z to a K-point, and a
line through two K-points has its crossing in B0, so the sight lines
through z are the pair's two and one for each other K-point whose
crossing from z is admitted; z is new exactly when none of those has an
index below the pair's later line (_pure.danger_scan). A crossing met
before still gets the viewer test, so a corrupted state whose block was
admitted is caught. Not blocking it again is sound: its first block was
not admitted then, entered B before anything else was admitted, and A
and B are checked disjoint after every step, so z never sees all of K.

find_common_viewer, the CLI's independent cross-check of the final
state, scans one K-pair. A viewer z sees K[0] via some a_u and K[1] via
some a_v. If u != v, z is the upper crossing of the sight lines
(a_u, K[0]) and (a_v, K[1]); of those |A|^2 pairs it meets the ones that
the interval lemma leaves, enumerated by the helper the step's scan
uses. If u == v, a_u is the axis crossing c01 of the line K[0]K[1], in
B0 unless the state is corrupted; then z is where that line meets the
sight line toward a K-point off it, so when c01 is admitted the line is
met with every sight line too. If all of K is collinear and c01 is
admitted, every upper point of that line is a viewer and no sight line
crosses it above the axis; both scans then return the line's point at
y = 1.

The basis (init_state) and every step (advance) choose their witness by
one sweep, each over its own candidate sequence, and admit its crossings
by one path that also checks the invariants and writes the audit record.

All hot loops run on plain integer tuples in the predicate core (_pure);
this module owns state, validation, auditing, and the public Point API.
The integer containers are the state (A as one dict from abscissa to
admission index); the Point views A and B are built from them on
demand. The audit records hold their admitted and blocked
crossings the same way, as canonical (n, d) abscissae (d > 0,
gcd(n, d) = 1), and the audit document is written from those scalars.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import ClassVar, Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from . import _pure as _k
from .kernel import GeometryError, Point, point_from_key, point_str
from .rng import STREAM_KSET, STREAM_TUPLES, Stream, derive


class SameSideInput(GeometryError):
    """An axis crossing needs one strictly upper and one strictly lower
    point."""


class DegenerateK(GeometryError):
    """K or a tuple has repeated or non-lower points."""


class InvariantViolation(GeometryError):
    """A process invariant failed; carries the offending data."""


class NoBasis(GeometryError):
    """advance was given a state with nothing admitted yet."""


class PointNotInT(GeometryError):
    """An axis point outside A was used where membership in the screen
    is required."""


Scalar = Tuple[int, int]  # canonical abscissa (n, d) of an axis point


def _axis_points(scalars: Iterable[Scalar]) -> Tuple[Point, ...]:
    return tuple(point_from_key(c + (0, 1)) for c in scalars)


@dataclass(frozen=True)
class StepRecord:
    """One audit-log entry (step 0 is initialization).

    The crossings the step blocked and admitted are kept as canonical
    scalars."""

    step: int
    tuple: Tuple[Point, ...]
    z_new: int  # new upper crossings of sight lines (|Z| increment)
    b_scalars: Tuple[Scalar, ...]
    a_scalars: Tuple[Scalar, ...]
    witness: Point
    a_size: int
    b_size: int
    # a step whose scan finds a viewer raises instead of recording it
    viewer_absent: ClassVar[bool] = True


class ShutterState:
    """Mutable process state; modified in place by advance().

    ShutterState(K) validates the (k+1)-set K and blocks every axis
    crossing of a line through two K-points (B0); A starts empty. The
    integer containers and the audit records are the only state; A and B
    are views built from them, and history from the records.
    B holds committed blocks only, so after the last step |B| is the last
    record's b_size; the blocks its scan found stay pending.
    """

    __slots__ = (
        "k",
        "K",
        "b0_size",
        "step",
        "audit",
        "_ys",
        "_aidx",
        "_bset",
        "_lines",
        "_scanned",
        "_pending",
    )

    def __init__(self, K: Sequence[Point]):
        K = tuple(K)
        if len(K) < 3:
            raise DegenerateK("K needs at least 3 points (k >= 2)")
        _check_lower_distinct(K, "K")
        self.k = len(K) - 1
        self.K = K
        self.step = 0
        self.audit: List[StepRecord] = []
        self._ys = [p.key for p in K]
        # A: admitted abscissa -> admission index, in admission order
        self._aidx: Dict[Scalar, int] = {}
        self._bset: Set[Scalar] = set()
        self._lines: List[Tuple[int, int, int]] = []
        self._scanned = 0
        # the last scan's blocks, one per new crossing, committed and
        # recorded by the next step
        self._pending: List[Scalar] = []
        for i, yi in enumerate(self._ys):
            for yj in self._ys[i + 1 :]:
                kind, n, d = _k.axis_cross(_k.line3(yi, yj))
                if kind == 1:
                    self._bset.add((n, d))
        self.b0_size = len(self._bset)

    @property
    def A(self) -> List[Point]:
        """The admitted axis points in admission order, built on demand
        from the integer index (a fresh list on every access)."""
        return list(_axis_points(self._aidx))

    @property
    def history(self) -> List[Tuple[Tuple[Point, ...], Point]]:
        """(tuple, witness) of every step in order, read from the audit
        records (a fresh list on every access)."""
        return [(r.tuple, r.witness) for r in self.audit]

    @property
    def a_scalars(self) -> Tuple[Scalar, ...]:
        """The admitted abscissae in admission order, as canonical scalars."""
        return tuple(self._aidx)

    @property
    def B(self) -> FrozenSet[Point]:
        """The blocked axis points, built on demand from the integer set."""
        return frozenset(_axis_points(self._bset))


def _scalar(x: Fraction) -> Scalar:
    return (x.numerator, x.denominator)


def _check_lower_distinct(pts: Sequence[Point], what: str) -> None:
    if len(set(pts)) != len(pts):
        raise DegenerateK(f"{what} contains repeated points")
    for p in pts:
        if p.y >= 0:
            raise DegenerateK(
                f"{what} point {point_str(p)} is not strictly below the axis"
            )


def _admitted(A: Iterable[Point]) -> Set[Scalar]:
    """Abscissae of the axis points of A, as canonical scalars."""
    return {_scalar(p.x) for p in A if p.y == 0}


def _crossing(z: Point, y: Point) -> Scalar:
    """Axis crossing abscissa of [z, y] for z strictly upper, y strictly
    lower."""
    if z.y <= 0 or y.y >= 0:
        raise SameSideInput("need z strictly above and y strictly below")
    return _k.cross_lower(z.key, y.key)


def _admit_crossing(s: ShutterState, c: Scalar) -> bool:
    """Admit the axis point c unless already present, appending its sight
    lines: row u*(k+1) + m joins the u-th admitted point to K-point m."""
    if c in s._aidx:
        return False
    s._aidx[c] = len(s._aidx)
    akey = c + (0, 1)
    s._lines.extend(_k.line3(akey, ykey) for ykey in s._ys)
    return True


def find_common_viewer(s: ShutterState) -> Optional[Point]:
    """Exact scan for an upper point seeing all of K via A, over the sight
    lines of the pair K[0], K[1] (why that suffices: see the module
    docstring). Returns the first viewer found, else None."""
    got = _k.viewer_scan(s._ys, s._aidx, s._lines)
    return None if got is None else point_from_key(got)


def _scan(s: ShutterState, context: str) -> None:
    """The one scan of a step, over the sight-line pairs that involve a
    line added since the last scan: raise if an upper crossing sees all
    of K via A, else queue a pending block for each new crossing."""
    got = _k.danger_scan(s._lines, s._scanned, s._ys, s._aidx, s._pending)
    if got is not None:
        z = point_str(point_from_key(got))
        raise InvariantViolation(f"{context}: upper point {z} sees all of K via A")
    s._scanned = len(s._lines)


def _check_invariants(s: ShutterState, context: str) -> None:
    common = s._aidx.keys() & s._bset
    if common:
        raise InvariantViolation(
            f"{context}: A and B intersect at "
            + ", ".join(map(point_str, _axis_points(sorted(common)[:3])))
        )
    bound = s.k + s.step * (s.k - 1)
    if len(s._aidx) > bound:
        raise InvariantViolation(
            f"{context}: |A|={len(s._aidx)} exceeds bound {bound}"
        )
    # only pairs with a line added since the last scan (see the module
    # docstring); the basis has _scanned == 0, a full scan
    _scan(s, context)


def _check_tuple(
    s: ShutterState, tup: Sequence[Point], what: str
) -> Tuple[Point, ...]:
    tup = tuple(tup)
    if len(tup) != s.k:
        raise DegenerateK(f"{what} must have k={s.k} points")
    _check_lower_distinct(tup, what)
    return tup


def _sweep(
    s: ShutterState,
    candidates: Iterator[Tuple[int, int, int, int]],
    keys: Sequence[Tuple[int, int, int, int]],
    context: str,
) -> Tuple[int, int, int, int]:
    """The first candidate witness z whose segments [z, a], for every a
    in keys, cross the axis outside B (one hash lookup per point). It is
    among the first |B|*len(keys) + 1 candidates unless the state is
    corrupted (see the module docstring); past them, raise."""
    bound = len(s._bset) * len(keys) + 1
    for z in islice(candidates, bound):
        if all(_k.cross_lower(z, a) not in s._bset for a in keys):
            return z
    raise InvariantViolation(
        f"{context}: every one of the first {bound} sweep candidates is blocked"
    )


def _admit(
    s: ShutterState,
    tup: Tuple[Point, ...],
    zkey: Tuple[int, int, int, int],
    keys: Sequence[Tuple[int, int, int, int]],
    z_new: int,
    b_added: Sequence[Scalar],
) -> ShutterState:
    """Admit the crossings of [z, a] for a in keys, extend the sight lines,
    check the invariants and append the audit record for s.step."""
    context = f"step {s.step}" if s.step else "init"
    a_added: List[Scalar] = []
    for a in keys:
        c = _k.cross_lower(zkey, a)
        if c in s._bset:  # the sweep rules this out
            x = point_str(point_from_key(c + (0, 1)))
            raise InvariantViolation(f"{context}: witness sweep admitted blocked {x}")
        if _admit_crossing(s, c):
            a_added.append(c)
    z = point_from_key(zkey)
    _check_invariants(s, context)
    s.audit.append(
        StepRecord(
            step=s.step,
            tuple=tup,
            z_new=z_new,
            b_scalars=tuple(b_added),
            a_scalars=tuple(a_added),
            witness=z,
            a_size=len(s._aidx),
            b_size=len(s._bset),
        )
    )
    return s


def _basis_candidates() -> Iterator[Tuple[int, int, int, int]]:
    q = 0
    while True:
        yield (q, 1, 1, 1)
        q = -q if q > 0 else -q + 1


def _step_candidates(x: Fraction, a1: Point) -> Iterator[Tuple[int, int, int, int]]:
    m = 1
    while True:
        yield Point(x + m * (x - a1.x), -m * a1.y).key
        m += 1


def init_state(K: Sequence[Point], first: Sequence[Point]) -> ShutterState:
    """Induction basis: ShutterState(K) blocks all K-pair-line crossings,
    then the crossings of one generic upper point's sight segments to
    `first` are admitted.

    The witness z is the first sweep candidate (q, 1) for
    q = 0, 1, -1, 2, -2, ... whose sight segments to `first` all cross
    the axis outside B.
    """
    s = ShutterState(K)
    first = _check_tuple(s, first, "first tuple")
    keys = [p.key for p in first]
    blocked = sorted(s._bset, key=lambda b: Fraction(*b))
    zkey = _sweep(s, _basis_candidates(), keys, "init")
    return _admit(s, first, zkey, keys, 0, blocked)


def advance(s: ShutterState, tup: Sequence[Point]) -> ShutterState:
    """One induction step; mutates s in place and returns it.

    Phases: (1)+(2) commit to B the pending blocks of the last step's
    scan, one unadmitted crossing toward K for every new upper crossing
    of two sight lines (their number is the step's z_new); (3) sweep for
    a generic witness z on the line through the first admitted point and
    the tuple's first point (never horizontal, since that admitted point
    is on the axis and the tuple point strictly below it); (4) admit the
    crossings of [z, a_i] for the remaining tuple points. The invariant
    suite runs before return, its scan over the pairs that involve the
    sight lines of phase (4). Sight lines that no scan has seen (a state
    built by hand) are scanned first.
    """
    if not s._aidx:
        raise NoBasis("advance needs a state built by init_state; A is empty")
    tup = _check_tuple(s, tup, "tuple")
    context = f"step {s.step + 1}"
    if s._scanned < len(s._lines):
        _scan(s, context)
    # distinct new crossings may share a block; each enters B once
    b_added = [c for c in dict.fromkeys(s._pending) if c not in s._bset]
    s._bset.update(b_added)
    z_new = len(s._pending)
    s._pending = []
    keys = [p.key for p in tup[1:]]
    candidates = _step_candidates(Fraction(*next(iter(s._aidx))), tup[0])
    zkey = _sweep(s, candidates, keys, context)
    s.step += 1
    return _admit(s, tup, zkey, keys, z_new, b_added)


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

    A witness sees its tuple through admitted crossings, and A only
    grows, so all of them must still hold; used by the acceptance suite
    at end of run. Each crossing is looked up in the state's admitted
    index.
    """
    return all(_crossing(z, a) in s._aidx for tup, z in s.history for a in tup)


def sees_through_screen(x: Point, y: Point, A: Sequence[Point]) -> bool:
    """Visibility through (open upper half-plane) U A U (open lower).

    Same strict side: always true (half-planes are convex). Axis point to
    off-axis point: true, provided the axis point is admitted (else
    PointNotInT) since the open segment leaves the axis immediately.
    Opposite strict sides: true iff the crossing of [x, y] is admitted.
    Two axis points: true iff they are equal (the screen is finite, so it
    contains no axis segment).
    """
    admitted = _admitted(A)

    def on_axis(p: Point) -> bool:
        if p.y != 0:
            return False
        if _scalar(p.x) not in admitted:
            raise PointNotInT(f"axis point {point_str(p)} is not in the screen")
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


def _draw_lower(stream: Stream, count: int) -> Tuple[Point, ...]:
    """count distinct points strictly below the axis on the 1/16 grid."""
    pts: List[Point] = []
    while len(pts) < count:
        x = Fraction(stream.below(4001) - 2000, 16)
        p = Point(x, -Fraction(1 + stream.below(2000), 16))
        if p not in pts:
            pts.append(p)
    return tuple(pts)


def gen_kset(k: int, seed: int) -> Tuple[Point, ...]:
    """Deterministic distinguished (k+1)-set strictly below the axis."""
    if k < 2:
        raise DegenerateK(f"k must be >= 2, got {k}")
    return _draw_lower(Stream(derive(seed, STREAM_KSET)), k + 1)


def gen_tuples(k: int, count: int, seed: int) -> List[Tuple[Point, ...]]:
    """Deterministic stream of k-tuples of distinct lower points."""
    stream = Stream(derive(seed, STREAM_TUPLES))
    return [_draw_lower(stream, k) for _ in range(count)]
