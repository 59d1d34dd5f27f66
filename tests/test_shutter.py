"""Tests for the axis-screen process: basis, steps, invariants, and the
four-way visibility case analysis."""

import os
import re
import subprocess
import sys
from collections import Counter
from contextlib import contextmanager
from dataclasses import replace
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    ReferenceShutter,
    ReferenceViolation,
    _cross,
    _meet,
    planted_state,
    reference_danger_scan,
    reference_viewer,
)
import vislink
from vislink import _pure as _k
from vislink.kernel import Point, point, point_from_key
from vislink.shutter import (
    DegenerateK,
    InvariantViolation,
    NoBasis,
    PointNotInT,
    SameSideInput,
    ShutterState,
    _admit,
    _admit_crossing,
    _check_invariants,
    _crossing,
    advance,
    find_common_viewer,
    gen_kset,
    gen_tuples,
    init_state,
    run_schedule,
    sees_through_screen,
    verify_history,
)

K3 = (point(-1, -1), point(0, -2), point(1, -1))
FIRST = (point(-1, -3), point(2, -1))


def axis(x) -> Point:
    return Point(Fraction(x), Fraction(0))


# ---------------------------------------------------------------------------
# seeing via A: an upper and a lower point, through an admitted crossing


def test_sees_via_admitted_crossing():
    A = [axis(Fraction(-1, 4))]
    assert _crossing(point(0, 1), point(-1, -3)) == (-1, 4)
    assert sees_through_screen(point(0, 1), point(-1, -3), A)


def test_sees_via_unadmitted_crossing_is_none():
    assert not sees_through_screen(point(0, 1), point(-1, -3), [axis(1)])


def test_sees_via_rejects_same_side():
    # the crossing that verify_history looks up needs an upper and a
    # lower point
    with pytest.raises(SameSideInput):
        _crossing(point(0, 1), point(0, 2))
    with pytest.raises(SameSideInput):
        _crossing(point(0, -1), point(0, -2))
    with pytest.raises(SameSideInput):
        _crossing(axis(0), point(0, -2))


# ---------------------------------------------------------------------------
# initialization


def test_init_blocks_pair_line_crossings():
    s = init_state(K3, FIRST)
    assert s.B == {axis(-2), axis(2)}
    assert s.b0_size == 2


def test_init_picks_origin_sweep_witness_and_crossings():
    s = init_state(K3, FIRST)
    assert s.history[0] == (FIRST, point(0, 1))
    assert s.A == [axis(Fraction(-1, 4)), axis(1)]


def test_init_sweep_skips_blocked_line():
    # the crossing of [(0,1), (-4,-1)] is (-2, 0), which is blocked, so the
    # sweep must reject q=0 and settle on z=(1,1)
    s = init_state(K3, (point(-4, -1), point(2, -1)))
    assert s.history[0][1] == point(1, 1)


def test_init_merges_coincident_crossings():
    # both tuple points lie on the line y = 4x + 1 through z = (0,1), so
    # their sight segments share the single crossing (-1/4, 0)
    s = init_state(K3, (point(-1, -3), point(-2, -7)))
    assert s.A == [axis(Fraction(-1, 4))]


def test_init_validates_k_set():
    with pytest.raises(DegenerateK):
        init_state((point(0, -1), point(1, -1)), (point(0, -2),))
    with pytest.raises(DegenerateK):
        init_state((point(0, -1), point(1, -1), point(0, -1)), FIRST)
    with pytest.raises(DegenerateK):
        init_state((point(0, -1), point(1, -1), point(2, 1)), FIRST)
    with pytest.raises(DegenerateK):
        init_state(K3, (point(0, -5),))  # wrong arity
    with pytest.raises(DegenerateK):
        init_state(K3, (point(0, -5), point(0, 5)))


def test_state_blocks_exactly_the_k_pair_crossings():
    for K in (K3, gen_kset(3, seed=2), gen_kset(5, seed=8)):
        s = ShutterState(K)
        crossings = {
            p.x - p.y * (q.x - p.x) / (q.y - p.y)
            for p, q in combinations(K, 2)
            if p.y != q.y
        }
        assert s.B == {axis(x) for x in crossings}
        assert s.b0_size == len(s.B)
        assert s.k == len(K) - 1 and s.A == []
    # K3's outer pair is horizontal and has no crossing
    assert ShutterState(K3).B == {axis(-2), axis(2)}


def test_state_rejects_degenerate_k_set():
    with pytest.raises(DegenerateK):
        ShutterState((point(0, -1), point(1, -1)))
    with pytest.raises(DegenerateK):
        ShutterState((point(0, -1), point(1, -1), point(0, -1)))
    with pytest.raises(DegenerateK):
        ShutterState((point(0, -1), point(1, -1), point(2, 1)))
    with pytest.raises(DegenerateK):
        ShutterState((point(0, -1), point(1, -1), point(2, 0)))


def test_a_is_a_read_only_view():
    s = init_state(K3, FIRST)
    view = s.A
    view.append(axis(5))
    view.clear()
    assert s.A == [axis(Fraction(-1, 4)), axis(1)]
    assert list(s._aidx) == [(-1, 4), (1, 1)]
    assert find_common_viewer(s) is None


def test_init_audit_record():
    s = init_state(K3, FIRST)
    rec = s.audit[0]
    assert rec.step == 0
    assert rec.tuple == FIRST
    assert rec.witness == point(0, 1)
    assert rec.a_size == 2 and rec.b_size == 2
    assert rec.a_scalars == ((-1, 4), (1, 1))


def test_records_hold_canonical_scalars():
    # the records keep integer abscissae, and together they list A and B
    s = run_schedule(gen_kset(3, seed=7), gen_tuples(3, 9, seed=7))
    admitted = []
    blocked = []
    for rec in s.audit:
        for scalars in (rec.a_scalars, rec.b_scalars):
            assert type(scalars) is tuple
            for c in scalars:
                assert type(c) is tuple and len(c) == 2
                n, d = c
                assert type(n) is int and type(d) is int
                assert d > 0 and gcd(n, d) == 1
        admitted += rec.a_scalars
        blocked += rec.b_scalars
        assert rec.a_size == len(admitted) and rec.b_size == len(blocked)
    assert s.A == [point_from_key(c + (0, 1)) for c in admitted]
    assert len(s.B) == s.audit[-1].b_size
    assert s.a_scalars == tuple(s._aidx)
    assert s.B == {point_from_key(c + (0, 1)) for c in blocked}


def test_no_viewer_with_fewer_admitted_than_forbidden():
    s = init_state(K3, FIRST)
    assert len(s.A) == 2  # < k + 1 = 3
    assert find_common_viewer(s) is None


# ---------------------------------------------------------------------------
# planted viewer (positive control)


def test_planted_viewer_is_found():
    s = planted_state(K3, point(0, 2))
    assert s.A == [axis(Fraction(-2, 3)), axis(0), axis(Fraction(2, 3))]
    assert find_common_viewer(s) == point(0, 2)


def test_planted_viewer_trips_step_invariant():
    s = planted_state(K3, point(0, 2))
    with pytest.raises(InvariantViolation):
        advance(s, (point(-3, -1), point(3, -1)))


def test_unscanned_lines_are_scanned_before_the_sweep():
    # sight lines admitted outside a step are scanned before the step
    # sweeps or admits anything
    s = planted_state(K3, point(0, 2))
    with pytest.raises(InvariantViolation, match="sees all of K via A"):
        advance(s, (point(-3, -1), point(3, -1)))
    assert s.step == 0 and s.history == [] and len(s._aidx) == 3


# ---------------------------------------------------------------------------
# incremental step check against the K-pair cross-check

# small grid points, so schedules hit parallel and concurrent sight lines
lower_points = st.builds(point, st.integers(-6, 6), st.integers(-6, -1))


@st.composite
def schedules(draw):
    """(K, tuples): a (k+1)-set and 2-7 k-tuples of distinct lower points.
    At k = 4 each pair of sight lines has three other crossings."""
    k = draw(st.sampled_from((2, 3, 4)))
    K = draw(st.lists(lower_points, min_size=k + 1, max_size=k + 1, unique=True))
    tuples = draw(
        st.lists(
            st.lists(lower_points, min_size=k, max_size=k, unique=True),
            min_size=2,
            max_size=7,
        )
    )
    return tuple(K), tuples


def run_checked(K, tuples):
    """Run the schedule, asserting after every step that passed the
    incremental check that the K-pair cross-check finds no viewer either;
    returns None at the first step that raises."""
    try:
        s = init_state(K, tuples[0])
    except InvariantViolation:
        return None
    assert find_common_viewer(s) is None
    for t in tuples[1:]:
        try:
            advance(s, t)
        except InvariantViolation:
            return None
        assert find_common_viewer(s) is None
    return s


@settings(max_examples=100, deadline=None)
@given(schedules())
def test_incremental_check_agrees_with_full_scan(sched):
    run_checked(*sched)


def admit_blocked(s, c):
    """Corrupt s: move the blocked crossing c from B into A, with its
    sight lines, and allow one more step, so only the viewer scan can
    object."""
    s._bset.discard(c)
    _admit_crossing(s, c)
    s.step += 1


@settings(max_examples=200, deadline=None)
@given(schedules(), st.integers(0, 10**6))
def test_incremental_check_catches_an_admitted_blocked_crossing(sched, pick):
    s = run_checked(*sched)
    if s is None or not s._bset:
        return
    blocked = sorted(s._bset)
    admit_blocked(s, blocked[pick % len(blocked)])
    if find_common_viewer(s) is None:
        _check_invariants(s, "corrupt")
    else:
        with pytest.raises(InvariantViolation, match="sees all of K via A"):
            _check_invariants(s, "corrupt")


# corrupted states with a viewer: (K, tuples, the blocked crossing moved
# into A). In (a) one A-point serves K[0] and K[1], so A has fewer points
# than K; (b) needs the line K[0]K[1] met with the sight lines through
# K[2]; in (c) K[2] is on that line too, so only K[3]'s sight line
# crosses it at the viewer; in (d) all of K is on that line, so every
# upper point of it is a viewer and no two sight lines cross there.
CORRUPTED = {
    "a": (
        (point(3, -1), point(5, -3), point(-1, -6)),
        [(point(-4, -1), point(-6, -2)), (point(-3, -2), point(-5, -6))],
        (2, 1),
    ),
    "b": (
        (point(0, -1), point(0, -2), point(1, -1)),
        [(point(0, -1), point(0, -2))] * 2,
        (0, 1),
    ),
    "c": (
        (point(1, -1), point(1, -2), point(1, -3), point(0, -2)),
        [(point(0, -1), point(0, -2), point(1, -1))] * 2,
        (1, 1),
    ),
    "d": (
        (point(0, -1), point(0, -2), point(0, -3)),
        [(point(1, -1), point(2, -1)), (point(-1, -2), point(3, -1))],
        (0, 1),
    ),
}


@pytest.mark.parametrize("case", sorted(CORRUPTED))
def test_viewer_of_a_corrupted_state_is_found(case):
    K, tuples, c = CORRUPTED[case]
    s = run_schedule(K, tuples)
    assert c in s._bset
    admit_blocked(s, c)
    if case == "a":
        assert s.A == [axis(-2), axis(2)]
    z = find_common_viewer(s)
    assert z is not None
    assert all(sees_through_screen(z, y, s.A) for y in K)
    assert reference_viewer(K, s.A) is not None
    with pytest.raises(InvariantViolation, match="sees all of K via A"):
        _check_invariants(s, "corrupt")


@settings(max_examples=200, deadline=None)
@given(schedules(), st.integers(0, 10**6), st.booleans())
def test_viewer_scan_agrees_with_brute_force(sched, pick, corrupt):
    # the K-pair scan finds a viewer exactly when the all-pairs Fraction
    # reference does, on sound states and on states with one blocked
    # crossing moved into A
    try:
        s = run_schedule(*sched)
    except InvariantViolation:
        return
    if corrupt and s._bset:
        blocked = sorted(s._bset)
        admit_blocked(s, blocked[pick % len(blocked)])
    got = find_common_viewer(s)
    assert (got is None) == (reference_viewer(s.K, s.A) is None)
    if got is not None:
        assert all(sees_through_screen(got, y, s.A) for y in s.K)


def reference_run(K, tuples):
    """Records and outcome of the two-scan reference process."""
    ref = ReferenceShutter(K)
    try:
        ref.first(tuples[0])
        for t in tuples[1:]:
            ref.advance(t)
    except ReferenceViolation:
        return ref.records, True
    return ref.records, False


@settings(max_examples=100, deadline=None)
@given(schedules())
def test_one_scan_matches_separate_scans(sched):
    # the step's one scan gives the records and the outcome of a danger
    # scan at the start of the next step plus a viewer scan at its end
    K, tuples = sched
    want, want_raised = reference_run(K, tuples)
    s = None
    raised = False
    try:
        s = init_state(K, tuples[0])
        for t in tuples[1:]:
            advance(s, t)
    except InvariantViolation:
        raised = True
    got = [
        (r.step, (r.witness.x, r.witness.y), r.z_new, r.b_scalars, r.a_scalars,
         r.b_size)
        for r in (s.audit if s is not None else [])
    ]
    assert (got, raised) == (want, want_raised)
    if not raised:
        # B holds committed blocks only; the last scan's stay pending
        assert len(s.B) == s.audit[-1].b_size


def upper_crossings(s):
    """Every strictly upper crossing of two sight lines through different
    K-points, with the number of such pairs meeting there, in Fractions."""
    K = [(y.x, y.y) for y in s.K]
    lines = [((a.x, a.y), y, i) for a in s.A for i, y in enumerate(K)]
    met = Counter()
    for (a1, y1, i1), (a2, y2, i2) in combinations(lines, 2):
        if i1 != i2:
            z = _meet(a1, y1, a2, y2)
            if z is not None and z[1] > 0:
                met[z] += 1
    return met


@settings(max_examples=100, deadline=None)
@given(schedules())
def test_each_upper_crossing_is_new_once(sched):
    # newness is derived from A: every crossing counts once, in the scan
    # of the first pair that meets there, recorded or still pending
    try:
        s = run_schedule(*sched)
    except InvariantViolation:
        return
    counted = sum(r.z_new for r in s.audit) + len(s._pending)
    assert counted == len(upper_crossings(s))


# a k = 3 basis whose three sight lines through (2, 0), (-1/2, 0) and
# (-5/2, 0) toward K[1], K[2] and K[3] all run through (9/2, 10)
COINCIDENT_K = (point(-4, -3), point(1, -4), point(-1, -1), point(-6, -5))
COINCIDENT_TUPLES = [
    (point(-2, -1), point(-6, -1), point(5, -3)),
    (point(0, -1), point(3, -2), point(-3, -2)),
]


def test_three_sight_lines_through_one_point_count_once():
    K, tuples = COINCIDENT_K, COINCIDENT_TUPLES
    s = init_state(K, tuples[0])
    z = point(Fraction(9, 2), 10)
    crossings = [_crossing(z, y) for y in K]
    assert crossings == [(-53, 26), (2, 1), (-1, 2), (-5, 2)]
    assert [c in s._aidx for c in crossings] == [False, True, True, True]
    met = upper_crossings(s)
    assert met[(z.x, z.y)] == 3  # three pairs of the basis meet at z
    assert sum(met.values()) == 8 and len(met) == 6
    # z is new once: one pending block, its crossing toward K[0]
    assert len(s._pending) == 6
    assert s._pending.count((-53, 26)) == 1
    advance(s, tuples[1])
    assert s.audit[1].z_new == 6
    assert (-53, 26) in s.audit[1].b_scalars
    got = [
        (r.step, (r.witness.x, r.witness.y), r.z_new, r.b_scalars, r.a_scalars,
         r.b_size)
        for r in s.audit
    ]
    assert (got, False) == reference_run(K, tuples)


@contextmanager
def scans_against_reference():
    """Inside the with statement, every danger scan runs twice, the
    package's and the all-pairs reference of tests/oracles, and each call
    asserts that both return the same and append the same pending
    blocks. Yields the list of checked calls, one entry per call."""
    pruned = _k.danger_scan
    checked = []

    def both(lines, start, ys, aidx, pending):
        want_pending = []
        want = reference_danger_scan(lines, start, ys, aidx, want_pending)
        before = len(pending)
        got = pruned(lines, start, ys, aidx, pending)
        assert (got, pending[before:]) == (want, want_pending)
        checked.append(start)
        return got

    _k.danger_scan = both
    try:
        yield checked
    finally:
        _k.danger_scan = pruned


@settings(max_examples=100, deadline=None)
@given(schedules(), st.integers(0, 10**6), st.booleans())
def test_pruned_scan_matches_reference(sched, pick, corrupt):
    # the bisected, reduce-only-the-block scan gives the return value and
    # the pending blocks of the all-pairs scan, on sound states and after
    # one blocked crossing is moved into A
    with scans_against_reference() as checked:
        s = run_checked(*sched)
        if s is not None and corrupt and s._bset:
            blocked = sorted(s._bset)
            admit_blocked(s, blocked[pick % len(blocked)])
            try:
                _check_invariants(s, "corrupt")
            except InvariantViolation:
                pass
    assert checked


@pytest.mark.parametrize("case", sorted(CORRUPTED) + ["coincident"])
def test_pruned_scan_matches_reference_on_fixed_states(case):
    # the corrupted states' viewers, among them the collinear K of (d)
    # found on two equal sight lines, and the basis whose three sight
    # lines meet at one point, so that an admitted crossing makes it old
    with scans_against_reference() as checked:
        if case == "coincident":
            s = run_checked(COINCIDENT_K, COINCIDENT_TUPLES)
            assert s is not None and s.step == 1
        else:
            K, tuples, c = CORRUPTED[case]
            s = run_checked(K, tuples)
            admit_blocked(s, c)
            with pytest.raises(InvariantViolation, match="sees all of K via A"):
                _check_invariants(s, "corrupt")
    assert len(checked) == len(s.audit) + (case != "coincident")


@pytest.mark.parametrize("sign", (1, -1))
def test_pruned_scan_keeps_a_point_sharing_the_interval_end_key(sign):
    # line p runs from a_u = 0 toward (0, -1), and the parallel through
    # ys[1] = (sign/3, -1) meets the axis at w = sign/3. The earlier
    # admitted a_v lies 2**-80 inside (0, w), so it shares w's axis key
    # and its sight line toward ys[1] meets p far above the axis.
    ys = [point(0, -1).key, point(Fraction(sign, 3), -1).key, point(5, -2).key]
    a_v = (Fraction(sign, 3) - Fraction(sign, 2**80)).as_integer_ratio()
    aidx = {a_v: 0, (0, 1): 1}
    assert (a_v[0] << 64) // a_v[1] == (sign << 64) // 3
    lines = [_k.line3(a + (0, 1), y) for a in aidx for y in ys]
    want = []
    assert reference_danger_scan(lines, 0, ys, aidx, want) is None
    assert want
    pending = []
    assert _k.danger_scan(lines, 0, ys, aidx, pending) is None
    assert pending == want


# ---------------------------------------------------------------------------
# steps


def test_advance_grows_a_within_bound():
    s = init_state(K3, FIRST)
    tuples = gen_tuples(2, 10, seed=5)
    sizes = [len(s.A)]
    for t in tuples:
        advance(s, t)
        sizes.append(len(s.A))
        assert len(s.A) <= s.k + s.step * (s.k - 1)
        assert find_common_viewer(s) is None
    assert sizes == sorted(sizes)  # A never shrinks
    assert s.step == 10
    assert len(s.audit) == 11


def test_advance_blocks_dangerous_crossings():
    s = init_state(K3, FIRST)
    for t in gen_tuples(2, 6, seed=11):
        advance(s, t)
    # sight lines cross above the axis in generic position, so the danger
    # phase must have blocked something beyond the initial pair crossings
    assert len(s.B) > s.b0_size
    assert {(p.x.numerator, p.x.denominator) for p in s.B} == s._bset
    assert not (s._aidx.keys() & s._bset)


def test_witnesses_remain_valid():
    s = init_state(K3, FIRST)
    for t in gen_tuples(2, 8, seed=3):
        advance(s, t)
    assert verify_history(s)
    for (tup, z), rec in zip(s.history, s.audit):
        assert rec.witness == z
        for a in tup:
            assert sees_through_screen(z, a, s.A)


def test_verify_history_rejects_a_moved_witness():
    s = init_state(K3, FIRST)
    for t in gen_tuples(2, 8, seed=3):
        advance(s, t)
    tup, z = s.history[-1]
    moved = point(z.x + Fraction(1, 7), z.y)
    assert not all(sees_through_screen(moved, a, s.A) for a in tup)
    last = s.audit[-1]
    s.audit[-1] = replace(last, witness=moved)
    assert not verify_history(s)
    s.audit[-1] = replace(last, witness=point(z.x, -z.y))  # below the axis
    with pytest.raises(SameSideInput):
        verify_history(s)


def test_advance_rejects_bad_tuples():
    s = init_state(K3, FIRST)
    with pytest.raises(DegenerateK):
        advance(s, (point(0, -5),))
    with pytest.raises(DegenerateK):
        advance(s, (point(0, -5), point(0, -5)))
    with pytest.raises(DegenerateK):
        advance(s, (point(0, -5), point(1, 5)))


def test_advance_needs_a_basis():
    s = ShutterState(K3)  # nothing admitted, so no line to sweep along
    with pytest.raises(NoBasis, match="init_state"):
        advance(s, FIRST)
    assert s.step == 0 and not s.audit and s.b0_size == len(s.B)


_CORRUPTED_SWEEP = """
from fractions import Fraction
from vislink import point
from vislink.shutter import InvariantViolation, advance, init_state

s = init_state(
    (point(0, -1), point(3, -2), point(-5, -3)), (point(1, -1), point(2, -3))
)
s._bset.add(next(iter(s._aidx)))  # A[0] = 1/2, now also blocked
try:
    # (27/2, -4) is on the line through A[0] and (7, -2), so every step
    # candidate crosses the axis toward it at the blocked A[0]
    advance(s, (point(7, -2), point(Fraction(27, 2), -4)))
except InvariantViolation as e:
    print(e)
"""


def test_sweep_is_bounded_on_a_corrupted_state():
    # an unbounded sweep would never return; the subprocess timeout turns
    # that into a failure instead of a hung suite
    src = os.path.dirname(os.path.dirname(os.path.abspath(vislink.__file__)))
    out = subprocess.run(
        [sys.executable, "-c", _CORRUPTED_SWEEP],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=30,
    )
    assert out.returncode == 0, out.stderr
    # |B| = 4 (three K-pair crossings and A[0]), one tuple point to admit
    assert out.stdout.strip() == (
        "step 1: every one of the first 5 sweep candidates is blocked"
    )


_RAW_PAIR = re.compile(r"\(-?\d+, -?\d+\)")  # a scalar tuple such as (7, 3)


def test_a_b_overlap_message_prints_points():
    s = init_state(K3, FIRST)  # A = {-1/4, 1}
    s._bset.add((-1, 4))
    with pytest.raises(InvariantViolation) as err:
        _check_invariants(s, "init")
    msg = str(err.value)
    assert msg == "init: A and B intersect at (-1/4, 0/1)"
    assert not _RAW_PAIR.search(msg)


def test_admitted_blocked_message_prints_points():
    s = ShutterState(K3)  # B = {-2, 2}
    # the crossing of [(0, 1), (-4, -1)] is the blocked (-2, 0)
    with pytest.raises(InvariantViolation) as err:
        _admit(s, FIRST, point(0, 1).key, [point(-4, -1).key], 0, [])
    msg = str(err.value)
    assert msg == "init: witness sweep admitted blocked (-2/1, 0/1)"
    assert not _RAW_PAIR.search(msg)


def test_k3_run():
    K = gen_kset(3, seed=2)
    s = run_schedule(K, gen_tuples(3, 7, seed=9))
    assert s.k == 3
    assert s.step == 6
    assert len(s.A) <= 3 + 6 * 2
    assert find_common_viewer(s) is None
    assert verify_history(s)


def test_run_schedule_single_tuple_is_init_only():
    s = run_schedule(K3, [FIRST])
    assert s.step == 0 and len(s.audit) == 1


def test_run_schedule_empty_stream():
    with pytest.raises(DegenerateK):
        run_schedule(K3, [])


def test_run_schedule_deterministic():
    def go():
        return run_schedule(K3, gen_tuples(2, 12, seed=21))

    s1, s2 = go(), go()
    assert s1.A == s2.A
    assert s1.B == s2.B
    assert s1.audit == s2.audit
    assert s1.history == s2.history


# ---------------------------------------------------------------------------
# seeded generators


def test_gen_kset_shape():
    for k in (2, 3, 4):
        K = gen_kset(k, seed=1)
        assert len(K) == k + 1
        assert len(set(K)) == k + 1
        assert all(p.y < 0 for p in K)
    with pytest.raises(DegenerateK):
        gen_kset(1, seed=1)


def test_gen_tuples_shape_and_determinism():
    ts = gen_tuples(3, 5, seed=4)
    assert len(ts) == 5
    for t in ts:
        assert len(t) == 3 and len(set(t)) == 3
        assert all(p.y < 0 for p in t)
    assert ts == gen_tuples(3, 5, seed=4)
    assert ts != gen_tuples(3, 5, seed=5)


# ---------------------------------------------------------------------------
# four-way visibility through the screen


def test_screen_same_strict_side():
    assert sees_through_screen(point(0, 1), point(5, 3), [])
    assert sees_through_screen(point(-2, -1), point(7, -4), [])


def test_screen_axis_to_off_axis():
    A = [axis(0)]
    assert sees_through_screen(axis(0), point(7, -2), A)
    assert sees_through_screen(point(7, 2), axis(0), A)


def test_screen_opposite_sides_need_admitted_crossing():
    A = [axis(0)]
    assert sees_through_screen(point(0, 2), point(0, -2), A)
    assert not sees_through_screen(point(1, 2), point(1, -2), A)
    assert sees_through_screen(point(1, 2), point(-1, -2), A)  # crosses at 0


def test_screen_two_axis_points():
    A = [axis(0), axis(1)]
    assert not sees_through_screen(axis(0), axis(1), A)
    assert sees_through_screen(axis(0), axis(0), A)


upper_points = st.builds(point, st.integers(-6, 6), st.integers(1, 6))


@settings(max_examples=200, deadline=None)
@given(
    upper_points,
    lower_points,
    st.lists(st.tuples(upper_points, lower_points), max_size=6),
    st.booleans(),
)
def test_sees_via_agrees_with_the_screen_definition(z, y, others, own):
    # sees_through_screen, the paper's definition, against the Fraction
    # crossing of [z, y] looked up in A, with A the crossings of random
    # sight segments and, when own is set, of [z, y] itself
    pairs = others + [(z, y)] if own else others
    xs = {_cross((u.x, u.y), (v.x, v.y)) for u, v in pairs}
    A = [axis(x) for x in xs]
    seen = _cross((z.x, z.y), (y.x, y.y)) in xs
    assert seen == sees_through_screen(z, y, A) == sees_through_screen(y, z, A)
    if own:
        assert seen


def test_screen_requires_membership():
    with pytest.raises(PointNotInT):
        sees_through_screen(axis(0), point(5, 3), [axis(1)])
    with pytest.raises(PointNotInT):
        sees_through_screen(axis(0), axis(1), [axis(0)])
