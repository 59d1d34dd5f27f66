"""The three workloads: inputs made from a seed, and one round of fixed work.

A round is the unit a run repeats until its time is up. Every round of a run
does the same operations on the same inputs, so the share of failed
operations is the same in every run. Functions of the program are always
looked up on their module at call time (``verify.verify_common_witness``,
never a name bound at import), so the tracer can wrap them from outside.

- grid:    what ``vislink gen`` and ``vislink verify --out`` do, for every
           (n, k) in {2,3,4,5} x {2,...,6}. One op is one tuple
           certification.
- shutter: one audited k=3 shutter run of 70 ``advance`` steps, then
           ``verify_history`` and the audit-log write. One op is one step.
- oracle:  200 small random raw-segment complexes; each is normalized and
           answers all-pairs ``link_distance`` between its subdivision
           vertices plus two ``common_viewer`` folds. One op is one complex.
"""

from __future__ import annotations

import hashlib
import os
import random
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, List, Optional, Tuple

import geometry
from pace import Pacer

GRID_N = (2, 3, 4, 5)
GRID_K = (2, 3, 4, 5, 6)
# The constructions stay fixed (the acceptance suite's grid seed), so the
# cost of generating them does not move with --seed; the sampled tuples do.
GRID_CONSTRUCTION_SEED = 20260822
GRID_TUPLES = 50

# `vislink shutter --k 3 --seed 7 --steps 70`. An odd --seed mirrors K and
# the schedule (x -> -x). The mirror fixes the first witness candidate
# (0, 1) and commutes with every later step, so both images run the same
# process on integers of the same sizes: the same work, other numbers.
# (Scaling x as well would also keep the process, but changes the integer
# sizes and with them the cost by up to 10%.)
SHUTTER_K = 3
SHUTTER_STEPS = 70
SHUTTER_SCHEDULE_SEED = 7

# 200 random complexes drawn once from a fixed base seed; --seed picks one
# of the 8 symmetries of the square [-6, 6]^2 to apply to all of them. A
# symmetry keeps every complex's arrangement, query count and link
# distances, and the sizes of its integers, so each seed does the same work
# on other numbers. (Fresh complexes per seed moved the median round time
# by 13% and the p90 op latency by 24% across five seeds.)
ORACLE_COMPLEXES = 200
ORACLE_BASE_SEED = 880
ORACLE_MAX_SEGMENTS = 12
ORACLE_COORD = 6  # endpoints on the integer grid [-6, 6]^2
ORACLE_FOLDS = ((3, 1), (3, 2))  # (targets, link bound) per common_viewer


@dataclass
class Round:
    """What one round produced. `kept` holds the objects the checkers
    need; it is filled for the first round of a run only. Probe time is
    not part of any figure."""

    wall_s: float  # at the reference speed, see pace.py
    wall_raw_s: float
    op_ns: List[float]  # at the reference speed
    attempted: int
    failed: int
    digest: str
    counters: dict
    kept: Any = None
    traced: bool = False
    layer_calls: Optional[dict] = None
    layer_self: Optional[dict] = None


@dataclass
class Inputs:
    workload: str
    seed: int
    items: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# inputs


def make_inputs(workload: str, seed: int) -> Inputs:
    return _MAKERS[workload](seed)


def _grid_inputs(seed: int) -> Inputs:
    cells = []
    for n in GRID_N:
        for k in GRID_K:
            tuple_seed = (seed * 1_000_003 + 10 * n + k) & ((1 << 63) - 1)
            cells.append((n, k, tuple_seed))
    return Inputs("grid", seed, cells, {"construction_seed": GRID_CONSTRUCTION_SEED})


def _shutter_inputs(seed: int) -> Inputs:
    from vislink import kernel, shutter

    sign = -1 if seed % 2 else 1

    def image(p):
        return kernel.Point(sign * p.x, p.y)

    K = tuple(image(p) for p in shutter.gen_kset(SHUTTER_K, SHUTTER_SCHEDULE_SEED))
    schedule = [
        tuple(image(p) for p in t)
        for t in shutter.gen_tuples(
            SHUTTER_K, SHUTTER_STEPS + 1, SHUTTER_SCHEDULE_SEED
        )
    ]
    return Inputs("shutter", seed, schedule, {"K": K, "mirrored": sign < 0})


def square_symmetry(g: int):
    """The g-th of the 8 symmetries of the square, g in 0..7."""

    def f(x, y):
        if g & 4:
            x, y = y, x
        return (-x if g & 1 else x), (-y if g & 2 else y)

    return f


def _oracle_inputs(seed: int) -> Inputs:
    from vislink import kernel

    sym = square_symmetry(seed % 8)
    items = []
    for case in range(ORACLE_COMPLEXES):
        rnd = random.Random(ORACLE_BASE_SEED * 100_003 + case)
        count = 1 + case % ORACLE_MAX_SEGMENTS
        ends = []
        while len(ends) < count:
            p = tuple(rnd.randint(-ORACLE_COORD, ORACLE_COORD) for _ in range(2))
            q = tuple(rnd.randint(-ORACLE_COORD, ORACLE_COORD) for _ in range(2))
            if p != q:
                ends.append((p, q))
        base = geometry.subdivision_vertices(ends)
        picks = [[rnd.randrange(len(base)) for _ in range(t)] for t, _ in ORACLE_FOLDS]
        raws = [kernel.Segment(kernel.point(*sym(*p)), kernel.point(*sym(*q)))
                for p, q in ends]
        verts = sorted(kernel.Point(*sym(*v)) for v in base)
        folds = [
            (tuple(kernel.Point(*sym(*base[i])) for i in idx), n)
            for idx, (_, n) in zip(picks, ORACLE_FOLDS)
        ]
        items.append((raws, verts, folds))
    return Inputs("oracle", seed, items, {"symmetry": seed % 8})


_MAKERS = {"grid": _grid_inputs, "shutter": _shutter_inputs, "oracle": _oracle_inputs}
WORKLOADS = tuple(_MAKERS)


# ---------------------------------------------------------------------------
# rounds


def run_round(inp: Inputs, out_dir: str, keep: bool) -> Round:
    return _ROUNDS[inp.workload](inp, out_dir, keep)


def _files_digest(paths: List[str]) -> Tuple[str, int]:
    h = hashlib.sha256()
    total = 0
    for p in paths:
        with open(p, "rb") as f:
            b = f.read()
        h.update(b)
        total += len(b)
    return h.hexdigest(), total


def _grid_round(inp: Inputs, out_dir: str, keep: bool) -> Round:
    from vislink import construct, docio, verify

    cseed = inp.extra["construction_seed"]
    failed = 0
    written: List[str] = []
    kept = []
    retries = 0
    fallbacks = 0
    clock = time.perf_counter_ns
    pacer = Pacer()
    pacer.start()
    for n, k, tuple_seed in inp.items:
        c = construct.build_family(construct.make_polygon(k, cseed), n)
        retries += c.polygon.retry_count
        cpath = os.path.join(out_dir, f"construction-n{n}-k{k}.json")
        docio.write_doc(cpath, docio.construction_to_doc(c))
        c2 = docio.construction_from_doc(docio.read_doc(cpath))
        emptiness = verify.verify_targets_blocked(c2)
        drops = [verify.verify_targets_blocked(c2, drop_index=i) for i in range(k + 1)]
        tuples = verify.sample_tuples(c2.complex, k, GRID_TUPLES, tuple_seed)
        reports = []
        for t in tuples:
            a = clock()
            try:
                r = verify.verify_common_witness(c2, t)
            except Exception:  # an op boundary: count it, keep going
                if not failed:
                    traceback.print_exc()
                failed += 1
                r = None
            pacer.op(clock() - a)
            if r is not None:
                reports.append(r)
                fallbacks += r.method != "proof-formula"
        rpath = os.path.join(out_dir, f"report-n{n}-k{k}.json")
        docio.write_doc(
            rpath, docio.verify_report_doc(k, n, tuple_seed, emptiness, reports)
        )
        written += [cpath, rpath]
        if keep:
            kept.append((n, k, c, c2, emptiness, drops, tuples, reports))
        pacer.tick()
    wall, wall_raw, op_ns = pacer.finish()
    digest, nbytes = _files_digest(written)
    counters = {
        "construct.polygon_retries": retries,
        "verify.fallbacks": fallbacks,
        "docio.bytes_written": nbytes,
    }
    return Round(wall, wall_raw, op_ns, len(op_ns), failed, digest, counters,
                 kept if keep else None)


def _shutter_round(inp: Inputs, out_dir: str, keep: bool) -> Round:
    from vislink import docio, shutter

    K = inp.extra["K"]
    schedule = inp.items
    failed = 0
    clock = time.perf_counter_ns
    path = os.path.join(out_dir, "audit.json")
    pacer = Pacer()
    pacer.start()
    s = shutter.init_state(K, schedule[0])
    history_ok: Optional[bool] = None
    for tup in schedule[1:]:
        if failed:  # the state is unusable after a failed step
            failed += 1
            continue
        a = clock()
        try:
            shutter.advance(s, tup)
        except Exception:  # an op boundary: count it and the rest
            traceback.print_exc()
            failed += 1
        pacer.op(clock() - a)
    if not failed:
        history_ok = shutter.verify_history(s)
        docio.write_doc(path, docio.audit_to_doc(s, inp.seed))
    wall, wall_raw, op_ns = pacer.finish()
    digest, nbytes = _files_digest([path]) if not failed else ("failed", 0)
    counters = {
        "shutter.sight_lines": len(s.A) * len(K),
        "shutter.a_size": len(s.A),
        "shutter.b_size": len(s.B),
        "shutter.z_new": sum(r.z_new for r in s.audit),
        "docio.bytes_written": nbytes,
    }
    return Round(wall, wall_raw, op_ns, len(schedule) - 1, failed, digest, counters,
                 (s, history_ok) if keep else None)


def _oracle_round(inp: Inputs, out_dir: str, keep: bool) -> Round:
    from vislink import complexes, links

    failed = 0
    answers = []
    clock = time.perf_counter_ns
    pacer = Pacer()
    pacer.start()
    for raws, verts, folds in inp.items:
        a = clock()
        try:
            C = complexes.normalize(raws)
            m = len(verts)
            dist = [
                links.link_distance(C, verts[i], verts[j])
                for i in range(m)
                for j in range(i, m)
            ]
            viewers = [links.common_viewer(C, list(t), n) for t, n in folds]
            answers.append((dist, viewers))
        except Exception:  # an op boundary: count it, keep going
            if not failed:
                traceback.print_exc()
            failed += 1
            answers.append(None)
        pacer.op(clock() - a)
    wall, wall_raw, op_ns = pacer.finish()
    digest = hashlib.sha256(repr(answers).encode()).hexdigest()
    counters = {"oracle.queries": sum(len(a[0]) for a in answers if a)}
    return Round(wall, wall_raw, op_ns, len(op_ns), failed, digest, counters,
                 answers if keep else None)


_ROUNDS = {"grid": _grid_round, "shutter": _shutter_round, "oracle": _oracle_round}
