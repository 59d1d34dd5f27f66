"""Times at a reference machine speed.

This machine's speed for pure-Python work swings by 20-40% within seconds:
other tenants share its cores, and CPU time tracks wall time, so the
scheduler is not the cause. Medians over more work do not remove swings that
last as long as a run. So the benchmark measures, next to the workload, a
fixed pure-Python task (the probe) whose duration at the reference speed is
PROBE_NOMINAL_NS, and reports every time scaled by

    PROBE_NOMINAL_NS / (probe duration measured around that time).

A round is cut into segments of at least SEGMENT_NS; after each segment
the probe runs once. A segment, and every op inside it, is scaled by the
mean of the probes just before and just after it. The probe is benchmark
code: no change to vislink can make it faster or slower, so a real change
in the program's speed shows in full, while the machine's swings cancel.
The raw times are kept as well (`wall_raw_s`).
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction
from typing import List, Tuple

PROBE_NOMINAL_NS = 1_000_000
SEGMENT_NS = 50_000_000

# The probe mixes what the program does most: products of multi-word
# integers, sign tests, tuple unpacking and hash lookups, then Fraction
# geometry through many small function calls (all pairwise crossings of a
# fixed set of segments). It is frozen here, apart from the checkers' code,
# so that editing them cannot move the reference. The cyclic GC is paused
# while it runs, so the program's own heap cannot make it slower. Tracking
# was compared on the shutter workload over 42 rounds: an integer loop, a
# Fraction and set mix, and a Fraction link-oracle task each cut the spread
# of 4-round medians from 0.21 (raw) to 0.04-0.05.
_ROWS = [
    (123456789123 + 7 * i, 987654321987 - 3 * i,
     55555555555 + i * i, 77777777777 * (i + 1))
    for i in range(64)
]
_TABLE = {i: i * i for i in range(256)}
_REPEAT = 12
_SEGMENTS = [
    ((Fraction(a), Fraction(b)), (Fraction(c, 3), Fraction(d, 2)))
    for a, b, c, d in ((-3, -2, 4, 3), (-5, 1, 5, -1), (0, -6, 1, 6),
                       (-4, 4, 3, -5))
]
_sink = None


def _crossing(p, q, r, s):
    rx, ry = q[0] - p[0], q[1] - p[1]
    sx, sy = s[0] - r[0], s[1] - r[1]
    den = rx * sy - ry * sx
    if den == 0:
        return None
    t = ((r[0] - p[0]) * sy - (r[1] - p[1]) * sx) / den
    return (p[0] + t * rx, p[1] + t * ry) if 0 <= t <= 1 else None


def probe_ns() -> int:
    """Duration of one run of the fixed reference task, in ns."""
    global _sink
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter_ns()
        acc = 0
        for _ in range(_REPEAT):
            for a, b, c, d in _ROWS:
                t = a * d - b * c
                acc += (t > 0) - (t < 0) + _TABLE[t & 255]
        seen = {}
        for p, q in _SEGMENTS:
            for r, s in _SEGMENTS:
                z = _crossing(p, q, r, s)
                if z is not None:
                    seen[z] = seen.get(z, 0) + 1
        t1 = time.perf_counter_ns()
        _sink = (acc, len(seen))
    finally:
        if was_enabled:
            gc.enable()
    return t1 - t0


def speed_scale(probes) -> float:
    """Factor that takes a time measured around these probes to the
    reference speed."""
    return PROBE_NOMINAL_NS * len(probes) / sum(probes)


class Pacer:
    """Segments one round and scales its times; see the module docstring.

    Usage: start(); after every op op(ns), at other phase boundaries
    tick(); finish() returns (scaled wall s, raw wall s, scaled op ns).
    Probe time is excluded from every figure.
    """

    def __init__(self):
        self.segments: List[int] = []
        self.probes: List[int] = []
        self.ops: List[Tuple[int, int]] = []
        self._t = 0

    def start(self) -> None:
        self.segments, self.ops = [], []
        self.probes = [probe_ns()]
        self._t = time.perf_counter_ns()

    def op(self, ns: int) -> None:
        self.ops.append((len(self.segments), ns))
        self.tick()

    def tick(self) -> None:
        if time.perf_counter_ns() - self._t >= SEGMENT_NS:
            self._cut()

    def _cut(self) -> None:
        self.segments.append(time.perf_counter_ns() - self._t)
        self.probes.append(probe_ns())
        self._t = time.perf_counter_ns()

    def finish(self) -> Tuple[float, float, List[float]]:
        self._cut()
        p = self.probes
        scale = [speed_scale(p[i:i + 2]) for i in range(len(self.segments))]
        wall = sum(s * f for s, f in zip(self.segments, scale)) / 1e9
        raw = sum(self.segments) / 1e9
        return wall, raw, [ns * scale[i] for i, ns in self.ops]
