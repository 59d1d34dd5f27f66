"""Per-layer tracing by wrapping the program's public functions from outside.

`Tracer.install()` replaces each traced function, in every loaded vislink
module that holds it (modules bind names at import with ``from .x import
f``), by a wrapper that keeps call counts and self time per function;
`uninstall()` puts the originals back. No program file changes.

Two kinds of targets:
- span functions record one span (name, start, end, parent) per call, kept
  in compact arrays in memory and written out at the end of the run;
- leaf functions, the hot kernel predicates called millions of times per
  round, are only counted and timed, with no span of their own.

Self time of a call is its duration minus the time covered by the traced
calls it made.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array
from typing import Dict, List, Tuple

# (layer, module, function, leaf)
TARGETS: Tuple[Tuple[str, str, str, bool], ...] = (
    ("kernel", "vislink._pure", "on_seg", True),
    ("kernel", "vislink._pure", "seg_meet", True),
    ("kernel", "vislink._pure", "orient", True),
    ("kernel", "vislink._pure", "cross_lower", True),
    ("kernel", "vislink._pure", "viewer_scan", False),
    ("kernel", "vislink._pure", "danger_scan", False),
    ("complexes", "vislink.complexes", "normalize", False),
    ("complexes", "vislink.complexes", "incident_segments", False),
    ("complexes", "vislink.complexes", "contains_segment", False),
    ("complexes", "vislink.complexes", "oneset_intersect", False),
    ("links", "vislink.links", "n_visible", False),
    ("links", "vislink.links", "certificate_valid", False),
    ("links", "vislink.links", "link_distance", False),
    ("links", "vislink.links", "link_region", False),
    ("links", "vislink.links", "common_viewer", False),
    ("construct", "vislink.construct", "make_polygon", False),
    ("construct", "vislink.construct", "build_family", False),
    ("verify", "vislink.verify", "verify_common_witness", False),
    ("verify", "vislink.verify", "verify_targets_blocked", False),
    ("shutter", "vislink.shutter", "advance", False),
    ("shutter", "vislink.shutter", "find_common_viewer", False),
    ("shutter", "vislink.shutter", "verify_history", False),
    ("docio", "vislink.docio", "write_doc", False),
    ("docio", "vislink.docio", "read_doc", False),
    ("docio", "vislink.docio", "construction_from_doc", False),
    ("docio", "vislink.docio", "audit_to_doc", False),
)

NAMES = tuple(f"{layer}.{fn}" for layer, _, fn, _ in TARGETS)


class Tracer:
    def __init__(self):
        n = len(TARGETS)
        self.calls = [0] * n
        self.self_ns = [0] * n
        # spans: parallel arrays, one entry per span-function call
        self.span_name = array("H")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("q")
        self._child = [0]  # child-time accumulator per open span
        self._open = [-1]  # span ids of the open spans
        self._patched: List[Tuple[object, str, object]] = []
        self.missing: List[str] = []

    def reset(self) -> None:
        # in place: the wrappers hold these lists
        self.calls[:] = [0] * len(TARGETS)
        self.self_ns[:] = [0] * len(TARGETS)
        for a in (self.span_name, self.span_start, self.span_end, self.span_parent):
            del a[:]

    def install(self) -> None:
        self.missing = []
        mods = [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == "vislink" or name.startswith("vislink."))]
        for idx, (_, modname, fn, leaf) in enumerate(TARGETS):
            try:
                orig = getattr(importlib.import_module(modname), fn)
            except (ImportError, AttributeError):
                self.missing.append(NAMES[idx])
                continue
            wrapper = self._leaf(idx, orig) if leaf else self._span(idx, orig)
            for m in mods:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, attr, wrapper)
                        self._patched.append((m, attr, orig))

    def uninstall(self) -> None:
        for m, attr, orig in reversed(self._patched):
            setattr(m, attr, orig)
        self._patched.clear()

    def _leaf(self, idx, fn):
        clock = time.perf_counter_ns
        calls, self_ns, child = self.calls, self.self_ns, self._child

        def wrapper(*args, **kwargs):
            child.append(0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                d = clock() - t0
                calls[idx] += 1
                self_ns[idx] += d - child.pop()
                child[-1] += d

        wrapper.__wrapped__ = fn
        return wrapper

    def _span(self, idx, fn):
        clock = time.perf_counter_ns
        calls, self_ns, child, opened = self.calls, self.self_ns, self._child, self._open
        names, starts, ends, parents = (
            self.span_name, self.span_start, self.span_end, self.span_parent
        )

        def wrapper(*args, **kwargs):
            sid = len(names)
            names.append(idx)
            parents.append(opened[-1])
            starts.append(0)
            ends.append(0)
            child.append(0)
            opened.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                opened.pop()
                inner = child.pop()
                starts[sid] = t0
                ends[sid] = t1
                d = t1 - t0
                calls[idx] += 1
                self_ns[idx] += d - inner
                child[-1] += d

        wrapper.__wrapped__ = fn
        return wrapper

    def counts(self) -> Dict[str, int]:
        return dict(zip(NAMES, self.calls))

    def self_seconds(self) -> Dict[str, float]:
        return {n: ns / 1e9 for n, ns in zip(NAMES, self.self_ns)}

    def write(self, path: str, meta: dict) -> None:
        """Spans of the last traced round as JSON: names plus one
        [name, start_ns, end_ns, parent] row per span (parent -1 = root)."""
        t_base = self.span_start[0] if len(self.span_start) else 0
        rows = [
            [n, s - t_base, e - t_base, p]
            for n, s, e, p in zip(
                self.span_name, self.span_start, self.span_end, self.span_parent
            )
        ]
        with open(path, "w") as f:
            json.dump({"meta": meta, "names": NAMES, "spans": rows}, f,
                      separators=(",", ":"))
            f.write("\n")
