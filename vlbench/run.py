"""vislink benchmark: one workload per run, end-to-end or traced per layer.

Run from the root of a vislink source tree:

    python3 vlbench/run.py --workload grid --seed 1 --seconds 30 --trace 0

The program is imported from ./src; nothing is installed. A run measures
set-up (a fresh import of vislink plus input generation), then repeats
whole rounds of the workload's fixed work (see workloads.py) until
--seconds is used up, checks the first round with the independent checkers
in checks.py, checks that every later round produced the same outputs, and
prints one JSON object as the last line of standard output. Metrics are medians over the
set-ups, over the rounds (wall time) or over all ops of all rounds (op
latency); every time is taken at the reference speed of pace.py.

--trace 0 reports the end-to-end metrics. --trace 1 alternates untraced
and traced rounds, reports per-layer calls and self time from the traced
ones plus the tracing overhead (traced minus untraced round wall time), and
writes the spans of the last traced round to .bench_out/.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

OUT_DIR = ".bench_out"
SETUP_RUNS = 9  # measured set-ups per run, after one warm-up
MIN_ROUNDS = 2

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)
COUNTERS = (
    "construct.polygon_retries",
    "verify.fallbacks",
    "shutter.sight_lines",
    "shutter.a_size",
    "shutter.b_size",
    "shutter.z_new",
    "docio.bytes_written",
)


def _parse(argv):
    ap = argparse.ArgumentParser(description="vislink benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _setup(args):
    """Set-up, SETUP_RUNS times after one warm-up that also imports the
    standard library and fills the bytecode cache: drop every vislink
    module, import the package again and make the inputs. Each is timed
    between probes and scaled like the rounds (pace.py). Returns the scaled
    times, the raw times and the last inputs, which belong to the modules
    that stay loaded.

    Set-up runs in this process, not in fresh interpreters: timed from
    process start in child processes, its median moved by up to 29%
    between two sets of ten runs, and probes in the parent did not track
    a process that is mostly starting up.
    """
    import workloads
    from pace import probe_ns, speed_scale

    scaled, raw = [], []
    for _ in range(SETUP_RUNS + 1):
        for name in [m for m in sys.modules if m == "vislink" or m.startswith("vislink.")]:
            del sys.modules[name]
        before = [probe_ns(), probe_ns()]
        t0 = time.perf_counter_ns()
        importlib.import_module("vislink")
        inp = workloads.make_inputs(args.workload, args.seed)
        t = (time.perf_counter_ns() - t0) / 1e9
        after = [probe_ns(), probe_ns()]
        raw.append(t)
        scaled.append(t * speed_scale(before + after))
    return scaled[1:], raw[1:], inp


def main(argv=None) -> int:
    args = _parse(argv)
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "vislink", "__init__.py")):
        print("run.py: no src/vislink under the current directory; run it from "
              "the root of a vislink source tree", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    # The warm-up set-up writes vislink's bytecode cache under src/, so the
    # timed set-ups read compiled modules, as an installed package would,
    # whether or not PYTHONDONTWRITEBYTECODE is set.
    sys.dont_write_bytecode = False

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"run.py: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    setup, setup_raw, inp = _setup(args)
    work = os.path.join(OUT_DIR, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        rounds, tracer, errors = _measure(args, inp, work)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    if args.trace:
        metrics = _layer_metrics(rounds, tracer)
    else:
        metrics = _end_to_end(rounds, setup, peak_rss_mb)
    print(f"{len(rounds)} rounds; raw medians: set-up "
          f"{statistics.median(setup_raw):.4f} s, round wall "
          f"{statistics.median(r.wall_raw_s for r in rounds):.4f} s", file=sys.stderr)
    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def _measure(args, inp, work):
    """Whole rounds until the next one would overrun --seconds, at least
    MIN_ROUNDS; with tracing, untraced and traced rounds alternate.

    Round 0 is checked as soon as it ends and its outputs are dropped
    before round 1, so the peak memory does not depend on how many rounds
    fit. Time spent checking does not count against --seconds.
    """
    import workloads

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    rounds, errors = [], []
    spent = 0.0
    while True:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        if traced:
            tracer.reset()
            tracer.install()
        t0 = time.monotonic()
        try:
            r = workloads.run_round(inp, work, keep=not rounds)
        finally:
            if traced:
                tracer.uninstall()
        spent += time.monotonic() - t0
        if traced:
            r.traced = True
            r.layer_calls = tracer.counts()
            r.layer_self = tracer.self_seconds()
        if not rounds:
            errors += _check_outputs(args.workload, inp, r.kept)
            r.kept = None
        rounds.append(r)
        if len(rounds) < MIN_ROUNDS:
            continue
        next_traced = bool(args.trace) and len(rounds) % 2 == 1
        same = [x.wall_s for x in rounds if x.traced == next_traced]
        if spent + statistics.median(same) > args.seconds:
            break
    if tracer is not None:
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.write(
            os.path.join(OUT_DIR, f"trace-{args.workload}-{args.seed}.json"),
            {"workload": args.workload, "seed": args.seed,
             "round_wall_s": [x.wall_s for x in rounds],
             "round_wall_raw_s": [x.wall_raw_s for x in rounds],
             "round_traced": [x.traced for x in rounds]},
        )
    return rounds, tracer, errors + _check_rounds(rounds)


def _check_rounds(rounds):
    """Every round must give round 0's outputs, traced or not."""
    errors = []
    first = rounds[0]
    for i, r in enumerate(rounds[1:], 1):
        if r.digest != first.digest:
            errors.append(f"round {i} produced other outputs than round 0")
        if r.counters != first.counters:
            errors.append(f"round {i} counted other work than round 0")
    traced = [r for r in rounds if r.traced]
    if any(r.layer_calls != traced[0].layer_calls for r in traced):
        errors.append("traced rounds made different numbers of calls")
    return errors


def _check_outputs(workload, inp, kept):
    """The independent checks of one round, and their self-tests."""
    import checks

    errors = []
    try:
        if workload == "grid":
            errors += checks.check_grid(kept)
            if not checks.selftest_grid(kept):
                errors.append("the grid checker accepted a corrupted path vertex")
        elif workload == "shutter":
            from workloads import SHUTTER_STEPS

            state, history_ok = kept
            errors += checks.check_shutter(
                inp.extra["K"], inp.items, SHUTTER_STEPS, state, history_ok
            )
            if not checks.selftest_shutter():
                errors.append("the shutter checker missed a planted viewer")
        else:
            errors += checks.check_oracle(inp.items, kept)
            if not checks.selftest_oracle(inp.items, kept):
                errors.append("the oracle checker accepted a perturbed distance")
    except Exception:  # a checker crash is a failed check, not a crash
        errors.append("checker raised:\n" + traceback.format_exc())
    return errors


def _end_to_end(rounds, setup, peak_rss_mb):
    walls = [r.wall_s for r in rounds]
    ops = [ns for r in rounds for ns in r.op_ns]
    wall = statistics.median(walls)
    done = rounds[0].attempted - rounds[0].failed
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": wall,
        "ops_per_s": done / wall,
        "op_p50_ms": statistics.median(ops) / 1e6,
        "op_p90_ms": statistics.quantiles(ops, n=10)[8] / 1e6,
        "peak_rss_mb": peak_rss_mb,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def _layer_metrics(rounds, tracer):
    from tracer import NAMES

    traced = [r for r in rounds if r.traced]
    plain = [r for r in rounds if not r.traced]
    out = {}
    for name in NAMES:
        out[f"{name}.calls"] = {"value": traced[0].layer_calls[name], "unit": "count"}
        # at the reference speed: scaled like the round that measured it
        out[f"{name}.self_s"] = {
            "value": statistics.median(
                r.layer_self[name] * r.wall_s / r.wall_raw_s for r in traced
            ),
            "unit": "s",
        }
    for name in COUNTERS:
        out[name] = {"value": rounds[0].counters.get(name, 0), "unit": "count"}
    overhead = (statistics.median(r.wall_s for r in traced)
                - statistics.median(r.wall_s for r in plain))
    out["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    if tracer.missing:
        print(f"not traced (not found): {', '.join(tracer.missing)}", file=sys.stderr)
    return out


if __name__ == "__main__":
    sys.exit(main())
