"""Command-line front end.

Commands: gen (build a family member and write its document), verify (run
the no-common-viewer check and sampled witness certification), shutter
(run the axis-screen process with full auditing), render (draw a
construction document as SVG).

Exit codes: 0 all checks pass, 1 a mathematical claim failed verification,
2 usage or input error.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional, Sequence

from . import docio
from .construct import build_family, make_polygon
from .docio import DocumentError
from .kernel import GeometryError, point_str
from .render import render_construction
from .shutter import (
    InvariantViolation,
    find_common_viewer,
    gen_kset,
    gen_tuples,
    run_schedule,
    verify_history,
)
from .verify import (
    VerificationFailed,
    sample_tuples,
    verify_common_witness,
    verify_targets_blocked,
)

def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="vislink",
        description="exact visibility toolkit: generate, verify, simulate, draw",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a family member document")
    g.add_argument("--k", type=int, required=True, help="fan count minus one (>= 2)")
    g.add_argument("--n", type=int, default=2, help="link budget (>= 2)")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", help="document path (stdout when omitted)")
    g.add_argument("--svg-out", help="also draw the construction")

    v = sub.add_parser("verify", help="verify both visibility claims")
    v.add_argument("--in", dest="in_", required=True, help="construction document")
    v.add_argument(
        "--tuples",
        default="100",
        help="sampled tuple count, or path to a tuple-input document",
    )
    v.add_argument("--seed", type=int, default=None, help="sampling seed (default: document seed)")
    v.add_argument("--out", help="write the report document here")
    v.add_argument(
        "--drop-target",
        type=int,
        default=None,
        help="positive control: drop this target and expect a non-empty intersection",
    )

    s = sub.add_parser("shutter", help="run the axis-screen process")
    source = s.add_mutually_exclusive_group(required=True)
    source.add_argument("--in", dest="in_", help="input document with K (and optional tuples)")
    source.add_argument("--k", type=int, help="generate K of size k+1 (>= 2)")
    s.add_argument("--steps", type=int, help="induction steps after the basis (default 10)")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", help="write the audit-log document here")

    r = sub.add_parser("render", help="draw a construction document")
    r.add_argument("--in", dest="in_", required=True, help="construction document")
    r.add_argument("--svg-out", required=True, help="figure path")
    return ap


def _cmd_gen(args) -> int:
    c = build_family(make_polygon(args.k, args.seed), args.n)
    doc = docio.construction_to_doc(c)
    svg = render_construction(c) if args.svg_out else None
    if args.out:
        docio.write_doc(args.out, doc)
    else:
        sys.stdout.write(docio.doc_bytes(doc).decode("ascii"))
    if svg is not None:
        try:
            with open(args.svg_out, "wb") as f:
                f.write(svg.encode("ascii"))
        except OSError:
            if args.out:
                os.remove(args.out)  # exit 2 leaves neither file
            raise
    if args.out:
        print(
            f"gen: k={args.k} n={args.n} seed={args.seed} "
            f"segments={len(c.complex)} -> {args.out}"
        )
    return 0


def _load_tuples(c, value: str, seed: int) -> List[tuple]:
    """A tuple count to sample, or else the path of a tuple-input document."""
    try:
        count = int(value)
    except ValueError:
        return docio.tuples_from_doc(docio.read_doc(value))
    if count < 0:
        raise DocumentError("--tuples count must be >= 0")
    return sample_tuples(c.complex, c.k, count, seed)


def _cmd_verify(args) -> int:
    c = docio.construction_from_doc(docio.read_doc(args.in_))
    seed = args.seed if args.seed is not None else c.polygon.seed

    if args.drop_target is not None:
        rep = verify_targets_blocked(c, drop_index=args.drop_target)
        ok = not rep.final.is_empty()
        if args.out:
            docio.write_doc(
                args.out, docio.drop_control_doc(c.k, c.n, args.drop_target, rep)
            )
        if not ok:
            print(
                f"verify: control FAILED, intersection empty without target "
                f"{args.drop_target}",
                file=sys.stderr,
            )
            return 1
        print(
            f"verify: control ok, non-empty intersection without target "
            f"{args.drop_target}"
        )
        return 0

    emptiness = verify_targets_blocked(c)  # raises VerificationFailed if non-empty
    tuples = _load_tuples(c, args.tuples, seed)
    # raises VerificationFailed at the first tuple the formula witness misses
    witnesses = [verify_common_witness(c, t) for t in tuples]
    if args.out:
        docio.write_doc(
            args.out,
            docio.verify_report_doc(c.k, c.n, seed, emptiness, witnesses),
        )
    print(
        f"verify: targets share no viewer; {len(witnesses)} tuples "
        f"certified by formula witnesses"
    )
    return 0


def _cmd_shutter(args) -> int:
    if args.steps is not None and args.steps < 0:
        raise DocumentError("--steps must be >= 0")
    steps = 10 if args.steps is None else args.steps
    if args.in_ is not None:
        K, tuples = docio.shutter_input_from_doc(docio.read_doc(args.in_))
        if tuples is None:
            tuples = gen_tuples(len(K) - 1, steps + 1, args.seed)
        elif args.steps not in (None, len(tuples) - 1):
            raise DocumentError(
                f"--steps {args.steps} does not match the "
                f"{len(tuples)} tuples of --in"
            )
    else:
        K = gen_kset(args.k, args.seed)
        tuples = gen_tuples(args.k, steps + 1, args.seed)
    state = run_schedule(K, tuples)  # raises InvariantViolation on failure
    if not verify_history(state):
        print("shutter: a historical witness no longer verifies", file=sys.stderr)
        return 1
    # the steps scan only new sight-line pairs; cross-check the final state
    viewer = find_common_viewer(state)
    if viewer is not None:
        print(
            f"shutter: final cross-check found {point_str(viewer)} seeing all of "
            "K via A",
            file=sys.stderr,
        )
        return 1
    if args.out:
        docio.write_doc(args.out, docio.audit_to_doc(state, args.seed))
    print(
        f"shutter: k={state.k} steps={state.step} |A|={state.audit[-1].a_size} "
        f"|B|={state.audit[-1].b_size} records={len(state.audit)} all invariants held"
    )
    return 0


def _cmd_render(args) -> int:
    c = docio.construction_from_doc(docio.read_doc(args.in_))
    svg = render_construction(c)  # drawn first: a failure writes no file
    with open(args.svg_out, "wb") as f:
        f.write(svg.encode("ascii"))
    print(
        f"render: {len(c.complex)} segments, "
        f"{len(c.polygon.vertices)} vertices -> {args.svg_out}"
    )
    return 0


_COMMANDS = {
    "gen": _cmd_gen,
    "verify": _cmd_verify,
    "shutter": _cmd_shutter,
    "render": _cmd_render,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 2
    try:
        return _COMMANDS[args.command](args)
    except (VerificationFailed, InvariantViolation) as e:
        print(f"{args.command}: claim failed: {e}", file=sys.stderr)
        return 1
    except (GeometryError, OSError) as e:
        # bad input documents or parameters, a failed construction, or an
        # output file that cannot be written
        print(f"{args.command}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
