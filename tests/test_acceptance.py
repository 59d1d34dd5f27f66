"""Acceptance suite: one test per headline criterion.

Each test is a standalone pass/fail check of one advertised guarantee, at
the advertised scale and budget; run with -v to read the checklist. All
checks are exact (rational arithmetic, zero tolerance). Budgets are wall
clock on a laptop-class machine.
"""

import ast
import hashlib
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import vislink
from oracles import cycle_rank, oracle_link_distances, planted_state
from vislink.cli import main
from vislink.complexes import normalize
from vislink.construct import build_family, make_polygon
from vislink.docio import read_doc
from vislink.kernel import Segment, point
from vislink.links import link_distance
from vislink.rng import Stream, derive
from vislink.shutter import (
    find_common_viewer,
    gen_kset,
    gen_tuples,
    run_schedule,
    verify_history,
)
from vislink.verify import verify_targets_blocked

N_VALUES = (2, 3, 4, 5)
K_VALUES = (2, 3, 4, 5, 6)
GRID_SEED = 20260822


def build_grid():
    return {
        (n, k): build_family(make_polygon(k, GRID_SEED), n)
        for n in N_VALUES
        for k in K_VALUES
    }


@pytest.fixture(scope="module")
def grid():
    return build_grid()


def test_criterion_1_grid_gen_verify_500_tuples_under_60s(tmp_path):
    t0 = time.monotonic()
    for n in N_VALUES:
        for k in K_VALUES:
            doc = str(tmp_path / f"s-{n}-{k}.json")
            assert main(
                ["gen", "--k", str(k), "--n", str(n),
                 "--seed", str(GRID_SEED), "--out", doc]
            ) == 0, f"gen failed for n={n} k={k}"
            assert main(
                ["verify", "--in", doc, "--tuples", "500"]
            ) == 0, f"verify failed for n={n} k={k}"
    elapsed = time.monotonic() - t0
    assert elapsed < 60, f"grid took {elapsed:.1f}s, budget 60s"


def test_criterion_2_dropping_any_target_leaves_common_viewer(grid):
    for (n, k), c in grid.items():
        for i in range(k + 1):
            rep = verify_targets_blocked(c, drop_index=i)
            assert not rep.final.is_empty(), (
                f"n={n} k={k}: intersection empty without target {i}"
            )


def test_criterion_3_segment_count_laws(grid):
    for (n, k), c in grid.items():
        expected = (k + 1) * k + (k + 1) * (n - 2)
        assert len(c.complex.maximal_segments) == expected, (n, k)
    assert len(grid[(2, 2)].complex.maximal_segments) == 6
    assert len(grid[(2, 3)].complex.maximal_segments) == 12


def test_every_grid_member_has_a_cycle(grid):
    # on an acyclic union regions that meet pairwise share a point (Helly
    # on trees), so a family without a common viewer needs a cycle
    for (n, k), c in grid.items():
        assert cycle_rank(c.complex) >= 1, (n, k)


def _random_raw(stream, count):
    raws = []
    while len(raws) < count:
        x1 = stream.below(13) - 6
        y1 = stream.below(13) - 6
        x2 = stream.below(13) - 6
        y2 = stream.below(13) - 6
        if (x1, y1) != (x2, y2):
            raws.append(Segment(point(x1, y1), point(x2, y2)))
    return raws


def test_criterion_4_link_engine_matches_oracle_on_200_complexes():
    t0 = time.monotonic()
    for case in range(200):
        raws = _random_raw(Stream(derive(880, case)), 1 + case % 12)
        C = normalize(raws)
        vs, dmat = oracle_link_distances(raws)
        for i in range(len(vs)):
            for j in range(i, len(vs)):
                got = link_distance(C, vs[i], vs[j])
                assert got == dmat[i][j], (case, vs[i], vs[j], got, dmat[i][j])
    elapsed = time.monotonic() - t0
    assert elapsed < 120, f"oracle sweep took {elapsed:.1f}s, budget 120s"


def test_criterion_5_shutter_200_steps_three_seeds_all_invariants():
    for k in (2, 3):
        for seed in (101, 202, 303):
            t0 = time.monotonic()
            K = gen_kset(k, seed)
            tuples = gen_tuples(k, 201, seed)
            # run_schedule checks A-B disjointness, the growth bound, and
            # viewer absence after every step, raising on any failure
            s = run_schedule(K, tuples)
            elapsed = time.monotonic() - t0
            assert s.step == 200
            assert len(s.audit) == 201
            assert all(r.viewer_absent for r in s.audit)
            assert s.b0_size <= (k + 1) * k // 2
            assert len(s.A) <= k + 200 * (k - 1)
            assert not (s._aidx.keys() & s._bset)
            assert verify_history(s), "a historical witness stopped verifying"
            assert find_common_viewer(s) is None
            assert elapsed < 300, (
                f"k={k} seed={seed} took {elapsed:.1f}s, budget 300s"
            )


def test_criterion_6_planted_common_viewer_is_detected():
    K = (point(-1, -1), point(0, -2), point(1, -1))
    zstar = point(0, 2)
    s = planted_state(K, zstar)
    assert find_common_viewer(s) == zstar


def test_criteria_3_and_6_hold_under_python_O():
    # `python -O` strips assert statements, so the library code runs in a
    # -O subprocess and its results are checked here, with asserts intact
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.dirname(os.path.dirname(os.path.abspath(vislink.__file__)))
    script = (
        "import sys\n"
        "import test_acceptance as t\n"
        "from vislink.kernel import point\n"
        "print(sys.flags.optimize)\n"
        "grid = t.build_grid()\n"
        "print({nk: len(c.complex.maximal_segments) for nk, c in grid.items()})\n"
        "K = (point(-1, -1), point(0, -2), point(1, -1))\n"
        "print(repr(t.find_common_viewer(t.planted_state(K, point(0, 2)))))\n"
    )
    out = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join((src, here))),
        capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    optimize, counts, viewer = out.stdout.splitlines()
    assert optimize == "1"
    assert ast.literal_eval(counts) == {
        (n, k): (k + 1) * k + (k + 1) * (n - 2) for n in N_VALUES for k in K_VALUES
    }
    assert viewer == repr(point(0, 2))


def test_criterion_7_identical_seeds_give_byte_identical_artifacts(tmp_path):
    outs = []
    for tag in ("first", "second"):
        doc = str(tmp_path / f"c-{tag}.json")
        rep = str(tmp_path / f"r-{tag}.json")
        audit = str(tmp_path / f"a-{tag}.json")
        assert main(["gen", "--k", "4", "--n", "3", "--seed", "42", "--out", doc]) == 0
        assert main(["verify", "--in", doc, "--tuples", "40", "--out", rep]) == 0
        assert main(["shutter", "--k", "2", "--steps", "30", "--seed", "42", "--out", audit]) == 0
        outs.append((doc, rep, audit))
    for a, b in zip(*outs):
        ba, bb = Path(a).read_bytes(), Path(b).read_bytes()
        assert ba == bb, f"{a} and {b} differ"
        assert len(ba) > 0
    # sanity: the audit log really is a full record
    doc = read_doc(outs[0][2])
    assert len(doc["records"]) == 31


# sha256 of the criterion-7 artifacts as json.dumps wrote them before the
# hand-written writer: a change that alters every artifact the same way
# passes the rerun comparison above but fails here
PINNED_ARTIFACTS = (
    (["gen", "--k", "4", "--n", "3", "--seed", "42", "--out", "c.json"],
     "56edf41696c7bf8a0ba21668be6982df55cf9d92529392b609d8744efa0127ff"),
    (["verify", "--in", "c.json", "--tuples", "40", "--out", "r.json"],
     "9a45deb733276172adaee31d9b519f8b8a79d50e9ce7890ce2acb0aab0721841"),
    (["verify", "--in", "c.json", "--tuples", "40", "--drop-target", "0",
      "--out", "d.json"],
     "b281f8f548c6c945cf8d370d5d380da5120065ea15d7ab513a0e36c7e92c9808"),
    (["shutter", "--k", "2", "--steps", "30", "--seed", "42", "--out", "a2.json"],
     "359bd744b7f51d7cbbc91e27b7cfb1b8c5778c08d3ed4ba20574d86fa2a9410b"),
    (["shutter", "--k", "3", "--steps", "30", "--seed", "7", "--out", "a3.json"],
     "484876240d14b70c458b1e2eada5c3be307229e9221f7e9392b7d467ba4af85d"),
)


def test_criterion_7_artifacts_match_pinned_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for argv, want in PINNED_ARTIFACTS:
        assert main(argv) == 0, argv
        got = hashlib.sha256(Path(argv[-1]).read_bytes()).hexdigest()
        assert got == want, argv


# sha256 of the verify and drop-control reports at n = 2, where the
# targets are edge midpoints, taken before regions were written from keys
PINNED_N2_REPORTS = (
    (["gen", "--k", "3", "--n", "2", "--seed", "7", "--out", "c.json"],
     "79deeb3604c83eca9200f3216ec5ccfc03b0cbd1c64e9147587a20b021506128"),
    (["verify", "--in", "c.json", "--tuples", "20", "--out", "r.json"],
     "23495537948383fab8455d14c011da1ec7958887c47e5e7288f506d165a8a9ec"),
    (["verify", "--in", "c.json", "--drop-target", "1", "--out", "d.json"],
     "04761be13dccd2a43587e4907d32d5247a54417829e7efc2f0827d940429f14b"),
)


def test_n2_reports_match_pinned_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for argv, want in PINNED_N2_REPORTS:
        assert main(argv) == 0, argv
        got = hashlib.sha256(Path(argv[-1]).read_bytes()).hexdigest()
        assert got == want, argv


# sha256 of two longer shutter logs, taken before the danger scan met only
# the sight-line pairs that can cross above the axis: 200 steps at k = 3
# (31.6 MB) and 60 steps at k = 4, where each pair has three other crossings
PINNED_LONG_LOGS = (
    (["shutter", "--k", "3", "--steps", "200", "--seed", "7", "--out", "a3.json"],
     "307b625c5e9f024b8515d827b05f89f52916bcb52f1dfe29ebc8670ce3097977"),
    (["shutter", "--k", "4", "--steps", "60", "--seed", "7", "--out", "a4.json"],
     "b9517832185e4642f714796efdb3760e259e09102ef180bb121cecf17b4bea5a"),
)


def test_long_shutter_logs_match_pinned_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for argv, want in PINNED_LONG_LOGS:
        assert main(argv) == 0, argv
        got = hashlib.sha256(Path(argv[-1]).read_bytes()).hexdigest()
        assert got == want, argv


def test_criterion_7_artifacts_are_identical_under_python_O(tmp_path):
    # `python -O` strips assert statements; no artifact may depend on them
    src = os.path.dirname(os.path.dirname(os.path.abspath(vislink.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    digests = []
    for flags in ([], ["-O"]):
        d = tmp_path / ("O" if flags else "plain")
        d.mkdir()
        doc, rep, audit = (str(d / f) for f in ("c.json", "r.json", "a.json"))
        for argv in (
            ["gen", "--k", "4", "--n", "3", "--seed", "42", "--out", doc],
            ["verify", "--in", doc, "--tuples", "40", "--out", rep],
            ["shutter", "--k", "2", "--steps", "30", "--seed", "42", "--out", audit],
        ):
            out = subprocess.run(
                [sys.executable, *flags, "-m", "vislink", *argv],
                env=env, capture_output=True, text=True, timeout=300,
            )
            assert out.returncode == 0, out.stderr
        digests.append(
            [hashlib.sha256(Path(f).read_bytes()).hexdigest() for f in (doc, rep, audit)]
        )
    assert digests[0] == digests[1]


def test_package_has_no_assert():
    # a check written as `assert` vanishes under `python -O`, so every
    # check in the package must be an explicit raise
    pkg = os.path.dirname(os.path.abspath(vislink.__file__))
    found = []
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), encoding="utf-8") as f:
                tree = ast.parse(f.read(), filename=name)
            found += [
                f"{name}:{node.lineno}"
                for node in ast.walk(tree)
                if isinstance(node, ast.Assert)
            ]
    assert not found, f"assert statements in the package: {found}"


def test_public_names_resolve_and_are_unique():
    # a stale __all__ entry makes `from vislink import *` fail
    names = vislink.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(vislink, n)] == []
    namespace = {}
    exec("from vislink import *", namespace)
    assert set(names) <= namespace.keys()
