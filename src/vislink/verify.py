"""Exact verification of the two visibility claims on generated families.

Positive claim: any k points of the complex have a common viewer, and the
proof formula names it directly: if j0 is an index whose piece C_j0
contains none of the points, then vertex a_{partner(j0)}, the one vertex
that fan j0 omits (PolygonSpec.partner), is joined to every b_i with
i != j0 and reaches each point within the family's link budget. The
verifier computes that witness and certifies every path; a tuple point the
witness misses raises VerificationFailed, since the formula is the claim.

The k+1 possible witnesses are fixed by the construction, so each gets one
search tree per construction (Construction.witness_trees), as do the pieces,
the least piece holding each segment (Construction.least_piece) and the
targets' regions. A tuple point's key is read once: it locates the point,
its incident segments assign it a piece with one min over that table, and
it ends its path. Certifying the point is a lookup in the witness's tree
plus the tree's bend table (SearchTree.bends), which holds the source and
bends of every path ending on one segment, built with the tree. Every
multi-link path still passes the independent certificate_valid re-check.

Negative claim: the k+1 distinguished targets (edge midpoints c_i when
n = 2, outer tail endpoints otherwise) have no common viewer. This is
checked by exact emptiness of the fold of their n-link regions over the
regions' segment indices, with the whole intersection trace exposed for
independent re-checking. Regions and trace entries stay in the fold's
index form (OneSet); a Point is built from one only for the failure
message. Dropping any single target must flip the answer to non-empty,
which guards against a vacuously empty region engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import ClassVar, List, Optional, Sequence, Tuple

from .complexes import (
    OneSet,
    PointNotOnComplex,
    SegmentComplex,
    _through,
    intersection_fold,
    least_point,
)
from .construct import Construction
from .kernel import GeometryError, Point, point_str
from .links import PathCertificate, VerificationFailed, tree_path
from .rng import STREAM_TUPLES, Stream, derive


class IndexOutOfRange(GeometryError):
    """Index outside 0..k."""


class WrongArity(GeometryError):
    """Tuple size differs from k."""


class PointOnNoPiece(GeometryError):
    """A tuple point lies only on segments that no piece claims (the
    construction's fans and tails do not cover its complex)."""


@dataclass(frozen=True)
class WitnessReport:
    """Common-viewer verification result for one k-tuple."""

    tuple: Tuple[Point, ...]
    witness: Point
    paths: Tuple[PathCertificate, ...]
    method: ClassVar[str] = "proof-formula"


@dataclass(frozen=True)
class EmptinessReport:
    """Region-intersection trace proving the targets share no viewer.

    Each region and trace entry is a OneSet of maximal-segment indices
    of complex (into complex.keys) and keys of its vertices, so the
    complex travels with the report."""

    complex: SegmentComplex = field(repr=False)
    targets: Tuple[Point, ...]
    n: int
    per_target_regions: Tuple[OneSet, ...]
    intersection_trace: Tuple[OneSet, ...]

    @property
    def final(self) -> OneSet:
        """The last fold entry: the common region of every listed target."""
        return self.intersection_trace[-1]


def verify_common_witness(
    c: Construction, pts: Sequence[Point]
) -> WitnessReport:
    """Certify that one point sees all k tuple points within n links.

    Each point is assigned to the least-index piece containing it, the
    least Construction.least_piece entry over its incident segments; the
    formula witness for the least untouched index must see every point,
    else VerificationFailed names the first point it misses.
    """
    if len(pts) != c.k:
        raise WrongArity(f"need exactly k={c.k} points, got {len(pts)}")
    C = c.complex
    least = c.least_piece
    assigned = set()
    located = []
    for x in pts:
        key = x.key
        incident = _through(C, key)
        if not incident:
            raise PointNotOnComplex(f"{point_str(x)} is not on the complex")
        owners = [least[s] for s in incident if least[s] is not None]
        if not owners:
            raise PointOnNoPiece(
                f"{point_str(x)} lies on no piece of the construction"
            )
        assigned.add(min(owners))
        located.append((key, incident))
    j0 = min(i for i in range(c.k + 1) if i not in assigned)
    m = c.polygon.partner(j0)
    tree = c.witness_trees[m]
    paths = []
    for i, (key, incident) in enumerate(located):
        cert = tree_path(C, tree, key, c.n, incident)
        if cert is None:
            raise VerificationFailed(
                f"formula witness a_{m} for untouched piece {j0} does not see "
                f"tuple point {i} {point_str(pts[i])} within {c.n} links"
            )
        paths.append(cert)
    return WitnessReport(tuple(pts), tree.source, tuple(paths))


def verify_targets_blocked(
    c: Construction, drop_index: Optional[int] = None
) -> EmptinessReport:
    """Fold the n-link regions of the distinguished targets.

    The fold runs over the regions' segment indices (intersection_fold).
    With the full target list the intersection must be empty (else
    VerificationFailed). With drop_index set, that target is excluded and
    the fold of the rest is returned as-is; by the positive claim it
    should then be non-empty, which callers assert as the adversarial
    control.
    """
    if drop_index is not None and not 0 <= drop_index <= c.k:
        raise IndexOutOfRange(f"drop index {drop_index} outside 0..{c.k}")
    targets = list(c.e)
    regions = list(c.target_regions)
    if drop_index is not None:
        del targets[drop_index], regions[drop_index]
    trace = intersection_fold(c.complex, regions)
    final = trace[-1]
    if drop_index is None and not final.is_empty():
        raise VerificationFailed(
            f"targets have a common {c.n}-link viewer: "
            f"{point_str(least_point(c.complex, final))}"
        )
    per_target = tuple(OneSet(tuple(sorted(r))) for r in regions)
    return EmptinessReport(c.complex, tuple(targets), c.n, per_target, trace)


def _draw_on_complex(C: SegmentComplex, stream: Stream) -> Point:
    """One on-complex point: a segment index s and r in 0..65536 drawn from
    the stream, in that order, give p + (r/65536)(q - p) for the endpoints
    p, q of segment s. It is computed on their keys (C.keys[s]), one
    Fraction per coordinate: x = (pxn*qxd*65536 + r*(qxn*pxd - pxn*qxd))
    / (pxd*qxd*65536), and y likewise."""
    (pxn, pxd, pyn, pyd), (qxn, qxd, qyn, qyd) = C.keys[stream.below(len(C.keys))]
    r = stream.below(65537)
    return Point(
        Fraction(pxn * qxd * 65536 + r * (qxn * pxd - pxn * qxd), pxd * qxd * 65536),
        Fraction(pyn * qyd * 65536 + r * (qyn * pyd - pyn * qyd), pyd * qyd * 65536),
    )


def sample_tuples(
    C: SegmentComplex, k: int, count: int, seed: int
) -> List[Tuple[Point, ...]]:
    """Deterministic stream of k-tuples of on-complex points."""
    stream = Stream(derive(seed, STREAM_TUPLES))
    return [
        tuple(_draw_on_complex(C, stream) for _ in range(k)) for _ in range(count)
    ]
