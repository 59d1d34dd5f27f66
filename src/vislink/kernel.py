"""Exact rational 2-D primitives: points, segments, lines, predicates.

Coordinates are arbitrary-precision rationals (fractions.Fraction); every
operation is exact and deterministic, there is no floating point anywhere.
The heavy lifting happens in the integer predicate core (_pure); this
module provides the typed value classes and thin wrappers.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from fractions import Fraction
from typing import NamedTuple, Optional, Tuple, Union

from . import _pure as _k

Rat = Fraction


class GeometryError(ValueError):
    """Base class for domain errors raised across the package."""


class DegeneratePair(GeometryError):
    """Two coincident points where distinct ones are required."""


class DegenerateSegment(GeometryError):
    """A segment with equal endpoints."""


class Orientation(IntEnum):
    CW = -1
    COLLINEAR = 0
    CCW = 1


def rat_str(r: Fraction) -> str:
    """Canonical serialization: always 'p/q' with q > 0, e.g. '2/1', '-1/4'."""
    return f"{r.numerator}/{r.denominator}"


def parse_rat(s: str) -> Fraction:
    """Accepts 'p/q' or a bare integer string."""
    s = s.strip()
    if "/" in s:
        num, den = s.split("/", 1)
        return Fraction(int(num), int(den))
    return Fraction(int(s))


class Point(NamedTuple):
    x: Fraction
    y: Fraction

    @property
    def key(self) -> Tuple[int, int, int, int]:
        """Integer 4-tuple (xn, xd, yn, yd) for the predicate core."""
        return (
            self.x.numerator,
            self.x.denominator,
            self.y.numerator,
            self.y.denominator,
        )


def point(x, y) -> Point:
    return Point(Fraction(x), Fraction(y))


def point_from_key(k: Tuple[int, int, int, int]) -> Point:
    return Point(Fraction(k[0], k[1]), Fraction(k[2], k[3]))


@dataclass(frozen=True, order=True)
class Segment:
    """Closed segment with distinct endpoints, stored lex-smaller first."""

    p: Point
    q: Point

    def __post_init__(self):
        if self.p == self.q:
            raise DegenerateSegment(f"degenerate segment at {self.p}")
        if self.q < self.p:
            p, q = self.p, self.q
            object.__setattr__(self, "p", q)
            object.__setattr__(self, "q", p)


@dataclass(frozen=True, order=True)
class Line:
    """Locus a*x + b*y = c; integer coefficients, gcd 1, first nonzero of
    (a, b) positive; one representative per geometric line."""

    a: int
    b: int
    c: int

    def __post_init__(self):
        if self.a == 0 and self.b == 0:
            raise GeometryError("invalid line: a = b = 0")
        # cheap canonicality guard; hand-built instances must already comply
        from math import gcd

        g = gcd(gcd(abs(self.a), abs(self.b)), abs(self.c))
        if g != 1 or self.a < 0 or (self.a == 0 and self.b < 0):
            raise GeometryError(f"non-canonical line ({self.a},{self.b},{self.c})")

    @property
    def key(self) -> Tuple[int, int, int]:
        return (self.a, self.b, self.c)


def orientation(p: Point, q: Point, r: Point) -> Orientation:
    return Orientation(_k.orient(p.key, q.key, r.key))


def on_segment(t: Point, s: Segment) -> bool:
    return _k.on_seg(t.key, s.p.key, s.q.key)


def line_through(p: Point, q: Point) -> Line:
    if p == q:
        raise DegeneratePair(f"line through coincident points {p}")
    a, b, c = _k.line3(p.key, q.key)
    return Line(a, b, c)


def x_axis_crossing(l: Line) -> Tuple[Optional[Point], bool]:
    """The unique axis point of l, if any.

    Returns (point, False) for a crossing, (None, False) for a horizontal
    line off the axis, and (None, True) when l IS the axis, distinguishable
    so callers can treat that case as malformed input.
    """
    kind, n, d = _k.axis_cross(l.key)
    if kind == 1:
        return Point(Fraction(n, d), Fraction(0)), False
    return None, kind == 2


def lines_intersection(l1: Line, l2: Line) -> Union[None, Point, Line]:
    """None when parallel and distinct, the common Point, or the Line
    itself when both arguments denote one line."""
    kind, z = _k.line_meet(l1.key, l2.key)
    if kind == 0:
        return None
    if kind == 2:
        return l1
    return point_from_key(z)


def segments_intersection(s1: Segment, s2: Segment) -> Union[None, Point, Segment]:
    """Exact intersection of two closed segments: None, a Point, or the
    overlap Segment for collinear overlaps."""
    kind, payload = _k.seg_meet(s1.p.key, s1.q.key, s2.p.key, s2.q.key)
    if kind == 0:
        return None
    if kind == 1:
        return point_from_key(payload)
    lo, hi = payload
    return Segment(point_from_key(lo), point_from_key(hi))
