"""Exact rational 2-D primitives: points and segments.

Coordinates are arbitrary-precision rationals (fractions.Fraction); every
operation is exact and deterministic, there is no floating point anywhere.
The predicates live in the integer core (_pure), which callers reach on
keys; this module provides the typed value classes, their keys and their
text forms.

The core reads a point as its key, the integer 4-tuple (xn, xd, yn, yd)
with positive denominators. _pure.pt_cmp orders keys exactly as Point
orders points (x first, then y), so code that holds keys compares and
sorts them without touching a Fraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Tuple


class GeometryError(ValueError):
    """Base class for domain errors raised across the package."""


class DegenerateSegment(GeometryError):
    """A segment with equal endpoints."""


def rat_str(r: Fraction) -> str:
    """Canonical serialization: always 'p/q' with q > 0, e.g. '2/1', '-1/4'."""
    return f"{r.numerator}/{r.denominator}"


def point_str(p: Point) -> str:
    """A point for messages: '(p/q, p/q)' in rat_str form."""
    return f"({rat_str(p.x)}, {rat_str(p.y)})"


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
        """Integer 4-tuple (xn, xd, yn, yd) for the predicate core, the same
        for Fraction and int coordinates. Built on every read: storing it
        would give every Point a per-instance dict."""
        return self.x.as_integer_ratio() + self.y.as_integer_ratio()


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
            raise DegenerateSegment(f"degenerate segment at {point_str(self.p)}")
        if self.q < self.p:
            p, q = self.p, self.q
            object.__setattr__(self, "p", q)
            object.__setattr__(self, "q", p)

