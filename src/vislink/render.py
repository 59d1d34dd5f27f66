"""Deterministic SVG figures for generated constructions.

Purely presentational: coordinates are rounded for drawing only and carry
no verification weight. Each fan (with its outward tail, when present)
gets one color from a fixed 16-entry palette, cycling when k + 1 > 16; a
segment that no piece claims (only a hand-edited document has one) is
drawn in neutral gray. Polygon vertices are labeled a_i / b_i, edge
midpoints are marked with crosses and outer tail endpoints with rings,
matching the family's role assignments. Output depends only on the
construction, so re-rendering the same document is byte-identical. A
coordinate too large for a float (only a hand-edited document has one)
raises GeometryError before any text is produced.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List

from .construct import Construction
from .kernel import GeometryError, rat_str

PALETTE = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
    "#e377c2",
    "#17becf",
    "#bcbd22",
    "#7f7f7f",
    "#aec7e8",
    "#ffbb78",
    "#98df8a",
    "#ff9896",
    "#c5b0d5",
    "#c49c94",
)

_NO_PIECE = "#999999"

_SIZE = 720.0


def _fmt(v: float) -> str:
    s = f"{v:.3f}"
    return "0.000" if s == "-0.000" else s


def _float(v: Fraction, coord: Fraction, scale: float = 1.0) -> float:
    """float(v) * scale for v drawn from coord; past the float range, a
    GeometryError names coord, abridged."""
    try:
        f = float(v) * scale
    except OverflowError:  # float(v); the product overflows to inf
        f = math.inf
    if not math.isinf(f):
        return f
    s = rat_str(coord)
    s = s if len(s) <= 40 else f"{s[:20]}... ({len(s)} characters)"
    raise GeometryError(f"coordinate {s} is too large to draw")


def render_construction(c: Construction) -> str:
    xs: List[Fraction] = []
    ys: List[Fraction] = []
    for s in c.complex.maximal_segments:
        xs += [s.p.x, s.q.x]
        ys += [s.p.y, s.q.y]
    lo_x, hi_x = min(xs), max(xs)
    lo_y, hi_y = min(ys), max(ys)
    span = max(hi_x - lo_x, hi_y - lo_y, Fraction(1))
    margin = span / 10
    scale = _SIZE / _float(span + 2 * margin, max(lo_x, hi_x, lo_y, hi_y, key=abs))

    def sx(v: Fraction) -> float:
        return _float(v - lo_x + margin, v, scale)

    def sy(v: Fraction) -> float:
        # SVG y grows downward; flip so the figure matches the plane
        return _SIZE - _float(v - lo_y + margin, v, scale)

    piece_of = {}
    for i, idxs in enumerate(c.pieces):
        for j in idxs:
            piece_of[j] = i

    out: List[str] = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{int(_SIZE)}" '
        f'height="{int(_SIZE)}" viewBox="0 0 {int(_SIZE)} {int(_SIZE)}">'
    )
    out.append(f'<rect width="{int(_SIZE)}" height="{int(_SIZE)}" fill="white"/>')

    for j, s in enumerate(c.complex.maximal_segments):
        color = PALETTE[piece_of[j] % len(PALETTE)] if j in piece_of else _NO_PIECE
        out.append(
            f'<line x1="{_fmt(sx(s.p.x))}" y1="{_fmt(sy(s.p.y))}" '
            f'x2="{_fmt(sx(s.q.x))}" y2="{_fmt(sy(s.q.y))}" '
            f'stroke="{color}" stroke-width="1.8"/>'
        )

    # vertex dots and labels, pushed outward from the centroid
    verts = c.polygon.vertices
    # every vertex is placed before the centroid, which then fits a float
    pos = [(sx(p.x), sy(p.y)) for p in verts]
    cx = sx(sum(p.x for p in verts) / len(verts))
    cy = sy(sum(p.y for p in verts) / len(verts))
    for idx, (px, py) in enumerate(pos):
        i = idx // 2
        name = f"a{i}" if idx % 2 == 0 else f"b{i}"
        dx, dy = px - cx, py - cy
        norm = max((dx * dx + dy * dy) ** 0.5, 1e-9)
        lx, ly = px + 16 * dx / norm, py + 16 * dy / norm
        out.append(
            f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="3" fill="black"/>'
        )
        out.append(
            f'<text x="{_fmt(lx)}" y="{_fmt(ly)}" font-size="14" '
            f'font-family="monospace" text-anchor="middle" '
            f'dominant-baseline="middle">{name}</text>'
        )

    for i, p in enumerate(c.c):
        px, py = sx(p.x), sy(p.y)
        color = PALETTE[i % len(PALETTE)]
        out.append(
            f'<path d="M {_fmt(px - 5)} {_fmt(py)} H {_fmt(px + 5)} '
            f'M {_fmt(px)} {_fmt(py - 5)} V {_fmt(py + 5)}" '
            f'stroke="{color}" stroke-width="1.6" fill="none"/>'
        )

    if c.gamma:
        for i, p in enumerate(c.e):
            color = PALETTE[i % len(PALETTE)]
            out.append(
                f'<circle cx="{_fmt(sx(p.x))}" cy="{_fmt(sy(p.y))}" r="4.5" '
                f'stroke="{color}" stroke-width="1.6" fill="none"/>'
            )

    out.append("</svg>")
    return "\n".join(out) + "\n"
