"""Exact lattice geometry primitives shared by the planning pipeline.

Points live on the integer cell-corner lattice and are plain ``(x, y)``
tuples; segments are ``(a, b)`` point pairs. Every visibility-relevant
predicate here is decided with integer arithmetic only (cross products and
integer interval overlap), so incidence cases such as corner grazing or
collinear overlap are exact. Floating point appears solely in
:func:`euclid_distance`.
"""

from __future__ import annotations

import math

Point = tuple[int, int]
Segment = tuple[Point, Point]


def euclid_distance(a: Point, b: Point) -> float:
    """Euclidean distance between two lattice points, in cell units.

    Multiply by the grid cell size to convert to meters.
    """
    return math.hypot(b[0] - a[0], b[1] - a[1])


def cross(o: Point, a: Point, b: Point) -> int:
    """Cross product (a - o) x (b - o).

    Positive for a counter-clockwise turn o -> a -> b, negative for
    clockwise, zero when the three points are collinear.
    """
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def segment_crosses_open_cell(seg: Segment, cell: tuple[int, int]) -> bool:
    """True iff the relative interior of ``seg`` meets the open unit cell.

    The cell ``(col, row)`` is the open square (col, col+1) x (row, row+1).
    Axis-parallel segments between lattice points lie on lattice lines and
    never enter an open cell. For the rest, the parameter interval where the
    segment is strictly inside the cell is intersected exactly using integer
    numerators over a common positive denominator.
    """
    (x1, y1), (x2, y2) = seg
    dx, dy = x2 - x1, y2 - y1
    if dx == 0 and dy == 0:
        raise ValueError("degenerate segment")
    if dx == 0 or dy == 0:
        return False
    if dx < 0:
        x1, y1, dx, dy = x2, y2, -dx, -dy
    col, row = cell
    ady = dy if dy > 0 else -dy
    q = dx * ady  # t = n / q with q > 0
    xlo = (col - x1) * ady
    xhi = xlo + ady
    if dy > 0:
        ylo = (row - y1) * dx
    else:
        ylo = (y1 - row - 1) * dx
    yhi = ylo + dx
    lo = max(xlo, ylo, 0)
    hi = min(xhi, yhi, q)
    return lo < hi


def collinear_overlap(s1: Segment, s2: Segment) -> bool:
    """True iff the segments are collinear and overlap with positive length."""
    (a, b), (c, d) = s1, s2
    if cross(a, b, c) != 0 or cross(a, b, d) != 0:
        return False
    ux, uy = b[0] - a[0], b[1] - a[1]

    def t(p: Point) -> int:
        return ux * (p[0] - a[0]) + uy * (p[1] - a[1])

    hi1 = ux * ux + uy * uy
    tc, td = t(c), t(d)
    lo2, hi2 = (tc, td) if tc <= td else (td, tc)
    return max(0, lo2) < min(hi1, hi2)


def segments_properly_intersect(s1: Segment, s2: Segment) -> bool:
    """True iff the segments cross at a point interior to both, or overlap.

    Endpoint-only contact (shared endpoints, T junctions, corner grazing)
    does not count. Collinear segments intersect properly exactly when their
    overlap has positive length.
    """
    (p1, p2), (q1, q2) = s1, s2
    d1 = cross(p1, p2, q1)
    d2 = cross(p1, p2, q2)
    d3 = cross(q1, q2, p1)
    d4 = cross(q1, q2, p2)
    if d1 == 0 and d2 == 0 and d3 == 0 and d4 == 0:
        return collinear_overlap(s1, s2)
    return (d1 > 0) != (d2 > 0) and d1 != 0 and d2 != 0 \
        and (d3 > 0) != (d4 > 0) and d3 != 0 and d4 != 0
