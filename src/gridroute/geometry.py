"""Exact lattice geometry primitives shared by the planning pipeline.

Points live on the integer cell-corner lattice and are plain ``(x, y)``
tuples; segments are ``(a, b)`` point pairs. The orientation test
:func:`cross` is exact integer arithmetic. Floating point appears solely in
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
