"""Exact shortest paths over the visibility graph and path post-processing.

The search is A* with a straight-line heuristic and a lazy-deletion binary
heap, over either graph kind: planning passes a lazily decided graph, so
only the vertices the search expands are ever decided, and the full graph
remains the reference. Length ties are broken deterministically: fewer waypoints
first, then the lexicographically smallest waypoint sequence, so equal
inputs produce identical paths on every platform. Consecutive collinear
waypoints are merged in the reported path; they are not genuine
deflections.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from heapq import heappop, heappush

from .errors import NoPathError
from .geometry import Point, cross, euclid_distance
from .visibility import LazyVisibilityGraph, VisibilityGraph


@dataclass(frozen=True)
class Path:
    """Ordered waypoints from source to destination with total length in meters."""

    waypoints: tuple[Point, ...]
    length_m: float

    @property
    def deflections(self) -> list[Point]:
        return list(self.waypoints[1:-1])

    def __post_init__(self):
        for a, b in zip(self.waypoints, self.waypoints[1:]):
            if a == b:
                raise ValueError("consecutive waypoints must be distinct")


def merge_collinear(waypoints) -> list[Point]:
    """Drop interior waypoints where the heading does not change."""
    out: list[Point] = []
    for p in waypoints:
        while len(out) >= 2:
            a, b = out[-2], out[-1]
            forward = (b[0] - a[0]) * (p[0] - b[0]) + (b[1] - a[1]) * (p[1] - b[1])
            if cross(a, b, p) == 0 and forward > 0:
                out.pop()
            else:
                break
        out.append(p)
    return out


def waypoints_length(waypoints, cell_size_m: float) -> float:
    """Length in meters of the polyline through ``waypoints``."""
    return sum(euclid_distance(a, b) for a, b in zip(waypoints, waypoints[1:])) * cell_size_m


def _finish(waypoints: list[Point], cell_size_m: float) -> Path:
    merged = merge_collinear(waypoints)
    return Path(tuple(merged), waypoints_length(merged, cell_size_m))


# The heuristic is the straight-line distance shrunk by this factor, so that
# float rounding cannot make it overestimate an edge and break consistency.
_H_SCALE = 1.0 - 1e-9


def dijkstra_shortest_path(gv: VisibilityGraph | LazyVisibilityGraph,
                           source: Point, dest: Point, *,
                           _within_m: float = math.inf) -> Path:
    """Minimum-length path from source to destination in the visibility graph.

    Runs A* with heap entries ``(g + h, g, hops, waypoints)``, where ``h`` is
    the scaled straight-line distance to the destination. The heuristic is
    consistent, and among the entries for one vertex ``g`` decides before
    the tie-breaks, so each vertex is settled with the entry plain Dijkstra
    would settle it with and the documented tie order is kept. Raises
    :class:`NoPathError` when the destination is unreachable. A query with
    source equal to destination returns a zero-length single-waypoint path.

    ``_within_m`` is a length bound in metres: the search stops and raises
    :class:`NoPathError` as soon as it pops an entry whose ``g + h`` exceeds
    it. Entries pop in ascending ``g + h`` and ``h`` never overestimates, so
    the search is cut only when every completion is longer than the bound,
    and otherwise returns the path it returns without one.
    """
    if source not in gv.vertex_set:
        raise ValueError(f"source {source} is not a graph vertex")
    if dest not in gv.vertex_set:
        raise ValueError(f"destination {dest} is not a graph vertex")
    scale = _H_SCALE * gv.cell_size_m
    ex, ey = dest
    h0 = math.hypot(source[0] - ex, source[1] - ey) * scale
    heap: list[tuple[float, float, int, tuple[Point, ...]]] = [(h0, 0.0, 1, (source,))]
    finalized: set[Point] = set()
    while heap:
        f, dist, hops, wp = heappop(heap)
        if f > _within_m:
            raise NoPathError(f"no route from {source} to {dest} within {_within_m} m")
        v = wp[-1]
        if v in finalized:
            continue
        finalized.add(v)
        if v == dest:
            return _finish(list(wp), gv.cell_size_m)
        for q, w in gv.neighbors(v):
            if q not in finalized:
                g = dist + w
                heappush(heap, (g + math.hypot(q[0] - ex, q[1] - ey) * scale,
                                g, hops + 1, wp + (q,)))
    raise NoPathError(f"no route from {source} to {dest}")


def format_length(value: float) -> str:
    """Two-decimal display form used in path text output."""
    return f"{value:.2f}"


def path_to_text(path: Path) -> str:
    """Serialize as one ``x y`` line per waypoint plus a ``length_m`` line."""
    lines = [f"{x} {y}" for x, y in path.waypoints]
    lines.append(f"length_m {format_length(path.length_m)}")
    return "\n".join(lines) + "\n"


def path_from_text(text: str) -> list[Point]:
    """Waypoints from path text; the trailing length line is ignored."""
    pts: list[Point] = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("length_m"):
            continue
        xs, ys = line.split()
        pts.append((int(xs), int(ys)))
    if not pts:
        raise ValueError("path text contains no waypoints")
    return pts
