"""Independent oracles used by the tests.

Each oracle recomputes an answer from first principles, without touching
the code path it checks: gift wrapping for hulls, Monte-Carlo sampling for
rasterization, per-lattice-point recounts for the obstacle graph, all-pairs
ground-truth visibility, branch-and-bound enumeration of simple paths, and
plain Dijkstra as the reference for the planner's search order.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from gridroute.geometry import euclid_distance
from gridroute.gridmap import OccupancyGrid
from gridroute.pathfind import Path, merge_collinear, waypoints_length
from gridroute.visibility import VisibilityGraph, brute_force_visible


def gift_wrap_hull(points) -> set[tuple[float, float]]:
    """Convex hull vertex set by gift wrapping (quadratic, independent)."""
    pts = sorted(set((float(x), float(y)) for x, y in points))
    if len(pts) < 3:
        raise ValueError("need at least 3 points")
    start = pts[0]
    hull = [start]
    cur = start
    while True:
        cand = pts[0] if pts[0] != cur else pts[1]
        for p in pts:
            if p == cur:
                continue
            c = ((cand[0] - cur[0]) * (p[1] - cur[1])
                 - (cand[1] - cur[1]) * (p[0] - cur[0]))
            if c < 0:
                cand = p
            elif c == 0:
                d_cand = (cand[0] - cur[0]) ** 2 + (cand[1] - cur[1]) ** 2
                d_p = (p[0] - cur[0]) ** 2 + (p[1] - cur[1]) ** 2
                if d_p > d_cand:
                    cand = p
        cur = cand
        if cur == start:
            break
        hull.append(cur)
    return set(hull)


def mc_rasterize(hull_ccw_m, grid: OccupancyGrid, samples: int = 100_000,
                 seed: int = 0) -> set[tuple[int, int]]:
    """Cells overlapping the hull with positive area, by uniform sampling.

    A cell counts as overlapped when any sample drawn from its open interior
    lands strictly inside the hull (vertices in meters, counter-clockwise).
    """
    rng = np.random.default_rng(seed)
    p = grid.cell_size_m
    pts = [(x / p, y / p) for x, y in hull_ccw_m]
    n = len(pts)
    hit = set()
    for row in range(grid.rows):
        for col in range(grid.cols):
            xs = rng.random(samples) + col
            ys = rng.random(samples) + row
            inside = np.ones(samples, dtype=bool)
            for i in range(n):
                ax, ay = pts[i]
                bx, by = pts[(i + 1) % n]
                inside &= ((bx - ax) * (ys - ay) - (by - ay) * (xs - ax)) > 0
                if not inside.any():
                    break
            if inside.any():
                hit.add((col, row))
    return hit


def recount_marked(grid: OccupancyGrid) -> set[tuple[int, int]]:
    """Lattice points whose four surrounding cells are all occupied."""
    out = set()
    for y in range(grid.rows + 1):
        for x in range(grid.cols + 1):
            if all(grid.is_occupied(cx, cy)
                   for cx in (x - 1, x) for cy in (y - 1, y)):
                out.add((x, y))
    return out


def recount_blocking(grid: OccupancyGrid) -> set[tuple[tuple[int, int], tuple[int, int]]]:
    """Unit edges shared by two occupied cells, recounted from adjacency."""
    out = set()
    for y in range(grid.rows):
        for x in range(1, grid.cols):
            if grid.is_occupied(x - 1, y) and grid.is_occupied(x, y):
                out.add(((x, y), (x, y + 1)))
    for y in range(1, grid.rows):
        for x in range(grid.cols):
            if grid.is_occupied(x, y - 1) and grid.is_occupied(x, y):
                out.add(((x, y), (x + 1, y)))
    return out


def oracle_visibility_edges(grid: OccupancyGrid, vertices) -> set:
    """All-pairs ground-truth edge set over the given vertices."""
    vs = sorted(vertices)
    return {(u, v) for i, u in enumerate(vs) for v in vs[i + 1:]
            if brute_force_visible(u, v, grid)}


def oracle_visibility_graph(grid: OccupancyGrid, vertices) -> VisibilityGraph:
    """Visibility graph built solely from the ground-truth predicate."""
    edges = {pair: euclid_distance(*pair) * grid.cell_size_m
             for pair in oracle_visibility_edges(grid, vertices)}
    return VisibilityGraph(sorted(vertices), edges, grid.cell_size_m)


def min_simple_path_length(gv: VisibilityGraph, source, dest) -> float | None:
    """Length of the best simple path by exhaustive branch-and-bound DFS.

    Prunes only with the straight-line lower bound, which cannot cut a
    strictly better path. Returns None when the destination is unreachable.
    """
    if source == dest:
        return 0.0
    p = gv.cell_size_m
    best = [math.inf]
    visited = {source}

    def dfs(v, dist):
        for q, w in gv.neighbors(v):
            if q in visited:
                continue
            nd = dist + w
            if q == dest:
                if nd < best[0]:
                    best[0] = nd
                continue
            if nd + euclid_distance(q, dest) * p >= best[0] - 1e-12:
                continue
            visited.add(q)
            dfs(q, nd)
            visited.remove(q)

    dfs(source, 0.0)
    return None if math.isinf(best[0]) else best[0]


def dijkstra_reference(gv, source, dest) -> Path | None:
    """Plain Dijkstra with heap key ``(dist, hops, waypoints)``, the tie order
    the planner documents; None when the destination is unreachable."""
    heap = [(0.0, 1, (source,))]
    done = set()
    while heap:
        dist, hops, wp = heapq.heappop(heap)
        v = wp[-1]
        if v in done:
            continue
        done.add(v)
        if v == dest:
            merged = merge_collinear(wp)
            return Path(tuple(merged), waypoints_length(merged, gv.cell_size_m))
        for q, w in gv.neighbors(v):
            if q not in done:
                heapq.heappush(heap, (dist + w, hops + 1, wp + (q,)))
    return None
