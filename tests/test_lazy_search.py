"""The lazily swept visibility graph and A* against the eager references.

Three map families: uniform random maps, maps symmetric about both axes
(where mirror-image routes tie on length) and checkerboards of diagonal
pinches with random flips. Every comparison is exact equality: adjacency
lists, ``Path`` objects and raised error types.
"""

import random

import numpy as np
import pytest

from gridroute.errors import InvalidEndpointError, NoPathError
from gridroute.gridmap import OccupancyGrid
from gridroute.mapgen import gen_random_map
from gridroute.obstacle_graph import build_obstacle_graph
from gridroute.pathfind import dijkstra_shortest_path
from gridroute.planner import PlanConfig, plan2d, plan2d_reference
from gridroute.visibility import LazyVisibilityGraph, build_visibility_graph

from oracles import dijkstra_reference

CELL_SIZES = (1.0, 0.5, 3.7)


def _with_cell(grid: OccupancyGrid, cell: float) -> OccupancyGrid:
    return OccupancyGrid(grid.rows, grid.cols, cell, grid.occupied)


def _random_map(seed: int, max_dim: int) -> OccupancyGrid:
    rng = random.Random(seed)
    rows, cols = rng.randint(3, max_dim), rng.randint(3, max_dim)
    count = int(rows * cols * rng.uniform(0.05, 0.35))
    return gen_random_map(rows, cols, count, seed)


def _symmetric_map(seed: int, max_half: int) -> OccupancyGrid:
    rng = np.random.default_rng(seed)
    hr, hc = rng.integers(2, max_half + 1, size=2)
    quad = rng.random((hr, hc)) < 0.25
    half = np.concatenate((quad, quad[::-1]), axis=0)
    occ = np.concatenate((half, half[:, ::-1]), axis=1)
    return OccupancyGrid(2 * int(hr), 2 * int(hc), occupied=occ)


def _pinch_map(seed: int) -> OccupancyGrid:
    rng = np.random.default_rng(seed)
    rows, cols = rng.integers(3, 17, size=2)
    yy, xx = np.mgrid[0:rows, 0:cols]
    occ = ((xx + yy) % 2 == 0) ^ (rng.random((rows, cols)) < 0.15)
    return OccupancyGrid(int(rows), int(cols), occupied=occ)


def _endpoint_pairs(grid: OccupancyGrid, seed: int, count: int):
    """Opposite corners, then random distinct lattice points that are not
    interior to an obstacle."""
    marked = build_obstacle_graph(grid).marked
    pts = [(x, y) for x in range(grid.cols + 1) for y in range(grid.rows + 1)
           if (x, y) not in marked]
    rng = random.Random(seed)
    pairs = [((0, 0), (grid.cols, grid.rows)), ((0, grid.rows), (grid.cols, 0))][:count]
    while len(pairs) < count:
        s, d = rng.sample(pts, 2)
        pairs.append((s, d))
    return [(s, d) for s, d in pairs if s not in marked and d not in marked]


def _corpus():
    """(grid, endpoint pairs) over all three families, cell sizes cycling.
    Each map's pairs alternate ``strict_case3`` off and on in the tests."""
    maps = [_random_map(seed, 16) for seed in range(14)]
    maps += [_random_map(100 + seed, 40) for seed in range(2)]
    maps += [gen_random_map(40, 40, 320, 7)]
    maps += [_symmetric_map(seed, 8) for seed in range(10)]
    maps += [_pinch_map(seed) for seed in range(10)]
    for k, grid in enumerate(maps):
        grid = _with_cell(grid, CELL_SIZES[k % len(CELL_SIZES)])
        yield grid, _endpoint_pairs(grid, k, 1 if grid.rows * grid.cols > 400 else 3)


def _outcome(plan, grid, s, d, config):
    try:
        return plan(grid, s, d, config)
    except NoPathError:
        return NoPathError


@pytest.mark.parametrize("strict", [False, True])
def test_lazy_neighbors_equal_eager_adjacency(strict):
    maps = [_random_map(200 + seed, 14) for seed in range(25)]
    maps += [_symmetric_map(300 + seed, 6) for seed in range(4)]
    maps += [_pinch_map(400 + seed) for seed in range(4)]
    for k, grid in enumerate(maps):
        gobs = build_obstacle_graph(grid)
        s, d = (0, 0), (grid.cols, grid.rows)
        eager = build_visibility_graph(gobs, s, d, strict_case3=strict)
        lazy = LazyVisibilityGraph(gobs, s, d, strict_case3=strict)
        assert lazy.vertices == eager.vertices
        assert lazy.vertex_set == eager.vertex_set
        assert lazy.cell_size_m == eager.cell_size_m
        for v in eager.vertices:
            assert lazy.neighbors(v) == eager.neighbors(v), (k, v)


def test_plan2d_equals_reference():
    routed = 0
    for k, (grid, pairs) in enumerate(_corpus()):
        for i, (s, d) in enumerate(pairs):
            config = PlanConfig(strict_case3=(k + i) % 2 == 1)
            got = _outcome(plan2d, grid, s, d, config)
            assert got == _outcome(plan2d_reference, grid, s, d, config), (s, d)
            routed += got is not NoPathError
    assert routed >= 100


def test_astar_keeps_dijkstra_search_order():
    """The heuristic must not change which of several equal-length routes
    wins: A* and plain Dijkstra return the same Path on the eager graph."""
    for grid, pairs in _corpus():
        gobs = build_obstacle_graph(grid)
        for s, d in pairs:
            gv = build_visibility_graph(gobs, s, d)
            try:
                got = dijkstra_shortest_path(gv, s, d)
            except NoPathError:
                got = None
            assert got == dijkstra_reference(gv, s, d), (s, d)


def test_lazy_and_reference_agree_on_errors():
    pocket = OccupancyGrid(7, 7)
    pocket.mark_cells([(x, y) for x in range(1, 6) for y in range(1, 6)
                       if x in (1, 5) or y in (1, 5)])
    for plan in (plan2d, plan2d_reference):
        with pytest.raises(NoPathError):
            plan(pocket, (3, 3), (7, 7))
        with pytest.raises(NoPathError):
            plan(pocket, (0, 0), (3, 3))
    block = OccupancyGrid(4, 4)
    block.mark_cells([(x, y) for x in range(1, 3) for y in range(1, 3)])
    for s, d in (((2, 2), (4, 4)), ((0, 0), (2, 2)), ((0, 0), (5, 1)),
                 ((-1, 0), (4, 4))):
        for plan in (plan2d, plan2d_reference):
            with pytest.raises(InvalidEndpointError):
                plan(block, s, d)
