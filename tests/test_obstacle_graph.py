"""Tests for obstacle-graph construction and its blocker index."""

import random
import tracemalloc

import numpy as np
import pytest

from gridroute.gridmap import OccupancyGrid
from gridroute.mapgen import gen_random_map
from gridroute.obstacle_graph import ObstacleEdge, build_obstacle_graph

from oracles import (incident_cells, recount_blocking, recount_marked,
                     recount_obstacle_graph)


def _grid_with(cells, rows=6, cols=6):
    g = OccupancyGrid(rows, cols)
    g.mark_cells(cells)
    return g


def test_single_cell_counts():
    gobs = build_obstacle_graph(_grid_with([(1, 1)]))
    assert len(gobs.vertices) == 4
    assert len(gobs.marked) == 0
    assert len(gobs.edges) == 4
    assert len([e for e in gobs.edges if e.blocking]) == 0


def test_domino_counts():
    gobs = build_obstacle_graph(_grid_with([(0, 0), (1, 0)]))
    assert len(gobs.vertices) == 6
    assert len(gobs.marked) == 0
    assert len(gobs.edges) == 7
    blocks = [e for e in gobs.edges if e.blocking]
    assert {(e.a, e.b) for e in blocks} == {((1, 0), (1, 1))}


def test_two_by_two_block_counts():
    gobs = build_obstacle_graph(_grid_with([(1, 1), (2, 1), (1, 2), (2, 2)]))
    assert len(gobs.vertices) == 9
    assert gobs.marked == {(2, 2)}
    assert len(gobs.edges) == 12
    assert len([e for e in gobs.edges if e.blocking]) == 4


def test_kxk_block_blocking_counts():
    for k in (2, 3, 4, 5):
        cells = [(x, y) for x in range(k) for y in range(k)]
        gobs = build_obstacle_graph(_grid_with(cells, rows=k + 1, cols=k + 1))
        assert len([e for e in gobs.edges if e.blocking]) == 2 * k * (k - 1)


def test_marked_three_by_three():
    cells = [(x, y) for x in range(3) for y in range(3)]
    gobs = build_obstacle_graph(_grid_with(cells))
    assert gobs.marked == {(1, 1), (2, 1), (1, 2), (2, 2)}


def test_marked_empty_without_blocks():
    gobs = build_obstacle_graph(_grid_with([(0, 0), (2, 0), (4, 2), (0, 3)]))
    assert gobs.marked == set()


def test_marked_matches_recount_on_seeded_grids():
    for seed in range(10):
        grid = gen_random_map(20, 20, 120 + seed * 10, seed)
        gobs = build_obstacle_graph(grid)
        assert gobs.marked == recount_marked(grid)


def test_blocking_matches_recount_on_seeded_grids():
    for seed in range(10):
        grid = gen_random_map(20, 20, 120 + seed * 10, seed)
        gobs = build_obstacle_graph(grid)
        assert {(e.a, e.b) for e in gobs.edges if e.blocking} == recount_blocking(grid)


def test_vertex_upper_bound():
    rng = random.Random(8)
    for seed in range(10):
        grid = gen_random_map(12, 12, rng.randint(0, 60), seed)
        gobs = build_obstacle_graph(grid)
        assert len(gobs.vertices) <= 4 * grid.occupied_count()


def test_isolated_cells_hit_vertex_bound():
    gobs = build_obstacle_graph(_grid_with([(0, 0), (2, 0), (4, 0), (0, 2)]))
    assert len(gobs.vertices) == 16


def test_marked_vertex_edges_all_blocking():
    grid = gen_random_map(15, 15, 110, 4)
    gobs = build_obstacle_graph(grid)
    blocks = {(e.a, e.b) for e in gobs.edges if e.blocking}
    for v in gobs.marked:
        incident = [e for e in gobs.edges if v in (e.a, e.b)]
        assert len(incident) == 4
        assert all((e.a, e.b) in blocks for e in incident)


def test_blocking_endpoints_touch_two_cells():
    grid = gen_random_map(15, 15, 90, 5)
    gobs = build_obstacle_graph(grid)
    for e in [e for e in gobs.edges if e.blocking]:
        for p in (e.a, e.b):
            assert p in gobs.vertices
            assert incident_cells(grid, p) >= 2


def _records(gobs):
    """The vertices, the marked set, and every edge in edge order with its
    blocking flag."""
    return gobs.vertices, gobs.marked, [(e, e.blocking) for e in gobs.edges]


def test_build_deterministic():
    grid = gen_random_map(18, 14, 70, 12)
    assert _records(build_obstacle_graph(grid)) == _records(build_obstacle_graph(grid))


def test_dump_golden_single_cell():
    gobs = build_obstacle_graph(_grid_with([(0, 0)], rows=1, cols=1))
    assert _records(gobs) == (
        [(0, 0), (1, 0), (0, 1), (1, 1)],
        set(),
        [(ObstacleEdge((0, 0), (1, 0), 1), False),
         (ObstacleEdge((0, 1), (1, 1), 1), False),
         (ObstacleEdge((0, 0), (0, 1), 1), False),
         (ObstacleEdge((1, 0), (1, 1), 1), False)])


def test_graph_matches_recount_property():
    """Drawn grids from 1x1 to 12x12 at drawn densities: vertices, marked
    set and edges, in order and with their shared-cell counts, equal the
    per-lattice-point recount."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(derandomize=True, deadline=None, max_examples=200,
                         database=None)
    @hypothesis.given(st.data())
    def check(data):
        rows = data.draw(st.integers(1, 12), label="rows")
        cols = data.draw(st.integers(1, 12), label="cols")
        density = data.draw(st.floats(0.0, 1.0), label="density")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        occ = np.random.default_rng(seed).random((rows, cols)) < density
        grid = OccupancyGrid(rows, cols, occupied=occ)
        gobs = build_obstacle_graph(grid)
        vertices, marked, edges = recount_obstacle_graph(grid)
        assert gobs.vertices == vertices
        assert gobs.marked == marked
        assert gobs.edges == edges

    check()


def test_blocker_index_matches_recount():
    """Every segment along a column, a row or a 45-degree line between two
    lattice points, in both directions, against the recount of the unit
    steps it takes: wide, tall, 1xn, nx1 and square grids, an empty grid
    and a full one."""
    sizes = ((7, 13), (13, 7), (1, 9), (9, 1), (6, 6))
    grids = [gen_random_map(rows, cols, rows * cols // 3, 40 + k)
             for k, (rows, cols) in enumerate(sizes)]
    grids += [OccupancyGrid(5, 8), OccupancyGrid(5, 8, occupied=np.ones((5, 8), bool))]
    for grid in grids:
        gobs = build_obstacle_graph(grid)
        blocks = recount_blocking(grid)
        occ = grid.is_occupied
        # does the unit step from (x, y) along the line family meet a blocker
        blocker = {
            (0, 1): lambda x, y: ((x, y), (x, y + 1)) in blocks,
            (1, 0): lambda x, y: ((x, y), (x + 1, y)) in blocks,
            (1, 1): lambda x, y: occ(x, y),
            (1, -1): lambda x, y: occ(x, y - 1),
        }
        segments, want = [], []
        for (sx, sy), meets in blocker.items():
            for x in range(grid.cols + 1):
                for y in range(grid.rows + 1):
                    clear, k = True, 1
                    while grid.in_lattice((x + k * sx, y + k * sy)):
                        clear = clear and not meets(x + (k - 1) * sx, y + (k - 1) * sy)
                        segments.append((x, y, x + k * sx, y + k * sy))
                        want.append(clear)
                        k += 1
        ax, ay, bx, by = np.array(segments, dtype=np.int64).T
        assert gobs.clear(ax, ay, bx, by).tolist() == want
        assert gobs.clear(bx, by, ax, ay).tolist() == want


def test_build_memory_follows_the_obstacles():
    """800 occupied cells on a 4096x4096 grid: building the graph allocates
    nothing of the lattice's size (one byte per lattice point is 16 MB)."""
    n = 4096
    rng = random.Random(5)
    cells = set()
    while len(cells) < 800:
        cells.add((rng.randrange(n), rng.randrange(n)))
    grid = OccupancyGrid(n, n)
    grid.mark_cells(cells)
    tracemalloc.start()
    try:
        gobs = build_obstacle_graph(grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, peak
    assert len(gobs.vertices) <= 4 * len(cells)
