"""Tests for obstacle-graph construction and its indexes."""

import random

from gridroute.gridmap import OccupancyGrid
from gridroute.mapgen import gen_random_map
from gridroute.obstacle_graph import (ObstacleEdge, ObstacleVertex,
                                      blocking_edges, build_obstacle_graph)

from oracles import recount_blocking, recount_marked


def _grid_with(cells, rows=6, cols=6):
    g = OccupancyGrid(rows, cols)
    g.mark_cells(cells)
    return g


def test_single_cell_counts():
    gobs = build_obstacle_graph(_grid_with([(1, 1)]))
    assert len(gobs.vertices) == 4
    assert len(gobs.marked) == 0
    assert len(gobs.edges) == 4
    assert len(blocking_edges(gobs)) == 0


def test_domino_counts():
    gobs = build_obstacle_graph(_grid_with([(0, 0), (1, 0)]))
    assert len(gobs.vertices) == 6
    assert len(gobs.marked) == 0
    assert len(gobs.edges) == 7
    blocks = blocking_edges(gobs)
    assert {(e.a, e.b) for e in blocks} == {((1, 0), (1, 1))}


def test_two_by_two_block_counts():
    gobs = build_obstacle_graph(_grid_with([(1, 1), (2, 1), (1, 2), (2, 2)]))
    assert len(gobs.vertices) == 9
    assert gobs.marked == {(2, 2)}
    assert len(gobs.edges) == 12
    assert len(blocking_edges(gobs)) == 4


def test_kxk_block_blocking_counts():
    for k in (2, 3, 4, 5):
        cells = [(x, y) for x in range(k) for y in range(k)]
        gobs = build_obstacle_graph(_grid_with(cells, rows=k + 1, cols=k + 1))
        assert len(blocking_edges(gobs)) == 2 * k * (k - 1)


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
        assert {(e.a, e.b) for e in blocking_edges(gobs)} == recount_blocking(grid)


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
    blocks = {(e.a, e.b) for e in blocking_edges(gobs)}
    for v in gobs.marked:
        incident = [e for e in gobs.edges if v in (e.a, e.b)]
        assert len(incident) == 4
        assert all((e.a, e.b) in blocks for e in incident)


def test_blocking_endpoints_touch_two_cells():
    grid = gen_random_map(15, 15, 90, 5)
    gobs = build_obstacle_graph(grid)
    for e in blocking_edges(gobs):
        for p in (e.a, e.b):
            assert gobs.vertex(p).incident_obstacle_cells >= 2


def _records(gobs):
    """Every vertex record in vertex order, and every edge in edge order with
    its blocking flag."""
    return ([gobs.vertex(p) for p in gobs.vertices],
            [(e, e.blocking) for e in gobs.edges])


def test_build_deterministic():
    grid = gen_random_map(18, 14, 70, 12)
    a = build_obstacle_graph(grid)
    b = build_obstacle_graph(grid)
    assert a.vertices == b.vertices
    assert _records(a) == _records(b)


def test_dump_golden_single_cell():
    gobs = build_obstacle_graph(_grid_with([(0, 0)], rows=1, cols=1))
    assert gobs.vertices == [(0, 0), (1, 0), (0, 1), (1, 1)]
    assert _records(gobs) == (
        [ObstacleVertex(p, 1, False) for p in gobs.vertices],
        [(ObstacleEdge((0, 0), (1, 0), 1), False),
         (ObstacleEdge((0, 1), (1, 1), 1), False),
         (ObstacleEdge((0, 0), (0, 1), 1), False),
         (ObstacleEdge((1, 0), (1, 1), 1), False)])


def test_cumulative_tables_match_recount():
    # both loop orientations of the diagonal tables: wide and tall grids
    for k, (rows, cols) in enumerate(((7, 13), (13, 7), (1, 9), (9, 1), (6, 6))):
        grid = gen_random_map(rows, cols, rows * cols // 3, 40 + k)
        gobs = build_obstacle_graph(grid)
        blocks = recount_blocking(grid)
        occ = grid.is_occupied
        for x in range(cols + 1):
            for y in range(rows + 1):
                assert gobs.col_blocking_cum[x, y] == sum(
                    ((x, j), (x, j + 1)) in blocks for j in range(y))
                assert gobs.row_blocking_cum[y, x] == sum(
                    ((i, y), (i + 1, y)) in blocks for i in range(x))
                up = range(1, min(x, y) + 1)
                down = range(1, min(x, rows - y) + 1)
                assert gobs.diag_up_cum[y, x] == sum(occ(x - i, y - i) for i in up)
                assert gobs.diag_down_cum[y, x] == sum(occ(x - i, y + i - 1) for i in down)
