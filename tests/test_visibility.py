"""Tests for the four visibility cases, the rotational sweep and graph assembly."""

import random

import pytest

from gridroute.errors import InvalidEndpointError
from gridroute.gridmap import OccupancyGrid
from gridroute.mapgen import gen_random_map
from gridroute.obstacle_graph import build_obstacle_graph
from gridroute.planner import plan2d
from gridroute.visibility import (LazyVisibilityGraph, brute_force_visible,
                                  build_visibility_graph, sweep_visible_set)

from oracles import oracle_visibility_edges, segment_crosses_open_cell


def _graph_with(cells, rows=6, cols=6):
    g = OccupancyGrid(rows, cols)
    g.mark_cells(cells)
    return g, build_obstacle_graph(g)


def test_visible_vertical_empty_column():
    _, gobs = _graph_with([])
    assert gobs.clear(1, 0, 1, 3)


def test_visible_vertical_blocked_by_shared_edge():
    _, gobs = _graph_with([(0, 0), (1, 0)])
    assert not gobs.clear(1, 0, 1, 3)


def test_visible_vertical_single_cell_edge_is_flyable():
    _, gobs = _graph_with([(0, 0)])
    assert gobs.clear(1, 0, 1, 3)


def test_visible_horizontal_mirrors_vertical():
    _, gobs = _graph_with([])
    assert gobs.clear(0, 1, 3, 1)
    _, gobs = _graph_with([(0, 0), (0, 1)])
    assert not gobs.clear(0, 1, 3, 1)
    _, gobs = _graph_with([(0, 0)])
    assert gobs.clear(0, 1, 3, 1)


def test_diagonal_blocked_through_left_bottom_corner():
    grid, gobs = _graph_with([(1, 1)])
    assert not gobs.clear(0, 0, 3, 3)
    assert not brute_force_visible((0, 0), (3, 3), grid)


def test_diagonal_corner_graze_is_visible():
    grid, gobs = _graph_with([(1, 0)])
    assert gobs.clear(0, 0, 3, 3)
    assert brute_force_visible((0, 0), (3, 3), grid)


def test_diagonal_empty_grid():
    grid, gobs = _graph_with([])
    assert gobs.clear(0, 0, 3, 3)
    assert brute_force_visible((0, 0), (3, 3), grid)


def test_diagonal_descending_left_top_corner():
    grid, gobs = _graph_with([(1, 1)])
    assert not gobs.clear(0, 3, 3, 0)
    assert not brute_force_visible((0, 3), (3, 0), grid)
    grid, gobs = _graph_with([(1, 2)])
    assert gobs.clear(0, 3, 3, 0)
    assert brute_force_visible((0, 3), (3, 0), grid)


def test_diagonal_through_pivot_corner_is_blocked():
    # the diagonal (0, 0)-(2, 2) crosses cell (0, 0) from its own corner:
    # blocked by the pivot's corner role, from either end and in the search
    grid, gobs = _graph_with([(0, 0)], rows=4, cols=4)
    assert not brute_force_visible((0, 0), (2, 2), grid)
    assert not gobs.clear(0, 0, 2, 2)
    assert ((0, 0), (2, 2)) not in build_visibility_graph(gobs, (0, 0), (2, 2)).edges
    lazy = LazyVisibilityGraph(gobs, (0, 0), (2, 2))
    assert (2, 2) not in {t for t, _ in lazy.neighbors((0, 0))}
    assert (0, 0) not in {t for t, _ in lazy.neighbors((2, 2))}
    route = ((0, 0), (0, 1), (2, 2))
    assert plan2d(grid, (0, 0), (2, 2)).waypoints == route
    assert plan2d(grid, (2, 2), (0, 0)).waypoints == route[::-1]


def test_brute_force_empty_grid():
    grid = OccupancyGrid(4, 4)
    assert brute_force_visible((0, 0), (4, 3), grid)


def test_brute_force_interior_crossing():
    grid, _ = _graph_with([(1, 1)])
    assert not brute_force_visible((0, 0), (3, 3), grid)


def test_brute_force_diagonal_corner_contact_passable():
    # two cells touching at (1, 1): the horizontal line along y=1 grazes
    # both but crosses neither open interior, and neither edge it overlaps
    # is shared by two occupied cells
    grid, _ = _graph_with([(0, 0), (1, 1)])
    assert brute_force_visible((0, 1), (2, 1), grid)


def test_brute_force_matches_per_cell_oracle():
    # off the lattice lines a segment is blocked exactly when it enters the
    # open interior of an occupied cell, decided here one cell at a time
    rng = random.Random(21)
    for seed in range(6):
        grid = gen_random_map(9, 11, 20 + 5 * seed, seed)
        cells = grid.occupied_cells()
        for _ in range(150):
            a = (rng.randint(0, grid.cols), rng.randint(0, grid.rows))
            b = (rng.randint(0, grid.cols), rng.randint(0, grid.rows))
            if a[0] == b[0] or a[1] == b[1]:
                continue
            crossed = any(segment_crosses_open_cell((a, b), c) for c in cells)
            assert brute_force_visible(a, b, grid) == (not crossed), (seed, a, b)


def test_sweep_no_obstacles():
    _, gobs = _graph_with([])
    targets = [(3, 2), (3, 1), (2, 5)]
    assert sweep_visible_set((0, 0), targets, gobs) == set(targets)


def test_sweep_blocked_and_grazing_targets():
    grid, gobs = _graph_with([(1, 1)])
    vis = sweep_visible_set((0, 0), [(3, 2), (3, 1)], gobs)
    assert (3, 2) not in vis          # crosses the cell interior
    assert (3, 1) in vis              # passes below the cell
    assert not brute_force_visible((0, 0), (3, 2), grid)
    assert brute_force_visible((0, 0), (3, 1), grid)


def test_sweep_trace_events_are_obstacle_edges():
    grid, gobs = _graph_with([(1, 1), (2, 2)])
    trace = []
    sweep_visible_set((0, 0), [(3, 2), (3, 1), (2, 3)], gobs, trace=trace)
    edge_strs = {f"({e.a[0]},{e.a[1]})-({e.b[0]},{e.b[1]})" for e in gobs.edges}
    for line in trace:
        kind, rest = line.split(" ", 1)
        if kind in ("add", "remove"):
            assert rest.split(" ")[0] in edge_strs
    assert any(line.startswith("probe") for line in trace)


def test_sweep_trace_golden_single_cell():
    _, gobs = _graph_with([(1, 1)], rows=3, cols=3)
    trace = []
    sweep_visible_set((0, 0), [(3, 2)], gobs, trace=trace)
    assert trace == [
        "add (1,2)-(2,2) |L|=1",
        "add (1,1)-(1,2) |L|=2",
        "add (1,1)-(2,1) |L|=3",
        "remove (1,1)-(1,2) |L|=2",
        "add (2,1)-(2,2) |L|=3",
        "remove (1,2)-(2,2) |L|=2",
        "probe (3,2) |L|=2 -> blocked",
        "remove (1,1)-(2,1) |L|=1",
        "remove (2,1)-(2,2) |L|=0",
    ]


def test_build_empty_grid_single_edge():
    grid = OccupancyGrid(5, 5)
    gv = build_visibility_graph(build_obstacle_graph(grid), (0, 0), (5, 5))
    assert gv.edge_set() == {((0, 0), (5, 5))}
    assert gv.edges[((0, 0), (5, 5))] == pytest.approx(50 ** 0.5)


def test_build_single_cell_matches_oracle():
    grid, gobs = _graph_with([(1, 1)], rows=3, cols=3)
    gv = build_visibility_graph(gobs, (0, 0), (3, 3))
    assert len(gv.vertices) == 6
    assert gv.edge_set() == oracle_visibility_edges(grid, gv.vertices)


def test_build_excludes_marked_vertices():
    grid, gobs = _graph_with([(1, 1), (2, 1), (1, 2), (2, 2)])
    gv = build_visibility_graph(gobs, (0, 0), (6, 6))
    assert (2, 2) not in gv.vertex_set
    assert all((2, 2) not in pair for pair in gv.edge_set())


def test_build_rejects_bad_endpoints():
    grid, gobs = _graph_with([(1, 1), (2, 1), (1, 2), (2, 2)])
    with pytest.raises(InvalidEndpointError):
        build_visibility_graph(gobs, (2, 2), (6, 6))
    with pytest.raises(InvalidEndpointError):
        build_visibility_graph(gobs, (0, 0), (9, 0))


def test_build_matches_oracle_on_seeded_grids():
    for seed in range(25):
        rows = 4 + seed % 10
        cols = 4 + (seed * 3) % 10
        count = min((rows * cols) * (seed % 7) // 20, rows * cols - 2)
        grid = gen_random_map(rows, cols, count, seed)
        gobs = build_obstacle_graph(grid)
        gv = build_visibility_graph(gobs, (0, 0), (cols, rows))
        assert gv.edge_set() == oracle_visibility_edges(grid, gv.vertices), f"seed {seed}"


def test_half_plane_roles_swappable():
    # mirroring the grid swaps which endpoint of each pair acts as pivot;
    # the mapped edge set must not change
    for seed in (2, 8):
        grid = gen_random_map(8, 10, 24, seed)
        gobs = build_obstacle_graph(grid)
        gv = build_visibility_graph(gobs, (0, 0), (10, 8))
        mirrored = OccupancyGrid(grid.rows, grid.cols, grid.cell_size_m,
                                 grid.occupied[:, ::-1])
        gobs_m = build_obstacle_graph(mirrored)
        mp = lambda p: (grid.cols - p[0], p[1])
        gv_m = build_visibility_graph(gobs_m, mp((10, 8)), mp((0, 0)))
        mapped = {tuple(sorted((mp(u), mp(v)))) for (u, v) in gv_m.edge_set()}
        assert mapped == gv.edge_set()


def test_visibility_symmetric_via_adjacency():
    grid = gen_random_map(10, 10, 30, 17)
    gobs = build_obstacle_graph(grid)
    gv = build_visibility_graph(gobs, (0, 0), (10, 10))
    for u in gv.vertices:
        for v, _ in gv.neighbors(u):
            assert (min(u, v), max(u, v)) in gv.edges


def test_weights_are_euclidean_meters():
    grid = OccupancyGrid(4, 4, cell_size_m=2.5)
    gv = build_visibility_graph(build_obstacle_graph(grid), (0, 0), (3, 4))
    assert gv.edges[((0, 0), (3, 4))] == pytest.approx(5 * 2.5)
