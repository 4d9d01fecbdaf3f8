"""Tests for Dijkstra over the visibility graph and path utilities."""

import math

import pytest

from gridroute.errors import NoPathError
from gridroute.gridmap import OccupancyGrid
from gridroute.mapgen import gen_random_map
from gridroute.obstacle_graph import build_obstacle_graph
from gridroute.pathfind import (Path, dijkstra_shortest_path, merge_collinear,
                                path_from_text, path_to_text)
from gridroute.visibility import (LazyVisibilityGraph, brute_force_visible,
                                  build_visibility_graph)

from oracles import min_simple_path_length, oracle_visibility_graph


def _gv(cells, rows, cols, s, d, cell_size=1.0):
    g = OccupancyGrid(rows, cols, cell_size)
    g.mark_cells(cells)
    return g, build_visibility_graph(build_obstacle_graph(g), s, d)


def test_dijkstra_direct_on_empty_grid():
    _, gv = _gv([], 5, 5, (0, 0), (3, 4))
    path = dijkstra_shortest_path(gv, (0, 0), (3, 4))
    assert path.waypoints == ((0, 0), (3, 4))
    assert path.length_m == pytest.approx(5.0)


def test_dijkstra_tie_break_lexicographic():
    # both 2*sqrt(5) routes exist; the (1, 2) route wins the tie
    _, gv = _gv([(1, 1)], 3, 3, (0, 0), (3, 3))
    path = dijkstra_shortest_path(gv, (0, 0), (3, 3))
    assert path.waypoints == ((0, 0), (1, 2), (3, 3))
    assert path.length_m == pytest.approx(2 * math.sqrt(5), abs=1e-12)


def test_dijkstra_matches_enumeration_on_small_case():
    grid, gv = _gv([(1, 1)], 3, 3, (0, 0), (3, 3))
    oracle_gv = oracle_visibility_graph(grid, gv.vertices)
    best = min_simple_path_length(oracle_gv, (0, 0), (3, 3))
    path = dijkstra_shortest_path(gv, (0, 0), (3, 3))
    assert path.length_m == pytest.approx(best, rel=1e-9)


def test_dijkstra_no_path_from_sealed_pocket():
    # a ring of occupied cells around a free center; the center lattice
    # point cannot see anything outside the ring. Plain walls never
    # disconnect anything: boundary lattice lines border at most one
    # occupied cell and stay flyable.
    ring = [(x, y) for x in (1, 2, 3) for y in (1, 2, 3) if (x, y) != (2, 2)]
    _, gv = _gv(ring, 5, 5, (2, 2), (5, 5))
    with pytest.raises(NoPathError):
        dijkstra_shortest_path(gv, (2, 2), (5, 5))


def test_dijkstra_same_endpoint():
    _, gv = _gv([], 3, 3, (0, 0), (3, 3))
    path = dijkstra_shortest_path(gv, (0, 0), (0, 0))
    assert path.waypoints == ((0, 0),)
    assert path.length_m == 0.0
    assert path.deflections == []
    # both graph kinds accept a same-endpoint query
    grid = OccupancyGrid(4, 4)
    grid.mark_cells([(1, 1), (2, 1)])
    gobs = build_obstacle_graph(grid)
    for p in ((0, 0), (1, 1), (3, 2)):
        for make in (build_visibility_graph, LazyVisibilityGraph):
            assert dijkstra_shortest_path(make(gobs, p, p), p, p) == Path((p,), 0.0)


def test_dijkstra_rejects_unknown_vertices():
    _, gv = _gv([], 3, 3, (0, 0), (3, 3))
    with pytest.raises(ValueError):
        dijkstra_shortest_path(gv, (0, 0), (2, 2))


def test_deflection_points():
    assert Path(((0, 0), (3, 4)), 5.0).deflections == []
    assert Path(((0, 0), (1, 2), (3, 4)), 5.1).deflections == [(1, 2)]


def test_merge_collinear_triples():
    assert merge_collinear([(0, 0), (1, 1), (2, 2), (3, 3)]) == [(0, 0), (3, 3)]
    assert merge_collinear([(0, 0), (1, 2), (3, 4)]) == [(0, 0), (1, 2), (3, 4)]
    assert merge_collinear([(0, 0), (2, 0), (2, 2)]) == [(0, 0), (2, 0), (2, 2)]


def test_path_text_roundtrip():
    path = Path(((0, 0), (1, 2), (5, 5)), 7.07)
    text = path_to_text(path)
    assert text.endswith("length_m 7.07\n")
    assert path_from_text(text) == [(0, 0), (1, 2), (5, 5)]
    with pytest.raises(ValueError):
        path_from_text("length_m 3.00\n")


def test_dijkstra_optimal_on_seeded_grids():
    for seed in range(8):
        grid = gen_random_map(6, 6, 8 + seed, seed)
        gobs = build_obstacle_graph(grid)
        s, d = (0, 0), (6, 6)
        gv = build_visibility_graph(gobs, s, d)
        oracle_gv = oracle_visibility_graph(grid, gv.vertices)
        best = min_simple_path_length(oracle_gv, s, d)
        try:
            path = dijkstra_shortest_path(gv, s, d)
        except NoPathError:
            assert best is None
            continue
        assert best is not None
        assert path.length_m == pytest.approx(best, rel=1e-9)


def test_length_bound_cuts_only_longer_routes():
    routed = 0
    for seed in range(24):
        grid = gen_random_map(7, 7, 6 + seed, 300 + seed)
        gobs = build_obstacle_graph(grid)
        s, d = (0, 0), (7, 7)

        def search(**kw):
            return dijkstra_shortest_path(LazyVisibilityGraph(gobs, s, d), s, d, **kw)

        try:
            path = search()
        except NoPathError:
            with pytest.raises(NoPathError):
                search(_within_m=1e9)
            continue
        routed += 1
        assert path == dijkstra_shortest_path(build_visibility_graph(gobs, s, d), s, d)
        assert search(_within_m=path.length_m * (1 + 1e-9)) == path
        with pytest.raises(NoPathError):
            search(_within_m=path.length_m * (1 - 1e-6))
    assert routed >= 12


def test_paths_respect_lower_bound_and_safety():
    for seed in range(10):
        grid = gen_random_map(8, 8, 15 + seed, 100 + seed)
        gobs = build_obstacle_graph(grid)
        s, d = (0, 0), (8, 8)
        gv = build_visibility_graph(gobs, s, d)
        try:
            path = dijkstra_shortest_path(gv, s, d)
        except NoPathError:
            continue
        straight = math.hypot(d[0] - s[0], d[1] - s[1]) * grid.cell_size_m
        assert path.length_m >= straight - 1e-9
        if path.waypoints == (s, d):
            assert path.length_m == pytest.approx(straight)
        for a, b in zip(path.waypoints, path.waypoints[1:]):
            assert brute_force_visible(a, b, grid)
