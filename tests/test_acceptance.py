"""Acceptance suite: one test per release criterion, each printing a
pass/fail line with its measurements. Run with ``pytest tests/test_acceptance.py -v``
(add ``-s`` to see the summary lines on success).
"""

import math
import time

import pytest

from gridroute.bench import BenchSpec, run_bench
from gridroute.cli import main
from gridroute.errors import NoPathError
from gridroute.gridmap import OccupancyGrid, serialize_map
from gridroute.mapgen import SplitMix64, gen_random_map
from gridroute.obstacle_graph import build_obstacle_graph
from gridroute.pathfind import dijkstra_shortest_path, format_length, waypoints_length
from gridroute.planner import (PlanConfig, VoxelWorld, plan2d, plan2d_reference,
                               plan_rotated_planes, rotated_plane_slice)
from gridroute.visibility import brute_force_visible, build_visibility_graph

from oracles import min_simple_path_length, oracle_visibility_edges, \
    oracle_visibility_graph


def _case_grid(case: int, max_dim: int, max_frac: float):
    rng = SplitMix64(case * 7919 + 17)
    rows = 4 + rng.next() % (max_dim - 3)
    cols = 4 + rng.next() % (max_dim - 3)
    frac = 0.05 + (rng.next() % 1000) / 1000.0 * (max_frac - 0.05)
    count = min(int(rows * cols * frac), rows * cols - 2)
    return gen_random_map(rows, cols, count, seed=case)


def test_criterion_visibility_oracle_equivalence():
    """Sweep-built edge sets equal all-pairs ground truth on 100 grids."""
    t0 = time.perf_counter()
    mismatches = 0
    for case in range(100):
        if case == 0:
            grid = gen_random_map(20, 20, 160, seed=0)      # the maximal shape
        elif case == 1:
            grid = gen_random_map(20, 20, 140, seed=1)
        else:
            grid = _case_grid(case, max_dim=20, max_frac=0.40)
        s, d = (0, 0), (grid.cols, grid.rows)
        gv = build_visibility_graph(build_obstacle_graph(grid), s, d)
        if gv.edge_set() != oracle_visibility_edges(grid, gv.vertices):
            mismatches += 1
    elapsed = time.perf_counter() - t0
    assert mismatches == 0
    assert elapsed < 30.0
    print(f"ACCEPTANCE visibility-oracle-equivalence: PASS "
          f"(100 grids, 0 mismatches, {elapsed:.1f}s)")


def test_criterion_path_oracle_equivalence():
    """Dijkstra lengths equal exhaustive enumeration on 50 small grids."""
    t0 = time.perf_counter()
    checked = 0
    for case in range(50):
        grid = _case_grid(1000 + case, max_dim=8, max_frac=0.40)
        s, d = (0, 0), (grid.cols, grid.rows)
        gv = build_visibility_graph(build_obstacle_graph(grid), s, d)
        oracle_gv = oracle_visibility_graph(grid, gv.vertices)
        best = min_simple_path_length(oracle_gv, s, d)
        try:
            path = dijkstra_shortest_path(gv, s, d)
        except NoPathError:
            assert best is None
            continue
        assert best is not None
        assert abs(path.length_m - best) <= 1e-9 * max(1.0, best)
        checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"ACCEPTANCE path-oracle-equivalence: PASS "
          f"(50 grids, {checked} routable, {elapsed:.1f}s)")


def test_criterion_segment_sum_arithmetic():
    """Two-decimal display of the printed route-length sums, over lattice
    polylines whose squared segment lengths are the reference lists."""
    cases = [
        ([(0, 0), (9, 9), (12, 18)], [162, 90], "22.21"),
        ([(0, 0), (6, 0), (8, 6), (10, 8), (12, 12), (14, 14), (16, 14)],
         [36, 40, 8, 20, 8, 4], "24.45"),
        ([(0, 0), (3, 0), (4, 4), (5, 6), (6, 11), (8, 14), (9, 15), (11, 16),
          (14, 19), (17, 21), (23, 27)],
         [9, 17, 5, 26, 13, 2, 5, 18, 13, 72], "38.05"),
    ]
    for waypoints, squares, display in cases:
        assert [(b[0] - a[0]) ** 2 + (b[1] - a[1]) ** 2
                for a, b in zip(waypoints, waypoints[1:])] == squares
        assert format_length(waypoints_length(waypoints, 1.0)) == display
    print("ACCEPTANCE segment-sum-arithmetic: PASS (3 reference sums)")


def test_criterion_scaling_trends():
    """Trend shapes of the three benchmark scenarios; absolute times excluded."""
    t0 = time.perf_counter()
    rows_b = run_bench(BenchSpec(scenario="b", seed=42, reps=3))
    tb = time.perf_counter()
    elapsed_b = tb - t0
    assert elapsed_b < 300.0
    by_g = {r["g"]: r["time_sec"] for r in rows_b}
    ratio_b = by_g[160] / by_g[20]
    assert ratio_b <= 10.0

    rows_c = run_bench(BenchSpec(scenario="c", seed=42, reps=1))
    tc = time.perf_counter()
    elapsed_c = tc - tb
    assert elapsed_c < 300.0
    times_c = [r["time_sec"] for r in rows_c]
    assert all(a < b for a, b in zip(times_c, times_c[1:]))
    xs = [math.log(r["o"]) for r in rows_c]
    ys = [math.log(r["time_sec"]) for r in rows_c]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) \
        / sum((x - mx) ** 2 for x in xs)
    assert 0.8 <= slope <= 2.5

    rows_a = run_bench(BenchSpec(scenario="a", seed=42, reps=1))
    elapsed_a = time.perf_counter() - tc
    assert elapsed_a < 300.0
    by_point = {(r["g"], r["o"]): r["time_sec"] for r in rows_a}
    ratio_a = by_point[(80, 1280)] / by_point[(20, 80)]
    assert ratio_a >= 10.0
    print(f"ACCEPTANCE scaling-trends: PASS "
          f"(b ratio {ratio_b:.2f}<=10, c slope {slope:.2f} in [0.8,2.5], "
          f"a ratio {ratio_a:.0f}>=10; "
          f"b {elapsed_b:.0f}s, c {elapsed_c:.0f}s, a {elapsed_a:.0f}s)")


def test_criterion_invariant_suites():
    """Five route invariants over 520 seeded cases, zero failures."""
    t0 = time.perf_counter()
    cases = 0

    # lower bound, per-segment safety, deflection membership, adjacency
    # symmetry: 220 cases
    for case in range(220):
        grid = _case_grid(2000 + case, max_dim=10, max_frac=0.40)
        s, d = (0, 0), (grid.cols, grid.rows)
        gobs = build_obstacle_graph(grid)
        gv = build_visibility_graph(gobs, s, d)
        for u in gv.vertices:
            for v, _ in gv.neighbors(u):
                assert gv.has_edge(v, u)
        try:
            path = dijkstra_shortest_path(gv, s, d)
        except NoPathError:
            cases += 1
            continue
        straight = math.hypot(d[0] - s[0], d[1] - s[1]) * grid.cell_size_m
        assert path.length_m >= straight - 1e-9
        unmarked = set(gobs.vertices) - gobs.marked
        for w in path.deflections:
            assert w in unmarked
        for a, b in zip(path.waypoints, path.waypoints[1:]):
            assert brute_force_visible(a, b, grid)
        cases += 1

    # obstacle-removal monotonicity: 150 cases
    for case in range(150):
        grid = _case_grid(3000 + case, max_dim=10, max_frac=0.40)
        s, d = (0, 0), (grid.cols, grid.rows)
        occupied = grid.occupied_cells()
        if not occupied:
            cases += 1
            continue
        try:
            before = plan2d(grid, s, d).length_m
        except NoPathError:
            before = math.inf
        removed = occupied[case % len(occupied)]
        relaxed = grid.copy()
        relaxed.occupied[removed[1], removed[0]] = False
        try:
            after = plan2d(relaxed, s, d).length_m
        except NoPathError:
            after = math.inf
        assert after <= before + 1e-9
        cases += 1

    # half-plane role swap (mirror) leaves the edge set unchanged: 150 cases
    for case in range(150):
        grid = _case_grid(4000 + case, max_dim=8, max_frac=0.40)
        s, d = (0, 0), (grid.cols, grid.rows)
        gv = build_visibility_graph(build_obstacle_graph(grid), s, d)
        mirrored = OccupancyGrid(grid.rows, grid.cols, grid.cell_size_m,
                                 grid.occupied[:, ::-1])
        mp = lambda p: (grid.cols - p[0], p[1])
        gv_m = build_visibility_graph(build_obstacle_graph(mirrored), mp(d), mp(s))
        mapped = {tuple(sorted((mp(u), mp(v)))) for (u, v) in gv_m.edge_set()}
        assert mapped == gv.edge_set()
        cases += 1

    elapsed = time.perf_counter() - t0
    assert cases >= 500
    print(f"ACCEPTANCE invariant-suites: PASS ({cases} cases, {elapsed:.1f}s)")


def test_criterion_structural_counts():
    """Exact vertex/edge counts for solid blocks."""
    g = OccupancyGrid(4, 4)
    g.mark_cells([(1, 1), (2, 1), (1, 2), (2, 2)])
    gobs = build_obstacle_graph(g)
    assert len(gobs.vertices) == 9
    assert len(gobs.marked) == 1
    assert len(gobs.edges) == 12
    assert len([e for e in gobs.edges if e.blocking]) == 4
    for k in (2, 3, 4, 5):
        g = OccupancyGrid(k, k)
        g.mark_cells([(x, y) for x in range(k) for y in range(k)])
        blocking = [e for e in build_obstacle_graph(g).edges if e.blocking]
        assert len(blocking) == 2 * k * (k - 1)
    print("ACCEPTANCE structural-counts: PASS (2x2 block and k in {2,3,4,5})")


def test_criterion_determinism(tmp_path, capsys):
    """Byte-identical generation, planning and graph builds; the lazy planner
    equals the reference pipeline."""
    a = serialize_map(gen_random_map(12, 12, 40, 2024))
    b = serialize_map(gen_random_map(12, 12, 40, 2024))
    assert a == b

    map_file = tmp_path / "m.txt"
    assert main(["gen", "--rows", "10", "--cols", "10", "--obstacles", "25",
                 "--seed", "77", "--out", str(map_file)]) == 0
    assert main(["plan", "--map", str(map_file)]) == 0
    first = capsys.readouterr().out
    assert main(["plan", "--map", str(map_file)]) == 0
    second = capsys.readouterr().out
    assert first == second

    grid = gen_random_map(14, 14, 60, 31)
    gobs = build_obstacle_graph(grid)
    first = build_visibility_graph(gobs, (0, 0), (14, 14))
    again = build_visibility_graph(build_obstacle_graph(grid), (0, 0), (14, 14))
    assert first == again
    assert plan2d(grid, (0, 0), (14, 14)) == plan2d_reference(grid, (0, 0), (14, 14))
    print("ACCEPTANCE determinism: PASS (gen, plan output, graph rebuild, "
          "lazy plan equals reference)")


def test_criterion_rotated_planes():
    """Wall-with-gap world: the gap plane wins and matches the per-plane oracle."""
    world = VoxelWorld(5, 5, 5)
    world.occupied[2, :, :] = True
    world.occupied[2, 3, 3] = False
    s3, d3 = (0.0, 2.5, 2.5), (5.0, 2.5, 2.5)
    config = PlanConfig()
    path, theta = plan_rotated_planes(world, s3, d3, config)
    assert theta == -45.0

    best = None
    for th in (0.0, 15.0, -15.0, 30.0, -30.0, 45.0, -45.0):
        sl = rotated_plane_slice(world, s3, d3, th)
        cand = set(build_visibility_graph(build_obstacle_graph(sl.grid),
                                          sl.source, sl.dest).vertices)
        ogv = oracle_visibility_graph(sl.grid, cand)
        try:
            op = dijkstra_shortest_path(ogv, sl.source, sl.dest)
        except NoPathError:
            continue
        if best is None or op.length_m < best[0]:
            best = (op.length_m, th)
    assert best is not None and best[1] == theta
    assert abs(path.length_m - best[0]) <= 1e-9 * max(1.0, best[0])

    single, t0 = plan_rotated_planes(world, s3, d3, PlanConfig(plane_count=1))
    sl0 = rotated_plane_slice(world, s3, d3, 0.0)
    assert t0 == 0.0
    assert single == plan2d(sl0.grid, sl0.source, sl0.dest)
    print(f"ACCEPTANCE rotated-planes: PASS "
          f"(gap plane {theta:g} deg, length {path.length_m:.6f})")
