"""Tests for the end-to-end planner: 2D pipeline, stops, layers, 3D planes."""

import math

import numpy as np
import pytest

from gridroute import planner
from gridroute.cli import main
from gridroute.errors import InvalidEndpointError, MapParseError, NoPathError
from gridroute.gridmap import OccupancyGrid
from gridroute.mapgen import gen_random_map
from gridroute.obstacle_graph import build_obstacle_graph
from gridroute.pathfind import Path, dijkstra_shortest_path, format_length
from gridroute.planner import (PlanConfig, StaticMapProvider, VoxelWorld,
                               choose_layer, parse_voxels, plan2d,
                               plan_rotated_planes, plan_with_stops,
                               plane_angles, rotated_plane_slice,
                               serialize_voxels)
from gridroute.visibility import _COORD_LIMIT, LazyVisibilityGraph, build_visibility_graph

from oracles import fan_reference, min_simple_path_length, oracle_visibility_graph


def _wall_gap_world():
    world = VoxelWorld(5, 5, 5)
    world.occupied[2, :, :] = True
    world.occupied[2, 3, 3] = False
    return world


def test_plan2d_empty_grid_direct():
    grid = OccupancyGrid(5, 5)
    path = plan2d(grid, (0, 0), (5, 5))
    assert path.waypoints == ((0, 0), (5, 5))
    assert path.length_m == pytest.approx(math.sqrt(50))


def test_plan2d_same_endpoint():
    grid = OccupancyGrid(3, 3)
    path = plan2d(grid, (1, 1), (1, 1))
    assert path.waypoints == ((1, 1),) and path.length_m == 0.0


def test_plan2d_sealed_pocket_raises():
    grid = OccupancyGrid(5, 5)
    grid.mark_cells([(x, y) for x in (1, 2, 3) for y in (1, 2, 3) if (x, y) != (2, 2)])
    with pytest.raises(NoPathError):
        plan2d(grid, (2, 2), (5, 5))


def test_plan2d_corridor_matches_oracle_pipeline():
    # 10 x 20 map with scattered blocks leaving a corridor
    grid = OccupancyGrid(10, 20)
    for x0, y0 in ((3, 0), (3, 1), (3, 2), (3, 3), (8, 4), (8, 5), (8, 6),
                   (13, 0), (13, 1), (14, 7), (15, 7), (6, 8), (6, 9)):
        grid.mark_cell(x0, y0)
    s, d = (0, 0), (20, 10)
    path = plan2d(grid, s, d)
    gv = build_visibility_graph(build_obstacle_graph(grid), s, d)
    oracle_gv = oracle_visibility_graph(grid, gv.vertices)
    oracle_path = dijkstra_shortest_path(oracle_gv, s, d)
    assert path.length_m == pytest.approx(oracle_path.length_m, rel=1e-12)


def test_plan_with_stops_empty_list_equals_plan2d():
    grid = gen_random_map(8, 8, 12, 3)
    direct = plan2d(grid, (0, 0), (8, 8))
    stops = plan_with_stops(StaticMapProvider(grid), (0, 0), (8, 8), [])
    assert stops == direct


def test_plan_with_stops_same_endpoint_equals_plan2d():
    grid = OccupancyGrid(3, 3)
    path = plan_with_stops(StaticMapProvider(grid), (1, 1), (1, 1))
    assert path == plan2d(grid, (1, 1), (1, 1)) == Path(((1, 1),), 0.0)


def test_plan_with_stops_on_line_costs_nothing():
    grid = OccupancyGrid(6, 6)
    path = plan_with_stops(StaticMapProvider(grid), (0, 0), (6, 6), [(3, 3)])
    assert path.length_m == pytest.approx(math.sqrt(72))
    assert path.waypoints == ((0, 0), (3, 3), (6, 6))


def test_plan_with_stops_off_line_costs_distance():
    grid = OccupancyGrid(6, 6)
    stop = (5, 1)
    path = plan_with_stops(StaticMapProvider(grid), (0, 0), (6, 6), [stop])
    expect = math.hypot(5, 1) + math.hypot(1, 5)
    assert path.length_m == pytest.approx(expect)
    assert path.length_m > math.sqrt(72)


def test_plan_with_stops_reports_failing_leg():
    grid = OccupancyGrid(6, 6)
    grid.mark_cells([(x, y) for x in (1, 2, 3) for y in (1, 2, 3) if (x, y) != (2, 2)])
    with pytest.raises(NoPathError) as err:
        plan_with_stops(StaticMapProvider(grid), (0, 0), (6, 6), [(2, 2)])
    assert err.value.leg == 0


def test_plan_with_stops_reperceives_each_leg():
    class ScriptedProvider:
        def __init__(self):
            self.grids = {}
            a = OccupancyGrid(6, 6)
            a.mark_cell(4, 4)       # visible only on the first leg
            self.grids[(0, 0)] = a
            b = OccupancyGrid(6, 6)
            b.mark_cell(1, 1)       # appears after re-perception at the stop
            self.grids[(3, 3)] = b
            self.queried = []

        def grid_at(self, position):
            self.queried.append(position)
            return self.grids[position]

    provider = ScriptedProvider()
    path = plan_with_stops(provider, (0, 0), (6, 6), [(3, 3)])
    assert provider.queried == [(0, 0), (3, 3)]
    assert path.length_m > math.sqrt(72) - 1e-9


def test_plan_rejects_non_integer_endpoints():
    # off the corner lattice whatever the value, 2.0 included; numpy ints pass
    grid = OccupancyGrid(4, 4)
    for bad in ((0.5, 0), (0, 2.0), (np.float64(1), 1), (1, math.nan)):
        for plan in (plan2d, planner.plan2d_reference):
            with pytest.raises(InvalidEndpointError):
                plan(grid, bad, (4, 4))
            with pytest.raises(InvalidEndpointError):
                plan(grid, (0, 0), bad)
            with pytest.raises(InvalidEndpointError):
                plan(grid, bad, bad)
        with pytest.raises(InvalidEndpointError):
            plan_with_stops(StaticMapProvider(grid), (0, 0), (4, 4), [bad])
    assert plan2d(grid, (np.int64(0), np.int64(1)), (4, 4)) == plan2d(grid, (0, 1), (4, 4))


def test_grid_at_coord_limit_is_rejected():
    """A side of 2**20 cells is past the exact slope keys, for a
    same-endpoint query too."""
    grid = OccupancyGrid(1, _COORD_LIMIT)
    gobs = build_obstacle_graph(grid)
    for s, d in (((0, 0), (5, 1)), ((3, 1), (3, 1))):
        for plan in (plan2d, planner.plan2d_reference):
            with pytest.raises(ValueError, match="grid too large"):
                plan(grid, s, d)
        for make in (LazyVisibilityGraph, build_visibility_graph):
            with pytest.raises(ValueError, match="grid too large"):
                make(gobs, s, d)


def test_plan_with_stops_rejects_endpoint_stop():
    grid = OccupancyGrid(4, 4)
    with pytest.raises(ValueError):
        plan_with_stops(StaticMapProvider(grid), (0, 0), (4, 4), [(0, 0)])


def test_choose_layer_minimum():
    def layer(n):
        g = OccupancyGrid(5, 5)
        g.mark_cells([(i % 5, i // 5) for i in range(1, n + 1)])
        return g
    assert choose_layer([layer(20), layer(12), layer(3)]) == 2
    assert choose_layer([layer(5), layer(5)]) == 0
    assert choose_layer([layer(7)]) == 0
    with pytest.raises(ValueError):
        choose_layer([layer(1), OccupancyGrid(4, 5)])
    with pytest.raises(ValueError):
        choose_layer([])


def test_voxel_roundtrip():
    world = _wall_gap_world()
    text = serialize_voxels(world)
    assert parse_voxels(text) == world
    assert serialize_voxels(parse_voxels(text)) == text


def test_voxel_parse_errors():
    with pytest.raises(MapParseError):
        parse_voxels("2 2 1.0\n..\n..\n")           # bad header arity
    with pytest.raises(MapParseError) as err:
        parse_voxels("2 2 2 1.0\n..\nX.\n\n..\n..\n")
    assert err.value.line == 3
    with pytest.raises(MapParseError):
        parse_voxels("2 2 2 1.0\n..\n..\n..\n..\n")  # missing blank separator
    with pytest.raises(MapParseError) as err:
        parse_voxels("2 2 1 1.0\n..\n#.\n\n##\n##\n")  # a block past nz
    assert err.value.line == 4
    with pytest.raises(MapParseError) as err:
        parse_voxels("1000000 1000000 1000000 1.0\n")  # too large to allocate
    assert err.value.line == 2
    with pytest.raises(MapParseError) as err:
        parse_voxels("1 1 1 inf\n.\n")                # infinite voxel size
    assert err.value.line == 1


def test_empty_world_straight_line_every_angle():
    world = VoxelWorld(5, 5, 5)
    s3, d3 = (0.0, 2.5, 2.5), (5.0, 2.5, 2.5)
    for theta in (0.0, 15.0, -15.0, 45.0, -45.0):
        sl = rotated_plane_slice(world, s3, d3, theta)
        path = plan2d(sl.grid, sl.source, sl.dest)
        assert path.length_m == pytest.approx(5.0, abs=1e-9)
    path, theta = plan_rotated_planes(world, s3, d3, PlanConfig())
    assert theta == 0.0 and path.length_m == pytest.approx(5.0, abs=1e-9)


def test_wall_gap_world_selects_gap_plane():
    world = _wall_gap_world()
    s3, d3 = (0.0, 2.5, 2.5), (5.0, 2.5, 2.5)
    path, theta = plan_rotated_planes(world, s3, d3, PlanConfig())
    assert theta == -45.0
    # the winning route threads the single free cell of the wall column
    assert path.length_m == pytest.approx(2 * math.sqrt(5) + 1, abs=1e-9)


def test_wall_gap_matches_per_plane_oracle():
    world = _wall_gap_world()
    s3, d3 = (0.0, 2.5, 2.5), (5.0, 2.5, 2.5)
    path, theta = plan_rotated_planes(world, s3, d3, PlanConfig())
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
    assert best is not None
    assert theta == best[1]
    assert path.length_m == pytest.approx(best[0], rel=1e-9)


def test_plane_paths_avoid_voxel_interiors():
    # sampled at 0.01-cell resolution, mapped back to voxel space
    world = _wall_gap_world()
    s3, d3 = (0.0, 2.5, 2.5), (5.0, 2.5, 2.5)
    path, theta = plan_rotated_planes(world, s3, d3, PlanConfig())
    sl = rotated_plane_slice(world, s3, d3, theta)

    def inside_occupied(q):
        ix, iy, iz = (math.floor(c) for c in q)
        if not (0 <= ix < world.nx and 0 <= iy < world.ny and 0 <= iz < world.nz):
            return False
        if not all(i < c < i + 1 for c, i in zip(q, (ix, iy, iz))):
            return False
        return bool(world.occupied[ix, iy, iz])

    for a, b in zip(path.waypoints, path.waypoints[1:]):
        n = max(1, int(math.hypot(b[0] - a[0], b[1] - a[1]) / 0.01))
        for t in np.linspace(0.0, 1.0, n + 1):
            q = sl.to_world(a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1]))
            assert not inside_occupied(q)


def test_plane_count_one_equals_vertical_plane():
    world = _wall_gap_world()
    s3, d3 = (0.0, 2.5, 2.5), (5.0, 2.5, 2.5)
    path, theta = plan_rotated_planes(world, s3, d3, PlanConfig(plane_count=1))
    sl = rotated_plane_slice(world, s3, d3, 0.0)
    direct = plan2d(sl.grid, sl.source, sl.dest)
    assert theta == 0.0
    assert path == direct


def test_fan_length_never_beats_its_zero_plane():
    world = _wall_gap_world()
    s3, d3 = (0.0, 2.5, 2.5), (5.0, 2.5, 2.5)
    fan, _ = plan_rotated_planes(world, s3, d3, PlanConfig())
    only0, _ = plan_rotated_planes(world, s3, d3, PlanConfig(plane_count=1))
    assert fan.length_m <= only0.length_m + 1e-12


def test_plane_fan_rejects_coincident_endpoints():
    world = VoxelWorld(3, 3, 3)
    for p in ((1.5, 1.5, 1.5), (0.0, 1.5, math.inf), (math.nan, 1.5, 1.5)):
        with pytest.raises(ValueError):
            plan_rotated_planes(world, p, p)


def test_plane_fan_rejects_wide_angles():
    world = VoxelWorld(3, 3, 3)
    with pytest.raises(ValueError):
        plan_rotated_planes(world, (0, 1.5, 1.5), (3, 1.5, 1.5),
                            PlanConfig(plane_count=7, plane_angle_step_deg=40.0))
    # rejected when the config is built, before any angle list exists
    for count, step in ((10**9, 15.0), (14, 15.0), (3, 90.5), (2_000_000, 1e-3)):
        with pytest.raises(ValueError, match="90 degrees"):
            PlanConfig(plane_count=count, plane_angle_step_deg=step)
    for count, step in ((13, 15.0), (2, 90.0), (1, 500.0)):
        angles = plane_angles(PlanConfig(plane_count=count, plane_angle_step_deg=step))
        assert len(angles) == count and max(map(abs, angles)) <= 90.0


def _fan_worlds():
    """(world, source, destination) for the fan tests: the empty and the
    wall-gap worlds above, then worlds like the fan3d benchmark's (10%
    occupancy, free end slabs two voxels deep, endpoints on the end faces
    near their centres)."""
    mid = ((0.0, 2.5, 2.5), (5.0, 2.5, 2.5))
    yield (VoxelWorld(5, 5, 5), *mid)
    yield (_wall_gap_world(), *mid)
    rng = np.random.default_rng(31)
    n, c = 10, 5
    for _ in range(16):
        occ = rng.random((n, n, n)) < 0.1
        occ[:2] = False
        occ[-2:] = False
        s3, d3 = ((x, float(rng.integers(c - 2, c + 2)) + 0.5,
                   float(rng.integers(c - 2, c + 2)) + 0.5) for x in (0.0, float(n)))
        yield VoxelWorld(n, n, n, 1.0, occ), s3, d3


def test_fan_stops_at_the_first_direct_plane(monkeypatch):
    real = planner.plan2d
    calls = []

    def counting(grid, source, dest, **kw):
        calls.append(source)
        return real(grid, source, dest, **kw)

    monkeypatch.setattr(planner, "plan2d", counting)
    angles = plane_angles(PlanConfig())
    stopped_early = 0
    for world, s3, d3 in _fan_worlds():
        expected = len(angles)  # planes up to the first direct route
        for i, theta in enumerate(angles):
            sl = rotated_plane_slice(world, s3, d3, theta)
            try:
                if len(real(sl.grid, sl.source, sl.dest).waypoints) == 2:
                    expected = i + 1
                    break
            except (NoPathError, InvalidEndpointError):
                pass
        calls.clear()
        try:
            plan_rotated_planes(world, s3, d3)
        except NoPathError:
            pass
        assert len(calls) == expected
        stopped_early += expected < len(angles)
    # the clear line of sight of the empty world is planned once
    calls.clear()
    path, theta = plan_rotated_planes(VoxelWorld(5, 5, 5), (0.0, 2.5, 2.5),
                                      (5.0, 2.5, 2.5))
    assert len(calls) == 1 and theta == 0.0 and len(path.waypoints) == 2
    assert stopped_early >= 4


def _mirror_worlds():
    """(world, source, destination) mirror-symmetric about the fan's
    reference plane y = 4.5, so each +theta plane has a -theta twin: a wall
    across x with two mirrored holes on the +/-45 degree planes, plus
    mirrored 8% noise and free end slabs."""
    rng = np.random.default_rng(5)
    n = 9
    for _ in range(8):
        occ = rng.random((n, n, n)) < 0.08
        occ |= occ[:, ::-1, :]
        x, dz = int(rng.integers(3, 6)), int(rng.choice((-1, 1)))
        occ[x] = True
        occ[x, 3, 4 + dz] = occ[x, 5, 4 + dz] = False
        occ[:2] = False
        occ[-2:] = False
        yield VoxelWorld(n, n, n, 1.0, occ), (0.0, 4.5, 4.5), (float(n), 4.5, 4.5)


def test_fan_keeps_the_full_fan_and_its_tie_order_on_mirrored_worlds():
    ties = 0
    for world, s3, d3 in _mirror_worlds():
        ref = fan_reference(world, s3, d3)
        if ref is None:
            with pytest.raises(NoPathError):
                plan_rotated_planes(world, s3, d3)
            continue
        path, theta, _ = ref
        assert plan_rotated_planes(world, s3, d3) == (path, theta)
        if theta == 0.0:
            continue
        twin = rotated_plane_slice(world, s3, d3, -theta)
        if plan2d(twin.grid, twin.source, twin.dest).length_m == path.length_m:
            assert theta > 0  # the +theta plane comes first and keeps the tie
            ties += 1
    assert ties >= 3


def test_fan_bound_expands_fewer_vertices(monkeypatch):
    real_neighbors = LazyVisibilityGraph.neighbors
    real_plan2d = planner.plan2d
    expanded = 0

    def counting(self, v):
        nonlocal expanded
        expanded += 1
        return real_neighbors(self, v)

    def fans():
        nonlocal expanded
        expanded, out = 0, []
        for world, s3, d3 in _fan_worlds():
            try:
                out.append(plan_rotated_planes(world, s3, d3))
            except NoPathError:
                out.append(None)
        return expanded, out

    monkeypatch.setattr(LazyVisibilityGraph, "neighbors", counting)
    bounded, routes = fans()
    monkeypatch.setattr(planner, "plan2d",
                        lambda grid, source, dest, **kw: real_plan2d(grid, source, dest))
    unbounded, unbounded_routes = fans()
    assert routes == unbounded_routes
    assert bounded < unbounded


def test_fan_equals_full_fan_reference(tmp_path, capsys):
    for k, (world, s3, d3) in enumerate(_fan_worlds()):
        ref = fan_reference(world, s3, d3)
        if ref is None:
            with pytest.raises(NoPathError):
                plan_rotated_planes(world, s3, d3)
            continue
        path, theta, sl = ref
        assert plan_rotated_planes(world, s3, d3) == (path, theta)
        f = tmp_path / f"world{k}.txt"
        f.write_text(serialize_voxels(world))
        assert main(["plan3d", "--voxels", str(f),
                     "--source", ",".join(map(repr, s3)),
                     "--dest", ",".join(map(repr, d3))]) == 0
        expected = [f"theta_deg {theta:g}"]
        expected += ["{:.6f} {:.6f} {:.6f}".format(*sl.to_world(x, y))
                     for x, y in path.waypoints]
        expected.append(f"length_m {format_length(path.length_m)}")
        assert capsys.readouterr().out.splitlines() == expected
