"""Tests for the command-line interface and its exit-code contract."""

import pytest

from gridroute.cli import main
from gridroute.gridmap import OccupancyGrid, serialize_map
from gridroute.planner import VoxelWorld, serialize_voxels


def _write_map(tmp_path, grid, s=None, d=None, name="map.txt"):
    f = tmp_path / name
    f.write_text(serialize_map(grid, s, d))
    return str(f)


def test_gen_then_plan(tmp_path, capsys):
    out = str(tmp_path / "gen.txt")
    assert main(["gen", "--rows", "5", "--cols", "5", "--obstacles", "0",
                 "--seed", "1", "--out", out]) == 0
    assert main(["plan", "--map", out]) == 0
    captured = capsys.readouterr()
    assert captured.out.strip().endswith("length_m 7.07")


def test_plan_flags_override_map_endpoints(tmp_path, capsys):
    path = _write_map(tmp_path, OccupancyGrid(5, 5), (0, 0), (5, 5))
    assert main(["plan", "--map", path, "--source", "0,0", "--dest", "3,4"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines() == ["0 0", "3 4", "length_m 5.00"]


def test_plan_missing_endpoints_is_input_error(tmp_path, capsys):
    path = _write_map(tmp_path, OccupancyGrid(3, 3))
    assert main(["plan", "--map", path]) == 1
    assert "error" in capsys.readouterr().err


def test_plan_no_route_exits_two(tmp_path, capsys):
    grid = OccupancyGrid(5, 5)
    grid.mark_cells([(x, y) for x in (1, 2, 3) for y in (1, 2, 3)
                     if (x, y) != (2, 2)])
    path = _write_map(tmp_path, grid, (2, 2), (5, 5))
    assert main(["plan", "--map", path]) == 2


def test_plan_bad_map_exits_one(tmp_path, capsys):
    f = tmp_path / "bad.txt"
    f.write_text("2 2 1.0\n..\nQ.\n")
    assert main(["plan", "--map", str(f)]) == 1
    assert "line 3" in capsys.readouterr().err


def test_plan_unallocatable_header_exits_one(tmp_path, capsys):
    f = tmp_path / "huge.txt"
    f.write_text("100000000 100000000 1.0\n")
    assert main(["plan", "--map", str(f)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: line 2") and len(err.splitlines()) == 1


def test_plan_missing_file_exits_one(tmp_path):
    assert main(["plan", "--map", str(tmp_path / "nope.txt")]) == 1


def test_plan_unknown_flag_exits_one(tmp_path, capsys):
    assert main(["plan", "--bogus"]) == 1


def test_plan_oracle_match(tmp_path, capsys):
    main(["gen", "--rows", "8", "--cols", "8", "--obstacles", "14",
          "--seed", "5", "--out", str(tmp_path / "m.txt")])
    assert main(["plan", "--map", str(tmp_path / "m.txt"), "--oracle"]) == 0
    assert "oracle: MATCH" in capsys.readouterr().out


def test_plan_with_stops_and_svg(tmp_path, capsys):
    path = _write_map(tmp_path, OccupancyGrid(6, 6), (0, 0), (6, 6))
    svg_out = tmp_path / "route.svg"
    assert main(["plan", "--map", path, "--stops", "2,1;4,5",
                 "--svg", str(svg_out)]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "0 0"
    assert "2 1" in out and "4 5" in out
    assert svg_out.read_text().startswith("<svg")


def test_plan_deterministic_output(tmp_path, capsys):
    main(["gen", "--rows", "9", "--cols", "9", "--obstacles", "25",
          "--seed", "11", "--out", str(tmp_path / "m.txt")])
    assert main(["plan", "--map", str(tmp_path / "m.txt")]) == 0
    first = capsys.readouterr().out
    assert main(["plan", "--map", str(tmp_path / "m.txt")]) == 0
    assert capsys.readouterr().out == first


def test_plan3d_wall_gap(tmp_path, capsys):
    world = VoxelWorld(5, 5, 5)
    world.occupied[2, :, :] = True
    world.occupied[2, 3, 3] = False
    f = tmp_path / "world.txt"
    f.write_text(serialize_voxels(world))
    assert main(["plan3d", "--voxels", str(f), "--source", "0,2.5,2.5",
                 "--dest", "5,2.5,2.5"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "theta_deg -45"
    assert out.strip().endswith("length_m 5.47")


def test_plan3d_non_finite_endpoint_exits_one(tmp_path, capsys):
    f = tmp_path / "world.txt"
    f.write_text(serialize_voxels(VoxelWorld(5, 5, 5)))
    for source, dest in (("inf,2.5,2.5", "5,2.5,2.5"), ("nan,2.5,2.5", "5,2.5,2.5"),
                         ("0,2.5,2.5", "5,-inf,2.5")):
        assert main(["plan3d", "--voxels", str(f), "--source", source,
                     "--dest", dest]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_bench_csv_written(tmp_path):
    out = tmp_path / "bench.csv"
    assert main(["bench", "--scenario", "b", "--reps", "1",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "scenario,g,o,seed,time_sec,path_len"
    assert len(lines) == 2 + 6


def test_render_from_path_file(tmp_path, capsys):
    map_file = _write_map(tmp_path, OccupancyGrid(5, 5), (0, 0), (5, 5))
    assert main(["plan", "--map", map_file]) == 0
    path_text = capsys.readouterr().out
    path_file = tmp_path / "route.txt"
    path_file.write_text(path_text)
    svg_file = tmp_path / "route.svg"
    assert main(["render", "--map", map_file, "--path", str(path_file),
                 "--out", str(svg_file)]) == 0
    svg = svg_file.read_text()
    assert svg.count("<polyline") == 1 and svg.count("<circle") == 2


def test_gen_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    for out in (a, b):
        assert main(["gen", "--rows", "10", "--cols", "10", "--obstacles", "20",
                     "--seed", "42", "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()
