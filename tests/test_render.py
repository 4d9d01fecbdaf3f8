"""Tests for SVG rendering."""

from pathlib import Path as FsPath

import pytest

from gridroute.gridmap import OccupancyGrid
from gridroute.mapgen import gen_random_map
from gridroute.pathfind import Path
from gridroute.planner import plan2d
from gridroute.render import render_svg

GOLDEN = FsPath(__file__).parent / "data" / "golden_render.svg"


def test_empty_grid_direct_path_counts():
    grid = OccupancyGrid(4, 4)
    svg = render_svg(grid, Path(((0, 0), (4, 4)), 4 * 2 ** 0.5))
    assert svg.count("<polyline") == 1
    assert svg.count("<circle") == 2
    assert svg.count('<rect class="cell"') == 0
    assert svg.startswith('<svg xmlns="http://www.w3.org/2000/svg" version="1.1"')


def test_obstacle_rect_count_matches_cells():
    grid = gen_random_map(6, 6, 13, 3)
    path = plan2d(grid, (0, 0), (6, 6))
    svg = render_svg(grid, path)
    assert svg.count('<rect class="cell"') == 13
    assert svg.count("<circle") == 2 + len(path.deflections)
    pts = svg.split('<polyline points="')[1].split('"')[0]
    assert len(pts.split()) == len(path.waypoints)


def test_render_rejects_outside_waypoints():
    grid = OccupancyGrid(3, 3)
    with pytest.raises(ValueError):
        render_svg(grid, Path(((0, 0), (9, 9)), 1.0))


def test_golden_rendering_byte_identical():
    grid = gen_random_map(10, 10, 30, 1)
    path = plan2d(grid, (0, 0), (10, 10))
    assert render_svg(grid, path) == GOLDEN.read_text()
