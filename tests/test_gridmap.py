"""Tests for grid construction, hull rasterization and map text I/O."""

import math
import random
import re

import numpy as np
import pytest

from gridroute.errors import (DegenerateObstacleError, MapParseError,
                              OutOfBoundsError)
from gridroute.gridmap import (OccupancyGrid, convex_hull,
                               discretize_dimensions, parse_map,
                               rasterize_hull, serialize_map)
from gridroute.mapgen import gen_random_map
from gridroute.planner import VoxelWorld, parse_voxels, serialize_voxels

from oracles import (gift_wrap_hull, mc_rasterize, parse_map_reference,
                     parse_voxels_reference, rasterize_reference,
                     serialize_map_reference, serialize_voxels_reference)


def test_discretize_exact_meters():
    assert discretize_dimensions(10, 20, 1) == (10, 20)


def test_discretize_ceiling():
    assert discretize_dimensions(10, 20, 3) == (4, 7)


def test_discretize_exact_division():
    assert discretize_dimensions(7.5, 7.5, 2.5) == (3, 3)


def test_discretize_rejects_nonpositive():
    for bad in ((0, 1, 1), (1, -2, 1), (1, 1, 0), (math.inf, 1, 1),
                (1, math.inf, 1), (1, 1, math.inf), (math.nan, 1, 1), (1, 1, math.nan)):
        with pytest.raises(ValueError):
            discretize_dimensions(*bad)


def test_discretize_never_undershoots():
    rng = random.Random(3)
    for _ in range(300):
        r = rng.uniform(0.1, 50)
        c = rng.uniform(0.1, 50)
        p = rng.uniform(0.05, 5)
        rows, cols = discretize_dimensions(r, c, p)
        assert rows * p >= r - 1e-9 and cols * p >= c - 1e-9
        assert (rows - 1) * p < r and (cols - 1) * p < c


def test_convex_hull_triangle_identity():
    hull = convex_hull([(0, 0), (4, 0), (0, 4)])
    assert set(hull) == {(0.0, 0.0), (4.0, 0.0), (0.0, 4.0)}
    assert len(hull) == 3


def test_convex_hull_drops_interior_point():
    hull = convex_hull([(0, 0), (4, 0), (4, 4), (0, 4), (2, 2)])
    assert set(hull) == {(0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0)}


def test_convex_hull_is_counter_clockwise():
    hull = convex_hull([(0, 0), (4, 0), (4, 4), (0, 4)])
    area2 = sum(hull[i][0] * hull[(i + 1) % len(hull)][1]
                - hull[(i + 1) % len(hull)][0] * hull[i][1]
                for i in range(len(hull)))
    assert area2 > 0


def test_convex_hull_matches_gift_wrapping():
    rng = random.Random(11)
    for trial in range(50):
        pts = [(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(50)]
        assert set(convex_hull(pts)) == gift_wrap_hull(pts)


def test_convex_hull_degenerate():
    with pytest.raises(DegenerateObstacleError):
        convex_hull([(0, 0), (1, 1)])
    with pytest.raises(DegenerateObstacleError):
        convex_hull([(0, 0), (1, 1), (2, 2), (3, 3)])


def test_rasterize_exact_cell():
    g = OccupancyGrid(4, 4)
    cells = rasterize_hull([(1, 1), (2, 1), (2, 2), (1, 2)], g)
    assert cells == {(1, 1)}
    assert g.occupied_cells() == [(1, 1)]


def test_rasterize_partial_overlap_marks_whole_cells():
    g = OccupancyGrid(4, 4)
    cells = rasterize_hull([(0.5, 0.5), (1.5, 0.5), (1.5, 1.5), (0.5, 1.5)], g)
    assert cells == {(0, 0), (1, 0), (0, 1), (1, 1)}


def test_rasterize_triangle_matches_monte_carlo():
    tri = [(0, 0), (3, 0), (0, 3)]
    g = OccupancyGrid(4, 4)
    cells = rasterize_hull(tri, g)
    # frozen from the sampling oracle (1e5 samples per cell, seed 0)
    assert cells == {(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (0, 2)}
    oracle = mc_rasterize(tri, OccupancyGrid(4, 4), samples=100_000, seed=0)
    assert cells == oracle


def test_rasterize_orientation_independent():
    ccw = [(0.5, 0.5), (2.5, 0.5), (2.5, 2.5), (0.5, 2.5)]
    cw = list(reversed(ccw))
    g1, g2 = OccupancyGrid(4, 4), OccupancyGrid(4, 4)
    assert rasterize_hull(ccw, g1) == rasterize_hull(cw, g2)
    assert g1 == g2


def test_rasterize_disjoint_unit_hulls_count():
    g = OccupancyGrid(6, 6)
    squares = [(0, 0), (2, 2), (4, 4), (0, 4)]
    for x, y in squares:
        rasterize_hull([(x, y), (x + 1, y), (x + 1, y + 1), (x, y + 1)], g)
    assert g.occupied_count() == len(squares)


def test_rasterize_scales_by_cell_size():
    g = OccupancyGrid(3, 3, cell_size_m=2.0)
    cells = rasterize_hull([(2, 2), (4, 2), (4, 4), (2, 4)], g)
    assert cells == {(1, 1)}


def test_rasterize_out_of_bounds():
    g = OccupancyGrid(3, 3)
    with pytest.raises(OutOfBoundsError):
        rasterize_hull([(1, 1), (5, 1), (5, 5), (1, 5)], g)
    # a non-finite vertex, NaN included, in every position
    tri = [(1.0, 1.0), (3.0, 1.0), (2.0, 2.0)]
    for i in range(3):
        for bad in ((math.nan, tri[i][1]), (tri[i][0], math.nan),
                    (math.inf, tri[i][1]), (-math.inf, tri[i][1]),
                    (tri[i][0], math.inf), (tri[i][0], -math.inf)):
            g = OccupancyGrid(4, 4)
            with pytest.raises(OutOfBoundsError):
                rasterize_hull(tri[:i] + [bad] + tri[i + 1:], g)
            assert g.occupied_count() == 0


def _rasterize_corpus(rng):
    """Seeded finite hulls with a grid each, some of them out of bounds."""
    for k in range(2400):
        cell = rng.choice((0.1, 0.3, 0.5, 1.0, 2.5))
        rows, cols = rng.randint(1, 9), rng.randint(1, 9)
        if k % 2:
            # half-lattice vertices: edges through cell corners and along sides
            pts = [(rng.randint(0, 2 * cols) / 2, rng.randint(0, 2 * rows) / 2)
                   for _ in range(rng.randint(3, 6))]
        else:
            m = 0.5 if rng.random() < 0.2 else 0.0   # margin: may leave the grid
            pts = [(rng.uniform(-m, cols + m), rng.uniform(-m, rows + m))
                   for _ in range(rng.randint(3, 6))]
        try:
            hull = convex_hull(pts)
        except DegenerateObstacleError:
            hull = pts
        if rng.random() < 0.5:
            hull = hull[::-1]
        if rng.random() < 0.2:
            i = rng.randrange(len(hull))
            hull = hull[:i + 1] + hull[i:]
        hull = [(x * cell, y * cell) for x, y in hull]
        marked = [(rng.randrange(cols), rng.randrange(rows))
                  for _ in range(rng.randint(0, 3))]
        yield hull, rows, cols, cell, marked


def test_rasterize_matches_reference():
    mismatches, marked_any = 0, 0
    for hull, rows, cols, cell, marked in _rasterize_corpus(random.Random(10)):
        got, want = OccupancyGrid(rows, cols, cell), OccupancyGrid(rows, cols, cell)
        got.mark_cells(marked)
        want.mark_cells(marked)
        try:
            cells = rasterize_hull(hull, got)
        except ValueError as exc:
            cells = type(exc)
        try:
            ref = rasterize_reference(hull, want)
        except ValueError as exc:
            ref = type(exc)
        marked_any += isinstance(ref, set) and bool(ref)
        if cells != ref or got != want or (
                isinstance(cells, set)
                and any(type(v) is not int for c in cells for v in c)):
            mismatches += 1
    assert mismatches == 0
    assert marked_any > 1000


def test_parse_map_basic():
    text = "3 3 1.0\n###\n...\n...\n"
    grid, s, d = parse_map(text)
    assert s is None and d is None
    assert grid.rows == 3 and grid.cols == 3 and grid.cell_size_m == 1.0
    assert all(grid.is_occupied(x, 2) for x in range(3))
    assert grid.occupied_count() == 3


def test_parse_map_minimal():
    grid, s, d = parse_map("1 1 1.0\n.\n")
    assert grid.rows == grid.cols == 1 and grid.occupied_count() == 0


def test_parse_map_endpoints():
    grid, s, d = parse_map("2 2 0.5\n..\n..\nS 0 0\nD 2 2\n")
    assert s == (0, 0) and d == (2, 2)


def test_parse_map_errors_name_lines():
    with pytest.raises(MapParseError) as err:
        parse_map("2 2 1.0\n..\n.\n")
    assert err.value.line == 3
    with pytest.raises(MapParseError) as err:
        parse_map("2 2 1.0\n..\nX.\n")
    assert err.value.line == 3
    with pytest.raises(MapParseError) as err:
        parse_map("3 2 1.0\n..\n..\n")
    assert err.value.line == 4
    with pytest.raises(MapParseError) as err:
        parse_map("2 2 1.0\n..\n..\nS 9 0\n")
    assert err.value.line == 4
    for header_only in ("0 5 1.0\n", "-3 -3 1.0\n", "2 2 -1.0\n", "2 2 inf\n"):
        with pytest.raises(MapParseError) as err:
            parse_map(header_only)
        assert err.value.line == 1
    # a header too large to allocate, with none of its rows
    with pytest.raises(MapParseError) as err:
        parse_map("100000000 100000000 1.0\n")
    assert err.value.line == 2


def test_map_roundtrip_seeded():
    for seed in range(100):
        rows = 1 + seed % 9
        cols = 1 + (seed * 3) % 9
        count = min(seed % 13, rows * cols - 2) if rows * cols > 2 else 0
        grid = gen_random_map(rows, cols, count, seed, cell_size_m=0.5 + seed % 3)
        text = serialize_map(grid, (0, 0), (cols, rows))
        parsed, s, d = parse_map(text)
        assert parsed == grid and s == (0, 0) and d == (cols, rows)
        assert serialize_map(parsed, s, d) == text


def test_cell_size_must_be_finite():
    for make in (lambda: OccupancyGrid(4, 4, math.inf),
                 lambda: VoxelWorld(2, 2, 2, math.inf),
                 lambda: gen_random_map(4, 4, 2, 0, cell_size_m=math.inf)):
        with pytest.raises(ValueError, match="finite"):
            make()


_JUNK = ("X", "\u00e9", "\t", "\udc80")
_BAD_HEADERS = ("", "3", "3 3", "3 3 1.0 1.0 1.0", "a 3 1.0", "3 3 x", "2.0 3 1.0",
                "0 3 1.0", "3 -1 1.0", "3 3 0", "3 3 -2.5", "3 3 nan", "1 1 1 1 1")


def _mutate(rng, lines):
    """One random edit of a file's lines."""
    if not lines:
        return [rng.choice(("", "..", "1 1 1.0", "1 1 1 1.0"))]
    lines = list(lines)
    j = rng.randrange(len(lines))
    kind = rng.randrange(10)
    if kind == 0:
        del lines[j]
    elif kind == 1:
        lines.insert(j, lines[j])
    elif kind == 2:
        lines = lines[:j]
    elif kind == 3:
        lines[j] += rng.choice("#.")
    elif kind == 4:
        lines[j] = lines[j][:-1]
    elif kind == 5:
        k = rng.randrange(len(lines[j]) + 1)
        lines[j] = lines[j][:k] + rng.choice(_JUNK) + lines[j][k + 1:]
    elif kind == 6:
        lines.insert(rng.randrange(len(lines) + 1), rng.choice(("", " ")))
    elif kind == 7:
        lines.append(rng.choice(("", "..", "#", "S 0 0", "D 1 1", "S 9 9", "X")))
    elif kind == 8:
        lines[0] = rng.choice(_BAD_HEADERS)
    else:
        # a well-formed header one off in one dimension
        head = lines[0].split()
        if len(head) > 1:
            i = rng.randrange(len(head) - 1)
            head[i] = str(int(head[i]) + rng.choice((-1, 1))) if head[i].isdigit() else "2"
        lines[0] = " ".join(head)
    return lines


def _codec_corpus(rng, count):
    """``count`` files, alternately maps and voxel worlds: written by the
    reference writer, checked against the new writer, then edited 0-2 times.
    Yields (kind, new parser, reference parser, text)."""
    for k in range(count):
        if k % 2 == 0:
            rows, cols = rng.randint(1, 5), rng.randint(1, 5)
            grid = OccupancyGrid(rows, cols, rng.choice((0.5, 1.0, 2.5)),
                                 np.array([[rng.random() < 0.4 for _ in range(cols)]
                                           for _ in range(rows)]))
            ends = [(rng.randint(0, cols), rng.randint(0, rows)) if rng.random() < 0.6
                    else None for _ in range(2)]
            text = serialize_map_reference(grid, *ends)
            assert serialize_map(grid, *ends) == text
            kind, parse, ref = "map", parse_map, parse_map_reference
        else:
            dims = [rng.randint(1, 3) for _ in range(3)]
            world = VoxelWorld(*dims, rng.choice((0.5, 1.0)),
                               np.array([rng.random() < 0.4
                                         for _ in range(dims[0] * dims[1] * dims[2])]
                                        ).reshape(dims))
            text = serialize_voxels_reference(world)
            assert serialize_voxels(world) == text
            kind, parse, ref = "voxel", parse_voxels, parse_voxels_reference
        lines = text.splitlines()
        for _ in range(rng.choice((0, 1, 1, 2, 2))):
            lines = _mutate(rng, lines)
        yield kind, parse, ref, "\n".join(lines) + rng.choice(("\n", ""))


def _outcome(parse, text):
    try:
        return ("ok", parse(text))
    except Exception as exc:
        return ("error", type(exc), getattr(exc, "line", None), str(exc))


def test_codec_matches_reference():
    # The readers check a block's row count before its rows; the per-character
    # reference read a voxel block's rows before noticing that it ends early.
    # That order is the only difference allowed.
    differ, seen = 0, {"ok": 0, "error": 0}
    for kind, parse, ref, text in _codec_corpus(random.Random(12), 4000):
        got, want = _outcome(parse, text), _outcome(ref, text)
        seen[want[0]] += 1
        if got == want:
            continue
        differ += 1
        missing = got[0] == want[0] == "error" and re.fullmatch(
            r"line (\d+): expected (\d+) rows in block (\d+)", got[3])
        assert kind == "voxel" and got[1] is MapParseError and missing, (text, got, want)
        ny, z = int(missing[2]), int(missing[3])
        assert want[1] is MapParseError and re.search("characters, got|unknown char", want[3])
        assert 2 + z * (ny + 1) <= want[2] < got[2], (text, got, want)
    assert seen["ok"] > 800 and seen["error"] > 2000
    assert differ < 40
