"""Tests for the plane slicer behind the 3D fan: equality with the per-cell
reference on a seeded corpus, a sampled one-sided oracle on a large world,
and hand-built cases that pin its float tolerances."""

import math

import numpy as np
import pytest

from gridroute.planner import (PlanConfig, VoxelWorld, plane_angles,
                               rotated_plane_slice)

from oracles import mc_slice_must_occupy, slice_reference

ANGLES = (0.0, 15.0, -15.0, 45.0, -45.0, 90.0, -90.0, 33.3)


def _fan_cases(rng, worlds=3, n=10):
    # the fan3d benchmark's worlds: 10% occupancy, free end slabs two voxels
    # deep, endpoints on the end faces near their centres, the default fan
    for _ in range(worlds):
        occ = rng.random((n, n, n)) < 0.1
        occ[:2] = False
        occ[-2:] = False
        world = VoxelWorld(n, n, n, 1.0, occ)
        c = n // 2
        s3, d3 = ((x, rng.integers(c - 2, c + 2) + 0.5, rng.integers(c - 2, c + 2) + 0.5)
                  for x in (0.0, float(n)))
        for theta in plane_angles(PlanConfig()):
            yield world, s3, d3, theta


def _endpoint(rng, dims, kind):
    if kind == "random":
        return rng.random(3) * dims
    step = 1.0 if kind == "integer" else 0.5
    return np.floor(rng.random(3) * (dims / step + 1)) * step


def _random_cases(rng, count=288):
    # Densities, voxel sizes and endpoint kinds cycle through every
    # combination; angles cycle independently. Integer and half-integer
    # endpoints put cell corners on voxel faces, where contacts only touch.
    # The reference costs cells x near voxels, so the densest worlds are
    # drawn a little smaller to keep the corpus within a few seconds.
    for k in range(count):
        density = (0.05, 0.2, 0.4)[k % 3]
        voxel_size = (0.5, 1.0, 2.5)[(k // 3) % 3]
        kind = ("random", "integer", "half")[(k // 9) % 3]
        short = k % 24 == 11
        top = 5 if short else {0.05: 14, 0.2: 12, 0.4: 10}[density]
        dims = rng.integers(3, top + 1, size=3)
        if k % 32 == 0:
            dims[rng.integers(3)] = 14
        world = VoxelWorld(*dims, voxel_size, rng.random(tuple(dims)) < density)
        while True:
            s3 = _endpoint(rng, dims, kind)
            if short:
                # a single in-plane cell spans the line
                step = rng.normal(size=3)
                d3 = s3 + step / np.linalg.norm(step) * rng.uniform(0.4, 0.9)
                break
            d3 = _endpoint(rng, dims, kind)
            if k % 8 == 5:
                # vertical line: the reference plane falls back to the x axis
                d3[:2] = s3[:2]
            # lines shorter than one voxel shrink the cells; keep them rare
            if np.linalg.norm(d3 - s3) >= 1.0:
                break
        yield world, tuple(s3), tuple(d3), ANGLES[k % len(ANGLES)]


def _fields(sl):
    return (sl.theta_deg, sl.grid.rows, sl.grid.cols, sl.grid.cell_size_m,
            sl.source, sl.dest, sl.origin, sl.axis_u, sl.axis_w, sl.cell, sl.offset)


def test_slicer_matches_reference_corpus():
    rng = np.random.default_rng(20261018)
    cases = [*_fan_cases(rng), *_random_cases(rng)]
    assert len(cases) >= 300
    vertical = 0
    for world, s3, d3, theta in cases:
        got = rotated_plane_slice(world, s3, d3, theta)
        ref = slice_reference(world, s3, d3, theta)
        where = (world.nx, world.ny, world.nz, world.voxel_size_m, s3, d3, theta)
        assert _fields(got) == _fields(ref), where
        assert got.grid.occupied.shape == ref.grid.occupied.shape, where
        assert np.array_equal(got.grid.occupied, ref.grid.occupied), where
        vertical += s3[:2] == d3[:2]
    assert vertical >= 30


@pytest.mark.parametrize("theta", (0.0, 33.3, -45.0))
def test_slicer_sampled_oracle_large_world(theta):
    n = 40
    rng = np.random.default_rng(40)
    world = VoxelWorld(n, n, n, 1.0, rng.random((n, n, n)) < 0.1)
    s3, d3 = (0.0, 17.3, 21.6), (40.0, 23.5, 18.2)
    sl = rotated_plane_slice(world, s3, d3, theta)
    in_voxel, outside = mc_slice_must_occupy(world, sl)
    occupied = {(int(c), int(r)) for r, c in np.argwhere(sl.grid.occupied)}
    assert in_voxel and outside
    assert in_voxel <= occupied
    assert outside <= occupied


def _rows(sl):
    g = sl.grid
    return ["".join("#" if g.occupied[r, c] else "." for c in range(g.cols))
            for r in range(g.rows - 1, -1, -1)]


def test_slicer_plane_on_voxel_faces_leaves_cells_free():
    # The plane y = 2 holds the shared face of the voxel rows y = 1 and
    # y = 2: it touches both and enters neither. Moved to y = 2.5, it cuts
    # through the y = 2 row.
    world = VoxelWorld(4, 4, 4)
    world.occupied[:, 1, :] = True
    world.occupied[:, 2, :] = True
    on_face = rotated_plane_slice(world, (0.0, 2.0, 2.0), (4.0, 2.0, 2.0), 0.0)
    assert _rows(on_face) == ["....", "....", "....", "...."]
    inside = rotated_plane_slice(world, (0.0, 2.5, 2.0), (4.0, 2.5, 2.0), 0.0)
    assert _rows(inside) == ["####", "####", "####", "####"]


@pytest.mark.parametrize("theta", (90.0, -90.0))
def test_slicer_corner_on_box_face_stays_inside(theta):
    # The line runs along the floor z = 0. At +/-90 degrees the plane is the
    # floor itself, up to cos(90 deg) ~ 6e-17 in the z of axis_w, so the
    # corners of the rows below the line land about 1e-16 under the floor.
    # The 1e-9 tolerance keeps them inside; only the top row, which leaves
    # the box through y < 0, is occupied.
    sl = rotated_plane_slice(VoxelWorld(4, 4, 4), (0.0, 2.0, 0.0), (4.0, 2.0, 0.0), theta)
    assert sl.axis_w[2] > 0.0 and sl.offset == (0, -2)
    assert _rows(sl) == ["####", "....", "....", "....", "...."]


def test_slicer_voxel_just_inside_near_filter_marks_its_cell():
    # At 35 degrees the plane's normal is close to a body diagonal, so it can
    # cut a voxel's corner while the voxel's centre is almost sqrt(3)/2 away.
    # Here it cuts 6e-4 deep into voxel (2, 2, 2) and marks one cell.
    world = VoxelWorld(6, 6, 6)
    world.occupied[2, 2, 2] = True
    sl = rotated_plane_slice(world, (0.0, 6.0, 2.999), (6.0, 0.0, 2.999), 35.0)
    normal = np.cross(sl.axis_u, sl.axis_w)
    dist = abs((np.array([2.5, 2.5, 2.5]) - sl.origin) @ normal)
    assert 0.865 < dist < math.sqrt(3.0) / 2.0
    assert _rows(sl) == [
        "##########",
        "##########",
        "##########",
        "##.....###",
        "##.....###",
        "#...#...##",
        "#.......##",
        "##.....###",
        "##.....###",
        "##########",
        "##########",
        "##########",
    ]
    empty = rotated_plane_slice(VoxelWorld(6, 6, 6), (0.0, 6.0, 2.999),
                                (6.0, 0.0, 2.999), 35.0)
    assert np.argwhere(sl.grid.occupied & ~empty.grid.occupied).tolist() == [[6, 4]]
