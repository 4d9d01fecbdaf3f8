"""End-to-end planning: the 2D pipeline, multi-stop journeys and the 3D
plane heuristics.

``plan2d`` builds the obstacle graph, then runs A* over a visibility graph
whose neighbour lists are decided on demand, so only the vertices the
search expands are decided. ``plan2d_reference`` runs the paper's pipeline
(the full visibility graph, then the same search) and returns equal paths;
it is the oracle in the tests and the pipeline ``gridroute bench`` times. Long
journeys are split at caller-chosen stops; each leg is planned on the map
perceived at the leg's start, so the legs are individually optimal while
the stop choice stays external. Between altitudes, ``choose_layer`` picks
the layer with the fewest obstacle cells. True 3D shortest paths are out of
scope; instead ``plan_rotated_planes`` slices the voxel world with a fan of
planes through the source-destination line, plans within each slice and
keeps the shortest, stopping early once a plane admits the straight
segment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Protocol

import numpy as np

from .errors import InvalidEndpointError, MapParseError, NoPathError
from .geometry import Point
from .gridmap import OccupancyGrid, occupancy_array, read_header, read_rows, write_rows
from .obstacle_graph import build_obstacle_graph
from .pathfind import Path, dijkstra_shortest_path
from .visibility import LazyVisibilityGraph, build_visibility_graph, check_endpoints

Point3 = tuple[float, float, float]


@dataclass(frozen=True)
class PlanConfig:
    """The plane fan used for 3D planning: how many planes, and the angle
    step between them."""

    plane_count: int = 7
    plane_angle_step_deg: float = 15.0

    def __post_init__(self):
        if self.plane_count < 1:
            raise ValueError("plane count must be at least 1")
        if not (self.plane_angle_step_deg > 0):
            raise ValueError("plane angle step must be positive")


def _plan(grid: OccupancyGrid, source: Point, dest: Point, make_graph) -> Path:
    gobs = build_obstacle_graph(grid)
    if source == dest:
        check_endpoints(gobs, source, dest)
        return Path((source,), 0.0)
    gv = make_graph(gobs, source, dest)
    return dijkstra_shortest_path(gv, source, dest)


def plan2d(grid: OccupancyGrid, source: Point, dest: Point) -> Path:
    """Shortest obstacle-free route on one grid.

    Pipeline: obstacle graph, then A* over a lazily decided visibility graph.
    Equal to :func:`plan2d_reference` on every input. Deterministic for
    equal inputs. Source equal to destination, at a point outside every
    obstacle's interior, yields a zero-length single-waypoint path.
    """
    return _plan(grid, source, dest, LazyVisibilityGraph)


def plan2d_reference(grid: OccupancyGrid, source: Point, dest: Point) -> Path:
    """:func:`plan2d` through the paper's pipeline: obstacle graph, the full
    visibility graph, then the same search."""
    return _plan(grid, source, dest, build_visibility_graph)


class MapProvider(Protocol):
    """Source of the occupancy grid perceived at a given position."""

    def grid_at(self, position: Point) -> OccupancyGrid: ...


class StaticMapProvider:
    """Provider that always perceives the same grid."""

    def __init__(self, grid: OccupancyGrid):
        self._grid = grid

    def grid_at(self, position: Point) -> OccupancyGrid:
        return self._grid


def plan_with_stops(provider: MapProvider, source: Point, dest: Point,
                    stops=()) -> Path:
    """Plan a journey through intermediate stops, re-perceiving at each stop.

    Legs are planned one by one on the grid the provider yields at the leg's
    start and concatenated with duplicate junctions merged. A failing leg
    raises :class:`NoPathError` carrying the leg index.
    """
    stops = tuple(stops)
    for s in stops:
        if s == source or s == dest:
            raise ValueError("stops must be distinct from source and destination")
    points = [source, *stops, dest]
    waypoints: list[Point] = [source]
    total = 0.0
    for k in range(len(points) - 1):
        grid = provider.grid_at(points[k])
        try:
            leg = plan2d(grid, points[k], points[k + 1])
        except NoPathError as exc:
            raise NoPathError(f"leg {k} ({points[k]} to {points[k + 1]}): {exc}",
                              leg=k) from exc
        waypoints.extend(leg.waypoints[1:])
        total += leg.length_m
    return Path(tuple(waypoints), total)


def choose_layer(layers: list[OccupancyGrid]) -> int:
    """Index of the altitude layer with the fewest obstacle cells.

    Ties go to the lowest altitude, which costs the least battery to reach.
    """
    if not layers:
        raise ValueError("need at least one layer")
    dims = (layers[0].rows, layers[0].cols)
    for g in layers[1:]:
        if (g.rows, g.cols) != dims:
            raise ValueError("layers must share dimensions")
    counts = [g.occupied_count() for g in layers]
    return counts.index(min(counts))


class VoxelWorld:
    """3D boolean obstacle field of ``nx x ny x nz`` voxels, indexed [x, y, z]."""

    __slots__ = ("nx", "ny", "nz", "voxel_size_m", "occupied")

    def __init__(self, nx: int, ny: int, nz: int, voxel_size_m: float = 1.0,
                 occupied: np.ndarray | None = None):
        self.occupied = occupancy_array((nx, ny, nz), voxel_size_m, occupied)
        self.nx, self.ny, self.nz = self.occupied.shape
        self.voxel_size_m = float(voxel_size_m)

    def __eq__(self, other) -> bool:
        if not isinstance(other, VoxelWorld):
            return NotImplemented
        return ((self.nx, self.ny, self.nz, self.voxel_size_m)
                == (other.nx, other.ny, other.nz, other.voxel_size_m)
                and bool(np.array_equal(self.occupied, other.occupied)))


def parse_voxels(text: str) -> VoxelWorld:
    """Parse the voxel file format: an ``nx ny nz voxel_size`` header, then
    nz blocks of ny rows of nx characters (z ascending, first row of each
    block is y = ny - 1), blocks separated by one blank line and nothing
    after the last one."""
    lines = text.splitlines()
    (nx, ny, nz), size = read_header(lines, "<nx> <ny> <nz> <voxel_size_m>",
                                     "empty voxel file")
    blocks = []
    for z in range(nz):
        start = 1 + z * (ny + 1)
        if z > 0 and (start > len(lines) or lines[start - 1].strip()):
            raise MapParseError("expected blank line between blocks", start)
        blocks.append(read_rows(lines, start, ny, nx, f"expected {ny} rows in block {z}"))
    if len(lines) > nz * (ny + 1):
        raise MapParseError("unexpected line after the last block", nz * (ny + 1) + 1)
    # blocks[z][row, x] with row 0 at y = ny - 1, to occupied[x, y, z]
    return VoxelWorld(nx, ny, nz, size, np.transpose(np.array(blocks)[:, ::-1], (2, 1, 0)))


def serialize_voxels(world: VoxelWorld) -> str:
    """Canonical text form of a voxel world; inverse of :func:`parse_voxels`."""
    blocks = (write_rows(world.occupied[:, ::-1, z].T) for z in range(world.nz))
    return "\n".join([f"{world.nx} {world.ny} {world.nz} {world.voxel_size_m!r}",
                      "\n\n".join(blocks)]) + "\n"


@dataclass(frozen=True)
class PlaneSlice:
    """One candidate plane through the source-destination line, rasterized to
    a planar occupancy grid. ``source``/``dest`` are in-plane lattice points;
    ``to_world`` maps in-plane lattice coordinates back to voxel-space."""

    theta_deg: float
    grid: OccupancyGrid
    source: Point
    dest: Point
    origin: Point3 = field(repr=False)
    axis_u: Point3 = field(repr=False)
    axis_w: Point3 = field(repr=False)
    cell: float = field(repr=False)
    offset: tuple[int, int] = field(repr=False)

    def to_world(self, x: float, y: float) -> Point3:
        ox, oy = self.offset
        sx = (x + ox) * self.cell
        sy = (y + oy) * self.cell
        return tuple(self.origin[i] + sx * self.axis_u[i] + sy * self.axis_w[i]
                     for i in range(3))


def rotated_plane_slice(world: VoxelWorld, s3: Point3, d3: Point3,
                        theta_deg: float) -> PlaneSlice:
    """Rasterize one plane containing the source-destination line.

    The plane is the vertical reference plane through the line, rotated by
    ``theta_deg`` about the line. A planar cell is occupied when its square
    touches any occupied voxel's interior (conservative), or when it leaves
    the modeled world box (unmapped space is no-fly). Both endpoints land on
    in-plane lattice corners.

    Cell and voxel meet when the closed cell square and the open unit cube
    overlap strictly on each of up to 13 separating axes. Only voxels whose
    centre lies within ``sqrt(3)/2`` of the plane can meet a cell, and each
    such voxel is paired only with the cells its projected circumscribed
    disk can reach, plus a one-cell margin, so work and memory grow with
    cells + near voxels, not with their product. Corners, projections and
    voxel bounds use the arithmetic of a per-cell, per-voxel test (each
    cell's corners times an axis, each voxel's own dot product with it), so
    contacts that only touch are decided the same way.
    """
    if not all(map(math.isfinite, (*s3, *d3))):
        raise ValueError("source and destination must be finite")
    s = np.array(s3, dtype=np.float64)
    d = np.array(d3, dtype=np.float64)
    delta = d - s
    length = float(np.linalg.norm(delta))
    if length == 0.0:
        raise ValueError("source and destination coincide")
    u = delta / length
    zref = np.array([0.0, 0.0, 1.0])
    w0 = zref - np.dot(zref, u) * u
    if np.linalg.norm(w0) < 1e-12:
        xref = np.array([1.0, 0.0, 0.0])
        w0 = xref - np.dot(xref, u) * u
    w0 /= np.linalg.norm(w0)
    th = math.radians(theta_deg)
    w = w0 * math.cos(th) + np.cross(u, w0) * math.sin(th)

    cols_line = max(1, math.ceil(length - 1e-9))
    h = length / cols_line  # in-plane cell edge, in voxel units

    box = np.array([(x, y, z)
                    for x in (0, world.nx) for y in (0, world.ny) for z in (0, world.nz)],
                   dtype=np.float64)
    px = (box - s) @ u / h
    py = (box - s) @ w / h
    ix0, ix1 = math.floor(px.min()), math.ceil(px.max())
    iy0, iy1 = math.floor(py.min()), math.ceil(py.max())
    cols = ix1 - ix0
    rows = iy1 - iy0
    source2: Point = (-ix0, -iy0)
    dest2: Point = (-ix0 + cols_line, -iy0)

    # voxels close enough to the plane to possibly touch a cell
    occ_idx = np.argwhere(world.occupied)
    if occ_idx.size:
        centers = occ_idx + 0.5
        normal = np.cross(u, w)
        dist = np.abs((centers - s) @ normal)
        near = occ_idx[dist < math.sqrt(3.0) / 2.0 + 1e-9]
    else:
        near = occ_idx

    axes = [np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]),
            np.array([0.0, 0.0, 1.0]), np.cross(u, w)]
    for e in (u, w):
        for b in (np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]),
                  np.array([0.0, 0.0, 1.0])):
            a = np.cross(e, b)
            if np.linalg.norm(a) > 1e-12:
                axes.append(a)

    # corners of every cell quad, cell (i, j) at row j * cols + i
    xlo = np.arange(ix0, ix1, dtype=np.float64) * h
    ylo = np.arange(iy0, iy1, dtype=np.float64) * h

    def corners(x, y):
        return s + x[None, :, None] * u + y[:, None, None] * w

    quads = np.stack([corners(xlo, ylo), corners(xlo + h, ylo),
                      corners(xlo + h, ylo + h), corners(xlo, ylo + h)],
                     axis=2).reshape(rows * cols, 4, 3)
    hi_box = np.array([world.nx, world.ny, world.nz], dtype=np.float64)
    occ = ((quads < -1e-9) | (quads > hi_box + 1e-9)).any(axis=(1, 2))

    if len(near):
        # cell window reached by each voxel's projected circumscribed disk
        r = math.sqrt(3.0) / 2.0 / h
        rel = near + 0.5 - s
        cx = rel @ u / h - ix0
        cy = rel @ w / h - iy0
        i_lo = np.clip(np.floor(cx - r).astype(np.int64) - 1, 0, cols)
        i_hi = np.clip(np.floor(cx + r).astype(np.int64) + 2, 0, cols)
        j_lo = np.clip(np.floor(cy - r).astype(np.int64) - 1, 0, rows)
        j_hi = np.clip(np.floor(cy + r).astype(np.int64) + 2, 0, rows)
        width = i_hi - i_lo
        sizes = width * (j_hi - j_lo)
        vox = np.repeat(np.arange(len(near)), sizes)
        k = np.arange(len(vox)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        cell = (j_lo[vox] + k // width[vox]) * cols + i_lo[vox] + k % width[vox]

        # One axis at a time: ``quads @ a`` is each quad's own (4, 3) @ (3,)
        # product and (1, 3) @ (3, 1) each voxel's own ``v @ a``; one product
        # over all axes or all voxels would round differently.
        v = near.astype(np.float64)[:, None, :]
        ones = np.ones(3)
        for a in axes:
            proj = quads @ a
            va = (v @ a[:, None])[:, 0, 0]
            blo = np.minimum(a, 0.0) @ ones + va
            bhi = np.maximum(a, 0.0) @ ones + va
            keep = ((proj.max(axis=1)[cell] > blo[vox])
                    & (proj.min(axis=1)[cell] < bhi[vox]))
            cell, vox = cell[keep], vox[keep]
        occ[cell] = True

    grid = OccupancyGrid(rows, cols, cell_size_m=h * world.voxel_size_m,
                         occupied=occ.reshape(rows, cols))
    return PlaneSlice(theta_deg, grid, source2, dest2,
                      origin=tuple(s), axis_u=tuple(u), axis_w=tuple(w),
                      cell=h, offset=(ix0, iy0))


def plane_angles(config: PlanConfig) -> list[float]:
    """Candidate plane angles: 0, then alternating +/- multiples of the step."""
    angles = [0.0]
    i = 1
    while len(angles) < config.plane_count:
        angles.append(i * config.plane_angle_step_deg)
        if len(angles) < config.plane_count:
            angles.append(-i * config.plane_angle_step_deg)
        i += 1
    if max(abs(a) for a in angles) > 90.0 + 1e-9:
        raise ValueError("plane fan must stay within +/-90 degrees")
    return angles


def plan_rotated_planes(world: VoxelWorld, s3: Point3, d3: Point3,
                        config: PlanConfig | None = None) -> tuple[Path, float]:
    """Plan within each candidate plane and keep the shortest result.

    Returns the winning in-plane path and its angle; the winning plane is
    ``rotated_plane_slice(world, s3, d3, theta)``. Ties prefer the smaller
    angle magnitude, then the positive sign (the candidate generated first).
    Raises :class:`NoPathError` when no plane admits a route.

    The fan stops at the first plane whose route is the direct segment (two
    waypoints): every plane gives that segment the same length, and ties
    keep the earlier plane, so no later plane can win.
    """
    config = config or PlanConfig()
    if tuple(s3) == tuple(d3):
        raise ValueError("source and destination coincide")
    best: tuple[Path, float] | None = None
    for theta in plane_angles(config):
        try:
            sl = rotated_plane_slice(world, s3, d3, theta)
            path = plan2d(sl.grid, sl.source, sl.dest)
        except (NoPathError, InvalidEndpointError):
            continue
        if best is None or path.length_m < best[0].length_m:
            best = (path, theta)
        if len(path.waypoints) == 2:
            break
    if best is None:
        raise NoPathError("no candidate plane admits a route")
    return best
