"""Independent oracles used by the tests.

Each oracle recomputes an answer from first principles, without touching
the code path it checks: gift wrapping for hulls, Monte-Carlo sampling and
a per-cell separating-axis test for rasterization, per-lattice-point
recounts for the obstacle graph, a per-cell test of a segment against one
open cell, all-pairs ground-truth visibility, branch-and-bound enumeration
of simple paths, plain Dijkstra as the reference for the planner's search
order, the per-cell plane slicer as the reference for the vectorised one,
sampled points for the plane slicer, the full plane fan for the fan
that stops early, the per-character map and voxel file readers and
writers for the shared row codec, and a per-pair step along the line of
sight for the lazy graph's tangency filter.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from gridroute.errors import (DegenerateObstacleError, InvalidEndpointError,
                              MapParseError, NoPathError, OutOfBoundsError)
from gridroute.geometry import Point, Segment, euclid_distance
from gridroute.gridmap import OccupancyGrid, RealPoint, check_shape
from gridroute.obstacle_graph import ObstacleEdge
from gridroute.pathfind import Path, merge_collinear, waypoints_length
from gridroute.planner import (PlanConfig, PlaneSlice, Point3, VoxelWorld,
                               plan2d, plane_angles, rotated_plane_slice)
from gridroute.visibility import VisibilityGraph, brute_force_visible


def gift_wrap_hull(points) -> set[tuple[float, float]]:
    """Convex hull vertex set by gift wrapping (quadratic, independent)."""
    pts = sorted(set((float(x), float(y)) for x, y in points))
    if len(pts) < 3:
        raise ValueError("need at least 3 points")
    start = pts[0]
    hull = [start]
    cur = start
    while True:
        cand = pts[0] if pts[0] != cur else pts[1]
        for p in pts:
            if p == cur:
                continue
            c = ((cand[0] - cur[0]) * (p[1] - cur[1])
                 - (cand[1] - cur[1]) * (p[0] - cur[0]))
            if c < 0:
                cand = p
            elif c == 0:
                d_cand = (cand[0] - cur[0]) ** 2 + (cand[1] - cur[1]) ** 2
                d_p = (p[0] - cur[0]) ** 2 + (p[1] - cur[1]) ** 2
                if d_p > d_cand:
                    cand = p
        cur = cand
        if cur == start:
            break
        hull.append(cur)
    return set(hull)


def mc_rasterize(hull_ccw_m, grid: OccupancyGrid, samples: int = 100_000,
                 seed: int = 0) -> set[tuple[int, int]]:
    """Cells overlapping the hull with positive area, by uniform sampling.

    A cell counts as overlapped when any sample drawn from its open interior
    lands strictly inside the hull (vertices in meters, counter-clockwise).
    """
    rng = np.random.default_rng(seed)
    p = grid.cell_size_m
    pts = [(x / p, y / p) for x, y in hull_ccw_m]
    n = len(pts)
    hit = set()
    for row in range(grid.rows):
        for col in range(grid.cols):
            xs = rng.random(samples) + col
            ys = rng.random(samples) + row
            inside = np.ones(samples, dtype=bool)
            for i in range(n):
                ax, ay = pts[i]
                bx, by = pts[(i + 1) % n]
                inside &= ((bx - ax) * (ys - ay) - (by - ay) * (xs - ax)) > 0
                if not inside.any():
                    break
            if inside.any():
                hit.add((col, row))
    return hit


def _polygon_overlaps_open_cell(pts: list[RealPoint], col: int, row: int) -> bool:
    # Separating-axis test between the convex polygon and the open unit cell:
    # interiors meet iff the projections overlap strictly on every axis
    # (cell axes x and y, plus each polygon edge normal).
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    if not (max(xs) > col and min(xs) < col + 1):
        return False
    if not (max(ys) > row and min(ys) < row + 1):
        return False
    corners = ((col, row), (col + 1, row), (col + 1, row + 1), (col, row + 1))
    n = len(pts)
    for i in range(n):
        ax, ay = pts[i]
        bx, by = pts[(i + 1) % n]
        nx, ny = -(by - ay), bx - ax
        if nx == 0 and ny == 0:
            continue
        hmin = hmax = nx * pts[0][0] + ny * pts[0][1]
        for px, py in pts[1:]:
            v = nx * px + ny * py
            hmin = v if v < hmin else hmin
            hmax = v if v > hmax else hmax
        cmin = cmax = nx * corners[0][0] + ny * corners[0][1]
        for px, py in corners[1:]:
            v = nx * px + ny * py
            cmin = v if v < cmin else cmin
            cmax = v if v > cmax else cmax
        if not (hmax > cmin and hmin < cmax):
            return False
    return True


def rasterize_reference(hull, grid: OccupancyGrid) -> set[tuple[int, int]]:
    """Per-cell reference for :func:`gridroute.gridmap.rasterize_hull`.

    Mark every cell whose open interior overlaps the hull with positive area.

    Hull vertices are in meters and are scaled by the grid cell size. Cells
    that merely share an edge or corner with the hull stay free. Marking is
    cumulative across calls and returns the set of cells marked by this hull.
    Raises :class:`OutOfBoundsError` if the hull leaves the grid region.
    """
    p = grid.cell_size_m
    pts = [(float(x) / p, float(y) / p) for x, y in hull]
    if len(pts) < 3:
        raise DegenerateObstacleError("hull needs at least 3 vertices")
    xs = [q[0] for q in pts]
    ys = [q[1] for q in pts]
    if min(xs) < 0 or min(ys) < 0 or max(xs) > grid.cols or max(ys) > grid.rows:
        raise OutOfBoundsError("obstacle hull extends beyond the grid region")
    cells: set[tuple[int, int]] = set()
    for row in range(max(0, math.floor(min(ys))), min(grid.rows, math.ceil(max(ys)))):
        for col in range(max(0, math.floor(min(xs))), min(grid.cols, math.ceil(max(xs)))):
            if _polygon_overlaps_open_cell(pts, col, row):
                cells.add((col, row))
    grid.mark_cells(cells)
    return cells


def incident_cells(grid: OccupancyGrid, p) -> int:
    """Occupied cells among the four around lattice point ``p``."""
    x, y = p
    return sum(grid.is_occupied(cx, cy) for cx in (x - 1, x) for cy in (y - 1, y))


def recount_marked(grid: OccupancyGrid) -> set[tuple[int, int]]:
    """Lattice points whose four surrounding cells are all occupied."""
    return {(x, y) for y in range(grid.rows + 1) for x in range(grid.cols + 1)
            if incident_cells(grid, (x, y)) == 4}


def recount_obstacle_graph(grid: OccupancyGrid) -> tuple[list, set, list]:
    """``(vertices, marked, edges)`` of the obstacle graph, recounted per
    lattice point in the graph's documented orders: vertices row-major by
    (y, x); edges as ``ObstacleEdge`` records, horizontal row-major, then
    vertical row-major, each with the occupied cells it bounds."""
    occ = grid.is_occupied
    lattice = [(x, y) for y in range(grid.rows + 1) for x in range(grid.cols + 1)]
    vertices = [p for p in lattice if incident_cells(grid, p)]
    edges = [ObstacleEdge((x, y), (x + 1, y), occ(x, y - 1) + occ(x, y))
             for x, y in lattice if x < grid.cols and (occ(x, y - 1) or occ(x, y))]
    edges += [ObstacleEdge((x, y), (x, y + 1), occ(x - 1, y) + occ(x, y))
              for x, y in lattice if y < grid.rows and (occ(x - 1, y) or occ(x, y))]
    return vertices, recount_marked(grid), edges


def recount_blocking(grid: OccupancyGrid) -> set[tuple[tuple[int, int], tuple[int, int]]]:
    """Unit edges shared by two occupied cells, recounted from adjacency."""
    out = set()
    for y in range(grid.rows):
        for x in range(1, grid.cols):
            if grid.is_occupied(x - 1, y) and grid.is_occupied(x, y):
                out.add(((x, y), (x, y + 1)))
    for y in range(1, grid.rows):
        for x in range(grid.cols):
            if grid.is_occupied(x, y - 1) and grid.is_occupied(x, y):
                out.add(((x, y), (x + 1, y)))
    return out


def segment_crosses_open_cell(seg: Segment, cell: tuple[int, int]) -> bool:
    """True iff the relative interior of ``seg`` meets the open unit cell.

    The cell ``(col, row)`` is the open square (col, col+1) x (row, row+1).
    Axis-parallel segments between lattice points lie on lattice lines and
    never enter an open cell. For the rest, the parameter interval where the
    segment is strictly inside the cell is intersected exactly using integer
    numerators over a common positive denominator.
    """
    (x1, y1), (x2, y2) = seg
    dx, dy = x2 - x1, y2 - y1
    if dx == 0 and dy == 0:
        raise ValueError("degenerate segment")
    if dx == 0 or dy == 0:
        return False
    if dx < 0:
        x1, y1, dx, dy = x2, y2, -dx, -dy
    col, row = cell
    ady = dy if dy > 0 else -dy
    q = dx * ady  # t = n / q with q > 0
    xlo = (col - x1) * ady
    xhi = xlo + ady
    if dy > 0:
        ylo = (row - y1) * dx
    else:
        ylo = (y1 - row - 1) * dx
    yhi = ylo + dx
    lo = max(xlo, ylo, 0)
    hi = min(xhi, yhi, q)
    return lo < hi


def oracle_visibility_edges(grid: OccupancyGrid, vertices) -> set:
    """All-pairs ground-truth edge set over the given vertices."""
    vs = sorted(vertices)
    return {(u, v) for i, u in enumerate(vs) for v in vs[i + 1:]
            if brute_force_visible(u, v, grid)}


def oracle_visibility_graph(grid: OccupancyGrid, vertices) -> VisibilityGraph:
    """Visibility graph built solely from the ground-truth predicate."""
    edges = {pair: euclid_distance(*pair) * grid.cell_size_m
             for pair in oracle_visibility_edges(grid, vertices)}
    return VisibilityGraph(sorted(vertices), edges, grid.cell_size_m)


def tangent_reference(grid: OccupancyGrid, v: Point, t: Point, endpoints) -> bool:
    """Whether the lazy graph keeps the pair ``v``, ``t`` when ``t`` is
    visible from ``v``: always for a same-row, same-column or 45-degree
    pair; for any other pair iff the line through ``v`` and ``t``, stepped
    on past each end that is not in ``endpoints``, lands in a free cell or
    off the grid. The step is ``d / (2 m)`` with ``m = max(|dx|, |dy|)``,
    half a cell along the longer axis, so it stops strictly inside the open
    cell at that corner; the cell is the step's end floored, in integers
    scaled by ``2 m``."""
    (vx, vy), (tx, ty) = v, t
    dx, dy = tx - vx, ty - vy
    if dx == 0 or dy == 0 or abs(dx) == abs(dy):
        return True
    scale = 2 * max(abs(dx), abs(dy))
    for (px, py), sign in ((v, -1), (t, 1)):
        if (px, py) in endpoints:
            continue
        col = (scale * px + sign * dx) // scale
        row = (scale * py + sign * dy) // scale
        if 0 <= col < grid.cols and 0 <= row < grid.rows and grid.occupied[row, col]:
            return False
    return True


def min_simple_path_length(gv: VisibilityGraph, source, dest) -> float | None:
    """Length of the best simple path by exhaustive branch-and-bound DFS.

    Prunes only with the straight-line lower bound, which cannot cut a
    strictly better path. Returns None when the destination is unreachable.
    """
    if source == dest:
        return 0.0
    p = gv.cell_size_m
    best = [math.inf]
    visited = {source}

    def dfs(v, dist):
        for q, w in gv.neighbors(v):
            if q in visited:
                continue
            nd = dist + w
            if q == dest:
                if nd < best[0]:
                    best[0] = nd
                continue
            if nd + euclid_distance(q, dest) * p >= best[0] - 1e-12:
                continue
            visited.add(q)
            dfs(q, nd)
            visited.remove(q)

    dfs(source, 0.0)
    return None if math.isinf(best[0]) else best[0]


def dijkstra_reference(gv, source, dest) -> Path | None:
    """Plain Dijkstra with heap key ``(dist, hops, waypoints)``, the tie order
    the planner documents; None when the destination is unreachable."""
    heap = [(0.0, 1, (source,))]
    done = set()
    while heap:
        dist, hops, wp = heapq.heappop(heap)
        v = wp[-1]
        if v in done:
            continue
        done.add(v)
        if v == dest:
            merged = merge_collinear(wp)
            return Path(tuple(merged), waypoints_length(merged, gv.cell_size_m))
        for q, w in gv.neighbors(v):
            if q not in done:
                heapq.heappush(heap, (dist + w, hops + 1, wp + (q,)))
    return None


def _quad_hits_voxel_interior(quad: np.ndarray, axes: list[np.ndarray],
                              voxel: tuple[int, int, int]) -> bool:
    # Separating-axis test between the (closed) planar cell quad and the open
    # unit cube: interiors meet iff projections overlap strictly on every axis.
    v = np.array(voxel, dtype=np.float64)
    for a in axes:
        proj = quad @ a
        qlo, qhi = proj.min(), proj.max()
        blo = float(np.minimum(a, 0.0) @ np.ones(3) + v @ a)
        bhi = float(np.maximum(a, 0.0) @ np.ones(3) + v @ a)
        if not (qhi > blo and qlo < bhi):
            return False
    return True


def slice_reference(world: VoxelWorld, s3: Point3, d3: Point3,
                    theta_deg: float) -> PlaneSlice:
    """Reference for :func:`gridroute.planner.rotated_plane_slice`: the same
    separating-axis test, run per cell and per near voxel in Python.

    Rasterize one plane containing the source-destination line.

    The plane is the vertical reference plane through the line, rotated by
    ``theta_deg`` about the line. A planar cell is occupied when its square
    touches any occupied voxel's interior (conservative), or when it leaves
    the modeled world box (unmapped space is no-fly). Both endpoints land on
    in-plane lattice corners.
    """
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
    voxels = [tuple(int(c) for c in v) for v in near]

    axes = [np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]),
            np.array([0.0, 0.0, 1.0]), np.cross(u, w)]
    for e in (u, w):
        for b in (np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]),
                  np.array([0.0, 0.0, 1.0])):
            a = np.cross(e, b)
            if np.linalg.norm(a) > 1e-12:
                axes.append(a)

    occ = np.zeros((rows, cols), dtype=bool)
    hi_box = np.array([world.nx, world.ny, world.nz], dtype=np.float64)
    for j in range(rows):
        for i in range(cols):
            xlo, ylo = (i + ix0) * h, (j + iy0) * h
            quad = np.array([s + xlo * u + ylo * w,
                             s + (xlo + h) * u + ylo * w,
                             s + (xlo + h) * u + (ylo + h) * w,
                             s + xlo * u + (ylo + h) * w])
            if (quad < -1e-9).any() or (quad > hi_box + 1e-9).any():
                occ[j, i] = True
                continue
            for vox in voxels:
                if _quad_hits_voxel_interior(quad, axes, vox):
                    occ[j, i] = True
                    break
    grid = OccupancyGrid(rows, cols, cell_size_m=h * world.voxel_size_m, occupied=occ)
    return PlaneSlice(theta_deg, grid, source2, dest2,
                      origin=tuple(s), axis_u=tuple(u), axis_w=tuple(w),
                      cell=h, offset=(ix0, iy0))


def mc_slice_must_occupy(world: VoxelWorld, sl: PlaneSlice, samples: int = 8,
                         seed: int = 0) -> tuple[set, set]:
    """Cells of a plane slice that sampling proves must be occupied.

    Draws points strictly inside each cell square and maps them to voxel
    space with ``sl.to_world``. Returns the cells with a sample in the open
    interior of an occupied voxel, and the cells with a sample more than
    1e-9 outside the world box, as two sets of (col, row).
    """
    rng = np.random.default_rng(seed)
    rows, cols = sl.grid.rows, sl.grid.cols
    jitter = 0.001 + 0.998 * rng.random((rows, cols, samples, 2))
    pts = np.array([sl.to_world(col + dx, row + dy)
                    for row in range(rows) for col in range(cols)
                    for dx, dy in jitter[row, col]]).reshape(rows, cols, samples, 3)
    hi = np.array([world.nx, world.ny, world.nz], dtype=np.float64)
    outside = ((pts < -1e-9) | (pts > hi + 1e-9)).any(axis=(2, 3))
    idx = np.floor(pts).astype(np.int64)
    interior = ((pts > idx) & (pts < idx + 1)).all(axis=3)
    inbox = ((idx >= 0) & (idx < hi.astype(np.int64))).all(axis=3)
    safe = np.where(inbox[..., None], idx, 0)
    hit = (interior & inbox
           & world.occupied[safe[..., 0], safe[..., 1], safe[..., 2]]).any(axis=2)
    return ({(int(c), int(r)) for r, c in np.argwhere(hit)},
            {(int(c), int(r)) for r, c in np.argwhere(outside)})


def fan_reference(world: VoxelWorld, s3: Point3, d3: Point3,
                  config: PlanConfig | None = None):
    """The plane fan without its early stop: plan every plane of the fan and
    keep the first strictly shortest route. Returns ``(path, theta, slice)``,
    or None when no plane admits a route."""
    config = config or PlanConfig()
    best = None
    for theta in plane_angles(config):
        try:
            sl = rotated_plane_slice(world, s3, d3, theta)
            path = plan2d(sl.grid, sl.source, sl.dest)
        except (NoPathError, InvalidEndpointError):
            continue
        if best is None or path.length_m < best[0].length_m:
            best = (path, theta, sl)
    return best


def parse_map_reference(text: str) -> tuple[OccupancyGrid, Point | None, Point | None]:
    """Parse the text map format; returns (grid, source, dest).

    Format, one item per line: a ``rows cols cell_size`` header, then
    ``rows`` lines of ``#``/``.`` characters (first line is the top row,
    y = rows - 1), then optional ``S x y`` and ``D x y`` lattice points.
    """
    lines = text.splitlines()
    if not lines:
        raise MapParseError("empty map", 1)
    head = lines[0].split()
    if len(head) != 3:
        raise MapParseError("header must be '<rows> <cols> <cell_size_m>'", 1)
    try:
        rows, cols, cell = int(head[0]), int(head[1]), float(head[2])
    except ValueError:
        raise MapParseError("malformed header numbers", 1) from None
    try:
        check_shape((rows, cols), cell)
    except ValueError as exc:
        raise MapParseError(str(exc), 1) from None
    # the grid is allocated once its rows are read, not from the header alone
    if len(lines) < rows + 1:
        raise MapParseError(f"expected {rows} row lines", len(lines) + 1)
    cells: list[tuple[int, int]] = []
    for line_no, row_text in enumerate(lines[1:rows + 1], start=2):
        if len(row_text) != cols:
            raise MapParseError(f"expected {cols} characters, got {len(row_text)}", line_no)
        y = rows + 1 - line_no
        for x, ch in enumerate(row_text):
            if ch == "#":
                cells.append((x, y))
            elif ch != ".":
                raise MapParseError(f"unknown character {ch!r}", line_no)
    grid = OccupancyGrid(rows, cols, cell)
    grid.mark_cells(cells)
    source: Point | None = None
    dest: Point | None = None
    for j, extra in enumerate(lines[rows + 1:]):
        line_no = rows + 2 + j
        if not extra.strip():
            raise MapParseError("unexpected blank line", line_no)
        parts = extra.split()
        if len(parts) != 3 or parts[0] not in ("S", "D"):
            raise MapParseError("expected 'S x y' or 'D x y'", line_no)
        try:
            p = (int(parts[1]), int(parts[2]))
        except ValueError:
            raise MapParseError("endpoint coordinates must be integers", line_no) from None
        if not grid.in_lattice(p):
            raise MapParseError(f"{parts[0]} {p} outside lattice bounds", line_no)
        if parts[0] == "S":
            source = p
        else:
            dest = p
    return grid, source, dest


def serialize_map_reference(grid: OccupancyGrid, source: Point | None = None,
                  dest: Point | None = None) -> str:
    """Canonical text form of a grid; inverse of :func:`parse_map`."""
    out = [f"{grid.rows} {grid.cols} {grid.cell_size_m!r}"]
    for y in range(grid.rows - 1, -1, -1):
        out.append("".join("#" if grid.occupied[y, x] else "." for x in range(grid.cols)))
    if source is not None:
        out.append(f"S {source[0]} {source[1]}")
    if dest is not None:
        out.append(f"D {dest[0]} {dest[1]}")
    return "\n".join(out) + "\n"


def parse_voxels_reference(text: str) -> VoxelWorld:
    """Parse the voxel file format: an ``nx ny nz voxel_size`` header, then
    nz blocks of ny rows of nx characters (z ascending, first row of each
    block is y = ny - 1), blocks separated by one blank line and nothing
    after the last one."""
    lines = text.splitlines()
    if not lines:
        raise MapParseError("empty voxel file", 1)
    head = lines[0].split()
    if len(head) != 4:
        raise MapParseError("header must be '<nx> <ny> <nz> <voxel_size_m>'", 1)
    try:
        nx, ny, nz, size = int(head[0]), int(head[1]), int(head[2]), float(head[3])
    except ValueError:
        raise MapParseError("malformed header numbers", 1) from None
    try:
        check_shape((nx, ny, nz), size)
    except ValueError as exc:
        raise MapParseError(str(exc), 1) from None
    voxels: list[tuple[int, int, int]] = []
    ln = 1
    for z in range(nz):
        if z > 0:
            if ln >= len(lines) or lines[ln].strip():
                raise MapParseError("expected blank line between blocks", ln + 1)
            ln += 1
        for y in range(ny - 1, -1, -1):
            if ln >= len(lines):
                raise MapParseError(f"expected {ny} rows in block {z}", ln + 1)
            row = lines[ln]
            if len(row) != nx:
                raise MapParseError(f"expected {nx} characters, got {len(row)}", ln + 1)
            for x, ch in enumerate(row):
                if ch == "#":
                    voxels.append((x, y, z))
                elif ch != ".":
                    raise MapParseError(f"unknown character {ch!r}", ln + 1)
            ln += 1
    if ln < len(lines):
        raise MapParseError("unexpected line after the last block", ln + 1)
    world = VoxelWorld(nx, ny, nz, size)
    for v in voxels:
        world.occupied[v] = True
    return world


def serialize_voxels_reference(world: VoxelWorld) -> str:
    """Canonical text form of a voxel world; inverse of :func:`parse_voxels`."""
    out = [f"{world.nx} {world.ny} {world.nz} {world.voxel_size_m!r}"]
    for z in range(world.nz):
        if z > 0:
            out.append("")
        for y in range(world.ny - 1, -1, -1):
            out.append("".join("#" if world.occupied[x, y, z] else "."
                               for x in range(world.nx)))
    return "\n".join(out) + "\n"
