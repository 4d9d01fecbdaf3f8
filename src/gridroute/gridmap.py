"""Occupancy grids: construction, convex-hull rasterization and text I/O.

A grid of ``rows x cols`` unit cells discretizes a rectangular region at a
chosen precision (the cell size in meters). Each cell is wholly obstacle or
wholly free; obstacle polygons are replaced by their convex hull and any
cell whose open interior overlaps the hull with positive area is marked.
One numpy separating-axis pass decides all cells of the hull's bounding
box; they overlap the hull on x and y by construction, so only the hull's
edge normals are tested.
The lattice origin (0, 0) is the lower-left corner; map files list rows
top to bottom so the first data line is the top row.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .errors import DegenerateObstacleError, MapParseError, OutOfBoundsError
from .geometry import Point

RealPoint = tuple[float, float]


def check_shape(dims: tuple[int, ...], cell_size_m: float) -> None:
    """Raise ValueError unless each dimension is at least 1 and the cell size positive."""
    if min(dims) < 1:
        raise ValueError(f"every dimension must be at least 1, got {dims}")
    if not (cell_size_m > 0):
        raise ValueError("cell size must be positive")


class OccupancyGrid:
    """Boolean obstacle field over ``rows x cols`` cells of size ``cell_size_m``.

    ``occupied`` is a numpy bool array indexed ``[row, col]``; use
    :meth:`is_occupied` for (col, row) access. Construction is single-writer;
    once built the grid is treated as immutable and may be shared freely.
    """

    __slots__ = ("rows", "cols", "cell_size_m", "occupied")

    def __init__(self, rows: int, cols: int, cell_size_m: float = 1.0,
                 occupied: np.ndarray | None = None):
        check_shape((rows, cols), cell_size_m)
        self.rows = int(rows)
        self.cols = int(cols)
        self.cell_size_m = float(cell_size_m)
        if occupied is None:
            self.occupied = np.zeros((self.rows, self.cols), dtype=bool)
        else:
            arr = np.array(occupied, dtype=bool, copy=True)
            if arr.shape != (self.rows, self.cols):
                raise ValueError("occupancy array shape does not match dimensions")
            self.occupied = arr

    def is_occupied(self, col: int, row: int) -> bool:
        if 0 <= col < self.cols and 0 <= row < self.rows:
            return bool(self.occupied[row, col])
        return False

    def mark_cell(self, col: int, row: int) -> None:
        if not (0 <= col < self.cols and 0 <= row < self.rows):
            raise OutOfBoundsError(f"cell ({col}, {row}) outside {self.rows}x{self.cols} grid")
        self.occupied[row, col] = True

    def mark_cells(self, cells) -> None:
        for col, row in cells:
            self.mark_cell(col, row)

    def occupied_cells(self) -> list[tuple[int, int]]:
        """All occupied (col, row) pairs, row-major order."""
        return [(int(c), int(r)) for r, c in np.argwhere(self.occupied)]

    def occupied_count(self) -> int:
        return int(self.occupied.sum())

    def in_lattice(self, p: Point) -> bool:
        """True iff ``p`` is a corner-lattice point of this grid."""
        x, y = p
        return 0 <= x <= self.cols and 0 <= y <= self.rows

    def copy(self) -> "OccupancyGrid":
        return OccupancyGrid(self.rows, self.cols, self.cell_size_m, self.occupied)

    def __eq__(self, other) -> bool:
        if not isinstance(other, OccupancyGrid):
            return NotImplemented
        return (self.rows == other.rows and self.cols == other.cols
                and self.cell_size_m == other.cell_size_m
                and bool(np.array_equal(self.occupied, other.occupied)))

    def __repr__(self) -> str:
        return (f"OccupancyGrid({self.rows}x{self.cols}, cell={self.cell_size_m}, "
                f"occupied={self.occupied_count()})")


def discretize_dimensions(region_rows_m: float, region_cols_m: float,
                          precision_m: float) -> tuple[int, int]:
    """Cell counts covering a region of the given size at the given precision.

    Rows and columns are the ceilings of the exact quotients; computed with
    rational arithmetic so float dust cannot push a quotient past an integer.
    """
    if not (region_rows_m > 0 and region_cols_m > 0 and precision_m > 0):
        raise ValueError("region dimensions and precision must be positive")
    p = Fraction(precision_m)
    rows = math.ceil(Fraction(region_rows_m) / p)
    cols = math.ceil(Fraction(region_cols_m) / p)
    return rows, cols


def convex_hull(points) -> list[RealPoint]:
    """Minimal convex polygon containing all points, counter-clockwise.

    Collinear boundary points are dropped. Raises
    :class:`DegenerateObstacleError` for fewer than 3 distinct points or an
    all-collinear input.
    """
    pts = sorted(set((float(x), float(y)) for x, y in points))
    if len(pts) < 3:
        raise DegenerateObstacleError("hull needs at least 3 distinct points")

    def turn(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    def half(seq):
        h = []
        for p in seq:
            while len(h) >= 2 and turn(h[-2], h[-1], p) <= 0:
                h.pop()
            h.append(p)
        return h

    lower = half(pts)
    upper = half(reversed(pts))
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 3:
        raise DegenerateObstacleError("points are collinear")
    return hull


def rasterize_hull(hull, grid: OccupancyGrid) -> set[tuple[int, int]]:
    """Mark every cell whose open interior overlaps the hull with positive area.

    Hull vertices are in meters and are scaled by the grid cell size. Cells
    that merely share an edge or corner with the hull stay free. Marking is
    cumulative across calls and returns the set of cells marked by this hull.
    Raises :class:`OutOfBoundsError` if the hull leaves the grid region or
    has a non-finite vertex.

    One separating-axis pass over the bounding-box cells, ``floor(min)`` to
    ``ceil(max) - 1`` on each axis, which overlap the hull strictly on x and
    y by construction: a cell is kept iff, on every non-zero edge normal, the
    projection of its four corners overlaps the hull's strictly.
    """
    p = grid.cell_size_m
    pts = [(float(x) / p, float(y) / p) for x, y in hull]
    if len(pts) < 3:
        raise DegenerateObstacleError("hull needs at least 3 vertices")
    xs, ys = np.array(pts).T
    # numpy minima and maxima propagate NaN, which fails every comparison
    if not (xs.min() >= 0 and ys.min() >= 0
            and xs.max() <= grid.cols and ys.max() <= grid.rows):
        raise OutOfBoundsError("obstacle hull extends beyond the grid region")
    x0, y0 = math.floor(xs.min()), math.floor(ys.min())
    # the four corners of every box cell, as (4, 1, cols) and (4, rows, 1)
    cx = np.arange(x0, math.ceil(xs.max())) + np.array([0, 1, 1, 0])[:, None, None]
    cy = np.arange(y0, math.ceil(ys.max()))[:, None] + np.array([0, 0, 1, 1])[:, None, None]
    keep = np.ones((cy.shape[1], cx.shape[2]), dtype=bool)
    for (ax, ay), (bx, by) in zip(pts, pts[1:] + pts[:1]):
        nx, ny = -(by - ay), bx - ax
        if nx == 0 and ny == 0:
            continue
        h = nx * xs + ny * ys
        c = nx * cx + ny * cy
        keep &= (h.max() > c.min(axis=0)) & (h.min() < c.max(axis=0))
    grid.occupied[y0:y0 + keep.shape[0], x0:x0 + keep.shape[1]] |= keep
    rows, cols = np.nonzero(keep)
    return set(zip((cols + x0).tolist(), (rows + y0).tolist()))


def parse_map(text: str) -> tuple[OccupancyGrid, Point | None, Point | None]:
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


def serialize_map(grid: OccupancyGrid, source: Point | None = None,
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
