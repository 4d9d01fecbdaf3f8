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
Map files and :mod:`gridroute.planner`'s voxel files share one reader,
:func:`read_header` and :func:`read_rows`, and one writer, :func:`write_rows`.
A block of rows is checked first for its row count, then row by row for
the width and then the characters.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .errors import DegenerateObstacleError, MapParseError, OutOfBoundsError
from .geometry import Point, cross

RealPoint = tuple[float, float]


def check_shape(dims: tuple[int, ...], cell_size_m: float) -> None:
    """Raise ValueError unless each dimension is at least 1 and the cell size in (0, inf)."""
    if min(dims) < 1:
        raise ValueError(f"every dimension must be at least 1, got {dims}")
    if not (cell_size_m > 0):
        raise ValueError("cell size must be positive")
    if cell_size_m == math.inf:
        raise ValueError("cell size must be finite")


def occupancy_array(dims: tuple[int, ...], cell_size_m: float,
                    occupied: np.ndarray | None) -> np.ndarray:
    """A new grid's or voxel world's cells after :func:`check_shape`: all
    free, or a bool copy of ``occupied``, which must have shape ``dims``."""
    check_shape(dims, cell_size_m)
    shape = tuple(int(d) for d in dims)
    if occupied is None:
        return np.zeros(shape, dtype=bool)
    arr = np.array(occupied, dtype=bool, copy=True)
    if arr.shape != shape:
        raise ValueError("occupancy array shape does not match dimensions")
    return arr


class OccupancyGrid:
    """Boolean obstacle field over ``rows x cols`` cells of size ``cell_size_m``.

    ``occupied`` is a numpy bool array indexed ``[row, col]``; use
    :meth:`is_occupied` for (col, row) access. Construction is single-writer;
    once built the grid is treated as immutable and may be shared freely.
    """

    __slots__ = ("rows", "cols", "cell_size_m", "occupied")

    def __init__(self, rows: int, cols: int, cell_size_m: float = 1.0,
                 occupied: np.ndarray | None = None):
        self.occupied = occupancy_array((rows, cols), cell_size_m, occupied)
        self.rows, self.cols = self.occupied.shape
        self.cell_size_m = float(cell_size_m)

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
        """True iff ``p`` is a corner-lattice point of this grid, in integers."""
        x, y = p
        return (isinstance(x, (int, np.integer)) and isinstance(y, (int, np.integer))
                and 0 <= x <= self.cols and 0 <= y <= self.rows)

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
    if not all(0 < v < math.inf for v in (region_rows_m, region_cols_m, precision_m)):
        raise ValueError("region dimensions and precision must be positive and finite")
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

    def half(seq):
        h = []
        for p in seq:
            while len(h) >= 2 and cross(h[-2], h[-1], p) <= 0:
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


def read_header(lines: list[str], fields: str, empty: str) -> tuple[tuple[int, ...], float]:
    """Dimensions and cell size from a header of ``fields``, such as
    ``'<rows> <cols> <cell_size_m>'``; every fault is at line 1."""
    if not lines:
        raise MapParseError(empty, 1)
    head = lines[0].split()
    if len(head) != len(fields.split()):
        raise MapParseError(f"header must be '{fields}'", 1)
    try:
        dims, size = tuple(int(v) for v in head[:-1]), float(head[-1])
    except ValueError:
        raise MapParseError("malformed header numbers", 1) from None
    try:
        check_shape(dims, size)
    except ValueError as exc:
        raise MapParseError(str(exc), 1) from None
    return dims, size


def read_rows(lines: list[str], start: int, count: int, width: int,
              missing: str) -> np.ndarray:
    """``count`` rows of ``width`` ``#``/``.`` characters from ``lines[start]``
    on, as a ``(count, width)`` bool array, True at ``#``, first row first.

    Raises ``missing`` after the last line unless all rows are there, before
    any allocation of that size; then names the first row of wrong width or
    with a wrong character."""
    if len(lines) < start + count:
        raise MapParseError(missing, len(lines) + 1)
    block = lines[start:start + count]
    good = next((i for i, row in enumerate(block) if len(row) != width), count)
    text = "".join(block[:good])
    rest = text.lstrip("#.")
    if rest:
        raise MapParseError(f"unknown character {rest[0]!r}",
                            start + (len(text) - len(rest)) // width + 1)
    if good < count:
        raise MapParseError(f"expected {width} characters, got {len(block[good])}",
                            start + good + 1)
    cells = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    return (cells == ord("#")).reshape(count, width)


def write_rows(block: np.ndarray) -> str:
    """The rows of a 2D bool array as ``#``/``.`` lines, first row first,
    joined by newlines; the inverse of :func:`read_rows`."""
    rows, width = block.shape
    chars = np.full((rows, width + 1), ord("."), dtype=np.uint8)
    chars[:, :width][block] = ord("#")
    chars[:, width] = ord("\n")
    return chars.tobytes().decode("ascii")[:-1]


def parse_map(text: str) -> tuple[OccupancyGrid, Point | None, Point | None]:
    """Parse the text map format; returns (grid, source, dest).

    Format, one item per line: a ``rows cols cell_size`` header, then
    ``rows`` lines of ``#``/``.`` characters (first line is the top row,
    y = rows - 1), then optional ``S x y`` and ``D x y`` lattice points.
    """
    lines = text.splitlines()
    (rows, cols), cell = read_header(lines, "<rows> <cols> <cell_size_m>", "empty map")
    block = read_rows(lines, 1, rows, cols, f"expected {rows} row lines")
    grid = OccupancyGrid(rows, cols, cell, block[::-1])
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
    out = [f"{grid.rows} {grid.cols} {grid.cell_size_m!r}", write_rows(grid.occupied[::-1])]
    if source is not None:
        out.append(f"S {source[0]} {source[1]}")
    if dest is not None:
        out.append(f"D {dest[0]} {dest[1]}")
    return "\n".join(out) + "\n"
