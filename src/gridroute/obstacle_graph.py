"""Obstacle graph: corner vertices and unit bounding edges of occupied cells.

Vertices are the lattice corners touched by at least one occupied cell; a
vertex shared by all four surrounding cells is interior to a larger obstacle,
is marked, and never participates in visibility. Edges are the unit bounding
edges of occupied cells; an edge shared by two occupied cells is a blocking
edge: it obstructs collinear lines of sight and may not be flown along.

Everything is built from the occupied cells' coordinates, so memory and
build time follow the obstacles, not the grid area. One table records which
of each vertex's four cells are occupied; the marked set, the unmarked
vertices in sorted order with their cells, flat edge coordinates for the
rotational sweep, and one sorted index of the lattice features that block
axis and 45-degree lines of sight, which :meth:`ObstacleGraph.clear`
searches, are masks on it. The vertex list and the per-edge records are
built on first access.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

import numpy as np

from .geometry import Point
from .gridmap import OccupancyGrid


# blocker family of a segment (0 column, 1 row, 2 ascending, 3 descending)
# at 3 * sign(dx) + sign(dy) + 4
_FAMILY = np.array([2, 1, 3, 0, 0, 0, 3, 1, 2])


class ObstacleEdge(NamedTuple):
    a: Point
    b: Point
    shared_obstacle_cells: int

    @property
    def blocking(self) -> bool:
        return self.shared_obstacle_cells == 2


class ObstacleGraph:
    """Corner-vertex graph of a grid's occupied cells.

    Deterministic ordering: vertices row-major by (y, x); edges are all
    horizontal edges row-major, then all vertical edges row-major.
    Immutable once built.

    Every structure is a mask on one corner table, ``occ[q, i]``: the cell
    on side ``q = 2 * (s_x > 0) + (s_y > 0)`` of vertex ``i`` is occupied,
    so cell (x, y) is side 3 of (x, y), 1 of (x + 1, y), 2 of (x, y + 1)
    and 0 of (x + 1, y + 1), and the opposite side is ``3 - q``.

    * marked: all four sides occupied;
    * horizontal edge (x, y)-(x + 1, y): side 3 or 2 of (x, y), blocking
      when both; vertical edge (x, y)-(x, y + 1): side 3 or 1, blocking
      when both;
    * left-bottom corners of occupied cells: side 3; left-top: side 2.

    The unmarked vertices keep their columns of the table, in their sorted
    order, for the tangency filter of
    :class:`~gridroute.visibility.LazyVisibilityGraph`.

    The blocker index is one sorted int64 array of (line, position) keys in
    four families, each family on its own range of lines:

    * vertical blocking edges (x, y)-(x, y + 1): line x, position y;
    * horizontal blocking edges (x, y)-(x + 1, y): line y, position x;
    * left-bottom corners (x, y) of occupied cells: line x - y + rows,
      position x;
    * left-top corners (x, y) of occupied cells: line x + y, position x.
    """

    def __init__(self, grid: OccupancyGrid):
        self.grid = grid
        rows, cols = grid.rows, grid.cols
        cy, cx = (a.astype(np.int64) for a in np.nonzero(grid.occupied))

        # lattice point (x, y) keyed y * (cols + 1) + x, so sorted is row-major
        width = cols + 1
        corner = cy * width + cx
        keys, incident = np.unique(
            np.concatenate((corner, corner + 1, corner + width, corner + width + 1)),
            return_counts=True)
        self._vy, self._vx = np.divmod(keys, width)
        # the corner table, numbered as in the class docstring
        occ = np.zeros((4, len(keys)), dtype=bool)
        for q, offset in ((3, 0), (1, 1), (2, width), (0, width + 1)):
            occ[q, np.searchsorted(keys, corner + offset)] = True
        inner = incident == 4
        self.marked: frozenset[Point] = frozenset(
            zip(self._vx[inner].tolist(), self._vy[inner].tolist()))
        # unmarked vertices in sorted (x, y) order, the candidates' order
        ux, uy = self._vx[~inner], self._vy[~inner]
        order = np.lexsort((uy, ux))
        self._ux, self._uy = ux[order], uy[order]
        self._uocc = occ[:, ~inner][:, order]

        # each family of edges is row-major, like the vertices
        up = occ[3].astype(np.int64)
        hshared, vshared = up + occ[2], up + occ[1]
        h, v = hshared > 0, vshared > 0
        hx, hy, vx, vy = self._vx[h], self._vy[h], self._vx[v], self._vy[v]

        # flat arrays for the sweep and the stabbing kernel, in edge order
        self._eax = np.concatenate((hx, vx))
        self._eay = np.concatenate((hy, vy))
        self._ebx = self._eax + np.concatenate((np.ones_like(hx), np.zeros_like(vx)))
        self._eby = self._eay + np.concatenate((np.zeros_like(hy), np.ones_like(vy)))
        self._eshared = np.concatenate((hshared[h], vshared[v]))

        # key (line + family * span) * stride + position, linear in (x, y)
        # for each family
        stride, span = max(rows, cols) + 1, rows + cols + 1
        self._kx = np.array([stride, 1, stride + 1, stride + 1])
        self._ky = np.array([1, stride, -stride, stride])
        self._k0 = np.array([0, span, 2 * span + rows, 3 * span]) * stride
        family = (occ[3] & occ[1], occ[3] & occ[2], occ[3], occ[2])
        self._blockers = np.sort(np.concatenate([
            self._keys(f, self._vx[m], self._vy[m]) for f, m in enumerate(family)]))

    def _keys(self, family, x, y):
        """Blocker-index keys of lattice points (x, y) on the line of the
        given family (0 column, 1 row, 2 ascending, 3 descending) through
        them; numpy arrays or scalars, broadcast together."""
        return self._kx[family] * x + self._ky[family] * y + self._k0[family]

    def clear(self, ax, ay, bx, by):
        """True where the axis-parallel or 45-degree segment from (ax, ay) to
        (bx, by) meets no blocker: no blocking edge overlaps a column or row
        segment, and a diagonal leaves no lattice point rightwards, its own
        left end included, that is the left-bottom (ascending) or left-top
        (descending) corner of an occupied cell. Vectorised over numpy
        arrays or scalars; each segment costs two binary searches.
        """
        # both ends key the same line, so the two counts differ iff a key
        # lies between them: a blocker from the lower position on
        family = _FAMILY[3 * np.sign(bx - ax) + np.sign(by - ay) + 4]
        index = self._blockers
        return (np.searchsorted(index, self._keys(family, ax, ay))
                == np.searchsorted(index, self._keys(family, bx, by)))

    @cached_property
    def vertices(self) -> list[Point]:
        return list(zip(self._vx.tolist(), self._vy.tolist()))

    @cached_property
    def edges(self) -> list[ObstacleEdge]:
        return [ObstacleEdge((ax, ay), (bx, by), shared)
                for ax, ay, bx, by, shared in zip(
                    self._eax.tolist(), self._eay.tolist(), self._ebx.tolist(),
                    self._eby.tolist(), self._eshared.tolist())]


def build_obstacle_graph(grid: OccupancyGrid) -> ObstacleGraph:
    return ObstacleGraph(grid)
