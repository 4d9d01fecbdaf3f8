"""Obstacle graph: corner vertices and unit bounding edges of occupied cells.

Vertices are the lattice corners touched by at least one occupied cell; a
vertex shared by all four surrounding cells is interior to a larger obstacle,
is marked, and never participates in visibility. Edges are the unit bounding
edges of occupied cells; an edge shared by two occupied cells is a blocking
edge: it obstructs collinear lines of sight and may not be flown along.

Everything planning reads is built straight from numpy arrays: the marked
set, the unmarked vertices in sorted order, flat edge coordinates for the
rotational sweep, and cumulative-count tables that answer the same-column,
same-row and 45-degree visibility cases in O(1). The vertex list and the
per-edge records are built on first access.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

import numpy as np

from .geometry import Point
from .gridmap import OccupancyGrid


class ObstacleVertex(NamedTuple):
    pos: Point
    incident_obstacle_cells: int
    marked_interior: bool


class ObstacleEdge(NamedTuple):
    a: Point
    b: Point
    shared_obstacle_cells: int

    @property
    def blocking(self) -> bool:
        return self.shared_obstacle_cells == 2


def _diagonal_prefix(f: np.ndarray, ascending: bool) -> np.ndarray:
    """Exclusive running sums of the lattice array ``f`` (indexed [y, x])
    along 45-degree lines: ``out[y, x]`` sums ``f[y - k, x - k]`` (ascending)
    or ``f[y + k, x - k]`` (descending) over k >= 1 inside the array.

    The sum of ``f`` over the lattice points of a diagonal run is then the
    difference of two entries. One numpy step per row or per column,
    whichever is fewer.
    """
    rows, cols = f.shape
    out = np.zeros((rows, cols), dtype=np.int32)
    if rows <= cols:
        if ascending:
            for y in range(1, rows):
                out[y, 1:] = out[y - 1, :-1] + f[y - 1, :-1]
        else:
            for y in range(rows - 2, -1, -1):
                out[y, 1:] = out[y + 1, :-1] + f[y + 1, :-1]
    else:
        for x in range(1, cols):
            if ascending:
                out[1:, x] = out[:-1, x - 1] + f[:-1, x - 1]
            else:
                out[:-1, x] = out[1:, x - 1] + f[1:, x - 1]
    return out


class ObstacleGraph:
    """Corner-vertex graph of a grid's occupied cells.

    Deterministic ordering: vertices row-major by (y, x); edges are all
    horizontal edges row-major, then all vertical edges row-major.
    Immutable once built.

    Cumulative tables, all int32 and indexed by lattice coordinates:

    * ``col_blocking_cum[x, y]``: blocking edges (x, k)-(x, k + 1) with k < y;
    * ``row_blocking_cum[y, x]``: blocking edges (k, y)-(k + 1, y) with k < x;
    * ``diag_up_cum`` / ``diag_down_cum``: running counts, along ascending
      and descending 45-degree lines, of the lattice points that are the
      left-bottom (ascending) or left-top (descending) corner of an
      occupied cell.
    """

    def __init__(self, grid: OccupancyGrid):
        self.grid = grid
        occ = grid.occupied
        rows, cols = grid.rows, grid.cols

        counts = np.zeros((rows + 1, cols + 1), dtype=np.int8)
        counts[:-1, :-1] += occ
        counts[:-1, 1:] += occ
        counts[1:, :-1] += occ
        counts[1:, 1:] += occ
        self._counts = counts
        my, mx = np.nonzero(counts == 4)
        self.marked: frozenset[Point] = frozenset(zip(mx.tolist(), my.tolist()))
        # unmarked vertices in sorted (x, y) order, the candidates' order
        self._ux, self._uy = np.nonzero(((counts >= 1) & (counts < 4)).T)

        # horizontal edge (x,y)-(x+1,y) at index [y, x]; vertical edge
        # (x,y)-(x,y+1) at index [y, x]
        hshared = np.zeros((rows + 1, cols), dtype=np.int8)
        hshared[:-1, :] += occ
        hshared[1:, :] += occ
        vshared = np.zeros((rows, cols + 1), dtype=np.int8)
        vshared[:, :-1] += occ
        vshared[:, 1:] += occ

        # flat arrays for the sweep and the stabbing kernel, in edge order
        hy, hx = np.nonzero(hshared)
        vy, vx = np.nonzero(vshared)
        self._eax = np.concatenate((hx, vx)).astype(np.int64)
        self._eay = np.concatenate((hy, vy)).astype(np.int64)
        self._ebx = self._eax + np.concatenate((np.ones_like(hx), np.zeros_like(vx)))
        self._eby = self._eay + np.concatenate((np.zeros_like(hy), np.ones_like(vy)))
        self._eshared = np.concatenate((hshared[hy, hx], vshared[vy, vx]))

        col_cum = np.zeros((cols + 1, rows + 1), dtype=np.int32)
        np.cumsum(vshared.T == 2, axis=1, dtype=np.int32, out=col_cum[:, 1:])
        row_cum = np.zeros((rows + 1, cols + 1), dtype=np.int32)
        np.cumsum(hshared == 2, axis=1, dtype=np.int32, out=row_cum[:, 1:])
        self.col_blocking_cum, self.row_blocking_cum = col_cum, row_cum

        # per lattice point [y, x]: left-bottom / left-top corner of an
        # occupied cell
        left_bottom = np.zeros((rows + 1, cols + 1), dtype=bool)
        left_bottom[:-1, :-1] = occ
        left_top = np.zeros((rows + 1, cols + 1), dtype=bool)
        left_top[1:, :-1] = occ
        self.diag_up_cum = _diagonal_prefix(left_bottom, ascending=True)
        self.diag_down_cum = _diagonal_prefix(left_top, ascending=False)

    @cached_property
    def vertices(self) -> list[Point]:
        vy, vx = np.nonzero(self._counts)
        return list(zip(vx.tolist(), vy.tolist()))

    @cached_property
    def edges(self) -> list[ObstacleEdge]:
        return [ObstacleEdge((ax, ay), (bx, by), shared)
                for ax, ay, bx, by, shared in zip(
                    self._eax.tolist(), self._eay.tolist(), self._ebx.tolist(),
                    self._eby.tolist(), self._eshared.tolist())]

    def vertex(self, pos: Point) -> ObstacleVertex | None:
        x, y = pos
        if not self.grid.in_lattice(pos):
            return None
        c = int(self._counts[y, x])
        if c == 0:
            return None
        return ObstacleVertex(pos, c, c == 4)



def build_obstacle_graph(grid: OccupancyGrid) -> ObstacleGraph:
    return ObstacleGraph(grid)


def blocking_edges(graph: ObstacleGraph) -> set[ObstacleEdge]:
    """Edges shared by two occupied cells, found in one pass over the edges."""
    return {e for e in graph.edges if e.shared_obstacle_cells == 2}
