"""Intervisibility between lattice vertices and visibility-graph assembly.

For a pivot vertex and a candidate target in its closed right half-plane,
exactly one of four mutually exclusive cases applies:

* same column: blocked only by a vertical blocking edge overlapping the
  joining segment;
* same row: the mirrored rule for horizontal blocking edges;
* exact 45-degree diagonal: blocked only when the segment runs through a
  lattice point that is the penetrated corner of an occupied cell
  (left-bottom corner for ascending lines, left-top for descending);
* generic position: answered by a clockwise rotational sweep around the
  pivot that probes points in decreasing slope order while maintaining a
  critical-edge list, so only a small subset of obstacle edges is ever
  tested against a line of sight.

:func:`brute_force_visible` is the independent ground truth: a segment is
visible iff it crosses no occupied cell's open interior and shares no
positive-length overlap with a blocking edge. The sweep is validated against
it pair by pair in the test suite.

Both graphs sort a pivot's targets through one dispatch. Same-column,
same-row and exact-diagonal targets take one query of the obstacle graph's
blocker index (:meth:`ObstacleGraph.clear`), two binary searches per
target; only the generic targets fork, between a runtime path and a
reference path. :class:`LazyVisibilityGraph`, which planning uses, decides
a vertex's whole neighbour list, on both sides of it, when a search first
asks for it, and its generic targets by interval stabbing, which tests each
line of sight against exactly the edges the sweep would probe. The left
half-plane needs no second pass: its point reflection about the pivot is
the right half-plane, and it keeps every slope and every side test.
:func:`build_visibility_graph` decides every pair up front and its generic
targets with the paper's per-pivot sweep over the right half-plane; it is
the reference the tests compare against and what ``gridroute bench`` times.

Endpoint grazing never blocks: drones are small relative to obstacles and
may pass through corner contacts between separate obstacles.
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np

from .errors import InvalidEndpointError
from .geometry import Point, euclid_distance
from .gridmap import OccupancyGrid
from .obstacle_graph import ObstacleGraph

# Float slope keys (dy/dx in double precision) order identically to exact
# rational comparison while both deltas stay below 2**20: distinct reduced
# rationals p1/q1 != p2/q2 differ by at least 1/(q1*q2), which exceeds the
# float spacing at every representable magnitude in that range. Grids are
# bounds-checked against this limit when the graph is built.
_COORD_LIMIT = 1 << 20


def classify_pair(pivot: Point, target: Point) -> str:
    """Case for a pivot/target pair: vertical, horizontal, diagonal45 or generic.

    The target must lie in the closed right half-plane of the pivot.
    """
    dx = target[0] - pivot[0]
    dy = target[1] - pivot[1]
    if dx == 0 and dy == 0:
        raise ValueError("pivot and target coincide")
    if dx < 0:
        raise ValueError("target must lie in the closed right half-plane")
    if dx == 0:
        return "vertical"
    if dy == 0:
        return "horizontal"
    if dx == abs(dy):
        return "diagonal45"
    return "generic"


def brute_force_visible(pivot: Point, target: Point, grid: OccupancyGrid) -> bool:
    """Ground-truth intervisibility, checked against every cell of the grid.

    Visible iff the open interior of no occupied cell is crossed and no
    blocking edge overlaps the segment collinearly with positive length.
    Independent of the obstacle-graph indexes and of the sweep.
    """
    ax, ay = pivot
    bx, by = target
    dx, dy = bx - ax, by - ay
    if dx == 0 and dy == 0:
        raise ValueError("pivot and target coincide")
    occ = grid.occupied
    if dx == 0:
        x = ax
        if x <= 0 or x >= grid.cols:
            return True
        ylo, yhi = sorted((ay, by))
        ylo, yhi = max(ylo, 0), min(yhi, grid.rows)
        band = occ[ylo:yhi, x - 1] & occ[ylo:yhi, x]
        return not bool(band.any())
    if dy == 0:
        y = ay
        if y <= 0 or y >= grid.rows:
            return True
        xlo, xhi = sorted((ax, bx))
        xlo, xhi = max(xlo, 0), min(xhi, grid.cols)
        band = occ[y - 1, xlo:xhi] & occ[y, xlo:xhi]
        return not bool(band.any())
    rows_idx, cols_idx = np.nonzero(occ)
    if rows_idx.size == 0:
        return True
    if dx < 0:
        ax, ay, dx, dy = bx, by, -dx, -dy
    cols_idx = cols_idx.astype(np.int64)
    rows_idx = rows_idx.astype(np.int64)
    ady = dy if dy > 0 else -dy
    q = dx * ady
    xlo = (cols_idx - ax) * ady
    xhi = xlo + ady
    if dy > 0:
        ylo = (rows_idx - ay) * dx
    else:
        ylo = (ay - rows_idx - 1) * dx
    yhi = ylo + dx
    lo = np.maximum(np.maximum(xlo, ylo), 0)
    hi = np.minimum(np.minimum(xhi, yhi), q)
    return not bool((lo < hi).any())


class _PivotPrep:
    """Per-pivot edge data shared by the sweep and the stabbing kernel: the
    endpoints, slope interval and the pivot's side of each edge line, for
    every obstacle edge that does not touch the pivot and is not collinear
    with a pivot ray. The ``nright`` edges wholly in the closed right
    half-plane come first, then the edges wholly in the closed left one.
    ``a_high`` marks the edges whose endpoint ``a`` has the larger slope.

    A left edge's slopes are those of its point reflection about the pivot,
    ``(-dy)/(-dx)``, which maps the left half-plane onto the right one:
    finite slopes stay the same, and an endpoint on the pivot's column gets
    the left side's infinity (``-inf`` above the pivot, ``+inf`` below).
    Side tests use the edges as they are, since the reflection keeps the
    sign of every cross product about the pivot."""

    __slots__ = ("ax", "ay", "bx", "by", "op", "klo", "khi", "a_high", "nright")

    def __init__(self, graph: ObstacleGraph, pivot: Point):
        px, py = pivot
        eax, eay, ebx, eby = graph._eax, graph._eay, graph._ebx, graph._eby
        side = np.where((eax >= px) & (ebx >= px), 1, -1)
        with np.errstate(divide="ignore", invalid="ignore"):
            ka = (side * (eay - py)) / (side * (eax - px))
            kb = (side * (eby - py)) / (side * (ebx - px))
        # the pivot's own edges and edges along a pivot ray never block a
        # generic target
        keep = (ka != kb) & ~(((eax == px) & (eay == py)) | ((ebx == px) & (eby == py)))
        right = keep & (side > 0)
        idx = np.concatenate((np.nonzero(right)[0], np.nonzero(keep & ~right)[0]))
        self.nright = int(np.count_nonzero(right))
        ax, ay, bx, by = eax[idx], eay[idx], ebx[idx], eby[idx]
        ka, kb = ka[idx], kb[idx]
        self.ax, self.ay, self.bx, self.by = ax, ay, bx, by
        self.a_high = ka > kb
        self.khi = np.where(self.a_high, ka, kb)
        self.klo = np.where(self.a_high, kb, ka)
        self.op = np.sign((bx - ax) * (py - ay) - (by - ay) * (px - ax))


def _sweep_flags(graph: ObstacleGraph, pivot: Point, tx: np.ndarray, ty: np.ndarray,
                 trace: list | None = None) -> np.ndarray:
    """Run one clockwise rotational pass around ``pivot`` and answer every
    generic target strictly to its right, whose coordinates are ``tx``/``ty``.

    Probe events are edge insertions (at the endpoint with the larger slope),
    edge removals (smaller slope) and target tests, ordered by decreasing
    slope, then increasing squared distance, then insertions before removals
    before tests. A target is visible iff no critical edge whose slope
    interval strictly spans the target's slope separates the pivot from the
    target; for an axis-parallel edge on integer endpoints that sign test is
    exactly proper intersection of the edge with the line of sight. Only
    the prep's right-half-plane edges take part.
    """
    px, py = pivot
    prep = _PivotPrep(graph, pivot)
    ax, ay, bx, by, op, klo, khi, a_high = (
        a[:prep.nright] for a in (prep.ax, prep.ay, prep.bx, prep.by, prep.op,
                                  prep.klo, prep.khi, prep.a_high))
    tn = len(tx)
    tdx, tdy = tx - px, ty - py
    kt = tdy.astype(np.float64) / tdx.astype(np.float64)
    tr2 = tdx * tdx + tdy * tdy

    r2a = (ax - px) ** 2 + (ay - py) ** 2
    r2b = (bx - px) ** 2 + (by - py) ** 2
    addr2 = np.where(a_high, r2a, r2b)
    remr2 = np.where(a_high, r2b, r2a)
    tuples = list(zip(ax.tolist(), ay.tolist(), bx.tolist(), by.tolist(),
                      op.tolist(), klo.tolist(), khi.tolist()))
    en = len(tuples)
    keys = np.concatenate((khi, klo, kt))
    r2s = np.concatenate((addr2, remr2, tr2))
    kinds = np.concatenate((np.zeros(en, np.int8), np.ones(en, np.int8),
                            np.full(tn, 2, np.int8)))
    pays = np.concatenate((np.arange(en), np.arange(en), np.arange(tn)))
    order = np.lexsort((kinds, r2s, -keys))

    ks = kinds[order].tolist()
    ps = pays[order].tolist()
    ktl = kt.tolist()
    txl = tx.tolist()
    tyl = ty.tolist()
    out = [True] * tn
    lcr: dict[int, tuple] = {}
    for kd, pay in zip(ks, ps):
        if kd == 0:
            lcr[pay] = tuples[pay]
            if trace is not None:
                t = tuples[pay]
                trace.append(f"add ({t[0]},{t[1]})-({t[2]},{t[3]}) |L|={len(lcr)}")
        elif kd == 1:
            lcr.pop(pay, None)
            if trace is not None:
                t = tuples[pay]
                trace.append(f"remove ({t[0]},{t[1]})-({t[2]},{t[3]}) |L|={len(lcr)}")
        else:
            k = ktl[pay]
            x = txl[pay]
            y = tyl[pay]
            vis = True
            for (ax, ay, bx, by, op, lo, hi) in lcr.values():
                if lo < k < hi and ((bx - ax) * (y - ay) - (by - ay) * (x - ax)) * op < 0:
                    vis = False
                    break
            out[pay] = vis
            if trace is not None:
                trace.append(f"probe ({x},{y}) |L|={len(lcr)} -> "
                             f"{'visible' if vis else 'blocked'}")
    return np.array(out, dtype=bool)


def sweep_visible_set(pivot: Point, targets, graph: ObstacleGraph,
                      trace: list | None = None) -> set[Point]:
    """Visible subset of generic-case targets around one pivot.

    Targets must be distinct from the pivot, strictly to its right and in
    generic position (not same row/column, not an exact diagonal). Matches
    :func:`brute_force_visible` on every pair.
    """
    targets = list(targets)
    if not targets:
        return set()
    txy = np.array(targets, dtype=np.int64)
    flags = _sweep_flags(graph, pivot, txy[:, 0], txy[:, 1], trace)
    return {t for t, f in zip(targets, flags.tolist()) if f}


class VisibilityGraph:
    """Undirected graph over unmarked obstacle vertices plus the endpoints,
    with an edge between every intervisible pair weighted by Euclidean
    distance in meters."""

    def __init__(self, vertices, edge_weights: dict[tuple[Point, Point], float],
                 cell_size_m: float):
        self.vertices: tuple[Point, ...] = tuple(vertices)
        self.vertex_set = frozenset(self.vertices)
        self.edges = dict(edge_weights)  # key (u, v) with u < v
        self.cell_size_m = cell_size_m
        adj: dict[Point, list[tuple[Point, float]]] = {v: [] for v in self.vertices}
        for (u, v), w in self.edges.items():
            adj[u].append((v, w))
            adj[v].append((u, w))
        for lst in adj.values():
            lst.sort()
        self.adjacency = adj

    def neighbors(self, p: Point) -> list[tuple[Point, float]]:
        return self.adjacency[p]

    def has_edge(self, u: Point, v: Point) -> bool:
        return ((u, v) if u < v else (v, u)) in self.edges

    def edge_set(self) -> set[tuple[Point, Point]]:
        return set(self.edges)

    def __eq__(self, other) -> bool:
        if not isinstance(other, VisibilityGraph):
            return NotImplemented
        return (self.vertices == other.vertices and self.edges == other.edges
                and self.cell_size_m == other.cell_size_m)

    def __repr__(self) -> str:
        return f"VisibilityGraph({len(self.vertices)} vertices, {len(self.edges)} edges)"


def check_endpoints(graph: ObstacleGraph, source: Point, dest: Point) -> None:
    """Raise :class:`InvalidEndpointError` unless both endpoints are corner
    lattice points outside every obstacle's interior."""
    for name, p in (("source", source), ("destination", dest)):
        if not graph.grid.in_lattice(p):
            raise InvalidEndpointError(f"{name} {p} outside the corner lattice")
        if p in graph.marked:
            raise InvalidEndpointError(f"{name} {p} is interior to an obstacle")


def _candidates(graph: ObstacleGraph, source: Point,
                dest: Point) -> tuple[list[Point], np.ndarray, np.ndarray]:
    """Sorted unmarked obstacle vertices plus both endpoints, with their
    coordinate arrays, after checking the grid size and the endpoints."""
    grid = graph.grid
    if max(grid.cols, grid.rows) >= _COORD_LIMIT:
        raise ValueError("grid too large for exact slope keys")
    check_endpoints(graph, source, dest)
    cx, cy = graph._ux, graph._uy
    cand = list(zip(cx.tolist(), cy.tolist()))
    for p in (source, dest):
        i = bisect_left(cand, p)
        if i == len(cand) or cand[i] != p:
            cand.insert(i, p)
            cx, cy = np.insert(cx, i, p[0]), np.insert(cy, i, p[1])
    return cand, cx, cy


def _visible(graph: ObstacleGraph, pivot: Point, tx: np.ndarray, ty: np.ndarray,
             generic) -> np.ndarray:
    """Which of the targets at ``tx``/``ty`` the pivot sees, as a bool mask.

    Same-column, same-row and exact-diagonal targets take one
    :meth:`ObstacleGraph.clear` query, and the pivot itself is never
    visible. The generic targets go to ``generic(graph, pivot, tx, ty)``,
    which returns their mask: the sweep for the reference graph, the
    stabbing kernel for the lazy one.
    """
    px, py = pivot
    dx, dy = tx - px, ty - py
    column, row = dx == 0, dy == 0
    straight = column | row | (np.abs(dx) == np.abs(dy))
    vis = np.zeros(len(tx), dtype=bool)
    vis[straight] = graph.clear(px, py, tx[straight], ty[straight])
    vis[column & row] = False
    j = np.nonzero(~straight)[0]
    if j.size:
        vis[j] = generic(graph, pivot, tx[j], ty[j])
    return vis


def build_visibility_graph(graph: ObstacleGraph, source: Point,
                           dest: Point) -> VisibilityGraph:
    """Assemble the full visibility graph over unmarked vertices plus source
    and destination, as the paper does.

    Every unordered pair is decided exactly once: the lexicographically
    smaller point acts as pivot, so all targets lie in its closed right
    half-plane (points straight above count as vertical pairs). Pairs split
    into the four cases; generic targets go through one rotational sweep per
    pivot. Planning uses :class:`LazyVisibilityGraph`, which answers the
    same adjacency on demand; this builder is its reference and what
    ``gridroute bench`` times.
    """
    cand, cx, cy = _candidates(graph, source, dest)
    p = graph.grid.cell_size_m
    edges = {}
    for i, pivot in enumerate(cand):
        vis = _visible(graph, pivot, cx[i + 1:], cy[i + 1:], _sweep_flags)
        for j in np.nonzero(vis)[0].tolist():
            t = cand[i + 1 + j]
            edges[(pivot, t)] = euclid_distance(pivot, t) * p
    return VisibilityGraph(cand, edges, p)


# Most (edge, target) pairs the stabbing kernel expands at once, so that one
# neighbour query stays within a few megabytes even on maps where most edges
# span most targets.
_PAIR_BLOCK = 1 << 16


def _generic_visible(graph: ObstacleGraph, pivot: Point,
                     tx: np.ndarray, ty: np.ndarray) -> np.ndarray:
    """Visibility from ``pivot`` of generic-position targets on either side
    of it, by interval stabbing.

    A target is blocked iff an edge on its side of the pivot, whose open
    slope interval contains the target's slope, separates it from the
    pivot. Such an edge is always in the critical list when the rotational
    sweep over that half-plane (the left one taken through its point
    reflection, see :class:`_PivotPrep`) probes the target, so these are
    exactly the sweep's tests. An edge never blocks a target on the other
    side, so with the targets sorted by side, then slope, each edge's
    interval is a contiguous run of its own side's targets found by two
    binary searches; the (edge, target) pairs are expanded in blocks of at
    most ``_PAIR_BLOCK`` pairs.
    """
    prep = _PivotPrep(graph, pivot)
    px, py = pivot
    kt = (ty - py).astype(np.float64) / (tx - px).astype(np.float64)
    left = tx < px
    order = np.lexsort((kt, left))
    ks, sx, sy = kt[order], tx[order], ty[order]
    # right targets and edges come first; the left ones are searched past them
    nt, ne = len(ks) - int(np.count_nonzero(left)), prep.nright
    lo = np.concatenate((np.searchsorted(ks[:nt], prep.klo[:ne], side="right"),
                         np.searchsorted(ks[nt:], prep.klo[ne:], side="right") + nt))
    count = np.concatenate((np.searchsorted(ks[:nt], prep.khi[:ne], side="left"),
                            np.searchsorted(ks[nt:], prep.khi[ne:], side="left") + nt)) - lo
    stab = np.nonzero(count)[0]
    blocked = np.zeros(len(ks), dtype=bool)
    if stab.size:
        lo, count = lo[stab], count[stab]
        ax, ay, op = prep.ax[stab], prep.ay[stab], prep.op[stab]
        ex, ey = prep.bx[stab] - ax, prep.by[stab] - ay
        # side test (b - a) x (t - a) * op < 0 as ca * y - cb * x + c0 < 0
        ca, cb, c0 = ex * op, ey * op, (ey * ax - ex * ay) * op
        ends = np.cumsum(count)
        start = 0
        while start < len(stab):
            base = int(ends[start - 1]) if start else 0
            stop = max(start + 1,
                       int(np.searchsorted(ends, base + _PAIR_BLOCK, side="right")))
            c = count[start:stop]
            e = np.repeat(np.arange(start, stop), c)
            pos = np.arange(int(ends[stop - 1]) - base) + np.repeat(
                lo[start:stop] - (ends[start:stop] - c - base), c)
            hit = ca[e] * sy[pos] - cb[e] * sx[pos] + c0[e] < 0
            blocked[pos[hit]] = True
            start = stop
    visible = np.empty(len(ks), dtype=bool)
    visible[order] = ~blocked
    return visible


class LazyVisibilityGraph:
    """The graph :func:`build_visibility_graph` builds, with each vertex's
    neighbour list computed the first time it is asked for.

    Same vertices, weights and sorted adjacency as the eager graph, so a
    search that expands few vertices decides few neighbour lists. Each list
    comes from one array kernel over all candidates (:func:`_visible`):

    * same-column, same-row and exact-diagonal targets: one call to
      :meth:`ObstacleGraph.clear`, which searches the obstacle graph's
      sorted index of blocking edges and penetrated corners;
    * generic targets on both sides: one interval-stabbing pass
      (:func:`_generic_visible`), which decides the left half-plane through
      its point reflection about the vertex; exact because the result
      equals :func:`brute_force_visible`, a symmetric predicate.
    """

    def __init__(self, graph: ObstacleGraph, source: Point, dest: Point):
        cand, self._cx, self._cy = _candidates(graph, source, dest)
        self.vertices: tuple[Point, ...] = tuple(cand)
        self.vertex_set = frozenset(cand)
        self.cell_size_m = graph.grid.cell_size_m
        self._graph = graph
        self._adjacency: dict[Point, list[tuple[Point, float]]] = {}

    def neighbors(self, v: Point) -> list[tuple[Point, float]]:
        adj = self._adjacency.get(v)
        if adj is None:
            vis = _visible(self._graph, v, self._cx, self._cy, _generic_visible)
            p = self.cell_size_m
            cand = self.vertices
            adj = self._adjacency[v] = [(cand[i], euclid_distance(v, cand[i]) * p)
                                        for i in np.nonzero(vis)[0].tolist()]
        return adj
