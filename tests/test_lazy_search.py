"""The lazy visibility graph's kernel and A* against the eager references.

Map families: uniform random maps, maps symmetric about both axes (where
mirror-image routes tie on length), checkerboards of diagonal pinches with
random flips, and adversarial layouts beyond 20x20: combs, spirals, solid
rock cut by one long one-cell corridor, a sparse grid whose columns
reach the float slope-key limit, and grids up to 12x12 drawn by
``hypothesis``. Every comparison is exact equality: adjacency lists,
``Path`` objects and raised error types. The lazy graph drops the generic
edges that no shortest route uses, so its lists are compared with the
eager graph's or the ground truth's lists cut down by the independent
``oracles.tangent_reference``, and its routes with the eager pipeline's.
"""

import math
import random
import tracemalloc

import numpy as np
import pytest

from gridroute.errors import InvalidEndpointError, NoPathError
from gridroute.gridmap import OccupancyGrid
from gridroute.mapgen import gen_random_map
from gridroute.obstacle_graph import build_obstacle_graph
from gridroute.pathfind import dijkstra_shortest_path
from gridroute.planner import plan2d, plan2d_reference
from gridroute.visibility import (_COORD_LIMIT, LazyVisibilityGraph, _PivotPrep,
                                  brute_force_visible, build_visibility_graph)

from oracles import dijkstra_reference, tangent_reference

CELL_SIZES = (1.0, 0.5, 3.7)


def _with_cell(grid: OccupancyGrid, cell: float) -> OccupancyGrid:
    return OccupancyGrid(grid.rows, grid.cols, cell, grid.occupied)


def _random_map(seed: int, max_dim: int) -> OccupancyGrid:
    rng = random.Random(seed)
    rows, cols = rng.randint(3, max_dim), rng.randint(3, max_dim)
    count = int(rows * cols * rng.uniform(0.05, 0.35))
    return gen_random_map(rows, cols, count, seed)


def _symmetric_map(seed: int, max_half: int) -> OccupancyGrid:
    rng = np.random.default_rng(seed)
    hr, hc = rng.integers(2, max_half + 1, size=2)
    quad = rng.random((hr, hc)) < 0.25
    half = np.concatenate((quad, quad[::-1]), axis=0)
    occ = np.concatenate((half, half[:, ::-1]), axis=1)
    return OccupancyGrid(2 * int(hr), 2 * int(hc), occupied=occ)


def _pinch_map(seed: int, size: int | None = None) -> OccupancyGrid:
    rng = np.random.default_rng(seed)
    rows, cols = rng.integers(3, 17, size=2) if size is None else (size, size)
    yy, xx = np.mgrid[0:rows, 0:cols]
    occ = ((xx + yy) % 2 == 0) ^ (rng.random((rows, cols)) < 0.15)
    return OccupancyGrid(int(rows), int(cols), occupied=occ)


def _comb(rows: int, cols: int) -> OccupancyGrid:
    """A spine along the bottom row with one-cell teeth on every other column."""
    occ = np.zeros((rows, cols), dtype=bool)
    occ[0, :] = True
    occ[1:rows - 1, ::2] = True
    return OccupancyGrid(rows, cols, occupied=occ)


def _spiral(n: int) -> OccupancyGrid:
    """A one-cell wall winding inwards in a square spiral, one cell apart."""
    occ = np.zeros((n, n), dtype=bool)
    x = y = 1
    occ[y, x] = True
    length = n - 3
    for k in range(2 * n):
        dx, dy = ((1, 0), (0, 1), (-1, 0), (0, -1))[k % 4]
        for _ in range(length):
            x, y = x + dx, y + dy
            occ[y, x] = True
        if k % 2 == 0 and k > 0:
            length -= 2
        if length <= 0:
            break
    return OccupancyGrid(n, n, occupied=occ)


def _corridor(rows: int, cols: int) -> OccupancyGrid:
    """Solid rock cut by one serpentine one-cell corridor."""
    occ = np.ones((rows, cols), dtype=bool)
    occ[1:rows - 1:2, 1:cols - 1] = False
    for k, r in enumerate(range(2, rows - 2, 2)):
        occ[r, cols - 2 if k % 2 == 0 else 1] = False
    return OccupancyGrid(rows, cols, occupied=occ)


def _endpoint_pairs(grid: OccupancyGrid, seed: int, count: int):
    """Opposite corners, then random distinct lattice points that are not
    interior to an obstacle."""
    marked = build_obstacle_graph(grid).marked
    pts = [(x, y) for x in range(grid.cols + 1) for y in range(grid.rows + 1)
           if (x, y) not in marked]
    rng = random.Random(seed)
    pairs = [((0, 0), (grid.cols, grid.rows)), ((0, grid.rows), (grid.cols, 0))][:count]
    while len(pairs) < count:
        s, d = rng.sample(pts, 2)
        pairs.append((s, d))
    return [(s, d) for s, d in pairs if s not in marked and d not in marked]


def _corpus():
    """(grid, endpoint pairs) over all three families, cell sizes cycling."""
    maps = [_random_map(seed, 16) for seed in range(14)]
    maps += [_random_map(100 + seed, 40) for seed in range(2)]
    maps += [gen_random_map(40, 40, 320, 7)]
    maps += [_symmetric_map(seed, 8) for seed in range(10)]
    maps += [_pinch_map(seed) for seed in range(10)]
    for k, grid in enumerate(maps):
        grid = _with_cell(grid, CELL_SIZES[k % len(CELL_SIZES)])
        yield grid, _endpoint_pairs(grid, k, 1 if grid.rows * grid.cols > 400 else 3)


def _outcome(plan, *args):
    try:
        return plan(*args)
    except NoPathError:
        return NoPathError


def test_lazy_neighbors_equal_eager_adjacency():
    maps = [_random_map(200 + seed, 14) for seed in range(25)]
    maps += [_symmetric_map(300 + seed, 6) for seed in range(4)]
    maps += [_pinch_map(400 + seed) for seed in range(4)]
    maps += [_comb(24, 40), _spiral(29), _corridor(25, 33), _pinch_map(404, 28)]
    for k, grid in enumerate(maps):
        gobs = build_obstacle_graph(grid)
        s, d = (0, 0), (grid.cols, grid.rows)
        eager = build_visibility_graph(gobs, s, d)
        lazy = LazyVisibilityGraph(gobs, s, d)
        assert lazy.vertices == eager.vertices
        assert lazy.vertex_set == eager.vertex_set
        assert lazy.cell_size_m == eager.cell_size_m
        # the search on a fresh lazy graph decides only what it expands
        fresh = LazyVisibilityGraph(gobs, s, d)
        assert (_outcome(dijkstra_shortest_path, fresh, s, d)
                == _outcome(dijkstra_shortest_path, eager, s, d)), k
        for v in eager.vertices:
            want = [(t, w) for t, w in eager.neighbors(v)
                    if tangent_reference(grid, v, t, (s, d))]
            assert lazy.neighbors(v) == want, (k, v)


def test_lazy_neighbors_match_ground_truth_48():
    """48x48 maps, where the eager graph costs seconds each: neighbour lists
    of sampled vertices against the ground truth's tangent targets."""
    maps = [_pinch_map(500 + seed, 48) for seed in range(2)]
    maps += [_comb(48, 48), _spiral(48), _corridor(48, 48)]
    rng = random.Random(11)
    for grid in maps:
        gobs = build_obstacle_graph(grid)
        ends = (0, 0), (grid.cols, grid.rows)
        lazy = LazyVisibilityGraph(gobs, *ends)
        for v in [(0, 0)] + rng.sample(lazy.vertices, 5):
            want = [t for t in lazy.vertices if t != v
                    and tangent_reference(grid, v, t, ends)
                    and brute_force_visible(v, t, grid)]
            assert [t for t, _ in lazy.neighbors(v)] == want, v


def test_lazy_neighbors_match_ground_truth_property():
    """Drawn grids up to 12x12 at drawn densities, drawn endpoints and a
    drawn vertex: its neighbour list is exactly the candidates that
    :func:`brute_force_visible` says it sees and ``tangent_reference``
    keeps, with Euclidean weights."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(derandomize=True, deadline=None, max_examples=200,
                         database=None)
    @hypothesis.given(st.data())
    def check(data):
        rows = data.draw(st.integers(1, 12), label="rows")
        cols = data.draw(st.integers(1, 12), label="cols")
        density = data.draw(st.floats(0.0, 0.7), label="density")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        cell = data.draw(st.sampled_from(CELL_SIZES), label="cell")
        occ = np.random.default_rng(seed).random((rows, cols)) < density
        grid = OccupancyGrid(rows, cols, cell, occ)
        gobs = build_obstacle_graph(grid)
        free = [(x, y) for x in range(cols + 1) for y in range(rows + 1)
                if (x, y) not in gobs.marked]
        s, d = data.draw(st.lists(st.sampled_from(free), min_size=2, max_size=2,
                                  unique=True), label="endpoints")
        lazy = LazyVisibilityGraph(gobs, s, d)
        v = data.draw(st.sampled_from(lazy.vertices), label="vertex")
        want = [(t, math.hypot(t[0] - v[0], t[1] - v[1]) * cell)
                for t in lazy.vertices if t != v and brute_force_visible(v, t, grid)
                and tangent_reference(grid, v, t, (s, d))]
        assert lazy.neighbors(v) == want

    check()


def test_lazy_neighbors_near_coord_limit():
    """A sparse grid whose columns reach just below the slope-key limit, so
    the sorted float slopes the kernel searches are as close as they get."""
    rows, cols = 3, _COORD_LIMIT - 1
    occ = np.zeros((rows, cols), dtype=bool)
    for x, y in ((1, 1), (2, 0), (3, 2), (cols // 2, 1), (cols // 2 + 1, 0),
                 (cols // 2 + 1, 1), (cols - 4, 2), (cols - 3, 1), (cols - 1, 0)):
        occ[y, x] = True
    grid = OccupancyGrid(rows, cols, occupied=occ)
    gobs = build_obstacle_graph(grid)
    s, d = (0, 0), (cols, rows)
    eager = build_visibility_graph(gobs, s, d)
    lazy = LazyVisibilityGraph(gobs, s, d)
    for v in eager.vertices:
        want = [(t, w) for t, w in eager.neighbors(v)
                if tangent_reference(grid, v, t, (s, d))]
        assert lazy.neighbors(v) == want, v
    for v in (s, d, (cols // 2, 2), (3, 0)):
        want = [t for t in lazy.vertices if t != v and brute_force_visible(v, t, grid)
                and tangent_reference(grid, v, t, (s, d))]
        assert [t for t, _ in lazy.neighbors(v)] == want, v


def test_neighbors_memory_stays_flat_on_a_comb():
    """One-cell walls every other row, attached to a spine on the right: from
    the bottom-left corner every wall below a target stabs it, so the
    (edge, target) pairs far exceed one expansion block. The tangency
    filter keeps only the targets on top of a wall, about half of them, so
    the pairs are counted over those. Peak allocation of one neighbour
    query stays under a fixed budget."""
    n = 208
    occ = np.zeros((n, n), dtype=bool)
    occ[1:n - 1:2, 1:] = True
    occ[:, n - 1] = True
    grid = OccupancyGrid(n, n, occupied=occ)
    gobs = build_obstacle_graph(grid)
    ends = (0, 0), (0, n)
    lazy = LazyVisibilityGraph(gobs, *ends)
    v = (0, 0)
    right = [t for t in lazy.vertices if t[0] > 0 and t[1] != 0 and t[0] != abs(t[1])
             and tangent_reference(grid, v, t, ends)]
    prep = _PivotPrep(gobs, v)
    slopes = np.sort([t[1] / t[0] for t in right])
    pairs = int((np.searchsorted(slopes, prep.khi, side="left")
                 - np.searchsorted(slopes, prep.klo, side="right")).sum())
    budget = 16 * 2**20
    assert pairs * 8 > 2 * budget  # one int64 per pair would not fit twice over
    tracemalloc.start()
    try:
        neighbours = lazy.neighbors(v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < budget, peak
    seen = {t for t, _ in neighbours}
    for t in random.Random(3).sample(lazy.vertices[1:], 1500):
        assert (t in seen) == (tangent_reference(grid, v, t, ends)
                               and brute_force_visible(v, t, grid)), t


def test_neighbors_of_a_non_vertex_raise_in_both_graphs():
    """A lattice point that is not a candidate has no neighbour list: both
    graph kinds raise ``KeyError`` rather than answer for another vertex."""
    grid = OccupancyGrid(4, 4)
    grid.mark_cells([(1, 1)])
    gobs = build_obstacle_graph(grid)
    for make in (build_visibility_graph, LazyVisibilityGraph):
        gv = make(gobs, (0, 0), (4, 4))
        for p in ((3, 1), (5, 5), (-1, 0)):
            with pytest.raises(KeyError):
                gv.neighbors(p)


def test_plan2d_equals_reference():
    routed = 0
    for grid, pairs in _corpus():
        for s, d in pairs:
            got = _outcome(plan2d, grid, s, d)
            assert got == _outcome(plan2d_reference, grid, s, d), (s, d)
            routed += got is not NoPathError
    assert routed >= 100


def test_plan2d_equals_reference_property():
    """Drawn grids up to 12x12: random cells at a drawn density, solid
    rectangles, or a checkerboard of diagonal pinches with drawn flips,
    with drawn endpoints and cell size. ``plan2d`` returns exactly the
    ``Path`` of ``plan2d_reference``, or raises the same error type."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    def outcome(plan, *args):
        try:
            return plan(*args)
        except (NoPathError, InvalidEndpointError) as exc:
            return type(exc)

    @hypothesis.settings(derandomize=True, deadline=None, max_examples=200,
                         database=None)
    @hypothesis.given(st.data())
    def check(data):
        rows = data.draw(st.integers(1, 12), label="rows")
        cols = data.draw(st.integers(1, 12), label="cols")
        kind = data.draw(st.sampled_from(("random", "rectangles", "pinches")), label="kind")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        if kind == "rectangles":
            occ = np.zeros((rows, cols), dtype=bool)
            for _ in range(data.draw(st.integers(1, 4), label="rectangles")):
                x0, x1 = np.sort(rng.integers(0, cols + 1, size=2))
                y0, y1 = np.sort(rng.integers(0, rows + 1, size=2))
                occ[y0:y1, x0:x1] = True
        else:
            density = data.draw(st.floats(0.0, 0.7), label="density")
            occ = rng.random((rows, cols)) < density
            if kind == "pinches":
                yy, xx = np.mgrid[0:rows, 0:cols]
                occ ^= (xx + yy) % 2 == 0
        grid = OccupancyGrid(rows, cols, data.draw(st.sampled_from(CELL_SIZES)), occ)
        lattice = st.tuples(st.integers(0, cols), st.integers(0, rows))
        s = data.draw(lattice, label="source")
        d = data.draw(lattice, label="dest")
        assert outcome(plan2d, grid, s, d) == outcome(plan2d_reference, grid, s, d)

    check()


def test_plan2d_equals_reference_at_tangency_edge_cases():
    """Hand-built spots of the tangency filter, each with its known route:
    a bend at a pinch vertex, a bend at a grid-border vertex whose back
    cell is off the grid, and a straight pass through two pinch vertices."""
    def grid(rows, cols, cells):
        g = OccupancyGrid(rows, cols)
        g.mark_cells(cells)
        return g

    cases = [
        # two walls that meet only at the pinch (3, 3); both segments generic
        (grid(6, 6, [(0, 2), (1, 2), (2, 2), (3, 3), (4, 3), (5, 3)]),
         (5, 0), (0, 5), ((5, 0), (3, 3), (0, 5))),
        # a wall standing on the bottom border: the route flies along the
        # border under it and bends at (3, 0), whose back cell is off-grid
        (grid(5, 6, [(2, 0), (2, 1), (2, 2), (2, 3)]),
         (0, 0), (5, 3), ((0, 0), (3, 0), (5, 3))),
        # the first segment passes straight through the pinches (2, 1) and
        # (4, 2), then bends under a hanging wall at (6, 3)
        (grid(6, 8, [(1, 1), (2, 0), (3, 2), (4, 1), (5, 3), (5, 4), (5, 5)]),
         (0, 0), (8, 6), ((0, 0), (6, 3), (8, 6))),
    ]
    for g, s, d, waypoints in cases:
        path = plan2d(g, s, d)
        assert path == plan2d_reference(g, s, d)
        assert path.waypoints == waypoints


def test_astar_keeps_dijkstra_search_order():
    """The heuristic must not change which of several equal-length routes
    wins: A* and plain Dijkstra return the same Path on the eager graph."""
    for grid, pairs in _corpus():
        gobs = build_obstacle_graph(grid)
        for s, d in pairs:
            gv = build_visibility_graph(gobs, s, d)
            try:
                got = dijkstra_shortest_path(gv, s, d)
            except NoPathError:
                got = None
            assert got == dijkstra_reference(gv, s, d), (s, d)


def test_lazy_and_reference_agree_on_errors():
    pocket = OccupancyGrid(7, 7)
    pocket.mark_cells([(x, y) for x in range(1, 6) for y in range(1, 6)
                       if x in (1, 5) or y in (1, 5)])
    for plan in (plan2d, plan2d_reference):
        with pytest.raises(NoPathError):
            plan(pocket, (3, 3), (7, 7))
        with pytest.raises(NoPathError):
            plan(pocket, (0, 0), (3, 3))
    block = OccupancyGrid(4, 4)
    block.mark_cells([(x, y) for x in range(1, 3) for y in range(1, 3)])
    for s, d in (((2, 2), (4, 4)), ((0, 0), (2, 2)), ((0, 0), (5, 1)),
                 ((-1, 0), (4, 4)), ((2, 2), (2, 2))):
        for plan in (plan2d, plan2d_reference):
            with pytest.raises(InvalidEndpointError):
                plan(block, s, d)
