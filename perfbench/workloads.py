"""Seeded inputs and the timed call for each benchmark workload.

Every input is a pure function of ``(seed, index)``: query ``index`` of a
run draws its map, endpoints, stops, reveal hulls or voxel world from a
``random.Random`` seeded with the workload name, the seed and the index.
Generation is never timed. Endpoints are drawn from one connected component
of the lattice (see :func:`reachable`), so every generated query has a route.

The three workloads stress different layers:

* ``dense-random``: one ``plan2d`` per query on a fresh uniform random map,
  so the visibility sweep dominates and queries share no work.
* ``journey-reveal``: one ``plan_with_stops`` journey per query on a map of
  rasterized convex hulls; on some legs the map provider first rasterizes a
  newly revealed hull onto the shared grid.
* ``fan3d``: one ``plan_rotated_planes`` fan per query on a random voxel
  world, the only workload that runs the plane slicer.
"""

from __future__ import annotations

import hashlib
import random
from collections import deque
from dataclasses import dataclass

import numpy as np

from gridroute import gridmap, mapgen, planner
from gridroute.errors import DegenerateObstacleError
from gridroute.gridmap import OccupancyGrid

Point = tuple[int, int]

# Sizes are chosen so a query takes well under a second on one core and a
# run of BENCHMARK.json's run_seconds completes enough queries for a tail
# percentile with ten queries beyond it.
DENSE_SIZE = 30
DENSE_OCCUPANCY = 0.20
JOURNEY_SIZE = 48
JOURNEY_BASE_HULLS = 5
JOURNEY_HULL_RADIUS = (5.0, 7.0)
FAN_SIZE = 10
FAN_OCCUPANCY = 0.10


def _rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


def reachable(grid: OccupancyGrid, start: Point) -> set[Point]:
    """Lattice points connected to ``start`` by unit moves a route may take.

    A unit horizontal or vertical move is allowed unless it runs along a
    blocking edge (both adjacent cells occupied); a unit diagonal move is
    allowed through a free cell. Any route of visible segments between
    lattice points can be traced by such moves and vice versa, so two points
    are connected here exactly when a route between them exists. This is an
    independent oracle for ``NoPathError``.
    """
    occ = grid.occupied
    rows, cols = grid.rows, grid.cols

    def o(c: int, r: int) -> bool:
        return 0 <= c < cols and 0 <= r < rows and bool(occ[r, c])

    seen = {start}
    todo = deque([start])
    while todo:
        x, y = todo.popleft()
        moves = (
            (x + 1, y, not (o(x, y - 1) and o(x, y))),
            (x - 1, y, not (o(x - 1, y - 1) and o(x - 1, y))),
            (x, y + 1, not (o(x - 1, y) and o(x, y))),
            (x, y - 1, not (o(x - 1, y - 1) and o(x, y - 1))),
            (x + 1, y + 1, not o(x, y)),
            (x - 1, y - 1, not o(x - 1, y - 1)),
            (x + 1, y - 1, not o(x, y - 1)),
            (x - 1, y + 1, not o(x - 1, y)),
        )
        for nx, ny, ok in moves:
            if ok and 0 <= nx <= cols and 0 <= ny <= rows and (nx, ny) not in seen:
                seen.add((nx, ny))
                todo.append((nx, ny))
    return seen


def _far_point(rng: random.Random, comp: set[Point], origin: Point,
               min_dist: float) -> Point:
    far = sorted(p for p in comp
                 if (p[0] - origin[0]) ** 2 + (p[1] - origin[1]) ** 2 >= min_dist ** 2)
    return rng.choice(far or sorted(comp - {origin}))


def _grid_bytes(grid: OccupancyGrid) -> bytes:
    head = f"grid {grid.rows} {grid.cols} {grid.cell_size_m!r};".encode()
    return head + np.packbits(grid.occupied).tobytes()


@dataclass
class DenseQuery:
    grid: OccupancyGrid
    source: Point
    dest: Point
    legs = 1

    def digest_bytes(self) -> bytes:
        return _grid_bytes(self.grid) + repr((self.source, self.dest)).encode()


@dataclass
class JourneyQuery:
    base: OccupancyGrid          # the map before the journey; never mutated
    grid: OccupancyGrid          # working copy the provider writes reveals into
    points: tuple[Point, ...]    # source, stops..., destination
    reveals: dict[int, list]     # leg index -> hull revealed at that leg's start

    @property
    def legs(self) -> int:
        return len(self.points) - 1

    def digest_bytes(self) -> bytes:
        return (_grid_bytes(self.base) + repr(self.points).encode()
                + repr(sorted(self.reveals.items())).encode())

    def leg_grids(self) -> list[OccupancyGrid]:
        """The grid each leg is planned on, rebuilt from the pristine base."""
        grid = self.base.copy()
        out = []
        for leg in range(len(self.points) - 1):
            if leg in self.reveals:
                grid = grid.copy()
                gridmap.rasterize_hull(self.reveals[leg], grid)
            out.append(grid)
        return out


@dataclass
class FanQuery:
    world: planner.VoxelWorld
    s3: tuple[float, float, float]
    d3: tuple[float, float, float]
    legs = 1

    def digest_bytes(self) -> bytes:
        w = self.world
        head = f"voxels {w.nx} {w.ny} {w.nz} {w.voxel_size_m!r};".encode()
        return (head + np.packbits(w.occupied).tobytes()
                + repr((self.s3, self.d3)).encode())


class RevealProvider:
    """Map provider that shares one grid across legs and, at the start of
    the legs named in ``reveals``, first rasterizes that leg's hull onto it."""

    def __init__(self, grid: OccupancyGrid, reveals: dict[int, list]):
        self.grid = grid
        self.reveals = reveals
        self.calls = 0

    def grid_at(self, position: Point) -> OccupancyGrid:
        hull = self.reveals.get(self.calls)
        self.calls += 1
        if hull is not None:
            # looked up on the module at call time so a traced run sees it
            gridmap.rasterize_hull(hull, self.grid)
        return self.grid


class DenseRandom:
    name = "dense-random"
    kind = "plan2d"

    def __init__(self, size: int = DENSE_SIZE):
        self.size = size

    def make(self, seed: int, index: int) -> DenseQuery:
        g = self.size
        rng = _rng(self.name, seed, index)
        while True:
            grid = mapgen.gen_random_map(g, g, int(g * g * DENSE_OCCUPANCY),
                                         rng.getrandbits(63))
            if index % 2 == 0:
                source, dest = (0, 0), (g, g)
                if dest in reachable(grid, source):
                    return DenseQuery(grid, source, dest)
                continue
            source = (rng.randint(0, g), rng.randint(0, g))
            comp = reachable(grid, source)
            if len(comp) > 1:
                return DenseQuery(grid, source, _far_point(rng, comp, source, g / 2))

    def run(self, q: DenseQuery):
        return planner.plan2d(q.grid, q.source, q.dest)


def _random_hull(rng: random.Random, size: int) -> list:
    lo, hi = JOURNEY_HULL_RADIUS
    while True:
        r = rng.uniform(lo, hi)
        cx, cy = rng.uniform(r, size - r), rng.uniform(r, size - r)
        pts = [(cx + rng.uniform(-r, r), cy + rng.uniform(-r, r)) for _ in range(8)]
        try:
            return gridmap.convex_hull(pts)
        except DegenerateObstacleError:
            continue


class JourneyReveal:
    name = "journey-reveal"
    kind = "journey"

    def __init__(self, size: int = JOURNEY_SIZE, base_hulls: int = JOURNEY_BASE_HULLS):
        self.size = size
        self.base_hulls = base_hulls

    def make(self, seed: int, index: int) -> JourneyQuery:
        n = self.size
        rng = _rng(self.name, seed, index)
        while True:
            base = OccupancyGrid(n, n)
            for _ in range(self.base_hulls):
                gridmap.rasterize_hull(_random_hull(rng, n), base)
            # three stops, four on every fourth query: per-query work stays
            # unimodal so the median is steady across seeds
            stops = 4 if index % 4 == 3 else 3
            legs = stops + 1
            reveal_legs = rng.sample(range(1, legs), rng.choice((1, 2)))
            reveals = {leg: _random_hull(rng, n) for leg in sorted(reveal_legs)}
            final = base.copy()
            for hull in reveals.values():
                gridmap.rasterize_hull(hull, final)
            # Obstacles only grow along the journey, so points connected on
            # the final map are connected on every leg's map too.
            source = (rng.randint(0, n), rng.randint(0, n))
            comp = reachable(final, source)
            if len(comp) < (n + 1) ** 2 // 2:
                continue
            rest = rng.sample(sorted(comp - {source}), legs)
            points = (source, *rest)
            return JourneyQuery(base, base.copy(), points, reveals)

    def run(self, q: JourneyQuery):
        provider = RevealProvider(q.grid, q.reveals)
        return planner.plan_with_stops(provider, q.points[0], q.points[-1],
                                       q.points[1:-1])


class Fan3D:
    name = "fan3d"
    kind = "fan"

    def __init__(self, size: int = FAN_SIZE):
        self.size = size

    def make(self, seed: int, index: int) -> FanQuery:
        n = self.size
        rng = _rng(self.name, seed, index)
        occ = np.random.default_rng(rng.getrandbits(64)).random((n, n, n)) < FAN_OCCUPANCY
        # free end slabs two voxels deep: the endpoints sit on x = 0 and x = n
        occ[:2] = False
        occ[-2:] = False
        world = planner.VoxelWorld(n, n, n, 1.0, occ)

        def face_point(x: float) -> tuple[float, float, float]:
            # near the face centre, so slice sizes and per-query work vary little
            c = n // 2
            return (x, rng.randint(c - 2, c + 1) + 0.5, rng.randint(c - 2, c + 1) + 0.5)

        return FanQuery(world, face_point(0.0), face_point(float(n)))

    def run(self, q: FanQuery):
        return planner.plan_rotated_planes(q.world, q.s3, q.d3)


WORKLOADS = {w.name: w for w in (DenseRandom(), JourneyReveal(), Fan3D())}

# Small inputs of each kind, planned once during set-up so first-call costs
# land outside the timed queries.
WARMUP = {
    "dense-random": DenseRandom(size=8),
    "journey-reveal": JourneyReveal(size=24, base_hulls=1),
    "fan3d": Fan3D(size=5),
}


def input_digest(queries) -> str:
    h = hashlib.sha256()
    for q in queries:
        h.update(q.digest_bytes())
    return h.hexdigest()[:16]
