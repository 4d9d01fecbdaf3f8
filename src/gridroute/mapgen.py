"""Seeded random map generation with a pinned PRNG.

The generator is splitmix64 (same constants on every platform), driving a
partial Fisher-Yates selection of obstacle cells, so a (dims, count, seed)
triple reproduces the exact same grid anywhere. The two cells incident to
the default benchmark endpoints, the lower-left corner (0, 0) and the
upper-right corner (cols, rows), are never occupied.
"""

from __future__ import annotations

from .gridmap import OccupancyGrid, check_shape

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    """Deterministic 64-bit stream; shifts 30/27/31 with the standard mixers."""

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK
        return z ^ (z >> 31)


def gen_random_map(rows: int, cols: int, obstacle_count: int, seed: int,
                   cell_size_m: float = 1.0) -> OccupancyGrid:
    """Grid with ``obstacle_count`` uniformly chosen occupied cells.

    Eligible cells are all cells except (0, 0) and (cols-1, rows-1) in
    row-major order; a partial Fisher-Yates shuffle driven by splitmix64
    picks the prefix. Equal inputs give byte-identical grids.
    """
    check_shape((rows, cols), cell_size_m)
    protected = {0, rows * cols - 1}
    capacity = rows * cols - len(protected)
    if not (0 <= obstacle_count <= capacity):
        raise ValueError(f"obstacle count must be within [0, {capacity}]")
    eligible = [i for i in range(rows * cols) if i not in protected]
    rng = SplitMix64(seed)
    n = len(eligible)
    for i in range(obstacle_count):
        j = i + rng.next() % (n - i)
        eligible[i], eligible[j] = eligible[j], eligible[i]
    grid = OccupancyGrid(rows, cols, cell_size_m)
    for idx in eligible[:obstacle_count]:
        grid.occupied[idx // cols, idx % cols] = True
    return grid
