"""Timing harness for the planning pipeline, CSV output.

Three scenarios: (a) grid size and obstacle count grow together at 20
percent occupancy, (b) grid size grows with the obstacle count fixed,
(c) fixed grid with growing obstacle count. The timed pipeline is the
paper's, ``plan2d_reference``, which builds the full visibility graph; the
planner's lazy A* answers the same routes. Times are wall-clock medians
over the configured repetitions; runs are strictly sequential so the
numbers stay honest.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass

from .errors import NoPathError
from .mapgen import gen_random_map
from .planner import plan2d_reference

SCENARIOS = {
    "a": [(g, g * g // 5) for g in (5, 10, 20, 30, 40, 50, 60, 70, 80)],
    "b": [(g, 20) for g in (5, 10, 20, 40, 80, 160)],
    "c": [(80, o) for o in (40, 80, 160, 320, 640, 1280)],
}

# Medians reported for the original C++ testbed on its own hardware; kept as
# context in the CSV header, never as targets.
_REFERENCE_NOTE = ("reference medians from the original C++ testbed "
                   "(different hardware, non-binding): "
                   "a: g=80 22.809s; b: g=160 0.043s; c: o=1280 22.809s")


@dataclass(frozen=True)
class BenchSpec:
    scenario: str
    seed: int = 42
    reps: int = 3
    points: tuple[tuple[int, int], ...] | None = None

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ValueError("scenario must be one of 'a', 'b', 'c'")
        if self.reps < 1:
            raise ValueError("need at least one repetition")


def scenario_points(scenario: str) -> list[tuple[int, int]]:
    """Default (grid size, obstacle count) pairs for a scenario."""
    return list(SCENARIOS[scenario])


def run_bench(spec: BenchSpec) -> list[dict]:
    """Time the full pipeline at every parameter point of the scenario.

    Each point generates its seeded map, then plans corner to corner,
    timing ``plan2d_reference`` only. Rows carry the median time and the
    final path length (NaN when the map is unroutable).
    """
    points = list(spec.points) if spec.points is not None else scenario_points(spec.scenario)
    rows = []
    for g, o in points:
        grid = gen_random_map(g, g, o, spec.seed)
        source, dest = (0, 0), (g, g)
        times = []
        length = math.nan
        for _ in range(spec.reps):
            t0 = time.perf_counter()
            try:
                path = plan2d_reference(grid, source, dest)
                length = path.length_m
            except NoPathError:
                length = math.nan
            times.append(time.perf_counter() - t0)
        rows.append({
            "scenario": spec.scenario,
            "g": g,
            "o": o,
            "seed": spec.seed,
            "time_sec": statistics.median(times),
            "path_len": length,
        })
    return rows


def bench_csv(rows: list[dict]) -> str:
    out = [f"# {_REFERENCE_NOTE}", "scenario,g,o,seed,time_sec,path_len"]
    for r in rows:
        out.append(f"{r['scenario']},{r['g']},{r['o']},{r['seed']},"
                   f"{r['time_sec']:.6f},{r['path_len']:.6f}")
    return "\n".join(out) + "\n"
