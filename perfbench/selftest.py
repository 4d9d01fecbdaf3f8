"""Self-test of the benchmark's own machinery.

Run from the root of a checkout: ``python3 perfbench/selftest.py``. It
shows that

* the route check catches a route with one waypoint moved through an
  occupied cell and a route whose length is off by 1e-6, and that each
  counts in ``error_rate``;
* every per-layer count repeats exactly across two traced runs of the same
  seed, and the wrapped names are restored afterwards;
* the input digest is the same for the same seed and differs for another.

Exits 1 on the first failed expectation.
"""

import sys

import run  # first: puts the checkout's src/ on the import path

import check
import tracing
from gridroute.pathfind import Path
from gridroute.visibility import brute_force_visible
from workloads import WORKLOADS, input_digest

SEED = check.GOLDEN_SEED
QUERIES = 3


def expect(cond: bool, what: str) -> None:
    if not cond:
        print(f"FAIL {what}")
        sys.exit(1)
    print(f"ok   {what}")


def bad_routes():
    """A checked-good dense route, the same route with one interior waypoint
    moved so a segment crosses an occupied cell, and the route with its
    length off by 1e-6 relative."""
    wl = WORKLOADS["dense-random"]
    for i in range(run.CHECKED):
        q = wl.make(SEED, i)
        good = wl.run(q)
        wp = list(good.waypoints)
        for k in range(1, len(wp) - 1):
            x, y = wp[k]
            for dx in (-2, -1, 0, 1, 2):
                for dy in (-2, -1, 0, 1, 2):
                    m = (x + dx, y + dy)
                    if m in wp or not q.grid.in_lattice(m):
                        continue
                    if brute_force_visible(wp[k - 1], m, q.grid) and \
                            brute_force_visible(m, wp[k + 1], q.grid):
                        continue
                    moved = wp[:k] + [m] + wp[k + 1:]
                    length = check.seg_sum(moved) * q.grid.cell_size_m
                    off = Path(good.waypoints, good.length_m * (1 + 1e-6))
                    return q, good, Path(tuple(moved), length), off
    raise RuntimeError("no dense route with a movable waypoint")


def main() -> int:
    q, good, moved, off = bad_routes()
    found = [check.check_outcome("plan2d", q, route) for route in (good, moved, off)]
    expect(found[0] == [], "check passes the planner's route")
    expect(any("not visible" in p for p in found[1]),
           "check flags the waypoint moved through an occupied cell")
    expect(any("segment sum" in p for p in found[2]), "check flags the length off by 1e-6")
    tally = check.Tally()
    for i, problems in enumerate(found):
        tally.add(i, problems)
    expect(tally.failed == 2 and tally.error_rate == 2 / 3,
           f"both bad routes count in error_rate ({tally.failed}/{tally.attempted})")

    originals = [(owner, name, getattr(owner, name)) for owner, name in tracing.WRAPPED]
    for name, wl in WORKLOADS.items():
        runs = []
        for _ in range(2):
            tracer = tracing.Tracer()
            counts = []
            for i in range(QUERIES):
                qi = wl.make(SEED, i)
                with tracer.installed(i, wl.kind, qi.legs):
                    run.run_query(wl, qi)
                counts.append({k: v for k, v in tracer.query_metrics(i).items()
                               if tracing.UNITS[k] != "s"})
            runs.append(counts)
        expect(runs[0] == runs[1], f"{name}: per-layer counts repeat exactly")
        expect(all(getattr(owner, n) is fn for owner, n, fn in originals),
               f"{name}: traced names restored after the run")

        same = [input_digest([wl.make(SEED, i) for i in range(QUERIES)]) for _ in range(2)]
        other = input_digest([wl.make(SEED + 1, i) for i in range(QUERIES)])
        expect(same[0] == same[1] != other,
               f"{name}: input digest repeats for seed {SEED}, differs for seed {SEED + 1}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
