"""Route checks, run outside the timed interval of every query.

A route passes when its endpoints are the query's, every segment passes
``brute_force_visible`` on the grid its leg was planned on, its length is
the segment sum times the cell size (1e-9 relative) and at least the
straight-line distance. A ``NoPathError`` passes only when the lattice
oracle in :mod:`workloads` confirms that no route exists. On the golden seed
the first queries must also reproduce the recorded routes: waypoints
exactly, lengths within 1e-9 relative and, for fans, the winning angle.
"""

from __future__ import annotations

import json
import math
from pathlib import Path as FsPath

from gridroute import planner
from gridroute.errors import NoPathError
from gridroute.visibility import brute_force_visible

from workloads import reachable

GOLDEN_FILE = FsPath(__file__).with_name("golden.json")
GOLDEN_SEED = 1
REL_TOL = 1e-9


def record(outcome) -> dict:
    """JSON-ready form of a query's outcome, used for golden files and digests."""
    if isinstance(outcome, NoPathError):
        return {"no_path": True}
    theta = None
    if isinstance(outcome, tuple):
        outcome, theta = outcome
    rec = {"waypoints": [list(p) for p in outcome.waypoints], "length": outcome.length_m}
    if theta is not None:
        rec["theta"] = theta
    return rec


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def _check_leg(waypoints, source, dest, grid, label: str) -> list[str]:
    problems = []
    if waypoints[0] != source or waypoints[-1] != dest:
        problems.append(f"{label}: endpoints {waypoints[0]}..{waypoints[-1]} "
                        f"are not {source}..{dest}")
    for a, b in zip(waypoints, waypoints[1:]):
        if not brute_force_visible(a, b, grid):
            problems.append(f"{label}: segment {a}-{b} is not visible")
    return problems


def seg_sum(waypoints) -> float:
    return sum(math.hypot(b[0] - a[0], b[1] - a[1]) for a, b in zip(waypoints, waypoints[1:]))


def _check_length(length: float, waypoints, cell: float, straight: float) -> list[str]:
    problems = []
    expect = seg_sum(waypoints) * cell
    if not _close(length, expect):
        problems.append(f"length {length!r} is not the segment sum {expect!r}")
    if length < straight * (1 - REL_TOL):
        problems.append(f"length {length!r} is shorter than the straight line {straight!r}")
    return problems


def _split_legs(waypoints, points):
    """Cut a journey's waypoints at its stops; None if a stop is missing."""
    legs, start = [], 0
    for p in points[1:]:
        try:
            end = waypoints.index(p, start + 1)
        except ValueError:
            return None
        legs.append(waypoints[start:end + 1])
        start = end
    return legs if start == len(waypoints) - 1 else None


def _straight(a, b) -> float:
    return math.hypot(b[0] - a[0], b[1] - a[1])


def check_outcome(kind: str, q, outcome) -> list[str]:
    """Problems with one query's outcome, which is a result or a NoPathError."""
    if kind == "plan2d":
        if isinstance(outcome, NoPathError):
            if q.dest in reachable(q.grid, q.source):
                return ["NoPathError, but the lattice connects the endpoints"]
            return []
        wp = list(outcome.waypoints)
        cell = q.grid.cell_size_m
        return (_check_leg(wp, q.source, q.dest, q.grid, "route")
                + _check_length(outcome.length_m, wp, cell,
                                _straight(q.source, q.dest) * cell))
    if kind == "journey":
        grids = q.leg_grids()
        if isinstance(outcome, NoPathError):
            leg = outcome.leg
            if leg is None:
                return ["NoPathError without a leg index"]
            if q.points[leg + 1] in reachable(grids[leg], q.points[leg]):
                return [f"NoPathError on leg {leg}, but the lattice connects its endpoints"]
            return []
        wp = list(outcome.waypoints)
        legs = _split_legs(wp, q.points)
        if legs is None:
            return [f"route does not pass the stops {q.points} in order"]
        problems = []
        for k, leg in enumerate(legs):
            problems += _check_leg(leg, q.points[k], q.points[k + 1], grids[k], f"leg {k}")
        cell = q.base.cell_size_m
        straight = sum(_straight(a, b) for a, b in zip(q.points, q.points[1:])) * cell
        return problems + _check_length(outcome.length_m, wp, cell, straight)
    if kind == "fan":
        if isinstance(outcome, NoPathError):
            for theta in planner.plane_angles(planner.PlanConfig()):
                sl = planner.rotated_plane_slice(q.world, q.s3, q.d3, theta)
                if sl.dest in reachable(sl.grid, sl.source):
                    return [f"NoPathError, but plane {theta} connects the endpoints"]
            return []
        path, theta = outcome
        sl = planner.rotated_plane_slice(q.world, q.s3, q.d3, theta)
        wp = list(path.waypoints)
        straight = math.dist(q.s3, q.d3) * q.world.voxel_size_m
        return (_check_leg(wp, sl.source, sl.dest, sl.grid, f"plane {theta}")
                + _check_length(path.length_m, wp, sl.grid.cell_size_m, straight))
    raise ValueError(f"unknown query kind {kind!r}")


def check_golden(rec: dict, gold: dict) -> list[str]:
    if rec.get("no_path") or gold.get("no_path"):
        return [] if rec.get("no_path") == gold.get("no_path") else [
            f"golden no_path={gold.get('no_path', False)}, got no_path={rec.get('no_path', False)}"]
    problems = []
    if rec["waypoints"] != gold["waypoints"]:
        problems.append("waypoints differ from the golden route")
    if not _close(rec["length"], gold["length"]):
        problems.append(f"length {rec['length']!r} differs from golden {gold['length']!r}")
    if rec.get("theta") != gold.get("theta"):
        problems.append(f"angle {rec.get('theta')} differs from golden {gold.get('theta')}")
    return problems


def load_golden(workload: str, seed: int) -> list[dict]:
    """Golden records for the first queries of a workload, empty off the golden seed."""
    if seed != GOLDEN_SEED:
        return []
    return json.loads(GOLDEN_FILE.read_text())[workload]


class Tally:
    """Attempted and failed query counts; ``error_rate`` is their ratio."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, index: int, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"query {index}: {p}" for p in problems]

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
