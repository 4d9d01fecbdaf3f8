"""Command-line front end: plan, plan3d, gen, bench and render.

Exit codes: 0 on success, 2 when no route exists, 1 for any input error.
"""

from __future__ import annotations

import argparse
import sys

from .bench import BenchSpec, bench_csv, run_bench
from .errors import (InvalidEndpointError, MapParseError, NoPathError,
                     OutOfBoundsError)
from .gridmap import parse_map, serialize_map
from .mapgen import gen_random_map
from .obstacle_graph import build_obstacle_graph
from .pathfind import (Path, format_length, path_from_text, path_to_text,
                       waypoints_length)
from .planner import (PlanConfig, StaticMapProvider, _best_plane, parse_voxels,
                      plan2d, plan_with_stops)
from .render import render_svg
from .visibility import brute_force_visible, build_visibility_graph


def _parse_point(text: str) -> tuple[int, int]:
    xs, ys = text.split(",")
    return int(xs), int(ys)


def _parse_point3(text: str) -> tuple[float, float, float]:
    xs, ys, zs = text.split(",")
    return float(xs), float(ys), float(zs)


def _parse_stops(text: str) -> list[tuple[int, int]]:
    return [_parse_point(part) for part in text.split(";") if part]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gridroute")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plan", help="plan a route on a map file")
    p.add_argument("--map", required=True)
    p.add_argument("--source")
    p.add_argument("--dest")
    p.add_argument("--stops")
    p.add_argument("--oracle", action="store_true")
    p.add_argument("--svg")

    p3 = sub.add_parser("plan3d", help="plan through a voxel world")
    p3.add_argument("--voxels", required=True)
    p3.add_argument("--source", required=True)
    p3.add_argument("--dest", required=True)
    p3.add_argument("--planes", type=int, default=7)
    p3.add_argument("--angle-step", type=float, default=15.0)

    g = sub.add_parser("gen", help="generate a seeded random map")
    g.add_argument("--rows", type=int, required=True)
    g.add_argument("--cols", type=int, required=True)
    g.add_argument("--obstacles", type=int, required=True)
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--out", required=True)

    b = sub.add_parser("bench", help="time the pipeline over a scenario")
    b.add_argument("--scenario", choices=("a", "b", "c"), required=True)
    b.add_argument("--seed", type=int, default=42)
    b.add_argument("--reps", type=int, default=3)
    b.add_argument("--out", required=True)

    r = sub.add_parser("render", help="render a map and path to SVG")
    r.add_argument("--map", required=True)
    r.add_argument("--path", required=True)
    r.add_argument("--out", required=True)
    return parser


def _cmd_plan(args) -> int:
    with open(args.map, encoding="utf-8") as f:
        grid, file_s, file_d = parse_map(f.read())
    source = _parse_point(args.source) if args.source else file_s
    dest = _parse_point(args.dest) if args.dest else file_d
    if source is None or dest is None:
        print("error: source and destination required (flags or map file)",
              file=sys.stderr)
        return 1
    if args.oracle:
        gobs = build_obstacle_graph(grid)
        gv = build_visibility_graph(gobs, source, dest)
        cand = gv.vertices
        oracle = set()
        for i, u in enumerate(cand):
            for v in cand[i + 1:]:
                if brute_force_visible(u, v, grid):
                    oracle.add((u, v))
        match = oracle == gv.edge_set()
        print(f"oracle: {'MATCH' if match else 'MISMATCH'}")
        if not match:
            return 1
    if args.stops:
        path = plan_with_stops(StaticMapProvider(grid), source, dest,
                               _parse_stops(args.stops))
    else:
        path = plan2d(grid, source, dest)
    sys.stdout.write(path_to_text(path))
    if args.svg:
        with open(args.svg, "w", encoding="utf-8") as f:
            f.write(render_svg(grid, path))
    return 0


def _cmd_plan3d(args) -> int:
    with open(args.voxels, encoding="utf-8") as f:
        world = parse_voxels(f.read())
    config = PlanConfig(plane_count=args.planes, plane_angle_step_deg=args.angle_step)
    s3 = _parse_point3(args.source)
    d3 = _parse_point3(args.dest)
    path, theta, sl = _best_plane(world, s3, d3, config)
    print(f"theta_deg {theta:g}")
    for x, y in path.waypoints:
        wx, wy, wz = sl.to_world(x, y)
        print(f"{wx:.6f} {wy:.6f} {wz:.6f}")
    print(f"length_m {format_length(path.length_m)}")
    return 0


def _cmd_gen(args) -> int:
    grid = gen_random_map(args.rows, args.cols, args.obstacles, args.seed)
    text = serialize_map(grid, (0, 0), (args.cols, args.rows))
    with open(args.out, "w", encoding="utf-8", newline="\n") as f:
        f.write(text)
    return 0


def _cmd_bench(args) -> int:
    spec = BenchSpec(scenario=args.scenario, seed=args.seed, reps=args.reps)
    rows = run_bench(spec)
    with open(args.out, "w", encoding="utf-8", newline="\n") as f:
        f.write(bench_csv(rows))
    return 0


def _cmd_render(args) -> int:
    with open(args.map, encoding="utf-8") as f:
        grid, _, _ = parse_map(f.read())
    with open(args.path, encoding="utf-8") as f:
        waypoints = path_from_text(f.read())
    path = Path(tuple(waypoints), waypoints_length(waypoints, grid.cell_size_m))
    with open(args.out, "w", encoding="utf-8", newline="\n") as f:
        f.write(render_svg(grid, path))
    return 0


_HANDLERS = {
    "plan": _cmd_plan,
    "plan3d": _cmd_plan3d,
    "gen": _cmd_gen,
    "bench": _cmd_bench,
    "render": _cmd_render,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        return _HANDLERS[args.command](args)
    except NoPathError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (MapParseError, InvalidEndpointError, OutOfBoundsError, ValueError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    sys.exit(main())
