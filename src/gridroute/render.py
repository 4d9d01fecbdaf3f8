"""SVG rendering of grids and planned routes.

Obstacles render as shaded squares, the route as a red polyline, endpoints
and deflection points as blue circles, and lattice corners as small dots.
The y axis is flipped so the grid origin sits bottom-left. Output is plain
SVG 1.1 text with integer coordinates, stable byte for byte.
"""

from __future__ import annotations

from .gridmap import OccupancyGrid
from .pathfind import Path

CELL_PX = 32
MARGIN_PX = 16
OBSTACLE_FILL = "#8d8d8d"
PATH_STROKE = "#e53935"
PATH_WIDTH = 3
MARKER_FILL = "#1e88e5"
MARKER_RADIUS = 5
DOT_FILL = "#b0b0b0"
DOT_PX = 2


def render_svg(grid: OccupancyGrid, path: Path) -> str:
    """Render a grid and a route; one ``rect class="cell"`` per obstacle cell,
    one polyline for the route, circles at endpoints and deflections."""
    for p in path.waypoints:
        if not grid.in_lattice(p):
            raise ValueError(f"waypoint {p} outside the grid")
    c, m = CELL_PX, MARGIN_PX
    width = 2 * m + grid.cols * c
    height = 2 * m + grid.rows * c

    def sx(x: int) -> int:
        return m + x * c

    def sy(y: int) -> int:
        return m + (grid.rows - y) * c

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
           f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">']
    out.append(f'<rect width="{width}" height="{height}" fill="#ffffff"/>')
    for col, row in grid.occupied_cells():
        out.append(f'<rect class="cell" x="{sx(col)}" y="{sy(row + 1)}" '
                   f'width="{c}" height="{c}" fill="{OBSTACLE_FILL}"/>')
    half = DOT_PX // 2
    for y in range(grid.rows + 1):
        for x in range(grid.cols + 1):
            out.append(f'<rect class="dot" x="{sx(x) - half}" y="{sy(y) - half}" '
                       f'width="{DOT_PX}" height="{DOT_PX}" fill="{DOT_FILL}"/>')
    pts = " ".join(f"{sx(x)},{sy(y)}" for x, y in path.waypoints)
    out.append(f'<polyline points="{pts}" fill="none" '
               f'stroke="{PATH_STROKE}" stroke-width="{PATH_WIDTH}"/>')
    markers = [path.waypoints[0], path.waypoints[-1], *path.deflections] \
        if len(path.waypoints) > 1 else [path.waypoints[0]]
    for x, y in markers:
        out.append(f'<circle cx="{sx(x)}" cy="{sy(y)}" r="{MARKER_RADIUS}" '
                   f'fill="{MARKER_FILL}"/>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
