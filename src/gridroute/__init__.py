"""Shortest obstacle-free route planning on occupancy grids.

The pipeline discretizes a region into an occupancy grid, builds the
obstacle graph of occupied-cell corners and runs A* over a visibility graph
whose neighbour lists are decided lazily, for the vertices the search
expands, with the same answers as the paper's rotational sweep. Multi-stop
journeys, altitude layer choice and
rotated-plane 3D planning extend the planar core.
"""

from .errors import (DegenerateObstacleError, InvalidEndpointError,
                     MapParseError, NoPathError, OutOfBoundsError)
from .geometry import Point, Segment, cross, euclid_distance
from .gridmap import (OccupancyGrid, convex_hull, discretize_dimensions,
                      parse_map, rasterize_hull, serialize_map)
from .mapgen import SplitMix64, gen_random_map
from .obstacle_graph import ObstacleEdge, ObstacleGraph, build_obstacle_graph
from .pathfind import (Path, dijkstra_shortest_path, format_length,
                       merge_collinear, path_from_text, path_to_text,
                       waypoints_length)
from .planner import (MapProvider, PlanConfig, PlaneSlice, StaticMapProvider,
                      VoxelWorld, choose_layer, parse_voxels, plan2d,
                      plan2d_reference, plan_rotated_planes, plan_with_stops,
                      rotated_plane_slice, serialize_voxels)
from .render import render_svg
from .visibility import (LazyVisibilityGraph, VisibilityGraph,
                         brute_force_visible, build_visibility_graph,
                         classify_pair, sweep_visible_set)

__version__ = "0.1.0"
