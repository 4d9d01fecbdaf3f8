"""Spans and counters for the traced run, installed from outside the program.

:meth:`Tracer.installed` replaces, for the duration of one query, the names
in ``WRAPPED``: those the calling modules look up. Nothing under ``src/`` is
edited.

Each span records its name, start, end, parent span and query id; spans are
kept in memory. Counts are gathered after a layer returns or raises, inside
a ``trace.collect`` span, so they are charged to tracing and not to the
layer. Dijkstra's expansions and relaxations are counted by running the
wrapped search again, untimed, on a counting view of the visibility graph.
"""

from __future__ import annotations

import contextlib
import re
import statistics
import time
from collections import defaultdict

import numpy as np

from gridroute import gridmap, planner
from gridroute.errors import NoPathError
from gridroute.visibility import sweep_visible_set

from workloads import RevealProvider

# (owner, attribute) of every wrapped name: the layer entry points as
# ``planner`` sees them, the reveal writes and the journey provider's reads.
WRAPPED = (
    (planner, "build_obstacle_graph"),
    (planner, "build_visibility_graph"),
    (planner, "dijkstra_shortest_path"),
    (planner, "rotated_plane_slice"),
    (planner, "plan2d"),
    (gridmap, "rasterize_hull"),
    (RevealProvider, "grid_at"),
)
LCR_PIVOTS = 8
_LCR_SIZE = re.compile(r"\|L\|=(\d+)")

TIME_METRICS = {
    # metric: (span name, whether to take self time)
    "gridmap.rasterize_s": ("rasterize_hull", False),
    "obstacle_graph.build_s": ("build_obstacle_graph", True),
    "visibility.build_s": ("build_visibility_graph", True),
    "pathfind.dijkstra_s": ("dijkstra_shortest_path", True),
    "planner.plan2d_self_s": ("plan2d", True),
    "planner.slice_s": ("rotated_plane_slice", True),
}
COUNT_METRICS = (
    "gridmap.rasterize_calls", "gridmap.cells_marked",
    "obstacle_graph.vertices", "obstacle_graph.marked", "obstacle_graph.edges",
    "obstacle_graph.blocking_edges",
    "visibility.candidates", "visibility.pairs_vertical", "visibility.pairs_horizontal",
    "visibility.pairs_diagonal", "visibility.pairs_generic", "visibility.edges",
    "visibility.visible_ratio", "visibility.lcr_mean", "visibility.lcr_max",
    "pathfind.expanded", "pathfind.relaxed", "pathfind.waypoints",
    "planner.plan2d_calls", "planner.legs", "planner.slice_cells",
    "planner.planes_routable",
)
UNITS = {name: "s" for name in TIME_METRICS}
UNITS.update({name: "count" for name in COUNT_METRICS})
UNITS["visibility.visible_ratio"] = "ratio"
UNITS["trace.overhead_frac"] = "ratio"
# Printed in the report lines but left out of the JSON result: these times
# are exactly 0 on every run of the workloads that never call the layer, and
# a time that reads the same on every run cannot be told from one never
# measured. Their counts stay in the JSON.
REPORT_ONLY = ("gridmap.rasterize_s", "planner.slice_s")


def pair_counts(vertices) -> dict[str, int]:
    """Pairs of the vertex set by case, each pair pivoting on its
    lexicographically smaller point as ``classify_pair`` requires."""
    v = np.array(sorted(vertices), dtype=np.int64)
    i, j = np.triu_indices(len(v), k=1)
    dx = v[j, 0] - v[i, 0]
    dy = v[j, 1] - v[i, 1]
    vertical = dx == 0
    horizontal = (dy == 0) & ~vertical
    diagonal = (dx == np.abs(dy)) & ~vertical
    return {
        "visibility.pairs_vertical": int(vertical.sum()),
        "visibility.pairs_horizontal": int(horizontal.sum()),
        "visibility.pairs_diagonal": int(diagonal.sum()),
        "visibility.pairs_generic": int(len(dx) - vertical.sum() - horizontal.sum()
                                        - diagonal.sum()),
    }


def lcr_sizes(obstacles, vertices) -> tuple[list[int], int]:
    """Critical-list sizes at every probe, and the largest size seen, from
    ``sweep_visible_set`` on a fixed sample of pivots: ``LCR_PIVOTS`` evenly
    spaced positions in the sorted vertex list, each sweeping its generic
    targets further along that list."""
    cand = sorted(vertices)
    picks = sorted({round(k * (len(cand) - 1) / (LCR_PIVOTS - 1)) for k in range(LCR_PIVOTS)})
    probes, peak = [], 0
    for i in picks:
        px, py = cand[i]
        gen = [t for t in cand[i + 1:]
               if t[0] != px and t[1] != py and t[0] - px != abs(t[1] - py)]
        if not gen:
            continue
        lines: list[str] = []
        sweep_visible_set(cand[i], gen, obstacles, trace=lines)
        for line in lines:
            size = int(_LCR_SIZE.search(line).group(1))
            peak = max(peak, size)
            if line.startswith("probe"):
                probes.append(size)
    return probes, peak


class CountingView:
    """Stands in for a visibility graph and counts the searches' use of it:
    ``expanded`` calls to ``neighbors`` and ``relaxed`` entries returned."""

    def __init__(self, gv):
        self._gv = gv
        self.expanded = 0
        self.relaxed = 0

    def __getattr__(self, name):
        return getattr(self._gv, name)

    def neighbors(self, p):
        out = self._gv.neighbors(p)
        self.expanded += 1
        self.relaxed += len(out)
        return out


class Tracer:
    """In-memory spans and per-query counts for one traced run."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.query: int | None = None
        self.kind = ""
        self.counts: dict = defaultdict(float)
        self.probes: list[int] = []
        self._original: dict = {}   # name -> the function it wraps, while installed
        self._collectors = {
            "build_obstacle_graph": self._obstacles,
            "build_visibility_graph": self._visibility,
            "dijkstra_shortest_path": self._dijkstra,
            "rotated_plane_slice": self._slice,
            "plan2d": self._plan2d,
            "rasterize_hull": self._rasterize,
        }

    @contextlib.contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        rec = {"id": sid, "name": name, "query": self.query,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()

    def _wrap(self, fn, name: str, collect=None):
        def wrapper(*args, **kwargs):
            result = None
            try:
                with self.span(name):
                    result = fn(*args, **kwargs)
            finally:
                if collect is not None:
                    with self.span("trace.collect"):
                        collect(result, *args)
            return result
        return wrapper

    # -- collectors: called with a layer's result (None if it raised) and its
    # -- positional args

    def _obstacles(self, ob, *args):
        if ob is None:
            return
        c = self.counts
        c["obstacle_graph.vertices"] += len(ob.vertices)
        c["obstacle_graph.marked"] += len(ob.marked)
        c["obstacle_graph.edges"] += len(ob.edges)
        c["obstacle_graph.blocking_edges"] += sum(e.blocking for e in ob.edges)

    def _visibility(self, gv, obstacles, *args):
        if gv is None:
            return
        c = self.counts
        c["visibility.candidates"] += len(gv.vertices)
        c["visibility.edges"] += len(gv.edges)
        for name, n in pair_counts(gv.vertices).items():
            c[name] += n
        probes, peak = lcr_sizes(obstacles, gv.vertices)
        self.probes += probes
        c["visibility.lcr_max"] = max(c["visibility.lcr_max"], peak)

    def _dijkstra(self, path, gv, source, dest):
        c = self.counts
        if path is not None:
            c["pathfind.waypoints"] += len(path.waypoints)
        view = CountingView(gv)
        try:
            self._original["dijkstra_shortest_path"](view, source, dest)
        except NoPathError:
            pass
        c["pathfind.expanded"] += view.expanded
        c["pathfind.relaxed"] += view.relaxed

    def _plan2d(self, path, *args):
        if path is not None and self.kind == "fan":
            self.counts["planner.planes_routable"] += 1

    def _slice(self, sl, *args):
        if sl is not None:
            self.counts["planner.slice_cells"] += sl.grid.rows * sl.grid.cols

    def _rasterize(self, cells, *args):
        if cells is None:
            return
        self.counts["gridmap.rasterize_calls"] += 1
        self.counts["gridmap.cells_marked"] += len(cells)

    @contextlib.contextmanager
    def installed(self, index: int, kind: str, legs: int):
        """Trace one query: wrap the layer entry points, open its root span."""
        saved = [(owner, name, getattr(owner, name)) for owner, name in WRAPPED]
        self._original = {name: fn for _, name, fn in saved}
        self.query, self.kind = index, kind
        self.counts = defaultdict(float)
        self.counts["planner.legs"] = legs
        self.probes = []
        for owner, name, fn in saved:
            setattr(owner, name, self._wrap(fn, name, self._collectors.get(name)))
        try:
            with self.span("query"):
                yield
        finally:
            for mod, name, fn in saved:
                setattr(mod, name, fn)
            self.query = None

    def query_metrics(self, index: int) -> dict[str, float]:
        """Per-layer values of one query: span times summed by name, counts."""
        mine = [s for s in self.spans if s["query"] == index]
        child_time: dict[int, float] = defaultdict(float)
        for s in mine:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        out = {}
        for metric, (name, self_time) in TIME_METRICS.items():
            out[metric] = sum((s["end"] - s["start"] - (child_time[s["id"]] if self_time else 0.0)
                               for s in mine if s["name"] == name), 0.0)
        c = self.counts
        out.update({name: float(c[name]) for name in COUNT_METRICS})
        out["planner.plan2d_calls"] = float(sum(s["name"] == "plan2d" for s in mine))
        pairs = sum(c[k] for k in ("visibility.pairs_vertical", "visibility.pairs_horizontal",
                                   "visibility.pairs_diagonal", "visibility.pairs_generic"))
        out["visibility.visible_ratio"] = c["visibility.edges"] / pairs if pairs else 0.0
        out["visibility.lcr_mean"] = statistics.fmean(self.probes) if self.probes else 0.0
        return out

    def plan2d_breakdown(self) -> tuple[float, dict[str, float]]:
        """Total duration of all ``plan2d`` spans, and the same time split
        into their children by name plus ``planner.plan2d_self_s``."""
        plan2d = {s["id"]: s for s in self.spans if s["name"] == "plan2d"}
        total = sum(s["end"] - s["start"] for s in plan2d.values())
        parts: dict[str, float] = defaultdict(float)
        for s in self.spans:
            if s["parent"] in plan2d:
                parts[s["name"]] += s["end"] - s["start"]
        parts["planner.plan2d_self_s"] = total - sum(parts.values())
        return total, dict(parts)

    def accounting_problems(self) -> list[str]:
        """Child spans must lie inside their parent and not overlap each
        other, so a parent's duration is exactly its self time plus its
        children's durations."""
        problems = []
        by_id = {s["id"]: s for s in self.spans}
        kids: dict[int, list[dict]] = defaultdict(list)
        for s in self.spans:
            if s["parent"] is not None:
                kids[s["parent"]].append(s)
        for pid, children in kids.items():
            parent = by_id[pid]
            last = parent["start"]
            for ch in sorted(children, key=lambda s: s["start"]):
                if ch["start"] < last or ch["end"] > parent["end"]:
                    problems.append(f"span {ch['id']} {ch['name']} escapes or overlaps "
                                    f"within parent {pid} {parent['name']}")
                last = ch["end"]
        return problems
