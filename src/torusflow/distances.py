"""Grid geodesics: stencil shortest paths and flat-torus closed forms.

Length convention ds^2 = 2 Re(g_{jk} dz^j dz-bar^k): a unit Hermitian
coefficient on the unit torus gives Euclidean lengths scaled by sqrt(2).
Graph distances over-approximate continuous ones; the dominant error is
angular (stencil resolution, decreasing in the radius), not radial.

A radius-r stencil joins each node to the nodes at its primitive offsets
in [-r, r]^{2n}.  Two offsets reach the same neighbour modulo N only when
2r >= N, so graphs require 2r < N and every edge is then distinct.  The
edge topology depends only on (geometry, radius) and is built once; each
metric snapshot fills in the weights.  Every edge is stored in both
directions, so searches run directed and scipy builds no transposed copy.
A constant metric gives every node the same weights, so its graph is
translation invariant and d(s, t) = d(0, t - s mod N): the flat battery
runs one Dijkstra.

Every edge weight obeys w_g <= sqrt(lambda_max(g)) w_I, where w_I is the
identity metric's weight on the same edge, so the bound carries over to
paths and to graph distances: d_g(s, t) <= sqrt(lambda_max) d_I(t - s).
d_I is one cached search from the origin of the identity metric's graph,
and each query source gets one search stopped just above that bound for
its farthest target.  Distances within the limit are the same fixed point
min_u fl(d(u) + w(u, v)) as an unbounded search's, so the limit changes
no value.

A query set is a pair (sources, targets) of (m, 2n) integer grid index
arrays, row k one query; `random_queries` draws one.  Every graph path
takes its stencil as the radius r, a positive integer.

A run's battery (`distance_fragment`) is the estimate on a flow trace
plus the flat battery on its attractor.  It needs one or more distance
times, each a snapshot time, 2r < N and at most MAX_GRAPH_EDGES edges
(`battery_config_errors`).  It passes when the fitted estimate holds
within FIT_TOL and the flat battery's error is at most FLAT_TOL.  Its
`DistanceResult` holds every output row and the verdict, finished here.

scipy's sparse stack (scipy.sparse and scipy.sparse.csgraph) is not
imported with this module: `_graph_stack` loads it, at the first graph
build or search, or when the command line's set-up loads the back ends a
config runs (cli).  Importing it after numpy costs 0.2-0.3 s and about
33 MB, and a run that builds no graph never pays it.  Searches go
through the module function `dijkstra`, looked up as a global at each
call, so a tracer that replaces `distances.dijkstra` sees every search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .fields import TorusGeometry
from .geometry import (
    FlatMetric,
    _coefficients,
    _pack,
    _positive_eigenvalues,
    _quadratic_form,
)
from .flow import FlowTrace, _same_time
from .harness import FIT_TOL, _result

__all__ = [
    "DistanceConfig",
    "primitive_offsets",
    "MAX_GRAPH_EDGES",
    "stencil_edges",
    "MetricGraph",
    "flat_distance_exact",
    "random_queries",
    "flat_accuracy_battery",
    "check_distance_estimate",
    "FLAT_TOL",
    "battery_config_errors",
    "DISTANCE_COLUMNS",
    "DistanceResult",
    "distance_fragment",
]


@dataclass(frozen=True)
class DistanceConfig:
    """The distance battery: graph queries on the flow trace at the given
    snapshot times, and the flat battery on its attractor.  enabled None
    leaves the choice to the experiment (see runner.config_from_dict)."""

    enabled: bool | None = None
    radius: int = 3
    queries: int = 10
    flat_queries: int = 100
    times: tuple = (0.05, 0.25, 1.0)
    seed: int = 2024


# Building and searching one graph on cold caches peaks under this many
# bytes per canonical (one-way) edge: weights (16) and neighbour indices
# (8) in both directions, plus per-offset temporaries.  tracemalloc reads
# 26.5 at n=2, N=16, r=1 and 27.6 at n=1, N=64, r=3; scipy's per-node
# search heap is outside it.  The edge budget caps one graph near 0.47 GB.
_PEAK_BYTES_PER_EDGE = 28
MAX_GRAPH_EDGES = 1 << 24


def primitive_offsets(radius: int, dim: int) -> np.ndarray:
    """All nonzero integer vectors in [-radius, radius]^dim with gcd 1,
    in lexicographic order."""
    if radius < 1 or dim < 1:
        raise ValueError("radius and dimension must be positive")
    span = np.indices((2 * radius + 1,) * dim).reshape(dim, -1).T - radius
    return span[np.gcd.reduce(np.abs(span), axis=1) == 1]


def stencil_edges(geometry: TorusGeometry, radius: int) -> int:
    """Edge count of a MetricGraph: nodes x canonical offsets.

    The radius must be a positive integer, and offsets in [-r, r] stay
    distinct modulo N only while 2r < N; a larger radius would merge
    edges.  Either violation raises ValueError.
    """
    if not isinstance(radius, int) or radius < 1:
        raise ValueError(f"stencil radius must be a positive integer, got {radius!r}")
    if 2 * radius >= geometry.N:
        raise ValueError(
            f"stencil radius {radius} needs N > {2 * radius}: at N={geometry.N} "
            "two offsets reach the same neighbour"
        )
    # offsets come in +-v pairs and the canonical half keeps one of each
    return geometry.npoints * (len(primitive_offsets(radius, geometry.axes)) // 2)


@lru_cache(maxsize=4)
def _topology(geometry: TorusGeometry, radius: int) -> tuple:
    """(offsets, neighbours, indptr) shared read-only by every graph on
    this grid and stencil.  offsets are the K canonical offsets (first
    nonzero entry positive); CSR row i holds every edge at node i in both
    directions: neighbours[i, k] is node i + offsets[k] mod N and
    neighbours[i, K + k] is node i - offsets[k] mod N, and indptr gives
    every row 2K entries.  About 8 bytes per canonical edge."""
    stencil_edges(geometry, radius)  # rejects a bad radius and 2r >= N
    offs = primitive_offsets(radius, geometry.axes)
    offs = offs[offs[np.arange(len(offs)), np.argmax(offs != 0, axis=1)] > 0]
    base = np.arange(geometry.npoints, dtype=np.int32).reshape(geometry.shape)
    nbr = np.empty((geometry.npoints, 2 * len(offs)), dtype=np.int32)
    for k, v in enumerate(np.concatenate([offs, -offs])):
        nbr[:, k] = np.roll(base, tuple(-int(c) for c in v), axis=geometry.grid_axes).ravel()
    indptr = np.arange(0, nbr.size + 1, nbr.shape[1], dtype=np.int32)
    for a in (offs, nbr, indptr):
        a.setflags(write=False)
    return offs, nbr, indptr


def _graph_stack():
    """scipy.sparse with its csgraph subpackage loaded (module docstring)."""
    import scipy.sparse.csgraph

    return scipy.sparse


def dijkstra(graph, **kwargs) -> np.ndarray:
    """scipy.sparse.csgraph.dijkstra on graph, with scipy's keywords."""
    return _graph_stack().csgraph.dijkstra(graph, **kwargs)


def _edge_graph(geometry: TorusGeometry, vals: np.ndarray, radius: int):
    """Both-way scipy CSR matrix of the edge weights of packed coefficients
    vals: the segment length under the mean of the endpoint quadratic forms."""
    offsets, nbr, indptr = _topology(geometry, radius)
    K = len(offsets)
    wts = np.empty(nbr.shape)
    for k, v in enumerate(offsets):
        disp = v * geometry.spacing
        q = np.broadcast_to(2.0 * _quadratic_form(vals, disp[0::2] + 1j * disp[1::2]), geometry.shape)
        w = np.sqrt(0.5 * (q + np.roll(q, tuple(-int(c) for c in v), axis=geometry.grid_axes)))
        wts[:, k] = w.ravel()
        # the edge from i - v to i, stored again in row i
        wts[:, K + k] = np.roll(w, v, axis=geometry.grid_axes).ravel()
    return _graph_stack().csr_matrix((wts.ravel(), nbr.ravel(), indptr),
                                      shape=(geometry.npoints,) * 2)


@lru_cache(maxsize=4)
def _identity_distances(geometry: TorusGeometry, radius: int) -> np.ndarray:
    """d_I(0, v) per flat node index v: graph distances from the origin
    under the identity metric, which bound every metric's searches."""
    d = dijkstra(_edge_graph(geometry, _pack(np.eye(geometry.n)), radius), directed=True, indices=0)
    d.setflags(write=False)
    return d


class MetricGraph:
    """Shortest-path oracle over one metric snapshot.

    The edge table (one weight per node and edge direction) is built
    once; queries share it read-only.  Edge weight = segment length under
    the midpoint value of the squared line element, approximated by the
    mean of the endpoint quadratic forms, which keeps every weight positive.
    """

    def __init__(self, metric, radius: int = DistanceConfig.radius):
        geo, vals = _coefficients(metric)
        eig = _positive_eigenvalues(vals)
        self.geometry = geo
        # search limit per unit of d_I: sqrt(lambda_max) plus rounding headroom.
        # d_I is fetched before this graph's weights exist, so the first graph
        # on a grid never holds two weight tables at once.
        self._limit_per_unit = math.sqrt(float(eig[-1].max())) * (1.0 + 1e-9)
        self._identity = _identity_distances(geo, radius)
        self._graph = _edge_graph(geo, vals, radius)

    def _points(self, points) -> np.ndarray:
        """An (m, 2n) integer grid index array, wrapped into [0, N)."""
        pts = np.asarray(points)
        if pts.dtype.kind not in "iu" or pts.ndim != 2 or pts.shape[1] != self.geometry.axes:
            raise ValueError(f"points must be an (m, {self.geometry.axes}) integer index array, "
                             f"got {pts.dtype} of shape {pts.shape}")
        return pts.astype(np.int64) % self.geometry.N  # unsigned differences would wrap

    def _nodes(self, pts: np.ndarray) -> np.ndarray:
        return np.ravel_multi_index(pts.T, self.geometry.shape)

    def distance(self, source, target) -> float:
        return float(self.distance_batch([source], [target])[0])

    def distance_batch(self, sources, targets) -> np.ndarray:
        """d(sources[k], targets[k]) per row k: one search per distinct
        source, stopped at sqrt(lambda_max) d_I of its farthest target
        (plus rounding headroom).  A target beyond the limit would read
        inf, so it raises instead."""
        src, dst = self._points(sources), self._points(targets)
        if len(src) != len(dst):
            raise ValueError(f"{len(src)} sources but {len(dst)} targets")
        starts, ends = self._nodes(src), self._nodes(dst)
        limits = self._limit_per_unit * self._identity[self._nodes((dst - src) % self.geometry.N)]
        out = np.empty(len(src))
        for s in np.unique(starts):
            mine = starts == s
            d = dijkstra(self._graph, directed=True, indices=int(s), limit=limits[mine].max())
            out[mine] = d[ends[mine]]
        if not np.isfinite(out).all():
            raise RuntimeError("a bounded search stopped short of its target: "
                               "the a-priori distance bound does not hold")
        return out


def _flat_distances(mat: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Flat-torus distances between the rows of x and y, (m, 2n) each:
    min over lattice shifts in {-1,0,1}^{2n}."""
    n = mat.shape[0]
    shifts = np.indices((3,) * (2 * n)).reshape(2 * n, -1).T - 1.0
    d = (y - x)[:, None, :] + shifts
    q = 2.0 * _quadratic_form(_pack(mat), np.moveaxis(d[..., 0::2] + 1j * d[..., 1::2], -1, 0))
    return np.sqrt(np.maximum(q.min(axis=-1), 0.0))


def flat_distance_exact(flat: FlatMetric, x, y) -> float:
    """Flat-torus distance: min over lattice shifts in {-1,0,1}^{2n}.

    x, y are real coordinate vectors in the unit cell (grid indices / N
    work after dividing by N).
    """
    if not isinstance(flat, FlatMetric):
        raise TypeError(f"expected a FlatMetric, got {type(flat).__name__}")
    n = flat.n
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != (2 * n,) or y.shape != (2 * n,):
        raise ValueError(f"points must have {2 * n} real coordinates")
    return float(_flat_distances(flat.H, x[None], y[None])[0])


@lru_cache(maxsize=8)
def random_queries(geometry: TorusGeometry, count: int, seed: int) -> tuple:
    """(sources, targets): read-only (count, 2n) index arrays of distinct
    endpoints, uniform over grid points.  They depend only on the
    arguments, so a run draws each set once."""
    rng = np.random.default_rng(seed)
    pairs = []
    while len(pairs) < count:
        pts = rng.integers(0, geometry.N, size=(2, geometry.axes))
        if not np.array_equal(pts[0], pts[1]):
            pairs.append(pts)
    pts = np.array(pairs, dtype=np.int64).reshape(count, 2, geometry.axes)
    pts.setflags(write=False)
    return pts[:, 0], pts[:, 1]


def flat_accuracy_battery(flat: FlatMetric, count: int = DistanceConfig.flat_queries,
                          seed: int = DistanceConfig.seed,
                          radius: int = DistanceConfig.radius) -> dict:
    """Graph-vs-closed-form accuracy on a constant metric.

    The graph value always over-approximates; the worst relative excess
    over the battery is the stencil's effective angular error.  Every
    node of a constant metric's graph carries the same edge weights, so
    d(s, t) = d(0, t - s mod N) and one Dijkstra from the origin answers
    all the queries.  Returns max_rel_error, count, and the per-query
    graph and exact distances.
    """
    graph = MetricGraph(flat, radius)
    geo = graph.geometry
    sources, targets = random_queries(geo, count, seed)
    approx = graph.distance_batch(np.zeros_like(sources), (targets - sources) % geo.N)
    exact = _flat_distances(flat.H, sources / geo.N, targets / geo.N)
    rel = (approx - exact) / exact
    return {"max_rel_error": float(np.abs(rel).max(initial=0.0)), "count": count,
            "graph": approx, "exact": exact}


def check_distance_estimate(trace: FlowTrace, queries: tuple, times=DistanceConfig.times,
                            radius: int = DistanceConfig.radius) -> dict:
    """Shrinking-distance bound d_0(x,y) <= d_t(x,y) + C sqrt(t) on a
    query set (sources, targets), read off the snapshots at the given times.

    C is fitted as the smallest constant covering every (query, t) pair,
    so the least slack is 0 by construction.  The flat comparison records
    max |d_0 - d_flat| / d_flat against the attractor's closed form.
    """
    geo = trace.initial.geometry
    sources, targets = queries
    wanted = [trace.snapshot_at(t) for t in times]  # a missing time raises before any graph
    d0 = MetricGraph(trace.initial, radius).distance_batch(sources, targets)
    rows = []
    for t, snap in zip(times, wanted):
        dt = MetricGraph(snap.metric(), radius).distance_batch(sources, targets)
        rows += [{"query": qid, "t": t, "d0": float(a), "dt": float(b), "gap": float(a - b)}
                 for qid, (a, b) in enumerate(zip(d0, dt))]
    fitted_c = max((max(0.0, r["gap"]) / math.sqrt(r["t"]) for r in rows), default=0.0)
    for r in rows:
        r["slack"] = fitted_c * math.sqrt(r["t"]) - r["gap"]

    d_flat = _flat_distances(trace.alpha.H, sources / geo.N, targets / geo.N)
    flat_gap = np.abs(d0 - d_flat) / d_flat
    flat_rows = [
        {"query": qid, "d0": float(a), "d_flat": float(b), "rel_gap": float(r)}
        for qid, (a, b, r) in enumerate(zip(d0, d_flat, flat_gap))
    ]

    min_slack = min((r["slack"] for r in rows), default=0.0)
    return {
        "fitted_C": fitted_c,
        "rows": rows,
        "min_slack": min_slack,
        "flat_rows": flat_rows,
        "max_flat_relative_gap": float(flat_gap.max(initial=0.0)),
        "pass": bool(min_slack >= -FIT_TOL),
    }


# ---------------------------------------------------------------------------
# the battery a run measures: preconditions, fragment, verdict

FLAT_TOL = 0.02  # largest relative error the flat battery may show


def battery_config_errors(config) -> list:
    """Config-error messages for the battery of an experiment config
    (its geometry, flow snapshot times and distance section); empty when
    it may run.  Distances are read off stored snapshots, each time is
    listed once, and a graph must keep every edge distinct and fit the
    edge budget."""
    geo, dist, snaps = config.geometry, config.distance, config.flow.snapshot_times
    errors = [] if dist.times else [
        "distance.times: must name at least one snapshot time while distances are on"]
    if missing := [float(t) for t in dist.times if not any(_same_time(s, t) for s in snaps)]:
        errors.append(f"distance.times: {missing} are not flow snapshot times {list(snaps)}; "
                      "distances are read off stored snapshots")
    times = dist.times
    if repeated := [float(t) for k, t in enumerate(times) if any(_same_time(s, t) for s in times[:k])]:
        errors.append(f"distance.times: {repeated} listed more than once; each time is one "
                      "set of distance rows")
    try:
        edges = stencil_edges(geo, dist.radius)
    except ValueError as exc:
        return errors + [f"distance.radius: {exc}"]
    if edges > MAX_GRAPH_EDGES:
        errors.append(f"distance.radius: radius {dist.radius} at n={geo.n}, N={geo.N} gives "
                      f"{edges:,} graph edges, over the budget of {MAX_GRAPH_EDGES:,}")
    return errors


DISTANCE_COLUMNS = ("query", "t", "d", "method", "slack")


class DistanceResult(NamedTuple):
    """One scenario's battery, finished: report.json's "distance" entry, a
    check row per (query, time), distance.csv's rows under DISTANCE_COLUMNS
    (graph rows with their slack against the fitted bound, then flat-exact
    rows with their relative gap), family.csv's two cells and the verdict."""

    report: dict
    checks: list
    rows: list
    family_cells: dict
    passed: bool


def distance_fragment(config, trace: FlowTrace) -> DistanceResult:
    """Distance estimate on one trace of an experiment config, plus the
    flat battery on its attractor."""
    dist = config.distance
    queries = random_queries(config.geometry, dist.queries, dist.seed)
    report = check_distance_estimate(trace, queries, times=dist.times, radius=dist.radius)
    flat_rows = report.pop("flat_rows")
    battery = flat_accuracy_battery(trace.alpha, count=dist.flat_queries, seed=dist.seed + 1,
                                    radius=dist.radius)
    report["flat_battery"] = {k: battery[k] for k in ("max_rel_error", "count")}
    graph_rows = report["rows"]
    return DistanceResult(
        report=report,
        checks=[_result(f"distance[q{r['query']},t={r['t']:g}]", {}, r["slack"], FIT_TOL)
                for r in graph_rows],
        rows=[(r["query"], r["t"], r["dt"], "graph", r["slack"]) for r in graph_rows]
        + [(r["query"], 0.0, r["d0"], "flat_exact", r["rel_gap"]) for r in flat_rows],
        family_cells={"distance_min_slack": report["min_slack"],
                      "distance_flat_max_rel": report["max_flat_relative_gap"]},
        passed=report["pass"] and battery["max_rel_error"] <= FLAT_TOL,
    )
