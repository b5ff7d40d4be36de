"""Grid geodesics: stencil shortest paths and flat-torus closed forms.

Length convention ds^2 = 2 Re(g_{jk} dz^j dz-bar^k): a unit Hermitian
coefficient on the unit torus gives Euclidean lengths scaled by sqrt(2).
Graph distances over-approximate continuous ones; the dominant error is
angular (stencil resolution, decreasing in the radius), not radial.

A radius-r stencil joins each node to the nodes at its primitive offsets
in [-r, r]^{2n}.  Two offsets reach the same neighbour modulo N only when
2r >= N, so graphs require 2r < N and every edge is then distinct.  The
edge topology depends only on (geometry, radius) and is built once; each
metric snapshot fills in the weights.  A constant metric gives every node
the same weights, so its graph is translation invariant and
d(s, t) = d(0, t - s mod N): the flat battery runs one Dijkstra.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from .fields import TorusGeometry
from .geometry import (
    FlatMetric,
    PositivityError,
    _coefficients,
    _min_eigenvalue,
    _pack,
    _quadratic_form,
    assemble,
    riemann_norm,
)
from .flow import FlowTrace

__all__ = [
    "StencilConfig",
    "DistanceQuery",
    "primitive_offsets",
    "MAX_GRAPH_EDGES",
    "stencil_edges",
    "MetricGraph",
    "flat_distance_exact",
    "random_queries",
    "check_distance_estimate",
]


@dataclass(frozen=True)
class StencilConfig:
    """Neighbor offsets: integer vectors in [-r, r]^{2n} with coprime entries."""

    radius: int = 3

    def __post_init__(self):
        if not isinstance(self.radius, int) or self.radius < 1:
            raise ValueError(f"stencil radius must be a positive integer, got {self.radius!r}")


@dataclass(frozen=True)
class DistanceQuery:
    source: tuple
    target: tuple

    def __post_init__(self):
        for p in (self.source, self.target):
            if not all(isinstance(c, (int, np.integer)) for c in p):
                raise ValueError("query endpoints must be grid index tuples")


# Building and searching a graph peaks at about 30 bytes per edge
# (weights and their temporaries, the shared topology, Dijkstra's
# transposed copy), so this caps one graph near 0.5 GB.
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

    Offsets in [-r, r] stay distinct modulo N only while 2r < N; a larger
    radius would merge edges, so it raises ValueError.
    """
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
    this grid and stencil.  offsets are the canonical half (first nonzero
    entry positive; dijkstra reads the matrix as undirected, so each edge
    is stored once); neighbours[i, k] is node i + offsets[k] mod N, which
    is CSR row i, and indptr gives every row len(offsets) entries."""
    stencil_edges(geometry, radius)  # rejects 2r >= N
    offs = primitive_offsets(radius, geometry.axes)
    offs = offs[offs[np.arange(len(offs)), np.argmax(offs != 0, axis=1)] > 0]
    base = np.arange(geometry.npoints, dtype=np.int32).reshape(geometry.shape)
    nbr = np.empty((geometry.npoints, len(offs)), dtype=np.int32)
    for k, v in enumerate(offs):
        nbr[:, k] = np.roll(base, tuple(-int(c) for c in v), axis=geometry.grid_axes).ravel()
    indptr = np.arange(0, nbr.size + 1, len(offs), dtype=np.int32)
    for a in (offs, nbr, indptr):
        a.setflags(write=False)
    return offs, nbr, indptr


class MetricGraph:
    """Shortest-path oracle over one metric snapshot.

    The edge table (one weight per node and canonical offset) is built
    once; queries share it read-only.  Edge weight = segment length under
    the midpoint value of the squared line element, approximated by the
    mean of the endpoint quadratic forms, which keeps every weight positive.
    """

    def __init__(self, metric, stencil: StencilConfig = StencilConfig(), geometry=None):
        geo, vals = _coefficients(metric)
        geo = geo or geometry
        if geo is None:
            raise ValueError("flat metric carries no grid; pass geometry explicitly")
        if _min_eigenvalue(vals) <= 0:
            raise PositivityError("distance on a non-positive metric")
        self.geometry = geo
        self.stencil = stencil
        offsets, nbr, indptr = _topology(geo, stencil.radius)
        q = np.empty(nbr.shape)
        for k, disp in enumerate(offsets * geo.spacing):
            q[:, k] = 2.0 * _quadratic_form(vals, disp[0::2] + 1j * disp[1::2]).reshape(-1)
        wts = np.sqrt(0.5 * (q + np.take_along_axis(q, nbr, axis=0)))
        self._graph = csr_matrix((wts.ravel(), nbr.ravel(), indptr), shape=(geo.npoints,) * 2)

    def node(self, point) -> int:
        idx = tuple(int(c) % self.geometry.N for c in point)
        if len(idx) != self.geometry.axes:
            raise ValueError(f"point has {len(idx)} coordinates, grid has {self.geometry.axes}")
        return int(np.ravel_multi_index(idx, self.geometry.shape))

    def distances_from(self, source) -> np.ndarray:
        d = dijkstra(self._graph, directed=False, indices=self.node(source))
        return d.reshape(self.geometry.shape)

    def distance(self, source, target) -> float:
        full = self.distances_from(source)
        return float(full[tuple(int(c) % self.geometry.N for c in target)])

    def distance_batch(self, queries) -> np.ndarray:
        sources = sorted({self.node(q.source) for q in queries})
        table = dijkstra(self._graph, directed=False, indices=sources)
        row_of = {s: k for k, s in enumerate(sources)}
        return np.array(
            [table[row_of[self.node(q.source)], self.node(q.target)] for q in queries]
        )


def flat_distance_exact(H: FlatMetric, x, y) -> float:
    """Flat-torus distance: min over lattice shifts in {-1,0,1}^{2n}.

    x, y are real coordinate vectors in the unit cell (grid indices / N
    work after dividing by N).
    """
    mat = H.H if isinstance(H, FlatMetric) else np.asarray(H, dtype=np.complex128)
    n = mat.shape[0]
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != (2 * n,) or y.shape != (2 * n,):
        raise ValueError(f"points must have {2 * n} real coordinates")
    shifts = np.indices((3,) * (2 * n)).reshape(2 * n, -1).T - 1.0
    d = y - x + shifts
    q = 2.0 * _quadratic_form(_pack(mat), (d[:, 0::2] + 1j * d[:, 1::2]).T)
    return math.sqrt(max(float(q.min()), 0.0))


def random_queries(geometry: TorusGeometry, count: int, seed: int) -> list:
    """Distinct-endpoint query pairs, uniform over grid points."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        pts = rng.integers(0, geometry.N, size=(2, geometry.axes))
        if np.array_equal(pts[0], pts[1]):
            continue
        out.append(DistanceQuery(tuple(int(c) for c in pts[0]), tuple(int(c) for c in pts[1])))
    return out


def flat_accuracy_battery(
    flat: FlatMetric,
    geometry: TorusGeometry | None = None,
    count: int = 100,
    seed: int = 2024,
    stencil: StencilConfig = StencilConfig(),
) -> dict:
    """Graph-vs-closed-form accuracy on a constant metric.

    The graph value always over-approximates; the worst relative excess
    over the battery is the stencil's effective angular error.  Every
    node of a constant metric's graph carries the same edge weights, so
    d(s, t) = d(0, t - s mod N) and one Dijkstra from the origin answers
    all the queries.
    """
    geo = flat.geometry if flat.geometry is not None else geometry
    if geo is None:
        raise ValueError("flat metric carries no grid; pass geometry explicitly")
    queries = random_queries(geo, count, seed)
    graph = MetricGraph(flat, stencil, geo)
    origin = (0,) * geo.axes
    approx = graph.distance_batch([
        DistanceQuery(origin, tuple((t - s) % geo.N for s, t in zip(q.source, q.target)))
        for q in queries
    ])
    rows = []
    worst = 0.0
    for q, d in zip(queries, approx):
        exact = flat_distance_exact(
            flat,
            np.array(q.source, dtype=float) / geo.N,
            np.array(q.target, dtype=float) / geo.N,
        )
        rel = (float(d) - exact) / exact
        worst = max(worst, abs(rel))
        rows.append({"query": q, "graph": float(d), "exact": exact, "rel_error": rel})
    return {"max_rel_error": worst, "rows": rows, "count": count}


def check_distance_estimate(
    trace: FlowTrace,
    queries,
    times=(0.05, 0.25, 1.0),
    stencil: StencilConfig = StencilConfig(),
) -> dict:
    """Shrinking-distance bound d_0(x,y) <= d_t(x,y) + C sqrt(L t).

    L is measured as sup_t t * max |Rm(g(t))| over the snapshots, C is
    fitted as the smallest constant covering every (query, t) pair, and
    the flat comparison records max |d_0 - d_flat| / d_flat against the
    attractor's closed form.
    """
    geo = trace.initial.geometry
    queries = list(queries)
    d0 = MetricGraph(trace.initial, stencil).distance_batch(queries)

    # one assembly per snapshot feeds both |Rm| and, at the distance times, its graph
    wanted = [trace.snapshot_at(t) for t in times]
    L = 0.0
    d_at = {}
    for s in trace.snapshots:
        g = assemble(s.metric())
        L = max(L, s.t * float(riemann_norm(g).values.max()))
        if any(s is w for w in wanted):
            d_at[id(s)] = MetricGraph(g, stencil).distance_batch(queries)

    rows = []
    ratios = []
    for t, snap in zip(times, wanted):
        for qid, (q, a, b) in enumerate(zip(queries, d0, d_at[id(snap)])):
            gap = float(a - b)
            scale = math.sqrt(max(L * t, 0.0))
            rows.append({"query": qid, "t": t, "d0": float(a), "dt": float(b), "gap": gap})
            if scale > 0 and gap > 0:
                ratios.append(gap / scale)
    fitted_c = max(ratios, default=0.0)
    for r in rows:
        r["slack"] = fitted_c * math.sqrt(max(L * r["t"], 0.0)) - r["gap"]

    flat_rel = 0.0
    flat_rows = []
    for qid, q in enumerate(queries):
        xs = np.array(q.source, dtype=float) / geo.N
        ys = np.array(q.target, dtype=float) / geo.N
        d_flat = flat_distance_exact(trace.alpha, xs, ys)
        rel = abs(float(d0[qid]) - d_flat) / d_flat
        flat_rel = max(flat_rel, rel)
        flat_rows.append({"query": qid, "d0": float(d0[qid]), "d_flat": d_flat, "rel_gap": rel})

    min_slack = min((r["slack"] for r in rows), default=0.0)
    return {
        "L": L,
        "fitted_C": fitted_c,
        "rows": rows,
        "min_slack": min_slack,
        "flat_rows": flat_rows,
        "max_flat_relative_gap": flat_rel,
        "pass": bool(min_slack >= -1e-9),
    }
