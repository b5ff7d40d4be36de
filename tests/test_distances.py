"""Stencil shortest paths against flat-torus closed forms.

With the ds^2 = 2 Re(...) convention the unit Hermitian background gives
axis-aligned separations length sqrt(2) * |dx|, so a half-period hop is
sqrt(0.5) and the (1,1) half-diagonal is exactly 1.
"""

import gc
import itertools
import math
import sys
import tracemalloc

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from conftest import cos_field, sin_field

from torusflow import (
    FlatMetric,
    FlowConfig,
    KahlerMetric,
    MetricGraph,
    PositivityError,
    ScenarioSpec,
    TorusGeometry,
    assemble,
    check_distance_estimate,
    flat_accuracy_battery,
    make_sequence,
    primitive_offsets,
    random_queries,
    run_flow,
)
from torusflow import distances
from torusflow.fields import ScalarField
from torusflow.geometry import _eigenvalues, _quadratic_form
from torusflow.distances import _flat_distances, distance_fragment
from torusflow.runner import config_from_dict, exit_code_of, run_experiment

SQ2 = math.sqrt(2.0)
_H2 = np.array([[1.0, 0.3 + 0.2j], [0.3 - 0.2j, 1.5]])


# ---------------------------------------------------------------------------
# offsets and configuration


def test_primitive_offsets_counts():
    assert len(primitive_offsets(1, 2)) == 8
    assert len(primitive_offsets(3, 2)) == 32  # coprime pairs in [-3,3]^2
    assert len(primitive_offsets(1, 4)) == 80


def test_primitive_offsets_are_coprime():
    offs = primitive_offsets(3, 2)
    for v in offs:
        assert math.gcd(abs(int(v[0])), abs(int(v[1]))) == 1
    # no duplicates, no zero vector
    assert len({tuple(v) for v in offs}) == len(offs)


def test_stencil_validation(geo1):
    flat = FlatMetric(np.eye(1), geometry=geo1)
    for radius in (0, 2.5):
        with pytest.raises(ValueError, match="positive integer"):
            distances.stencil_edges(geo1, radius)
        with pytest.raises(ValueError, match="positive integer"):
            MetricGraph(flat, radius)


def test_query_validation(geo1):
    graph = MetricGraph(FlatMetric(np.eye(1), geometry=geo1))
    # a float point, then points with three and with one coordinate
    for source, target in [((0.5, 0.0), (1, 1)), ((0, 0, 0), (1, 1)), ((0, 0), (1,))]:
        with pytest.raises(ValueError):
            graph.distance(source, target)
    with pytest.raises(ValueError, match="2 sources but 3 targets"):
        graph.distance_batch(np.zeros((2, 2), dtype=int), np.ones((3, 2), dtype=int))


# ---------------------------------------------------------------------------
# closed forms on the flat torus


def flat_exact(flat, x, y) -> float:
    """The closed form of one pair of unit-cell points, through the batched
    form the flat battery and the distance estimate evaluate."""
    x, y = (np.asarray(p, dtype=float)[None] for p in (x, y))
    return float(_flat_distances(flat.H, x, y)[0])


def test_flat_exact_values(geo1):
    H = FlatMetric(np.eye(1), geometry=geo1)
    assert flat_exact(H, (0.0, 0.0), (0.0, 0.0)) == 0.0
    assert flat_exact(H, (0.0, 0.0), (0.5, 0.0)) == pytest.approx(SQ2 * 0.5, abs=1e-15)
    # wrap-around: separation 0.6 is really 0.4
    assert flat_exact(H, (0.0, 0.0), (0.6, 0.0)) == pytest.approx(SQ2 * 0.4, abs=1e-15)
    assert flat_exact(H, (0.0, 0.0), (0.5, 0.5)) == pytest.approx(1.0, abs=1e-15)


def test_flat_exact_scaling(geo1):
    a = flat_exact(FlatMetric(np.eye(1), geometry=geo1), (0.0, 0.0), (0.3, 0.1))
    b = flat_exact(FlatMetric(4.0 * np.eye(1), geometry=geo1), (0.0, 0.0), (0.3, 0.1))
    assert b == pytest.approx(2.0 * a, rel=1e-14)


def _flat_exact_loop(mat, x, y):
    """Reference: the closed form one lattice shift at a time."""
    best = math.inf
    for k in itertools.product((-1.0, 0.0, 1.0), repeat=len(x)):
        d = y - x + np.array(k)
        w = d[0::2] + 1j * d[1::2]
        q = 2.0 * np.einsum("jk,j,k->", mat, w, np.conj(w)).real
        best = min(best, math.sqrt(max(q, 0.0)))
    return best


@pytest.mark.parametrize("H", [np.array([[1.7]]), np.array([[1.0, 0.3 + 0.2j], [0.3 - 0.2j, 1.5]])])
def test_flat_exact_matches_shift_loop(H):
    rng = np.random.default_rng(4)
    for _ in range(50):
        x, y = rng.random((2, 2 * H.shape[0]))
        flat = FlatMetric(H, geometry=TorusGeometry(H.shape[0], 8))
        assert flat_exact(flat, x, y) == pytest.approx(_flat_exact_loop(H, x, y), rel=1e-14)


# ---------------------------------------------------------------------------
# graph distances


def test_graph_exact_along_stencil_directions(geo1):
    flat = FlatMetric(np.eye(1), geometry=geo1)
    g = MetricGraph(flat)
    # straight and diagonal paths lie in the stencil: zero angular error
    assert g.distance((0, 0), (32, 0)) == pytest.approx(SQ2 * 0.5, rel=1e-12)
    assert g.distance((0, 0), (32, 32)) == pytest.approx(1.0, rel=1e-12)
    assert g.distance((0, 0), (0, 0)) == 0.0


def test_graph_wraps_indices(geo1):
    g = MetricGraph(FlatMetric(np.eye(1), geometry=geo1))
    assert g.distance((0, 0), (-32, 64)) == pytest.approx(SQ2 * 0.5, rel=1e-12)
    # unsigned indices: 1 - 5 must wrap modulo N = 12, not modulo 256
    g12 = MetricGraph(FlatMetric(np.eye(1), geometry=TorusGeometry(1, 12)))
    s, t = np.array([[5, 0]]), np.array([[1, 0]])
    assert g12.distance_batch(s.astype(np.uint8), t.astype(np.uint8)) == g12.distance_batch(s, t)


def test_graph_overapproximates_flat(geo1):
    flat = FlatMetric(np.eye(1), geometry=geo1)
    g = MetricGraph(flat)
    for s, t in zip(*random_queries(geo1, 25, seed=11)):
        exact = flat_exact(flat, s / geo1.N, t / geo1.N)
        assert g.distance(s, t) >= exact - 1e-12


def test_flat_battery_within_two_percent(geo1):
    out = flat_accuracy_battery(FlatMetric(np.eye(1), geometry=geo1), count=100, seed=2024)
    assert out["count"] == 100
    assert out["max_rel_error"] <= distances.FLAT_TOL
    assert ((out["graph"] - out["exact"]) / out["exact"] >= -1e-12).all()


def test_graph_distance_scaling(geo1):
    m1 = KahlerMetric(np.eye(1), 0.04 * cos_field(geo1, 0))
    m4 = KahlerMetric(4.0 * np.eye(1), 4.0 * (0.04 * cos_field(geo1, 0)))
    d1 = MetricGraph(m1).distance((3, 7), (40, 21))
    d4 = MetricGraph(m4).distance((3, 7), (40, 21))
    assert d4 == pytest.approx(2.0 * d1, rel=1e-12)


def test_graph_symmetry_and_triangle(geo1):
    graph = MetricGraph(KahlerMetric(np.eye(1), 0.05 * cos_field(geo1, 0)))
    pts = [(0, 0), (17, 5), (40, 50), (9, 33)]
    d = {(a, b): graph.distance(a, b) for a in pts for b in pts}
    for a in pts:
        for b in pts:
            assert d[(a, b)] == pytest.approx(d[(b, a)], rel=1e-12)
            for c in pts:
                assert d[(a, c)] <= d[(a, b)] + d[(b, c)] + 1e-12


def test_radius_refines_distances():
    geo = TorusGeometry(1, 32)
    flat = FlatMetric(np.eye(1), geometry=geo)
    # slope-3 direction is outside the r=1 stencil but inside r=3
    target = (4, 12)
    d1, d2, d3 = (MetricGraph(flat, r).distance((0, 0), target)
                  for r in (1, 2, 3))
    assert d1 >= d2 >= d3
    assert d1 > d3 + 1e-9
    exact = flat_exact(flat, (0, 0), (4 / 32, 12 / 32))
    assert d3 == pytest.approx(exact, rel=1e-12)


def test_batch_matches_single(geo1):
    graph = MetricGraph(FlatMetric(np.eye(1), geometry=geo1))
    sources, targets = random_queries(geo1, 10, seed=3)
    batch = graph.distance_batch(sources, targets)
    for s, t, d in zip(sources, targets, batch):
        assert d == pytest.approx(graph.distance(s, t), rel=1e-14)


@pytest.mark.parametrize(
    "geo, H",
    [
        (TorusGeometry(1, 64), np.eye(1)),
        (TorusGeometry(2, 8), np.array([[1.0, 0.3 + 0.2j], [0.3 - 0.2j, 1.5]])),
    ],
)
def test_one_source_battery_matches_all_sources(geo, H):
    flat = FlatMetric(H, geometry=geo)
    out = flat_accuracy_battery(flat, count=60, seed=2024)
    sources, targets = random_queries(geo, 60, 2024)
    direct = MetricGraph(flat).distance_batch(sources, targets)
    assert len(np.unique(sources, axis=0)) > 50
    np.testing.assert_allclose(out["graph"], direct, rtol=1e-12)


@pytest.mark.parametrize("geo, H", [(TorusGeometry(1, 64), np.array([[1.3]])), (TorusGeometry(2, 8), _H2)])
def test_battery_exact_values_match_single_pairs(geo, H):
    """The battery evaluates the closed form for all its queries at once;
    each value is the single-pair value, bit for bit."""
    flat = FlatMetric(H, geometry=geo)
    exact = flat_accuracy_battery(flat, count=40, seed=5)["exact"]
    for s, t, e in zip(*random_queries(geo, 40, 5), exact):
        assert e == flat_exact(flat, s / geo.N, t / geo.N)


def _coo_graph(metric, radius):
    """Reference: one COO block per canonical offset, rolled index arrays,
    each edge stored once; the line element is the closed form pinned in
    test_geometry."""
    g = assemble(metric)
    geo, vals = g.geometry, g.values
    base = np.arange(geo.npoints).reshape(geo.shape)
    rows, cols, data = [], [], []
    for v in primitive_offsets(radius, geo.axes):
        if v[np.nonzero(v)[0][0]] < 0:
            continue
        disp = v * geo.spacing
        q = 2.0 * _quadratic_form(vals, disp[0::2] + 1j * disp[1::2])
        shift = tuple(-int(c) for c in v)
        rows.append(base.ravel())
        cols.append(np.roll(base, shift, axis=geo.grid_axes).ravel())
        data.append(np.sqrt(0.5 * (q + np.roll(q, shift, axis=geo.grid_axes))).ravel())
    return csr_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(geo.npoints,) * 2,
    )


@pytest.mark.parametrize("radius", [1, 3])
def test_cached_topology_matches_coo_build(geo1, radius):
    metric = KahlerMetric(
        np.eye(1), 0.04 * cos_field(geo1, 0) + 0.005 * sin_field(geo1, 1, mode=2)
    )
    graph = MetricGraph(metric, radius)
    one_way = _coo_graph(metric, radius)
    assert one_way.nnz == distances.stencil_edges(geo1, radius)
    # every edge stored in both directions, with the same weight
    assert graph._graph.nnz == 2 * one_way.nnz
    assert (graph._graph != one_way + one_way.T).nnz == 0


def _reference_batch(metric, radius, sources, targets):
    """Reference: an unbounded undirected search over the one-way graph,
    one search for all sources."""
    geo = metric.geometry

    def node(p):
        return np.ravel_multi_index(tuple(int(c) % geo.N for c in p), geo.shape)

    starts = sorted({node(s) for s in sources})
    table = dijkstra(_coo_graph(metric, radius), directed=False, indices=starts)
    row = {s: k for k, s in enumerate(starts)}
    return np.array([table[row[node(s)], node(t)] for s, t in zip(sources, targets)])


def _potential(geo, *terms):
    """Sum of amplitude * cos(2 pi k . x) for (amplitude, k) terms."""
    x = [geo.coordinate(a) for a in range(geo.axes)]
    return ScalarField(geo, sum((a * np.cos(2 * np.pi * sum(c * xi for c, xi in zip(k, x)))
                                 for a, k in terms), np.zeros(geo.shape)))


BOUNDED_CASES = {
    "n1-identity": (TorusGeometry(1, 32), 3, np.eye(1), ()),
    # the limit is exactly sqrt(lambda) d_I here, so it needs its rounding headroom
    "n1-scaled-identity": (TorusGeometry(1, 32), 3, 1.7 * np.eye(1), ()),
    "n1-near-flat": (TorusGeometry(1, 32), 3, np.eye(1), ((1e-4, (1, 0)), (5e-5, (1, 2)))),
    "n1-spread": (TorusGeometry(1, 32), 3, 1.5 * np.eye(1), ((0.08, (1, 0)), (0.003, (0, 2)))),
    "n2-scaled-identity": (TorusGeometry(2, 8), 2, 2.3 * np.eye(2), ()),
    "n2-near-flat": (TorusGeometry(2, 8), 2, _H2, ((1e-4, (1, 0, 1, 0)),)),
    "n2-spread": (TorusGeometry(2, 8), 2, _H2, ((0.05, (1, 0, 0, 0)), (0.01, (0, 1, 1, 0)))),
}


@pytest.mark.parametrize("case", list(BOUNDED_CASES))
def test_bounded_search_equals_unbounded_reference(case):
    geo, radius, H, terms = BOUNDED_CASES[case]
    metric = KahlerMetric(H, _potential(geo, *terms))
    eig = _eigenvalues(assemble(metric).values)
    lo, hi = float(eig[0].min()), float(eig[-1].max())
    assert lo > 0
    if case.endswith("spread"):
        assert hi >= 2.0 * lo
    half = geo.N // 2
    one = np.ones(geo.axes, dtype=np.int64)
    sources, targets = random_queries(geo, 12, seed=8)
    # two half-period hops, then one source with several targets: one
    # search serves them all
    sources = np.concatenate([sources, [0 * one, 3 * one, one, one]])
    targets = np.concatenate([targets, [half * one, (3 + half) * one, 2 * one, (half + 1) * one]])
    got = MetricGraph(metric, radius).distance_batch(sources, targets)
    assert np.array_equal(got, _reference_batch(metric, radius, sources, targets))


def test_bound_too_small_raises(monkeypatch, geo1):
    original = distances._identity_distances
    monkeypatch.setattr(distances, "_identity_distances", lambda geo, r: 0.5 * original(geo, r))
    graph = MetricGraph(KahlerMetric(np.eye(1), 0.04 * cos_field(geo1, 0)))
    with pytest.raises(RuntimeError, match="a-priori distance bound"):
        graph.distance_batch(*random_queries(geo1, 5, seed=3))


@pytest.mark.parametrize("n, N, radius", [(2, 16, 1), (1, 64, 3)])
def test_graph_peak_bytes_per_edge(n, N, radius):
    """One graph build and one batch on cold caches stay under the bytes
    per canonical edge that MAX_GRAPH_EDGES is sized by."""
    geo = TorusGeometry(n, N)
    g = assemble(KahlerMetric(np.eye(n), 0.01 * cos_field(geo, 0)))
    queries = random_queries(geo, 10, seed=90)
    distances._topology.cache_clear()
    distances._identity_distances.cache_clear()
    gc.collect()
    tracemalloc.start()
    try:
        MetricGraph(g, radius).distance_batch(*queries)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / distances.stencil_edges(geo, radius) < distances._PEAK_BYTES_PER_EDGE


@pytest.mark.parametrize("N", [4, 6])
def test_graph_rejects_radius_that_wraps(N):
    # at N=6, (1, 3) and (1, -3) reach the same neighbour
    with pytest.raises(ValueError, match="needs N > 6"):
        MetricGraph(FlatMetric(np.eye(1), geometry=TorusGeometry(1, N)), 3)


def test_graph_radius_below_half_grid_keeps_every_edge():
    geo = TorusGeometry(1, 8)
    graph = MetricGraph(FlatMetric(np.eye(1), geometry=geo), 3)
    assert graph._graph.nnz == 2 * geo.npoints * 16 == 2 * distances.stencil_edges(geo, 3)
    assert graph.distance((0, 0), (1, 1)) == pytest.approx(0.25, rel=1e-12)


def test_stencil_edges_counts():
    assert distances.stencil_edges(TorusGeometry(1, 64), 3) == 4096 * 16
    assert distances.stencil_edges(TorusGeometry(2, 16), 3) == 16**4 * 1120
    assert distances.stencil_edges(TorusGeometry(2, 16), 3) > distances.MAX_GRAPH_EDGES


def test_dijkstra_source_budget(monkeypatch):
    config = config_from_dict({
        "geometry": {"n": 1, "N": 16},
        "scenario": {"indices": [1], "p": "inf"},
        "flow": {"t_end": 1.0, "snapshot_times": [0.25, 1.0]},
        "distance": {"queries": 4, "flat_queries": 30, "times": [0.25, 1.0]},
    })
    trace = run_flow(
        KahlerMetric(np.eye(1), 0.02 * cos_field(config.geometry, 0)), config.flow
    )
    distances._identity_distances.cache_clear()
    calls = []
    original = distances.dijkstra

    def counted(graph, **kwargs):
        calls.append((np.size(kwargs["indices"]), "limit" in kwargs))
        return original(graph, **kwargs)

    monkeypatch.setattr(distances, "dijkstra", counted)
    result = distance_fragment(config, trace)
    assert result.report["flat_battery"]["count"] == 30
    queries = random_queries(config.geometry, config.distance.queries, config.distance.seed)
    sources = len(np.unique(queries[0], axis=0))
    graphs = len(config.distance.times) + 1  # t = 0 and each time
    # the identity metric's search for the grid, then one bounded search per
    # estimate graph and distinct source, then the battery's one
    assert calls == [(1, False)] + [(1, True)] * (graphs * sources + 1)
    assert graphs * sources <= graphs * config.distance.queries


def test_graph_rejects_nonpositive(geo1):
    with pytest.raises(PositivityError):
        MetricGraph(FlatMetric(-np.eye(1), geometry=geo1))


def test_random_queries_deterministic(geo1):
    a = random_queries(geo1, 20, seed=5)
    b = random_queries(geo1, 20, seed=5)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert a[0].shape == a[1].shape == (20, 2)
    assert not a[0].flags.writeable and not a[1].flags.writeable
    assert (a[0] != a[1]).any(axis=1).all()


# ---------------------------------------------------------------------------
# flow shrinking estimate


def test_distance_estimate_on_calibrated_trace():
    geo = TorusGeometry(1, 32)
    spec = ScenarioSpec(geometry=geo, seed=90, indices=(4,), p=math.inf)
    sc = make_sequence(spec)[0]
    trace = run_flow(sc.metric, FlowConfig(t_end=1.0))
    queries = random_queries(geo, 10, seed=77)
    out = check_distance_estimate(trace, queries)
    assert out["pass"], out["min_slack"]
    assert out["fitted_C"] >= 0.0
    assert len(out["rows"]) == 30  # 10 queries x 3 times
    assert all(r["slack"] >= -1e-9 for r in out["rows"])
    # the bound reads d_0, d_t and t alone: slack = C sqrt(t) - (d_0 - d_t)
    for r in out["rows"]:
        assert r["gap"] == r["d0"] - r["dt"]
        assert r["slack"] == out["fitted_C"] * math.sqrt(r["t"]) - r["gap"]
    # near-flat data: the initial distance sits close to the attractor's
    assert out["max_flat_relative_gap"] < 0.1


def test_distance_run_calls_no_riemann_norm(tmp_path, monkeypatch):
    """A run with distances on completes while every binding of
    riemann_norm in the package raises."""
    def forbidden(*args, **kwargs):
        raise AssertionError("riemann_norm called")

    patched = 0
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "torusflow" and hasattr(module, "riemann_norm"):
            monkeypatch.setattr(module, "riemann_norm", forbidden)
            patched += 1
    assert patched >= 2  # the package and torusflow.geometry
    config = config_from_dict({
        "geometry": {"n": 1, "N": 16},
        "scenario": {"indices": [1, 4], "seed": 90, "p": "inf"},
        "distance": {"queries": 3, "flat_queries": 20},
    })
    assert config.distance.enabled
    manifest = run_experiment(config, tmp_path)
    assert [row["status"] for row in manifest.scenarios] == ["ok", "ok"]
    assert exit_code_of(manifest) == 0
