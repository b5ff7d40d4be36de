"""Stencil shortest paths against flat-torus closed forms.

With the ds^2 = 2 Re(...) convention the unit Hermitian background gives
axis-aligned separations length sqrt(2) * |dx|, so a half-period hop is
sqrt(0.5) and the (1,1) half-diagonal is exactly 1.
"""

import itertools
import math

import numpy as np
import pytest
from scipy.sparse import csr_matrix

from conftest import cos_field, sin_field

from torusflow import (
    DistanceQuery,
    FlatMetric,
    FlowConfig,
    KahlerMetric,
    MetricGraph,
    PositivityError,
    ScenarioSpec,
    StencilConfig,
    TorusGeometry,
    assemble,
    check_distance_estimate,
    flat_accuracy_battery,
    flat_distance_exact,
    make_sequence,
    primitive_offsets,
    random_queries,
    run_flow,
)
from torusflow import distances
from torusflow.geometry import _quadratic_form
from torusflow.runner import config_from_dict, distance_fragment

SQ2 = math.sqrt(2.0)


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


def test_stencil_validation():
    with pytest.raises(ValueError):
        StencilConfig(radius=0)
    with pytest.raises(ValueError):
        StencilConfig(radius=2.5)


def test_query_validation():
    with pytest.raises(ValueError):
        DistanceQuery((0.5, 0.0), (1, 1))


# ---------------------------------------------------------------------------
# closed forms on the flat torus


def test_flat_exact_values():
    H = FlatMetric(np.eye(1))
    assert flat_distance_exact(H, (0.0, 0.0), (0.0, 0.0)) == 0.0
    assert flat_distance_exact(H, (0.0, 0.0), (0.5, 0.0)) == pytest.approx(SQ2 * 0.5, abs=1e-15)
    # wrap-around: separation 0.6 is really 0.4
    assert flat_distance_exact(H, (0.0, 0.0), (0.6, 0.0)) == pytest.approx(SQ2 * 0.4, abs=1e-15)
    assert flat_distance_exact(H, (0.0, 0.0), (0.5, 0.5)) == pytest.approx(1.0, abs=1e-15)


def test_flat_exact_scaling():
    a = flat_distance_exact(FlatMetric(np.eye(1)), (0.0, 0.0), (0.3, 0.1))
    b = flat_distance_exact(FlatMetric(4.0 * np.eye(1)), (0.0, 0.0), (0.3, 0.1))
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
        assert flat_distance_exact(FlatMetric(H), x, y) == pytest.approx(
            _flat_exact_loop(H, x, y), rel=1e-14
        )


def test_flat_exact_rejects_bad_points():
    with pytest.raises(ValueError):
        flat_distance_exact(FlatMetric(np.eye(1)), (0.0,), (0.5, 0.0))


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


def test_graph_overapproximates_flat(geo1):
    g = MetricGraph(FlatMetric(np.eye(1), geometry=geo1))
    flat = FlatMetric(np.eye(1))
    for q in random_queries(geo1, 25, seed=11):
        exact = flat_distance_exact(
            flat, np.array(q.source) / geo1.N, np.array(q.target) / geo1.N
        )
        assert g.distance(q.source, q.target) >= exact - 1e-12


def test_flat_battery_within_two_percent(geo1):
    out = flat_accuracy_battery(FlatMetric(np.eye(1), geometry=geo1), count=100, seed=2024)
    assert out["count"] == 100
    assert out["max_rel_error"] <= 0.02
    assert all(r["rel_error"] >= -1e-12 for r in out["rows"])


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
    d1, d2, d3 = (MetricGraph(flat, StencilConfig(radius=r)).distance((0, 0), target)
                  for r in (1, 2, 3))
    assert d1 >= d2 >= d3
    assert d1 > d3 + 1e-9
    exact = flat_distance_exact(FlatMetric(np.eye(1)), (0, 0), (4 / 32, 12 / 32))
    assert d3 == pytest.approx(exact, rel=1e-12)


def test_batch_matches_single(geo1):
    graph = MetricGraph(FlatMetric(np.eye(1), geometry=geo1))
    queries = random_queries(geo1, 10, seed=3)
    batch = graph.distance_batch(queries)
    for q, d in zip(queries, batch):
        assert d == pytest.approx(graph.distance(q.source, q.target), rel=1e-14)


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
    direct = MetricGraph(flat).distance_batch([r["query"] for r in out["rows"]])
    assert len({r["query"].source for r in out["rows"]}) > 50
    np.testing.assert_allclose([r["graph"] for r in out["rows"]], direct, rtol=1e-12)


def _coo_graph(metric, radius):
    """Reference: one COO block per canonical offset, rolled index arrays;
    the line element is the closed form pinned in test_geometry."""
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
    graph = MetricGraph(metric, StencilConfig(radius))
    assert graph._graph.nnz == distances.stencil_edges(geo1, radius)
    assert (graph._graph != _coo_graph(metric, radius)).nnz == 0


@pytest.mark.parametrize("N", [4, 6])
def test_graph_rejects_radius_that_wraps(N):
    # at N=6, (1, 3) and (1, -3) reach the same neighbour
    with pytest.raises(ValueError, match="needs N > 6"):
        MetricGraph(FlatMetric(np.eye(1), geometry=TorusGeometry(1, N)), StencilConfig(3))


def test_graph_radius_below_half_grid_keeps_every_edge():
    geo = TorusGeometry(1, 8)
    graph = MetricGraph(FlatMetric(np.eye(1), geometry=geo), StencilConfig(3))
    assert graph._graph.nnz == geo.npoints * 16 == distances.stencil_edges(geo, 3)
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
    calls = []
    original = distances.dijkstra

    def counted(graph, **kwargs):
        calls.append(len(np.atleast_1d(kwargs["indices"])))
        return original(graph, **kwargs)

    monkeypatch.setattr(distances, "dijkstra", counted)
    frag = distance_fragment(config, trace)
    assert frag["flat_battery"]["count"] == 30
    # one search per estimate graph (t = 0 and each time), then the battery
    assert len(calls) == len(config.distance_times) + 2
    assert calls[-1] == 1
    assert sum(calls[:-1]) <= (len(config.distance_times) + 1) * config.distance_queries


def test_graph_rejects_nonpositive(geo1):
    with pytest.raises(PositivityError):
        MetricGraph(FlatMetric(-np.eye(1), geometry=geo1))


def test_random_queries_deterministic(geo1):
    a = random_queries(geo1, 20, seed=5)
    b = random_queries(geo1, 20, seed=5)
    assert a == b
    assert all(q.source != q.target for q in a)


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
    assert out["L"] > 0.0
    assert out["fitted_C"] >= 0.0
    assert len(out["rows"]) == 30  # 10 queries x 3 times
    assert all(r["slack"] >= -1e-9 for r in out["rows"])
    # near-flat data: the initial distance sits close to the attractor's
    assert out["max_flat_relative_gap"] < 0.1
