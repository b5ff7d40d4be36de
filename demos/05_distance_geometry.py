"""
Graph distances under an evolving metric
========================================

Distances are shortest paths over a stencil graph: each grid point links
to neighbours within radius r, with edge lengths from the metric through
ds^2 = 2 Re(g dz dz-bar). On a constant metric the answer has a closed
form, which calibrates the stencil's angular error; along the flow the
contraction d_0 - d_t stays below a fitted C sqrt(t).
"""

import math

import numpy as np

from torusflow import (
    FlatMetric,
    FlowConfig,
    MetricGraph,
    ScenarioSpec,
    TorusGeometry,
    check_distance_estimate,
    flat_accuracy_battery,
    flat_distance_exact,
    make_sequence,
    random_queries,
    run_flow,
)

geo = TorusGeometry(n=1, N=64)

# unit background: one axis step of 1/N costs sqrt(2)/N
flat = FlatMetric(np.eye(1), geometry=geo)
d = flat_distance_exact(flat, np.array([0.0, 0.0]), np.array([0.5, 0.0]))
print(f"half-torus hop: d = {d:.6f} (sqrt(2)/2 = {math.sqrt(2) / 2:.6f})")

graph = MetricGraph(flat, radius=3)
print(f"graph value along a stencil direction: {graph.distance((0, 0), (32, 0)):.6f} (exact)")

battery = flat_accuracy_battery(flat, count=100, seed=2024, radius=3)
print(f"100-query flat battery, radius 3: max rel error {battery['max_rel_error']:.4%}")

# radius buys angular resolution: off-stencil directions improve with r
exact = flat_distance_exact(flat, np.array([0.0, 0.0]), np.array([16 / 64, 3 / 64]))
for r in (1, 2, 3):
    g = MetricGraph(flat, radius=r)
    approx = g.distance((0, 0), (16, 3))
    print(f"  radius {r}: over-approximation {(approx - exact) / exact:.4%}")

# the flow contracts distances no faster than C sqrt(t)
spec = ScenarioSpec(geometry=geo, seed=90, indices=(4,), p=math.inf)
sc = make_sequence(spec)[0]
trace = run_flow(sc.metric, FlowConfig())
# a query set is a (sources, targets) pair of (10, 2) grid index arrays
sources, targets = random_queries(geo, 10, 2024)
frag = check_distance_estimate(trace, (sources, targets), times=(0.05, 0.25, 1.0), radius=3)
print(f"\ncalibrated i=4 scenario: fitted C = {frag['fitted_C']:.4g}")
print(f"  min slack over 10 pairs x 3 times: {frag['min_slack']:+.3e} -> pass={frag['pass']}")
print(f"  initial-vs-flat relative gap: {frag['max_flat_relative_gap']:.4%}")
