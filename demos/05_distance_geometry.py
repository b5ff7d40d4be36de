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
    make_sequence,
    random_queries,
    run_flow,
)

geo = TorusGeometry(n=1, N=64)

# unit background: one axis step of 1/N costs sqrt(2)/N, and a path along
# a stencil direction has no angular error
flat = FlatMetric(np.eye(1), geometry=geo)
graph = MetricGraph(flat, radius=3)
d = graph.distance((0, 0), (32, 0))
print(f"half-torus hop on the graph: d = {d:.6f} (sqrt(2)/2 = {math.sqrt(2) / 2:.6f})")

# the flat battery: graph against closed-form distances over 100 random
# pairs; radius buys angular resolution, so the worst excess falls with r
for r in (1, 2, 3):
    battery = flat_accuracy_battery(flat, count=100, seed=2024, radius=r)
    print(f"  radius {r}: max over-approximation {battery['max_rel_error']:.4%}")
print(f"  first pair at radius 3: graph {battery['graph'][0]:.6f}, "
      f"exact {battery['exact'][0]:.6f}")

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
