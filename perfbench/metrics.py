"""Metric names, units and predictions; BENCHMARK.json lists the same names.

Each per-layer metric names the end-to-end metric and workloads it is
expected to move, so a later change can state its prediction in these
terms before it is measured.
"""

WORKLOADS = {
    "dist-n1-N64": (
        "n=1 N=64 run, p=inf, distances on: Dijkstra and the flat battery dominate, "
        "flows are small; the workload a distance-stage change must move"
    ),
    "flow-n2-N16": (
        "n=2 N=16 run, distances off: flows, FFTs and field validation dominate; "
        "a distance change must leave it unchanged"
    ),
    "check-n2-N16": (
        "check on persisted n=2 traces: no flows, time in scenarios, harness and trace "
        "load; shows a flow speed-up paid for with costlier save or load"
    ),
}

# name -> (unit, better, bound as a share of the parent's median).  Times
# are scaled to host speed (run.PROBE_NOMINAL_S); the time bounds stay wide
# because the speed of the shared 2-core host also jitters within a run,
# and the scaled run_s still spread by up to 18% over ten flow-n2-N16 runs.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "run_s": ("s", "lower", 0.25),
    "wall_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.05),
}

_ALL = "all three workloads"
_FLOW = "run_s on flow-n2-N16, somewhat on check-n2-N16, barely on dist-n1-N64"
_DIST = "run_s on dist-n1-N64 only"
_STAGE = "copied from manifest.json timings as a cross-check; moves with its stage"

# name -> (unit, better, predicted effect)
PER_LAYER = {
    "fields.fft_calls": ("count", "lower", _FLOW),
    "fields.fft_points": ("count", "lower", _FLOW),
    "fields.complex_hessian.calls": ("count", "lower", _FLOW),
    "fields.complex_hessian.self_s": ("s", "lower", _FLOW),
    "fields.hermitian_validate.calls": ("count", "lower", _FLOW),
    "fields.hermitian_validate.self_s": ("s", "lower", _FLOW),
    "geometry.scalar_curvature.calls": ("count", "lower", "run_s on " + _ALL),
    "geometry.scalar_curvature.self_s": ("s", "lower", "run_s on " + _ALL),
    "geometry.riemann_norm.self_s": ("s", "lower", "run_s on dist-n1-N64"),
    "geometry.harmonic_projection.self_s": ("s", "lower", "run_s on the run workloads"),
    "flow.run_flow.s": ("s", "lower", "run_s on flow-n2-N16; none on check-n2-N16"),
    "flow.run_flow.self_s": ("s", "lower", "run_s on flow-n2-N16; none on check-n2-N16"),
    "flow.steps": ("count", "lower", "run_s on flow-n2-N16; none on check-n2-N16"),
    "flow.step_ms": ("ms", "lower", "run_s on flow-n2-N16; none on check-n2-N16"),
    "flow.fft_per_step": ("count/step", "lower", "run_s on flow-n2-N16; none on check-n2-N16"),
    "scenarios.make_sequence.s": ("s", "lower", "run_s on check-n2-N16 (~45%), flow-n2-N16 (~15%)"),
    "scenarios.calibrate_amplitude.calls": ("count", "lower", "run_s on check-n2-N16, flow-n2-N16"),
    "scenarios.curvature_probes": ("count", "lower", "run_s on check-n2-N16, flow-n2-N16"),
    "scenarios.probes_per_index": ("count/index", "lower", "run_s on check-n2-N16, flow-n2-N16"),
    "harness.build_reports.s": ("s", "lower", "run_s on check-n2-N16"),
    "harness.build_reports.self_s": ("s", "lower", "run_s on check-n2-N16"),
    "harness.family_summary.s": ("s", "lower", "run_s on check-n2-N16"),
    "distances.graph_build.s": ("s", "lower", _DIST),
    "distances.graphs": ("count", "lower", _DIST),
    "distances.graph_edges": ("count", "lower", _DIST + "; also peak_rss_mb there"),
    "distances.dijkstra.s": ("s", "lower", _DIST),
    "distances.dijkstra_sources": ("count", "lower", _DIST),
    "distances.queries_per_source": ("count/source", "higher", _DIST),
    "distances.flat_battery.s": ("s", "lower", _DIST),
    "distances.estimate.s": ("s", "lower", _DIST),
    "io.save_trace.s": ("s", "lower", "run_s on the run workloads"),
    "io.bytes_written": ("B", "lower", "run_s on the run workloads"),
    "io.load_trace.s": ("s", "lower", "run_s on check-n2-N16"),
    "io.load_trace.self_s": ("s", "lower", "run_s on check-n2-N16"),
    "io.bytes_read": ("B", "lower", "run_s on check-n2-N16"),
    "runner.emit_outputs.s": ("s", "lower", "run_s on " + _ALL),
    "runner.self_s": ("s", "lower", "run_s on " + _ALL),
    "runner.stage.scenario_generation_s": ("s", "lower", _STAGE),
    "runner.stage.flows_s": ("s", "lower", _STAGE),
    "runner.stage.harness_s": ("s", "lower", _STAGE),
    "runner.stage.distance_s": ("s", "lower", _STAGE),
    "runner.stage.total_s": ("s", "lower", _STAGE),
    "trace.run_s": ("s", "lower", "run_s of the traced repetition itself"),
    "trace.overhead_s": ("s", "lower", "tracing cost: traced run_s minus the untraced median"),
}
