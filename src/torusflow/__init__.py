"""Numerical laboratory for canonical-metric flows on square complex tori.

Layers, bottom up: `fields` (spectral calculus on periodic grids),
`geometry` (Hermitian metrics, curvature, projections, pairings),
`flow` (potential-flow time integration), `scenarios` (calibrated
initial-data families), `harness` (estimate measurement and checking),
`distances` (stencil geodesics), `io` (snapshots and traces), `runner`
and `cli` (batch orchestration).
"""

__version__ = "0.1.0"  # set before the imports: runner reads it

from .fields import (
    FieldError,
    ScalarField,
    TorusGeometry,
    complex_hessian,
    constant_field,
    flat_laplacian,
    integrate,
    lp_norm,
    random_band_limited,
    truncate_modes,
)
from .geometry import (
    FlatMetric,
    HermitianField,
    KahlerMetric,
    PositivityError,
    ProjectionError,
    TestForm,
    assemble,
    eigenvalue_range,
    harmonic_projection,
    min_eigenvalue,
    pair_test_form,
    pairing_density,
    ricci,
    riemann_norm,
    scalar_curvature,
    trace_wrt,
    volume,
    volume_density,
)
from .flow import (
    FlowConfig,
    FlowFailure,
    FlowState,
    FlowTrace,
    StepDiagnostics,
    dot_phi,
    run_flow,
    step,
)
from .scenarios import (
    BracketFailure,
    Scenario,
    ScenarioError,
    ScenarioSpec,
    ZeroShape,
    calibrate_amplitude,
    make_sequence,
)
from .harness import (
    CheckResult,
    EstimateReport,
    ScenarioResult,
    build_reports,
    check_scalar_floor,
    default_test_forms,
    family_summary,
    fit_rate,
)
from .distances import (
    DistanceQuery,
    MetricGraph,
    StencilConfig,
    check_distance_estimate,
    flat_accuracy_battery,
    flat_distance_exact,
    primitive_offsets,
    random_queries,
)
from .io import load_field, load_metric_snapshot, load_trace, save_field, save_metric_snapshot, save_trace
from .runner import (
    ConfigError,
    ExperimentConfig,
    RunManifest,
    config_from_dict,
    exit_code_of,
    parse_config,
    run_experiment,
)

__all__ = [
    "FieldError", "ScalarField", "TorusGeometry", "complex_hessian",
    "constant_field", "flat_laplacian", "integrate",
    "lp_norm", "random_band_limited", "truncate_modes",
    "FlatMetric", "HermitianField", "KahlerMetric", "PositivityError",
    "ProjectionError", "TestForm", "assemble", "eigenvalue_range",
    "harmonic_projection", "min_eigenvalue", "pair_test_form",
    "pairing_density", "ricci", "riemann_norm", "scalar_curvature",
    "trace_wrt", "volume", "volume_density",
    "FlowConfig", "FlowFailure", "FlowState", "FlowTrace",
    "StepDiagnostics", "dot_phi", "run_flow", "step",
    "BracketFailure", "Scenario", "ScenarioError", "ScenarioSpec",
    "ZeroShape", "calibrate_amplitude", "make_sequence",
    "CheckResult", "EstimateReport", "ScenarioResult", "build_reports",
    "check_scalar_floor", "default_test_forms", "family_summary", "fit_rate",
    "DistanceQuery", "MetricGraph", "StencilConfig",
    "check_distance_estimate", "flat_accuracy_battery",
    "flat_distance_exact", "primitive_offsets", "random_queries",
    "load_field", "load_metric_snapshot", "load_trace",
    "save_field", "save_metric_snapshot", "save_trace",
    "ConfigError", "ExperimentConfig", "RunManifest",
    "config_from_dict", "exit_code_of", "parse_config", "run_experiment",
    "__version__",
]
