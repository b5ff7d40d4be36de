"""Flow integration: stationarity, linear-regime accuracy, invariants.

The linearized oracle: for g = 1 + d dbar phi with a tiny single-mode
potential, the equation reduces to the heat equation for the flat
Laplacian, so the mode-(1,0) coefficient must decay like e^{-pi^2 t}.
"""

import numpy as np
import pytest

from conftest import cos_field

from torusflow import (
    FlowConfig,
    FlowFailure,
    FlowState,
    KahlerMetric,
    ScalarField,
    TorusGeometry,
    assemble,
    constant_field,
    dot_phi,
    min_eigenvalue,
    run_flow,
    scalar_curvature,
    step,
    volume,
)
from torusflow import flow as flow_module

HEAT_RATE = np.pi**2  # mode-(1,0) decay rate of the flat heat flow


def single_mode(geo, a):
    return KahlerMetric(np.eye(geo.n), a * cos_field(geo, 0))


def mode_coefficient(metric, state):
    total = metric.phi.values + state.phi_osc.values + state.phi_mean
    idx = (1,) + (0,) * (metric.geometry.axes - 1)
    return np.fft.fftn(total)[idx]


# ---------------------------------------------------------------------------
# configuration validation


@pytest.mark.parametrize(
    "kwargs",
    [
        {"scheme": "leapfrog"},
        {"sigma": 0.0},
        {"sigma": 1.5},
        {"t_end": 0.0},
        {"t_end": 2.5},
        {"snapshot_times": (0.5, 1.5), "t_end": 1.0},
        {"max_rejects": 0},
        {"t_ramp": 0.0},
    ],
)
def test_config_rejects(kwargs):
    with pytest.raises(ValueError):
        FlowConfig(**kwargs)


def test_config_sorts_snapshots():
    cfg = FlowConfig(snapshot_times=(0.5, 0.1, 1.0))
    assert cfg.snapshot_times == (0.1, 0.5, 1.0)


# ---------------------------------------------------------------------------
# stationarity and flat behaviour


def test_flat_stationarity(geo1):
    """Flat data stays fixed: sup|phi| and min R both at rounding zero."""
    m = KahlerMetric(np.eye(1), constant_field(geo1, 0.0))
    trace = run_flow(m, FlowConfig(t_end=1.0))
    assert trace.final.t == pytest.approx(1.0, abs=1e-12)
    for s in trace.snapshots + (trace.final,):
        assert abs(s.phi_mean) + np.abs(s.phi_osc.values).max() <= 1e-10
    for d in trace.diagnostics:
        assert abs(d.min_scalar_curvature) <= 1e-10
        assert abs(d.min_dot_phi) <= 1e-12 and abs(d.max_dot_phi) <= 1e-12


def test_dot_phi_closed_form(geo1):
    m = single_mode(geo1, 0.05)
    zero = constant_field(geo1, 0.0)
    state = FlowState(base=m, t=0.0, phi_osc=zero, phi_mean=0.0, dot_phi=zero, last_dt=0.0)
    got = dot_phi(state).values
    b = 0.05 * np.pi**2
    x = geo1.coordinate(0)
    assert np.abs(got - np.log(1.0 - b * np.cos(2 * np.pi * x))).max() < 1e-12


def test_dot_phi_mass_identity(geo1):
    # int e^{dot phi} det H_alpha = int det g, pointwise algebra
    m = single_mode(geo1, 0.04)
    zero = constant_field(geo1, 0.0)
    state = FlowState(base=m, t=0.0, phi_osc=zero, phi_mean=0.0, dot_phi=zero, last_dt=0.0)
    rhs = dot_phi(state).values
    b = 0.04 * np.pi**2
    g = 1.0 - b * np.cos(2 * np.pi * geo1.coordinate(0))
    assert abs(np.exp(rhs).mean() - g.mean()) < 1e-14


# ---------------------------------------------------------------------------
# linear regime


def test_linear_regime_decay(geo1):
    """Amplitude ratio at t=0.1 matches the heat kernel within 1e-3."""
    m = single_mode(geo1, 1e-4)
    trace = run_flow(m, FlowConfig(sigma=0.001, t_end=0.1, snapshot_times=(0.1,)))
    c0 = np.fft.fftn(m.phi.values)[1, 0]
    ratio = (mode_coefficient(m, trace.snapshot_at(0.1)) / c0).real
    assert ratio == pytest.approx(np.exp(-HEAT_RATE * 0.1), rel=1e-3)


def test_explicit_scheme_decay():
    geo = TorusGeometry(1, 32)
    m = single_mode(geo, 1e-4)
    cfg = FlowConfig(scheme="explicit", sigma=0.2, t_end=0.05, snapshot_times=(0.05,))
    trace = run_flow(m, cfg)
    c0 = np.fft.fftn(m.phi.values)[1, 0]
    ratio = (mode_coefficient(m, trace.snapshot_at(0.05)) / c0).real
    assert ratio == pytest.approx(np.exp(-HEAT_RATE * 0.05), rel=2e-3)


# ---------------------------------------------------------------------------
# invariants along a genuinely nonlinear run


@pytest.fixture(scope="module")
def bump_trace():
    geo = TorusGeometry(1, 64)
    m = KahlerMetric(np.eye(1), 0.05 * cos_field(geo, 0))
    return m, run_flow(m, FlowConfig(t_end=1.0))


def test_min_curvature_monotone(bump_trace):
    _, trace = bump_trace
    ds = trace.diagnostics
    drift = 1e-3 * (1.0 + abs(ds[0].min_scalar_curvature))
    running = ds[0].min_scalar_curvature
    for d in ds[1:]:
        assert d.min_scalar_curvature >= running - drift
        running = max(running, d.min_scalar_curvature)


def test_min_dot_phi_monotone(bump_trace):
    _, trace = bump_trace
    ds = trace.diagnostics
    running = ds[0].min_dot_phi
    for d in ds[1:]:
        assert d.min_dot_phi >= running - 1e-4
        running = max(running, d.min_dot_phi)


def test_volume_conserved(bump_trace):
    _, trace = bump_trace
    vols = [d.volume for d in trace.diagnostics]
    assert (max(vols) - min(vols)) / min(vols) <= 1e-7


def test_volume_conserved_two_dim(geo2):
    m = KahlerMetric(np.eye(2), 0.03 * cos_field(geo2, 0))
    trace = run_flow(m, FlowConfig(t_end=0.5, snapshot_times=(0.5,)))
    vols = [d.volume for d in trace.diagnostics]
    assert (max(vols) - min(vols)) / min(vols) <= 1e-7


def test_snapshots_at_requested_times(bump_trace):
    _, trace = bump_trace
    assert trace.times == (0.01, 0.05, 0.1, 0.25, 0.5, 1.0)
    with pytest.raises(KeyError):
        trace.snapshot_at(0.33)


def test_diagnostics_cover_every_step(bump_trace):
    _, trace = bump_trace
    ts = [d.t for d in trace.diagnostics]
    assert ts[0] == 0.0
    assert ts == sorted(ts)
    assert ts[-1] == pytest.approx(1.0, abs=1e-12)
    # dt column matches the time increments
    for prev, cur, d in zip(ts, ts[1:], trace.diagnostics[1:]):
        assert d.dt == pytest.approx(cur - prev, abs=1e-12)


# ---------------------------------------------------------------------------
# stepping API and failure modes


def test_step_advances(geo1):
    m = single_mode(geo1, 0.02)
    trace = run_flow(m, FlowConfig(t_end=0.01, snapshot_times=(0.01,)))
    nxt = step(trace.final, FlowConfig(t_end=1.0))
    assert isinstance(nxt, FlowState)
    assert nxt.t > trace.final.t


def test_nonpositive_initial_fails(geo1):
    # amplitude past the wall: min eig = 1 - 0.2 pi^2 < 0
    m = single_mode(geo1, 0.2)
    with pytest.raises(FlowFailure) as err:
        run_flow(m, FlowConfig(t_end=0.1, snapshot_times=(0.1,)))
    assert err.value.last_state.t == 0.0


def test_near_wall_step_is_rejected_and_refined():
    """A barely positive metric forces dt halving rather than failure."""
    for geo in (TorusGeometry(1, 32), TorusGeometry(2, 8)):
        a = (1.0 - 1e-3) / np.pi**2  # min eig 1e-3
        m = single_mode(geo, a)
        trace = run_flow(m, FlowConfig(sigma=1.0, t_ramp=0.5, t_end=0.05, snapshot_times=(0.05,)))
        assert min(d.min_eigenvalue for d in trace.diagnostics) > 0.0
        # at least one accepted dt is below the unrefined target sigma*t_ramp
        assert min(d.dt for d in trace.diagnostics[1:]) < 0.5


def test_nonfinite_candidate_is_retried_at_half_step(monkeypatch):
    """A NaN in one candidate potential is a rejection, not a crash."""
    geo = TorusGeometry(2, 8)
    m = single_mode(geo, 0.03)
    original = flow_module._Kernel.advance
    dts = []

    def advance(self, ev, dt):
        out = original(self, ev, dt)
        dts.append(dt)
        if len(dts) == 3:
            out = out.copy()
            out.flat[1] = np.nan
        return out

    monkeypatch.setattr(flow_module._Kernel, "advance", advance)
    cfg = FlowConfig(t_end=0.1, snapshot_times=(0.1,))
    trace = run_flow(m, cfg)
    assert dts[3] == dts[2] / 2.0
    assert trace.diagnostics[3].dt == dts[3]
    assert trace.final.t == pytest.approx(cfg.t_end, abs=1e-12)
    assert len(dts) == len(trace.diagnostics)  # one retry on top of the accepted steps


# ---------------------------------------------------------------------------
# the spectral kernel against the public API, and its transform budget


@pytest.fixture(scope="module")
def bump_trace_two_dim():
    geo = TorusGeometry(2, 16)
    x1, y2 = geo.coordinate(0), geo.coordinate(3)
    psi = 0.02 * np.cos(2 * np.pi * (x1 + y2)) + 0.01 * np.sin(2 * np.pi * x1)
    m = KahlerMetric(np.array([[1.0, 0.2j], [-0.2j, 1.5]]), ScalarField(geo, psi))
    return run_flow(m, FlowConfig(t_end=0.25, snapshot_times=(0.05, 0.25)))


def test_step_diagnostics_match_the_public_api(bump_trace_two_dim):
    trace = bump_trace_two_dim
    assert trace.times == (0.05, 0.25)
    for s in trace.snapshots:
        (row,) = [d for d in trace.diagnostics if d.t == s.t]
        metric = s.metric()
        assert abs(row.min_scalar_curvature - scalar_curvature(metric).min()) <= 1e-12
        rate = dot_phi(s, trace.alpha, dealias=True)
        assert np.abs(rate.values - s.dot_phi.values).max() <= 1e-12
        assert abs(row.min_dot_phi - rate.min()) <= 1e-12
        assert abs(row.max_dot_phi - rate.max()) <= 1e-12
        assert abs(row.min_eigenvalue - min_eigenvalue(assemble(metric))) <= 1e-8
        assert row.volume == pytest.approx(volume(metric), rel=1e-12)


# real transforms per accepted step, and those of the set-up: projection,
# background Hessian and the evaluation and diagnostics at t = 0
TRANSFORM_BUDGET = {1: (5, 13), 2: (11, 28)}


@pytest.mark.parametrize("n, N", [(1, 32), (2, 8)])
def test_transform_budget(monkeypatch, n, N):
    m = single_mode(TorusGeometry(n, N), 0.03)
    counts = dict.fromkeys(("rfftn", "irfftn", "fftn", "ifftn"), 0)
    for name in counts:
        def counted(*args, _name=name, _fn=getattr(np.fft, name), **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    advances = []
    original = flow_module._Kernel.advance
    monkeypatch.setattr(flow_module._Kernel, "advance",
                        lambda self, ev, dt: advances.append(dt) or original(self, ev, dt))
    trace = run_flow(m, FlowConfig(t_end=0.1, snapshot_times=(0.1,)))
    steps = len(trace.diagnostics) - 1
    assert steps > 10 and len(advances) == steps  # no rejection
    assert counts["fftn"] == counts["ifftn"] == 0
    per_step, setup = TRANSFORM_BUDGET[n]
    assert counts["rfftn"] + counts["irfftn"] <= per_step * steps + setup
