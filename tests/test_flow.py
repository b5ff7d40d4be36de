"""Flow integration: stationarity, linear-regime accuracy, invariants.

The linearized oracle: for g = 1 + d dbar phi with a tiny single-mode
potential, the equation reduces to the heat equation for the flat
Laplacian, so the mode-(1,0) coefficient must decay like e^{-pi^2 t}.
"""

import functools
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from conftest import cos_field, rate_field

from torusflow import (
    FlowConfig,
    FlowFailure,
    FlowState,
    KahlerMetric,
    ScalarField,
    TorusGeometry,
    assemble,
    constant_field,
    harmonic_projection,
    integrate,
    min_eigenvalue,
    run_flow,
    scalar_curvature,
    truncate_modes,
    volume,
    volume_density,
)
from torusflow import fields
from torusflow import flow as flow_module

ROOT = Path(__file__).resolve().parent.parent
HEAT_RATE = np.pi**2  # mode-(1,0) decay rate of the flat heat flow


def single_mode(geo, a):
    return KahlerMetric(np.eye(geo.n), a * cos_field(geo, 0))


def mode_coefficient(metric, state):
    total = metric.phi.values + state.phi.values
    idx = (1,) + (0,) * (metric.geometry.axes - 1)
    return np.fft.fftn(total)[idx]


# ---------------------------------------------------------------------------
# configuration validation


@pytest.mark.parametrize(
    "kwargs",
    [
        {"sigma": 0.0},
        {"sigma": 1.5},
        {"t_end": 0.0},
        {"t_end": 2.5},
        {"snapshot_times": (0.5, 1.5), "t_end": 1.0},
        {"t_ramp": 0.0},
        {"snapshot_times": (0.0, 0.5)},
        {"snapshot_times": (1.0 + 2e-9,), "t_end": 1.0},
        {"t_ramp": float("nan")},
        {"t_ramp": float("inf")},
    ],
)
def test_config_rejects(kwargs):
    with pytest.raises(ValueError):
        FlowConfig(**kwargs)


def test_config_sorts_snapshots():
    cfg = FlowConfig(snapshot_times=(0.5, 0.1, 1.0))
    assert cfg.snapshot_times == (0.1, 0.5, 1.0)


@pytest.mark.parametrize(
    "given, kept",
    [
        ((0.05, 0.05, 0.1), (0.05, 0.1)),
        ((0.05, 0.05 + 1e-11), (0.05, 0.1)),
        ((0.05,), (0.05, 0.1)),
        ((0.05, 0.1 + 5e-13), (0.05, 0.1)),
        ((0.05, 0.1 - 5e-13), (0.05, 0.1)),
    ],
)
def test_config_snapshot_times_end_at_t_end(given, kept):
    """One entry per distinct time, and t_end, exactly, always the last."""
    times = FlowConfig(t_end=0.1, snapshot_times=given).snapshot_times
    assert times == kept
    assert times[-1] == 0.1


def test_trace_keeps_one_state_per_snapshot_time(geo1):
    cfg = FlowConfig(t_end=0.1, snapshot_times=(0.05, 0.01))
    trace = run_flow(single_mode(geo1, 0.02), cfg)
    assert cfg.snapshot_times == (0.01, 0.05, 0.1)
    assert len(trace.times) == len(cfg.snapshot_times)
    assert all(map(flow_module._same_time, trace.times, cfg.snapshot_times))
    assert trace.final is trace.snapshots[-1]
    # each state is that of the step that landed on its time
    step_times = [d.t for d in trace.diagnostics]
    assert all(t in step_times for t in trace.times)
    assert trace.diagnostics[-1].t == trace.final.t


# ---------------------------------------------------------------------------
# stationarity and flat behaviour


def test_flat_stationarity(geo1):
    """Flat data stays fixed: sup|phi| and min R both at rounding zero."""
    m = KahlerMetric(np.eye(1), constant_field(geo1, 0.0))
    trace = run_flow(m, FlowConfig(t_end=1.0))
    assert trace.final.t == pytest.approx(1.0, abs=1e-12)
    for s in trace.snapshots:
        mean = integrate(s.phi)
        assert abs(mean) + np.abs(s.phi.values - mean).max() <= 1e-10
    for d in trace.diagnostics:
        assert abs(d.min_scalar_curvature) <= 1e-10
        assert abs(d.min_dot_phi) <= 1e-12 and abs(d.max_dot_phi) <= 1e-12


def test_dot_phi_closed_form(geo1):
    """With H_alpha = 1 the rate is log det g = log(1 - b cos), 2/3-truncated."""
    m = single_mode(geo1, 0.05)
    zero = constant_field(geo1, 0.0)
    state = FlowState(base=m, t=0.0, phi=zero)
    got = rate_field(state, harmonic_projection(m)[0]).values
    b = 0.05 * np.pi**2
    x = geo1.coordinate(0)
    want = truncate_modes(ScalarField(geo1, np.log(1.0 - b * np.cos(2 * np.pi * x)))).values
    assert np.abs(got - want).max() < 1e-12


def test_dot_phi_mass_identity(geo1):
    # int e^{log(det g / det H_alpha)} det H_alpha = int det g, pointwise algebra
    m = single_mode(geo1, 0.04)
    alpha = harmonic_projection(m)[0]
    log_ratio = np.log(volume_density(assemble(m), alpha).values)
    b = 0.04 * np.pi**2
    g = 1.0 - b * np.cos(2 * np.pi * geo1.coordinate(0))
    assert abs(np.exp(log_ratio).mean() * np.linalg.det(alpha.H).real - g.mean()) < 1e-14


# ---------------------------------------------------------------------------
# linear regime


def test_linear_regime_decay(geo1):
    """Amplitude ratio at t=0.1 matches the heat kernel within 1e-3."""
    m = single_mode(geo1, 1e-4)
    trace = run_flow(m, FlowConfig(sigma=0.001, t_end=0.1, snapshot_times=(0.1,)))
    c0 = np.fft.fftn(m.phi.values)[1, 0]
    ratio = (mode_coefficient(m, trace.snapshot_at(0.1)) / c0).real
    assert ratio == pytest.approx(np.exp(-HEAT_RATE * 0.1), rel=1e-3)


@pytest.mark.parametrize("n", [1, 2])
def test_top_kept_mode_contracts_at_the_largest_sigma(n):
    """At sigma = 1 the step is dt = t, beyond forward Euler's bound for the
    top kept mode at n = 2; the implicit solve still shrinks that mode at
    every snapshot, never faster than the heat kernel e^{-pi^2 k^2 t}."""
    geo = TorusGeometry(n, 16)
    cut = geo.dealias_cutoff
    m = KahlerMetric(np.eye(n), 1e-6 * cos_field(geo, 0, mode=cut))
    times = tuple(0.002 * k for k in range(1, 11))
    trace = run_flow(m, FlowConfig(sigma=1.0, t_end=times[-1], snapshot_times=times))
    idx = (cut,) + (0,) * (geo.axes - 1)
    c0 = np.fft.fftn(m.phi.values)[idx]
    previous = 1.0
    for s in trace.snapshots:
        ratio = (np.fft.fftn(m.phi.values + s.phi.values)[idx] / c0).real
        # measured: 0.643 at t = 0.002 down to 0.0174 at t = 0.02, at n = 1 and 2
        assert np.exp(-HEAT_RATE * cut**2 * s.t) < ratio < previous
        previous = ratio
    assert previous < 0.02


@pytest.mark.parametrize("n", [1, 2])
def test_flow_potential_stays_inside_the_kept_band(n):
    """The rhs always keeps the 2/3 band, so the flow potential gains no mode
    outside it, even on an initial potential with power in every mode."""
    geo = TorusGeometry(n, 16)
    noise = np.random.default_rng(5).standard_normal(geo.shape)
    psi = 0.03 * cos_field(geo, 0).values + 2e-5 * noise
    m = KahlerMetric(np.eye(n), ScalarField(geo, psi))
    keep = geo.dealias_keep
    assert np.abs(np.fft.rfftn(psi)[~keep]).max() > 1e-4
    trace = run_flow(m, FlowConfig(sigma=1.0, t_end=0.25, snapshot_times=(0.01, 0.05, 0.25)))
    for s in trace.snapshots:
        hat = np.fft.rfftn(s.phi.values)
        # measured: at most 1.5e-16 of the largest kept coefficient
        assert np.abs(hat[~keep]).max() <= 1e-14 * np.abs(hat[keep]).max()


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
# failure modes and step refinement


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


def test_step_rejected_past_the_limit_aborts_at_the_last_accepted_state(monkeypatch):
    """Once every candidate is non-finite, the step halves dt MAX_REJECTS
    times and the next rejection aborts with the last accepted state."""
    geo = TorusGeometry(1, 16)
    m = single_mode(geo, 0.03)
    original = flow_module._Kernel.advance
    dts = []

    def advance(self, ev, dt):
        out = original(self, ev, dt)
        dts.append(dt)
        return out if len(dts) == 1 else np.full_like(out, np.nan)

    monkeypatch.setattr(flow_module._Kernel, "advance", advance)
    with pytest.raises(FlowFailure, match=f"rejected {flow_module.MAX_REJECTS + 1} times") as err:
        run_flow(m, FlowConfig(t_end=0.1, snapshot_times=(0.1,)))
    tries = dts[1:]
    assert len(tries) == flow_module.MAX_REJECTS + 1
    assert all(b == a / 2.0 for a, b in zip(tries, tries[1:]))
    assert err.value.last_state.t == dts[0]  # the one accepted step, from t = 0


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
        rate = rate_field(s, trace.alpha)
        assert abs(row.min_dot_phi - rate.min()) <= 1e-12
        assert abs(row.max_dot_phi - rate.max()) <= 1e-12
        assert abs(row.min_eigenvalue - min_eigenvalue(assemble(metric))) <= 1e-8
        assert row.volume == pytest.approx(volume(metric), rel=1e-12)


def test_constant_in_phi_moves_its_mean_not_the_metric(bump_trace_two_dim):
    """A state keeps its potential's mean; metric() is blind to it."""
    s = bump_trace_two_dim.final
    c = 0.37
    shifted = FlowState(s.base, s.t, s.phi + c)
    g, g_shifted = assemble(s.metric()).values, assemble(shifted.metric()).values
    # rounding of the shifted values, amplified by the Hessian symbol's |2 pi k|^2
    assert np.abs(g_shifted - g).max() <= 1e-12 * np.abs(g).max()
    assert integrate(shifted.phi) - integrate(s.phi) == pytest.approx(c, abs=1e-14)


# real transforms per accepted step, and those of the set-up: projection,
# background Hessian, the evaluation and diagnostics at t = 0, and phi on
# the grid for the snapshot at t_end, which is also the final state
TRANSFORM_BUDGET = {1: (4, 13), 2: (10, 28)}


@pytest.mark.parametrize("n, N", [(1, 32), (2, 8), (2, 16)])
def test_transform_budget(monkeypatch, n, N):
    """Counted at fields' real-transform helpers, _rfft, _irfft and
    _irfft_band, under every name a torusflow module calls them by: one
    real transform per grid array a call asks for, slot axes included, and
    a helper's calls into another helper are not counted again.  The one
    module fields loads runs exactly the transforms the helpers ask for, at
    both ranks, and numpy.fft runs none.  The Hessian of phi and the rhs go
    through the band inverse.  At n = 2, N = 16 the diagnostics passes run
    on the helper thread, so the nesting is tracked per thread, and the
    budget is the same."""
    _cpus(monkeypatch, 2)
    geo = TorusGeometry(n, N)
    m = single_mode(geo, 0.03)
    counts, calls, threads = {}, {}, set()
    nesting, lock = threading.local(), threading.Lock()

    def count(owner, name, key, transforms=None):
        fn = getattr(owner, name)

        def counted(*args, **kwargs):
            if transforms is None:
                with lock:
                    counts[key] = counts.get(key, 0) + 1
                return fn(*args, **kwargs)
            active = nesting.__dict__.setdefault("active", [])
            if not active:  # a helper called by a helper is not a request
                with lock:
                    counts[key] = counts.get(key, 0) + transforms(*args)
                    calls[key] = calls.get(key, 0) + 1
                    threads.add(threading.current_thread().name)
            active.append(key)
            try:
                return fn(*args, **kwargs)
            finally:
                active.pop()

        monkeypatch.setattr(owner, name, counted)

    def slots(geometry, hat, out=None, band=False):
        return int(np.prod(hat.shape[: hat.ndim - geometry.axes]))

    helpers = {"_rfft": lambda geometry, values: 1, "_irfft": slots, "_irfft_band": slots}
    originals = {name: getattr(fields, name) for name in helpers}
    for module in [sys.modules[name] for name in sys.modules if name.startswith("torusflow")]:
        for name, transforms in helpers.items():
            if getattr(module, name, None) is originals[name]:
                count(module, name, name, transforms)
    modules = {"numpy.fft": np.fft, "pypocketfft": fields._fft_module()}
    assert fields.FFT_LIBRARY == "pypocketfft"
    for label, module in modules.items():
        for name in ("rfftn", "irfftn", "fftn", "ifftn", "c2c", "c2r"):
            if hasattr(module, name):
                count(module, name, (label, name))
    advances = []
    original = flow_module._Kernel.advance
    monkeypatch.setattr(flow_module._Kernel, "advance",
                        lambda self, ev, dt: advances.append(dt) or original(self, ev, dt))
    trace = run_flow(m, FlowConfig(t_end=0.1, snapshot_times=(0.1,)))
    steps = len(trace.diagnostics) - 1
    assert steps > 10 and len(advances) == steps  # no rejection
    helper = any(name.startswith("torusflow-diagnostics") for name in threads)
    assert helper == (n * n * geo.npoints >= flow_module.HELPER_MIN_WORK)
    forward, inverse, band = counts.pop("_rfft"), counts.pop("_irfft"), counts.pop("_irfft_band")
    # each evaluation (steps + 1, the one at t = 0 included) inverts the n^2
    # Hessian slots of phi and the rhs from their band, and the final state
    # its phi: a return to full-spectrum inverses changes this count
    assert band == (n * n + 1) * (steps + 1) + 1
    # per band slot, c2c on each full axis over its blocks of lines, 1 at
    # n = 1 and 4 + 2 + 1 at n = 2, then c2r; per full inverse, one c2c on
    # each full axis, then c2r
    label, blocks = "pypocketfft", 2 ** (geo.axes - 1) - 1
    assert counts == {(label, "rfftn"): calls["_rfft"],
                      (label, "c2c"): blocks * band + (geo.axes - 1) * inverse,
                      (label, "c2r"): band + inverse}
    per_step, setup = TRANSFORM_BUDGET[n]
    assert per_step * steps <= forward + inverse + band <= per_step * steps + setup


# ---------------------------------------------------------------------------
# the diagnostics pass on the helper thread, and the step budget


def _cpus(monkeypatch, count):
    """The process may use count CPUs, as the flow reads it."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def _started(monkeypatch) -> list:
    """The names of the threads started from here on."""
    started = []
    original = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start",
                        lambda self: started.append(self.name) or original(self))
    return started


def _bump(n, N):
    geo = TorusGeometry(n, N)
    H = np.eye(n) if n == 1 else np.array([[1.0, 0.2j], [-0.2j, 1.5]])
    return KahlerMetric(H, 0.02 * cos_field(geo, 0) + 0.01 * cos_field(geo, geo.axes - 1))


@pytest.mark.parametrize("n, N", [(1, 16), (2, 8)])
def test_helper_on_and_off_give_the_same_bits(monkeypatch, n, N):
    """The rows and the states are bit-equal whether each pass runs on the
    helper thread or at once; repr tells -0.0 from 0.0."""
    _cpus(monkeypatch, 2)
    started = _started(monkeypatch)
    traces = {}
    for helper, threshold in ((True, 0), (False, math.inf)):
        monkeypatch.setattr(flow_module, "HELPER_MIN_WORK", threshold)
        traces[helper] = run_flow(_bump(n, N), FlowConfig(t_end=0.1, snapshot_times=(0.05, 0.1)))
        assert len(started) == 1  # the one helper of the first flow
    on, off = traces[True], traces[False]
    assert len(on.diagnostics) > 10
    assert list(map(repr, on.diagnostics)) == list(map(repr, off.diagnostics))
    for a, b in zip(on.snapshots, off.snapshots, strict=True):
        assert a.t == b.t and np.array_equal(a.phi.values, b.phi.values)


def test_flow_failure_leaves_no_live_helper(monkeypatch):
    """Every candidate after the third step is non-finite: the flow aborts
    while a pass may be in flight, and the helper is joined."""
    _cpus(monkeypatch, 2)
    monkeypatch.setattr(flow_module, "HELPER_MIN_WORK", 0)
    before = threading.active_count()
    started = _started(monkeypatch)
    original = flow_module._Kernel.advance
    dts = []

    def advance(self, ev, dt):
        out = original(self, ev, dt)
        dts.append(dt)
        return out if len(dts) <= 3 else np.full_like(out, np.nan)

    monkeypatch.setattr(flow_module._Kernel, "advance", advance)
    with pytest.raises(FlowFailure, match="rejected"):
        run_flow(_bump(2, 8), FlowConfig(t_end=0.1, snapshot_times=(0.1,)))
    assert len(started) == 1 and threading.active_count() == before


def test_error_raised_in_a_pass_propagates_and_the_helper_is_joined(monkeypatch):
    _cpus(monkeypatch, 2)
    monkeypatch.setattr(flow_module, "HELPER_MIN_WORK", 0)
    before = threading.active_count()
    original = flow_module._Kernel.diagnostics
    ran_on = []

    def diagnostics(self, t, dt, ev):
        ran_on.append(threading.current_thread().name)
        if len(ran_on) == 4:
            raise ArithmeticError("pass 4")
        return original(self, t, dt, ev)

    monkeypatch.setattr(flow_module._Kernel, "diagnostics", diagnostics)
    with pytest.raises(ArithmeticError, match="pass 4"):
        run_flow(_bump(2, 8), FlowConfig(t_end=0.1, snapshot_times=(0.1,)))
    assert len(ran_on) == 4
    assert all(name.startswith("torusflow-diagnostics") for name in ran_on)
    assert threading.active_count() == before


def test_one_cpu_starts_no_helper(monkeypatch):
    _cpus(monkeypatch, 1)
    monkeypatch.setattr(flow_module, "HELPER_MIN_WORK", 0)
    started = _started(monkeypatch)
    run_flow(_bump(2, 8), FlowConfig(t_end=0.05, snapshot_times=(0.05,)))
    assert started == []


def test_helper_starts_from_n2_N16(monkeypatch):
    """The rule's constant: n = 2, N >= 16 runs its passes on the helper,
    and a flow shaped as the dist-n1-N64 benchmark's starts no thread."""
    _cpus(monkeypatch, 2)
    pays = flow_module._helper_pays
    assert pays(TorusGeometry(2, 16)) and pays(TorusGeometry(2, 32))
    assert not pays(TorusGeometry(2, 14)) and not pays(TorusGeometry(1, 256))
    started = _started(monkeypatch)
    trace = run_flow(single_mode(TorusGeometry(1, 64), 0.03), FlowConfig())
    assert len(trace.diagnostics) > 40 and started == []


@pytest.mark.parametrize("config", [
    FlowConfig(), FlowConfig(sigma=0.05, t_end=0.3, t_ramp=0.01, snapshot_times=(0.1,)),
    FlowConfig(sigma=1.0, snapshot_times=(0.01, 0.3))])
def test_step_count_is_the_stepper_s_count(config):
    """The closed form the budget's refusal prints is within 10% of the count."""
    trace = run_flow(single_mode(TorusGeometry(1, 8), 0.03), config)
    steps = flow_module.step_count(config)
    assert steps == len(trace.diagnostics) - 1
    assert steps <= flow_module._step_estimate(config) < 1.1 * steps + 1


def test_step_count_stops_past_the_budget():
    """sigma = 1e-300 would take about 1e300 steps, and t + dt == t from the
    first one: the count stops at MAX_STEPS + 1."""
    assert flow_module.step_count(FlowConfig(sigma=1e-300)) == flow_module.MAX_STEPS + 1
    assert flow_module.step_count(FlowConfig()) == 45


@pytest.mark.parametrize("H, pencil", [(np.eye(2), 0), (np.array([[1.0, 1.0], [1.0, 2.0]]), 1)])
def test_one_det_and_eigenvalue_pass_per_evaluation(monkeypatch, H, pencil):
    """Each evaluation computes det g once and makes one eigenvalue pass over
    the grid, the gate's, plus the pencil det(g - lam H0) when H0 is not the
    identity; either way the stiffness is that pencil's floor, bit for bit.
    The floor is taken, beside the count, from the coefficients each grid
    eigenvalue pass receives."""
    from torusflow import geometry

    originals = {name: getattr(geometry, name) for name in ("_det", "_eigenvalues")}
    calls = {name: [] for name in originals}
    floors = []  # pencil floor of the coefficients of each grid eigenvalue pass

    def counted(v, *args, _name):
        if np.ndim(v) > 1:
            calls[_name].append(v.shape)
            if _name == "_eigenvalues":
                pencil_eig = originals["_eigenvalues"](v, geometry._pack(H), originals["_det"](v))
                floors.append(float(pencil_eig[0].min()))
        return originals[_name](v, *args)

    for name in originals:
        for module in (geometry, flow_module):
            monkeypatch.setattr(module, name, functools.partial(counted, _name=name))
    evaluations = []
    original_evaluate = flow_module._Kernel.evaluate

    def evaluate(self, phi_hat):
        evaluations.append(original_evaluate(self, phi_hat))
        return evaluations[-1]

    monkeypatch.setattr(flow_module._Kernel, "evaluate", evaluate)
    geo = TorusGeometry(2, 8)
    psi = 0.01 * cos_field(geo, 0) + 0.005 * cos_field(geo, 3)
    run_flow(KahlerMetric(H, psi), FlowConfig(t_end=0.05, snapshot_times=(0.05,)))
    assert len(evaluations) > 5 and None not in evaluations  # no rejection
    assert len(calls["_det"]) == len(evaluations)
    assert len(calls["_eigenvalues"]) == (1 + pencil) * len(evaluations)
    # an evaluation's passes all receive its coefficients, so any one gives its floor
    for ev, floor in zip(evaluations, floors[::1 + pencil], strict=True):
        assert ev.stiffness == 1.0 / floor


@pytest.mark.parametrize("n", [1, 2])
def test_evaluation_keeps_only_band_arrays(monkeypatch, n):
    """After run_flow, no evaluation holds an array of the grid's shape, of
    the packed coefficients' shape or of the half spectrum's: each
    diagnostics pass dropped its grid arrays, and only the band arrays of
    phi and of the rhs remain, beside the stiffness."""
    evaluations = []
    original_evaluate = flow_module._Kernel.evaluate

    def evaluate(self, phi_hat):
        evaluations.append(original_evaluate(self, phi_hat))
        return evaluations[-1]

    monkeypatch.setattr(flow_module._Kernel, "evaluate", evaluate)
    geo = TorusGeometry(n, 8)
    H = np.eye(n) if n == 1 else np.array([[1.0, 1.0], [1.0, 2.0]])
    psi = 0.01 * cos_field(geo, 0) + 0.005 * cos_field(geo, 1)
    run_flow(KahlerMetric(H, psi), FlowConfig(t_end=0.05, snapshot_times=(0.05,)))
    assert len(evaluations) > 5 and None not in evaluations
    band = geo.band_shape
    assert np.prod(band) == np.count_nonzero(geo.dealias_keep)
    for ev in evaluations:
        assert ev.grids is None
        held = [getattr(ev, name) for name in ev.__slots__]
        shapes = [a.shape for a in held if isinstance(a, np.ndarray)]
        assert shapes == [band, band]
        assert not {geo.shape, (n * n,) + geo.shape, geo.half_shape} & set(shapes)


def test_one_transform_module_runs_both_ranks():
    """An n = 1 flow and an n = 2 flow both run scipy's pocketfft kernel,
    loaded alone: neither loads any scipy module, since importing scipy.fft
    also loads scipy.special and scipy's array-API layer."""
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from torusflow import FlowConfig, KahlerMetric, ScalarField, TorusGeometry, run_flow\n"
        "from torusflow import fields\n"
        "print(fields.FFT_LIBRARY)\n"
        "for n in (1, 2):\n"
        "    geo = TorusGeometry(n, 8)\n"
        "    psi = ScalarField(geo, 0.02 * np.cos(2 * np.pi * geo.coordinate(0)))\n"
        "    run_flow(KahlerMetric(np.eye(n), psi), FlowConfig(t_end=0.01, snapshot_times=(0.01,)))\n"
        "    print(n, fields.FFT_LIBRARY, [m for m in sys.modules if m.split('.')[0] == 'scipy'])\n"
    )
    pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": pythonpath},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["None", "1 pypocketfft []", "2 pypocketfft []"]
