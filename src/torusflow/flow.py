"""Potential-form metric flow on torus grids.

The ansatz g(t) = H0 + d dbar(psi0 + phi(t)) keeps the cohomology class
fixed, so the whole evolution lives in one scalar potential driven by

    d phi / dt = log det g(t) - log det(H_alpha),

where H_alpha is the grid average of the initial coefficients (the
constant representative of the class).  Stationary states are exactly
the constant-coefficient metrics, and the grid integral of det g is a
conserved quantity.

One time stepper, semi-implicit: the constant-coefficient operator
c * tr_{H0}(d dbar) is solved implicitly (a diagonal division in Fourier
space) with c = max_x lambda_max of g^{-1} relative to H0, and the
remainder advances explicitly.  Because the implicit operator dominates
the parabolic part, every resolved mode contracts monotonically, and dt
may ride the elapsed-time scale sigma * max(t, t_ramp).  The rhs keeps
the 2/3-dealiased band of log det g.

Spectral state: the flow potential is carried from step to step as the
band array of its real half spectrum (fields: the 2/3-rule band alone,
7,986 coefficients against 36,864 at n = 2, N = 16), so the step never
transforms the potential or the rhs forward.  The potential stays inside
the band because the step only scales and adds band arrays: the rhs is
2/3-truncated, and the implicit symbol and the Hessian symbols are kept
as band arrays too.  The coefficients use the packed layout of
HermitianField (see the fields module), held as plain arrays on the hot
path.  One accepted step runs these real transforms, with the lines each
runs at n = 2, N = 16 (a full inverse runs 3 x 2,304 complex lines and
4,096 real ones, a band inverse 726 + 1,056 + 1,536 and 4,096):

  Hessian of phi from its band        n^2 band inverses, in one call
  log det g                           1 forward; its band is the rhs, and
                                      it feeds the implicit solve and the
                                      Ricci term of the curvature floor
  Ricci term -d dbar log det g        n^2 full inverses, one per slot
  rhs on the grid                     1 band inverse

which is 4 at n = 1 and 10 at n = 2, with no complex transform; fields
runs them on scipy's pocketfft kernel at both ranks.  Each evaluation of
a candidate computes the grid's closed forms once:

  det g                  1; read by the eigenvalues, the pencil, the
                         curvature floor and the volume
  eigenvalues of g       1 pass, the positivity gate's; it gives log det g
                         and, when H0 = I, the stiffness
  pencil det(g - lam H0) 1 pass more, only when H0 is not the identity

Every candidate that passes the evaluation is accepted.  The evaluation
is the step: what the next step reads, the band arrays of phi and of the
rhs and the stiffness, from the Hessian of phi, det g, the gate, log det g
and its forward transform.  It hands its grid arrays (the coefficients,
det g and the half spectrum of log det g) to the accepted step's
diagnostics pass, which fills that step's StepDiagnostics row: the Ricci
term and its pairing (_scalar_curvature), the rhs on the grid, the rate
extremes and the volume.  No step reads a row, so the pass of step k may
run on one helper thread while the main thread advances and evaluates
step k + 1; pocketfft and numpy release the GIL, so two cores overlap the
work.  At most one pass is in flight: the step waits for pass k before it
hands over pass k + 1, and run_flow waits for the last one and joins the
thread on every exit, a FlowFailure or an error raised in a pass
included.  The rows are the same bits either way.  A pass calls only
private array functions, none of which perfbench's single-threaded tracer
patches.

The helper starts only where it pays: where the process may use at least
2 CPUs and the pass's grid work n^2 N^{2n} reaches HELPER_MIN_WORK = 2^18,
which n = 2, N >= 16 does.  Else each pass runs at once on the main
thread.  The Ricci term and its pairing took 2.93 of an evaluation's
7.32 ms at n = 2, N = 16 before the split.  While a pass and a step
overlap, the pass's grid arrays and work arrays are live beside the
step's: glibc's heap grew 4.8 MB more over a seed-90 n = 2, N = 16 run's
flows, and its peak RSS rose 2.6% (cli keeps glibc to one arena, so the
helper's freed memory serves the main thread).  With the Ricci
term alone on the helper (per step, 2 vCPUs):
n = 2, N = 16 went from 7.2-7.8 to 4.4-5.0 ms and N = 32 from 161-192 to
108-134 ms, while n = 1, N = 256 broke about even, and n = 1, N = 64
(0.14-0.22 to 0.22-0.31 ms) and n = 2, N = 8 (about +15%) lost.  Threads
inside each transform lose instead: two pocketfft workers per full
transform made a whole run 30-40% slower.

The stepper carries (t, dt, evaluation), and phi goes back to the grid
(1 band inverse more) only for a FlowState that is kept: a snapshot, or the
last state of a FlowFailure.  A FlowState is its time and its full
potential, mean included; run_flow is the only stepper.

Any candidate with non-finite values or an eigenvalue floor below
EPS_POS (or NaN), the package's one positivity gate, is rejected and
retried at dt/2; more than MAX_REJECTS consecutive rejections abort the
flow with the last good state attached.
Diagnostics (curvature floor, potential rate extremes, eigenvalue floor,
volume) are recorded at every accepted step.  Full states are kept at
the configured snapshot times, whose last entry is always t_end: the
stepper lands on each in turn, and the state at t_end, the trace's
final state, is its last snapshot.

The step count is known before the flow: step_count follows the stepper's
dt rule (_dt) and landing rule (_landed) with no rejection, 45 steps at the
defaults.  Its closed form (_step_estimate) is about 1/sigma +
ln(t_end/t_ramp)/ln(1 + sigma) steps plus one landing per snapshot.  The
runner's config loader refuses a count over MAX_STEPS and prints the closed
form.  A rejection only adds steps, at most MAX_REJECTS halvings of one.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .fields import ScalarField, TorusGeometry, _band_of, _irfft_band, _rfft
# complex_hessian is not called here, but perfbench/test_perfbench.py
# checks that its tracer also patches this module's binding of it
from .fields import complex_hessian
from .geometry import (
    FlatMetric,
    KahlerMetric,
    PositivityError,
    _det,
    _eigenvalues,
    _log_det,
    _pack,
    _pairing,
    _positive_eigenvalues,
    _scalar_curvature,
    _volume,
    assemble,
    harmonic_projection,
)

__all__ = [
    "FlowConfig",
    "FlowState",
    "FlowTrace",
    "StepDiagnostics",
    "FlowFailure",
    "run_flow",
    "step_count",
    "MAX_STEPS",
]

DEFAULT_SNAPSHOTS = (0.01, 0.05, 0.1, 0.25, 0.5, 1.0)
MAX_REJECTS = 20  # consecutive halvings of one step before the flow aborts
# Steps a flow may take, counted before it starts (step_count).  At n = 2,
# N = 32, the largest grid measured, a step takes 110-190 ms, so this is
# 20-30 minutes of flow there; at the default t_end and t_ramp it admits
# sigma down to about 0.0008 (9,890 steps).
MAX_STEPS = 10_000
# Grid work n^2 N^{2n} of a diagnostics pass from which it runs on a helper
# thread, where the process may use 2 CPUs (module docstring)
HELPER_MIN_WORK = 1 << 18


class FlowFailure(RuntimeError):
    """Integration aborted; carries the last accepted state."""

    def __init__(self, message: str, last_state: "FlowState"):
        super().__init__(message)
        self.last_state = last_state


@dataclass(frozen=True)
class FlowConfig:
    sigma: float = 0.2
    t_end: float = 1.0
    snapshot_times: tuple = DEFAULT_SNAPSHOTS
    t_ramp: float = 1e-3

    def __post_init__(self) -> None:
        if not (0 < self.sigma <= 1.0):
            raise ValueError(f"sigma must lie in (0, 1], got {self.sigma}")
        if not (0 < self.t_end <= 2.0):
            raise ValueError(f"t_end must lie in (0, 2], got {self.t_end}")
        # sorted, one entry per distinct time, and t_end always the last one
        t_end = float(self.t_end)
        snaps = []
        for s in sorted(float(s) for s in self.snapshot_times):
            if _same_time(s, t_end):
                s = t_end
            elif not (0.0 < s < t_end):
                raise ValueError(f"snapshot time {s} outside (0, t_end={self.t_end}]")
            if not (snaps and _same_time(snaps[-1], s)):
                snaps.append(s)
        if not (snaps and snaps[-1] == t_end):
            snaps.append(t_end)
        object.__setattr__(self, "snapshot_times", tuple(snaps))
        if not (0 < self.t_ramp < math.inf):
            raise ValueError(f"t_ramp must be positive and finite, got {self.t_ramp}")


@dataclass(frozen=True, eq=False)
class FlowState:
    """Flow potential phi at time t, on top of a fixed initial metric.

    phi is the full potential with its mean kept: the metric ignores an
    additive constant, but the potential bound sup|phi| and the pairing
    gaps do not.  metric() hands it to KahlerMetric, the one place that
    removes a mean.  The rate d phi/dt is not stored; the step
    diagnostics keep its extremes.
    """

    base: KahlerMetric
    t: float
    phi: ScalarField

    def metric(self) -> KahlerMetric:
        return KahlerMetric(self.base.H, self.base.phi + self.phi)


@dataclass(frozen=True)
class StepDiagnostics:
    t: float
    dt: float
    min_scalar_curvature: float
    min_dot_phi: float
    max_dot_phi: float
    min_eigenvalue: float
    volume: float


@dataclass(frozen=True, eq=False)
class FlowTrace:
    initial: KahlerMetric
    alpha: FlatMetric
    flat_potential: ScalarField  # gauge max = 0; d dbar of it closes the class
    config: FlowConfig
    snapshots: tuple  # one state per config.snapshot_times entry
    diagnostics: tuple

    @property
    def final(self) -> FlowState:
        """The state at t_end, which is always the last snapshot."""
        return self.snapshots[-1]

    @property
    def times(self) -> tuple:
        return tuple(s.t for s in self.snapshots)

    def snapshot_at(self, t: float) -> FlowState:
        for s in self.snapshots:
            if _same_time(s.t, t):
                return s
        raise KeyError(f"no snapshot at t={t}; stored times {self.times}")


def _same_time(stored: float, t: float) -> bool:
    """Whether a stored snapshot time answers a request for time t."""
    return abs(stored - t) <= 1e-9 * max(1.0, t)


class _Evaluation:
    """A candidate potential that passed evaluate: the band arrays the step
    reads, its stiffness, and the grid arrays its diagnostics pass reads,
    which the pass drops."""

    __slots__ = ("phi_hat", "rhs_hat", "stiffness", "grids")

    def __init__(self, phi_hat, rhs_hat, stiffness, grids):
        self.phi_hat = phi_hat      # band array of the flow potential
        self.rhs_hat = rhs_hat      # band array of d phi/dt
        self.stiffness = stiffness  # max eigenvalue of g^{-1} wrt H0
        # (coefficients, det g, half spectrum of log det g, min eigenvalue)
        # until the diagnostics pass takes them, then None
        self.grids = grids


def _rhs(geo: TorusGeometry, log_det_hat: np.ndarray, alpha: FlatMetric) -> np.ndarray:
    """Band array of d phi/dt = log det g - log det H_alpha, 2/3-truncated,
    from the half spectrum of log det g."""
    out = _band_of(geo, log_det_hat)
    out[(0,) * geo.axes] -= geo.npoints * math.log(_det(_pack(alpha.H)))
    return out


def _rhs_field(geo: TorusGeometry, log_det: np.ndarray, alpha: FlatMetric) -> ScalarField:
    """_rhs on the grid, from log det g on the grid."""
    return ScalarField(geo, _irfft_band(geo, _rhs(geo, _rfft(geo, log_det), alpha)))


class _Kernel:
    """Per-flow constants and the spectral step (transform budget in the
    module docstring)."""

    def __init__(self, base: KahlerMetric, config: FlowConfig):
        self.base = base
        self.config = config
        self.geometry = geo = base.geometry
        g0 = assemble(base)  # H0 + d dbar psi0, the one assembly of the flow
        self.alpha, self.flat_potential = harmonic_projection(g0)
        self.H0 = _pack(base.H)
        # with H0 = I the pencil det(g - lam H0) performs the gate's own
        # eigenvalue arithmetic, so its floor is the gate's, bit for bit
        self.identity_background = np.array_equal(self.H0, _pack(np.eye(geo.n)))
        self.fixed = g0.values
        # band arrays of the d_j d_kbar multipliers, one per packed slot,
        # and of the symbol of tr_{H0}(d dbar)
        full = [np.broadcast_to(sym, geo.half_shape) for sym in geo.hessian_symbols]
        self.hessian_symbols = _band_of(geo, np.stack(full))
        self.stab_symbol = _pairing(self.H0, self.hessian_symbols) / _det(self.H0)

    def evaluate(self, phi_hat: np.ndarray) -> _Evaluation | None:
        """None rejects the candidate: non-finite, or failing the positivity
        gate.  A candidate that passes is accepted, and its grid arrays go
        to its diagnostics pass."""
        if not np.all(np.isfinite(phi_hat)):
            return None
        geo = self.geometry
        coeffs = _irfft_band(geo, self.hessian_symbols * phi_hat)
        coeffs += self.fixed
        det = _det(coeffs)
        try:
            eig = _positive_eigenvalues(coeffs, det=det)
        except PositivityError:
            return None
        min_eig = float(eig[0].min())
        log_det_hat = _rfft(geo, _log_det(eig))
        del eig
        rhs_hat = _rhs(geo, log_det_hat, self.alpha)
        # c = 1 / smallest root of det(g - lam H0): the top eigenvalue of g^{-1} wrt H0
        if self.identity_background:
            stiffness = 1.0 / min_eig
        else:
            stiffness = 1.0 / float(_eigenvalues(coeffs, self.H0, det)[0].min())
        return _Evaluation(phi_hat, rhs_hat, stiffness, (coeffs, det, log_det_hat, min_eig))

    def advance(self, ev: _Evaluation, dt: float) -> np.ndarray:
        """Band array of the candidate potential after dt."""
        phi_hat, rhs_hat = ev.phi_hat, ev.rhs_hat
        c = ev.stiffness
        s = self.stab_symbol
        # (phi_hat + dt * (rhs_hat - c * s * phi_hat)) / (1.0 - dt * c * s),
        # the same operations in place
        out = (c * s) * phi_hat
        np.subtract(rhs_hat, out, out=out)
        out *= dt
        out += phi_hat
        den = (dt * c) * s
        np.subtract(1.0, den, out=den)
        out /= den
        return out

    def diagnostics(self, t: float, dt: float, ev: _Evaluation) -> StepDiagnostics:
        """The diagnostics pass of the step accepted at t: its row, from the
        grid arrays of ev, which it drops; on the helper thread or not
        (module docstring)."""
        coeffs, det, log_det_hat, min_eig = ev.grids
        ev.grids = None
        geo = self.geometry
        rhs = _irfft_band(geo, ev.rhs_hat)
        min_rate, max_rate = float(rhs.min()), float(rhs.max())
        del rhs
        min_curv = float(_scalar_curvature(geo, coeffs, det, log_det_hat).min())
        return StepDiagnostics(t, dt, min_curv, min_rate, max_rate, min_eig, _volume(coeffs, det))

    def state(self, t: float, ev: _Evaluation) -> FlowState:
        geo = self.geometry
        return FlowState(self.base, t, ScalarField(geo, _irfft_band(geo, ev.phi_hat)))


class _Passes:
    """The diagnostics rows of a flow's accepted steps, each from its pass:
    run at once, or on one helper thread with at most one in flight."""

    def __init__(self, kernel: _Kernel, helper: bool):
        self.kernel = kernel
        self.rows = []
        self.pending = None  # the Future of the pass in flight
        self.pool = None
        if helper:
            from concurrent.futures import ThreadPoolExecutor  # 5 ms to import, so only here

            self.pool = ThreadPoolExecutor(1, thread_name_prefix="torusflow-diagnostics")

    def add(self, t: float, dt: float, ev: _Evaluation) -> None:
        """Hand over the pass of the step accepted at t, once the last one
        is done."""
        self.resolve()
        if self.pool is None:
            self.rows.append(self.kernel.diagnostics(t, dt, ev))
        else:
            self.pending = self.pool.submit(self.kernel.diagnostics, t, dt, ev)

    def resolve(self) -> None:
        """Wait for the pass in flight and keep its row; an error raised in
        the pass is raised here."""
        pending, self.pending = self.pending, None
        if pending is not None:
            self.rows.append(pending.result())

    def close(self) -> None:
        """Wait for the pass in flight, if any, and join the helper."""
        if self.pool is not None:
            self.pool.shutdown(wait=True)


def _helper_pays(geo: TorusGeometry) -> bool:
    """Whether a flow on geo runs its diagnostics passes on a helper thread
    (module docstring)."""
    if geo.n * geo.n * geo.npoints < HELPER_MIN_WORK:
        return False
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) >= 2
    return (os.cpu_count() or 1) >= 2


def _dt(config: FlowConfig, t: float, t_next: float) -> float:
    """The stepper's first try at a step from t, ending at t_next at the latest."""
    return min(config.sigma * max(t, config.t_ramp), t_next - t)


def _landed(t: float, t_snap: float) -> bool:
    """Whether the stepper, at time t, has reached the snapshot time t_snap."""
    return t_snap <= t + 1e-14


def step_count(config: FlowConfig) -> int:
    """The accepted steps of a flow under config when no step is rejected;
    it stops counting past MAX_STEPS, so it returns at most MAX_STEPS + 1."""
    t, steps = 0.0, 0
    for t_snap in config.snapshot_times:
        while not _landed(t, t_snap) and steps <= MAX_STEPS:
            t += _dt(config, t, t_snap)
            steps += 1
    return steps


def _step_estimate(config: FlowConfig) -> float:
    """step_count's closed form, uncapped: 1/sigma steps of the ramp,
    ln(t_end/t_ramp)/ln(1 + sigma) after it, and one landing per snapshot."""
    ratio = config.t_end / config.t_ramp
    ramp = min(ratio, 1.0) / config.sigma
    return ramp + math.log(max(ratio, 1.0)) / math.log1p(config.sigma) + len(config.snapshot_times)


def _step(kernel: _Kernel, t: float, ev: _Evaluation, t_next: float):
    """One accepted step from time t, whose state has the evaluation ev,
    ending at t_next at the latest; returns (new_t, dt, new_evaluation)."""
    dt = _dt(kernel.config, t, t_next)
    rejects = 0
    while True:
        ev_new = kernel.evaluate(kernel.advance(ev, dt))
        if ev_new is not None:
            return t + dt, dt, ev_new
        rejects += 1
        if rejects > MAX_REJECTS:
            raise FlowFailure(
                f"step at t={t:.6g} rejected {rejects} times (dt={dt:.3e})",
                kernel.state(t, ev),
            )
        dt /= 2.0
        if dt < 1e-15:
            raise FlowFailure(f"time step underflow at t={t:.6g}", kernel.state(t, ev))


def run_flow(metric0: KahlerMetric, config: FlowConfig) -> FlowTrace:
    """Integrate from metric0 to t_end, collecting snapshots and diagnostics."""
    kernel = _Kernel(metric0, config)
    geo = metric0.geometry
    ev = kernel.evaluate(np.zeros(geo.band_shape, dtype=np.complex128))
    if ev is None:
        zero = ScalarField(geo, np.zeros(geo.shape))
        raise FlowFailure("initial metric is not positive", FlowState(metric0, 0.0, zero))
    t, dt = 0.0, 0.0
    passes = _Passes(kernel, _helper_pays(geo))
    snapshots = []
    try:
        passes.add(t, dt, ev)
        for t_snap in config.snapshot_times:  # the last one is t_end
            while not _landed(t, t_snap):
                t, dt, ev = _step(kernel, t, ev, t_snap)
                passes.add(t, dt, ev)
            snapshots.append(kernel.state(t, ev))
        passes.resolve()
    finally:
        passes.close()
    return FlowTrace(
        initial=metric0,
        alpha=kernel.alpha,
        flat_potential=kernel.flat_potential,
        config=config,
        snapshots=tuple(snapshots),
        diagnostics=tuple(passes.rows),
    )
