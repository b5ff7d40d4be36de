"""Potential-form metric flow on torus grids.

The ansatz g(t) = H0 + d dbar(psi0 + phi(t)) keeps the cohomology class
fixed, so the whole evolution lives in one scalar potential driven by

    d phi / dt = log det g(t) - log det(H_alpha),

where H_alpha is the grid average of the initial coefficients (the
constant representative of the class).  Stationary states are exactly
the constant-coefficient metrics, and the grid integral of det g is a
conserved quantity.

Two time steppers:

  explicit        forward Euler with dt = sigma * h^2 / lambda_max(g^{-1});
  semi_implicit   the constant-coefficient operator c * tr_{H0}(d dbar)
                  is solved implicitly (a diagonal division in Fourier
                  space) with c = max_x lambda_max of g^{-1} relative to
                  H0, the remainder advances explicitly.  Because the
                  implicit operator dominates the parabolic part, every
                  resolved mode contracts monotonically, and dt may ride
                  the elapsed-time scale sigma * max(t, t_ramp).

Any step that loses positivity (minimum eigenvalue below eps_pos) or
produces non-finite values is rejected and retried at dt/2; too many
consecutive rejections abort the flow with the last good state attached.
Diagnostics (curvature floor, potential rate extremes, eigenvalue floor,
volume) are recorded at every accepted step, and full states are kept at
the configured snapshot times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import ScalarField, TorusGeometry, complex_hessian, truncate_modes
from .geometry import (
    EPS_POS,
    FlatMetric,
    HermitianField,
    KahlerMetric,
    _det,
    _eigenvalues,
    assemble,
    eigenvalue_range,
    harmonic_projection,
    log_det_field,
    scalar_curvature_of,
    volume,
)

__all__ = [
    "FlowConfig",
    "FlowState",
    "FlowTrace",
    "StepDiagnostics",
    "FlowFailure",
    "dot_phi",
    "step",
    "run_flow",
]

DEFAULT_SNAPSHOTS = (0.01, 0.05, 0.1, 0.25, 0.5, 1.0)


class FlowFailure(RuntimeError):
    """Integration aborted; carries the last accepted state."""

    def __init__(self, message: str, last_state: "FlowState"):
        super().__init__(message)
        self.last_state = last_state


@dataclass(frozen=True)
class FlowConfig:
    scheme: str = "semi_implicit"
    sigma: float = 0.2
    t_end: float = 1.0
    snapshot_times: tuple = DEFAULT_SNAPSHOTS
    eps_pos: float = EPS_POS
    dealias: bool = True
    max_rejects: int = 20
    t_ramp: float = 1e-3

    def __post_init__(self) -> None:
        if self.scheme not in ("semi_implicit", "explicit"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if not (0 < self.sigma <= 1.0):
            raise ValueError(f"sigma must lie in (0, 1], got {self.sigma}")
        if not (0 < self.t_end <= 2.0):
            raise ValueError(f"t_end must lie in (0, 2], got {self.t_end}")
        snaps = tuple(sorted(float(s) for s in self.snapshot_times))
        for s in snaps:
            if not (0.0 < s <= self.t_end + 1e-12):
                raise ValueError(f"snapshot time {s} outside (0, t_end={self.t_end}]")
        object.__setattr__(self, "snapshot_times", snaps)
        if self.max_rejects < 1:
            raise ValueError("max_rejects must be at least 1")
        if self.t_ramp <= 0:
            raise ValueError("t_ramp must be positive")


@dataclass(frozen=True, eq=False)
class FlowState:
    """Flow potential at one instant, on top of a fixed initial metric.

    phi_osc is the mean-zero part and phi_mean the tracked additive
    constant: the metric ignores the mean but the potential bounds and
    pairing gaps do not, so it is carried explicitly.
    """

    base: KahlerMetric
    t: float
    phi_osc: ScalarField
    phi_mean: float
    dot_phi: ScalarField
    last_dt: float

    @property
    def phi(self) -> ScalarField:
        return self.phi_osc + self.phi_mean

    def metric(self) -> KahlerMetric:
        return KahlerMetric(self.base.H, self.base.phi + self.phi_osc)


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
    snapshots: tuple
    diagnostics: tuple
    final: FlowState

    @property
    def times(self) -> tuple:
        return tuple(s.t for s in self.snapshots)

    def snapshot_at(self, t: float) -> FlowState:
        for s in self.snapshots:
            if abs(s.t - t) <= 1e-9 * max(1.0, t):
                return s
        raise KeyError(f"no snapshot at t={t}; stored times {self.times}")


class _Evaluation:
    __slots__ = ("rhs", "coeffs", "min_eig", "stiffness")

    def __init__(self, rhs, coeffs, min_eig, stiffness):
        self.rhs = rhs              # ndarray, d phi/dt field
        self.coeffs = coeffs        # ndarray, assembled metric coefficients
        self.min_eig = min_eig      # float, absolute eigenvalue floor
        self.stiffness = stiffness  # float, max eigenvalue of g^{-1} wrt H0


def _rhs(g: HermitianField, alpha: FlatMetric, config: FlowConfig) -> ScalarField:
    """d phi/dt = log det g - log det H_alpha, 2/3-truncated when config.dealias."""
    rhs = log_det_field(g, config.eps_pos) - math.log(_det(alpha.H))
    return truncate_modes(rhs) if config.dealias else rhs


class _Stepper:
    """Shared per-flow precomputation: symbols, background factors."""

    def __init__(self, base: KahlerMetric, config: FlowConfig, alpha: FlatMetric):
        self.base = base
        self.config = config
        self.alpha = alpha
        self.geometry = base.geometry
        geo = self.geometry
        self.H0 = base.H
        self.base_hess = complex_hessian(base.phi).values
        Hinv = np.linalg.inv(self.H0)
        w = geo.wirtinger_modes
        q = 0.0
        for j in range(geo.n):
            for k in range(geo.n):
                q = q + (Hinv[j, k] * w[j] * np.conj(w[k]))
        self.stab_symbol = -math.pi**2 * np.broadcast_to(np.real(q), geo.shape)

    def evaluate(self, phi_full: np.ndarray) -> _Evaluation:
        geo = self.geometry
        hess = complex_hessian(ScalarField(geo, phi_full)).values
        coeffs = self.base_hess + hess + self.H0
        g = HermitianField(geo, coeffs)
        lo, _ = eigenvalue_range(g)
        if lo < self.config.eps_pos:
            return _Evaluation(None, coeffs, lo, math.inf)
        # c = 1 / smallest root of det(g - lam H0): the top eigenvalue of g^{-1} wrt H0
        stiffness = 1.0 / float(_eigenvalues(coeffs, self.H0)[0].min())
        return _Evaluation(_rhs(g, self.alpha, self.config).values, coeffs, lo, stiffness)

    def target_dt(self, t: float, ev: _Evaluation) -> float:
        cfg = self.config
        if cfg.scheme == "explicit":
            h2 = self.geometry.spacing**2
            return cfg.sigma * h2 / ev.stiffness
        return cfg.sigma * max(t, cfg.t_ramp)

    def advance(self, phi_full: np.ndarray, ev: _Evaluation, dt: float) -> np.ndarray:
        if self.config.scheme == "explicit":
            return phi_full + dt * ev.rhs
        c = ev.stiffness
        s = self.stab_symbol
        phi_hat = np.fft.fftn(phi_full)
        rhs_hat = np.fft.fftn(ev.rhs)
        new_hat = (phi_hat + dt * (rhs_hat - c * s * phi_hat)) / (1.0 - dt * c * s)
        return np.fft.ifftn(new_hat).real


def _diagnostics(geo: TorusGeometry, t: float, dt: float, ev: _Evaluation) -> StepDiagnostics:
    g = HermitianField(geo, ev.coeffs)
    curv = scalar_curvature_of(g)
    return StepDiagnostics(
        t=t,
        dt=dt,
        min_scalar_curvature=float(curv.values.min()),
        min_dot_phi=float(ev.rhs.min()),
        max_dot_phi=float(ev.rhs.max()),
        min_eigenvalue=ev.min_eig,
        volume=volume(g),
    )


def _make_state(base, t, phi_full, ev, dt) -> FlowState:
    geo = base.geometry
    mean = float(phi_full.mean())
    return FlowState(
        base=base,
        t=t,
        phi_osc=ScalarField(geo, phi_full - mean),
        phi_mean=mean,
        dot_phi=ScalarField(geo, ev.rhs),
        last_dt=dt,
    )


def dot_phi(state: FlowState, alpha: FlatMetric | None = None, dealias: bool = False) -> ScalarField:
    """log(det g(t) / det H_alpha) for the state's current metric.

    With alpha omitted the constant representative of the state's own
    class is used, which is the flow's stationary normalization.  Raises
    PositivityError where the metric is not positive.
    """
    if alpha is None:
        alpha, _ = harmonic_projection(state.base)
    return _rhs(assemble(state.metric()), alpha, FlowConfig(dealias=dealias))


def step(state: FlowState, config: FlowConfig) -> FlowState:
    """One accepted adaptive step from state."""
    new_state, _ = _step(state, config)
    return new_state


def _step(state: FlowState, config: FlowConfig, _stepper: _Stepper | None = None,
          _boundaries: tuple = (), _ev: _Evaluation | None = None):
    """One accepted step from state; returns (new_state, evaluation)."""
    stepper = _stepper
    if stepper is None:
        alpha, _ = harmonic_projection(state.base)
        stepper = _Stepper(state.base, config, alpha)
    ev = _ev if _ev is not None else stepper.evaluate(state.phi.values)
    if ev.rhs is None:
        raise FlowFailure("current state is not positive", state)
    dt = stepper.target_dt(state.t, ev)
    remaining = [b for b in (*_boundaries, config.t_end) if b > state.t + 1e-14]
    if remaining:
        dt = min(dt, min(remaining) - state.t)
    phi = state.phi.values
    rejects = 0
    while True:
        candidate = stepper.advance(phi, ev, dt)
        finite = bool(np.all(np.isfinite(candidate)))
        ev_new = stepper.evaluate(candidate) if finite else None
        if ev_new is not None and ev_new.rhs is not None:
            t_new = state.t + dt
            return _make_state(state.base, t_new, candidate, ev_new, dt), ev_new
        rejects += 1
        if rejects > config.max_rejects:
            raise FlowFailure(
                f"step at t={state.t:.6g} rejected {rejects} times (dt={dt:.3e})",
                state,
            )
        dt /= 2.0
        if dt < 1e-15:
            raise FlowFailure(f"time step underflow at t={state.t:.6g}", state)


def run_flow(metric0: KahlerMetric, config: FlowConfig) -> FlowTrace:
    """Integrate from metric0 to t_end, collecting snapshots and diagnostics."""
    alpha, u = harmonic_projection(metric0)
    stepper = _Stepper(metric0, config, alpha)
    geo = metric0.geometry
    zero = ScalarField(geo, np.zeros(geo.shape))
    ev = stepper.evaluate(zero.values)
    if ev.rhs is None:
        raise FlowFailure(
            "initial metric is not positive",
            FlowState(metric0, 0.0, zero, 0.0, zero, 0.0),
        )
    state = _make_state(metric0, 0.0, zero.values, ev, 0.0)
    diagnostics = [_diagnostics(geo, 0.0, 0.0, ev)]
    snapshots = []
    boundaries = config.snapshot_times
    snap_iter = set(boundaries)
    while state.t < config.t_end - 1e-12:
        state, ev = _step(state, config, _stepper=stepper, _boundaries=boundaries, _ev=ev)
        diagnostics.append(_diagnostics(geo, state.t, state.last_dt, ev))
        for s in sorted(snap_iter):
            if abs(state.t - s) <= 1e-12 * max(1.0, s):
                snapshots.append(state)
                snap_iter.discard(s)
                break
    return FlowTrace(
        initial=metric0,
        alpha=alpha,
        flat_potential=u,
        config=config,
        snapshots=tuple(snapshots),
        diagnostics=tuple(diagnostics),
        final=state,
    )
