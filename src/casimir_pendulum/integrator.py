"""Numerical integration of the full nonlinear equation of motion.

The stepper does not see SI magnitudes (I ~ 1e-41 kg*m^2, torques ~ 1e-27
N*m).  Internally time is rescaled to tau = omega_ref * t with omega_ref
the linearized frequency, and the state is (phi, psi = phi_dot/omega_ref),
which turns the dynamics into the O(1) dimensionless system

    dphi/dtau = psi
    dpsi/dtau = -sin(phi) * [ (R0/R(phi))^4 + gamma ]

with R0 = d - l the equilibrium tip gap and gamma the gravity-to-vacuum
stiffness ratio (~5e-6 for realistic designs, 0 when gravity is off).
This module is the package's only time stepper.  Recorded samples are
converted back to SI in one pass at the end of the run; the energy column is
the system's first integral scaled to joules.

One driver loop serves two methods, which differ only in the trial step and
in whether the step size adapts: classical fixed-step RK4, and an embedded
Dormand-Prince 5(4) pair with the textbook step controller
new_h = 0.9 * h * err^(-1/5), clamped to [h/10, 10*h].

A run never raises for physics reasons: the tip reaching the safety gap,
|phi| reaching pi/2, the step budget running out, or a step too small to
advance time (stalled) all end the run with a reported termination status,
so parameter sweeps survive pathological points.
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .analytic import linear_omega
from .constants import constants
from .pendulum import (
    MAX_ANGLE,
    GeometryError,
    PendulumParams,
    State,
    moment_of_inertia,
    tip_distance,
)

__all__ = [
    "Method",
    "Termination",
    "IntegratorConfig",
    "Trajectory",
    "PeriodEstimate",
    "InsufficientCyclesError",
    "DEFAULT_COLLISION_GAP",
    "integrate",
    "estimate_period",
    "energy_drift",
]

# Two typical atom radii: closer than this the point-atom force law is
# meaningless, so the run is cut off ("collision").
DEFAULT_COLLISION_GAP = 2e-10


class Method(Enum):
    RK4_FIXED = "rk4_fixed"
    RK45_ADAPTIVE = "rk45_adaptive"


class Termination(Enum):
    COMPLETED = "completed"
    COLLISION = "collision"
    STEP_LIMIT = "step_limit"
    STALLED = "stalled"


class InsufficientCyclesError(ValueError):
    """Raised when a trajectory holds too few zero crossings to measure a
    period."""


@dataclass(frozen=True)
class IntegratorConfig:
    """Integration settings.

    t_max         -- absolute end time of the run, s
    method        -- fixed-step RK4 or adaptive Dormand-Prince 5(4)
    dt            -- fixed step size, s (required for RK4_FIXED)
    rel_tol, abs_tol -- adaptive error control on the dimensionless state
    max_steps     -- accepted-step budget before the run stops as STEP_LIMIT
    record_stride -- record every n-th accepted step (initial and final
                     states are always recorded)
    collision_gap -- tip-plate distance, m, at or below which the run stops
    """

    t_max: float
    method: Method = Method.RK45_ADAPTIVE
    dt: float | None = None
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_steps: int = 1_000_000
    record_stride: int = 1
    collision_gap: float = DEFAULT_COLLISION_GAP

    def __post_init__(self) -> None:
        if not self.t_max > 0:
            raise ValueError(f"t_max must be positive, got {self.t_max!r}")
        if self.method is Method.RK4_FIXED:
            if self.dt is None or not self.dt > 0:
                raise ValueError(f"fixed-step method needs dt > 0, got {self.dt!r}")
        else:
            if not (self.rel_tol > 0 and self.abs_tol > 0):
                raise ValueError(
                    f"adaptive method needs positive tolerances, got rel_tol={self.rel_tol!r}, "
                    f"abs_tol={self.abs_tol!r}"
                )
        if self.max_steps < 1:
            raise ValueError(f"max_steps must be >= 1, got {self.max_steps!r}")
        if self.record_stride < 1:
            raise ValueError(f"record_stride must be >= 1, got {self.record_stride!r}")
        if self.collision_gap < 0:
            raise ValueError(f"collision_gap must be >= 0, got {self.collision_gap!r}")


@dataclass(frozen=True)
class Trajectory:
    """Recorded time series (SI columns) plus run metadata.

    Columns are parallel numpy arrays, read-only after construction: times
    strictly increase, r equals tip_distance(phi) at every sample, and
    energy is the total mechanical energy.
    """

    t: np.ndarray
    phi: np.ndarray
    phi_dot: np.ndarray
    r: np.ndarray
    energy: np.ndarray
    params: PendulumParams
    termination: Termination

    def __post_init__(self) -> None:
        for name in ("t", "phi", "phi_dot", "r", "energy"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        n = len(self.t)
        if any(len(getattr(self, name)) != n for name in ("phi", "phi_dot", "r", "energy")):
            raise ValueError("trajectory columns must have equal length")

    def __len__(self) -> int:
        return len(self.t)

    def final_state(self) -> State:
        return State(t=float(self.t[-1]), phi=float(self.phi[-1]), phi_dot=float(self.phi_dot[-1]))


@dataclass(frozen=True)
class PeriodEstimate:
    """Oscillation period measured from descending zero crossings."""

    mean_period: float
    per_cycle_periods: np.ndarray
    cycles_observed: int


# Dormand-Prince 5(4) tableau.  The propagated solution is 5th order; the
# last row of weights gives the embedded 4th-order error estimate.
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_DP_ERR = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)

_SAFETY = 0.9
_MIN_FACTOR = 0.1
_MAX_FACTOR = 10.0
_INITIAL_PHASE_STEP = 0.1  # trial first step, radians of linearized phase


def _dimensionless_rhs(phi: float, psi: float, lam: float, gamma: float) -> tuple[float, float]:
    # q = R(phi)/R0; 2*sin^2(phi/2) avoids the 1-cos cancellation.
    q = 1.0 + lam * 2.0 * math.sin(0.5 * phi) ** 2
    return psi, -math.sin(phi) * ((1.0 / q) ** 4 + gamma)


def _rk4_step(phi, psi, h, lam, gamma):
    k1p, k1v = _dimensionless_rhs(phi, psi, lam, gamma)
    k2p, k2v = _dimensionless_rhs(phi + 0.5 * h * k1p, psi + 0.5 * h * k1v, lam, gamma)
    k3p, k3v = _dimensionless_rhs(phi + 0.5 * h * k2p, psi + 0.5 * h * k2v, lam, gamma)
    k4p, k4v = _dimensionless_rhs(phi + h * k3p, psi + h * k3v, lam, gamma)
    phi_new = phi + h / 6.0 * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
    psi_new = psi + h / 6.0 * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
    return phi_new, psi_new


def _dp45_step(phi, psi, h, lam, gamma):
    """One Dormand-Prince trial step: returns (phi5, psi5, err_phi, err_psi)."""
    kp = []
    kv = []
    for row in _DP_A:
        dp = 0.0
        dv = 0.0
        for a, p, v in zip(row, kp, kv):
            dp += a * p
            dv += a * v
        p, v = _dimensionless_rhs(phi + h * dp, psi + h * dv, lam, gamma)
        kp.append(p)
        kv.append(v)
    phi5 = phi + h * sum(b * k for b, k in zip(_DP_B5, kp))
    psi5 = psi + h * sum(b * k for b, k in zip(_DP_B5, kv))
    err_phi = h * sum(e * k for e, k in zip(_DP_ERR, kp))
    err_psi = h * sum(e * k for e, k in zip(_DP_ERR, kv))
    return phi5, psi5, err_phi, err_psi


def _dimensionless_system(params: PendulumParams) -> tuple[float, float, float]:
    """Scales of the dimensionless system: (w_ref, lam, gamma) with w_ref the
    linearized frequency, lam = l/R0 and gamma the gravity-to-vacuum
    stiffness ratio (0 when gravity is off)."""
    w_ref = linear_omega(params)
    lam = params.l / (params.d - params.l)
    if params.include_gravity:
        gamma = 3.0 * constants().g_accel / (2.0 * params.l * w_ref**2)
    else:
        gamma = 0.0
    return w_ref, lam, gamma


def _trajectory(rows, params: PendulumParams, termination: Termination) -> Trajectory:
    """SI columns from recorded (t, phi, psi) rows.

    The energy column is the first integral of the dimensionless system,

        E = I * w_ref^2 * (psi^2/2 - q^-3/(3*lam) - gamma*cos(phi)),

    which equals total_energy of the same state up to rounding.
    """
    w_ref, lam, gamma = _dimensionless_system(params)
    t, phi, psi = (np.array(col) for col in zip(*rows))
    q = 1.0 + lam * 2.0 * np.sin(0.5 * phi) ** 2
    invariant = 0.5 * psi**2 - 1.0 / (3.0 * lam * q**3) - gamma * np.cos(phi)
    return Trajectory(
        t=t,
        phi=phi,
        phi_dot=psi * w_ref,
        r=np.array([tip_distance(p, params) for p in phi.tolist()]),
        energy=moment_of_inertia(params) * w_ref**2 * invariant,
        params=params,
        termination=termination,
    )


def integrate(params: PendulumParams, initial: State, config: IntegratorConfig) -> Trajectory:
    """Integrate the nonlinear equation of motion from initial.t to
    config.t_max.

    Deterministic: identical inputs produce bit-identical trajectories.
    Collision (tip at or below the safety gap, or |phi| >= pi/2), step
    exhaustion and a step too small to advance time are reported
    terminations, not exceptions; the violating state itself is not
    recorded, so every sample in the result is valid.
    """
    if not abs(initial.phi) < MAX_ANGLE:
        raise GeometryError(f"|initial.phi| must be below pi/2, got {initial.phi!r}")
    if not config.t_max > initial.t:
        raise ValueError(f"t_max={config.t_max!r} must exceed initial.t={initial.t!r}")

    w_ref, lam, gamma = _dimensionless_system(params)
    gap = config.collision_gap

    def collides(phi: float) -> bool:
        return abs(phi) >= MAX_ANGLE or tip_distance(phi, params) <= gap

    tau = initial.t * w_ref
    tau_end = config.t_max * w_ref
    phi = initial.phi
    psi = initial.phi_dot / w_ref
    rows = [(initial.t, phi, psi)]
    if collides(phi):
        return _trajectory(rows, params, Termination.COLLISION)

    adaptive = config.method is Method.RK45_ADAPTIVE
    rtol = config.rel_tol
    atol = config.abs_tol
    h_next = _INITIAL_PHASE_STEP if adaptive else config.dt * w_ref
    steps = 0
    since_record = 0
    termination = Termination.COMPLETED
    while tau < tau_end:
        if steps >= config.max_steps:
            termination = Termination.STEP_LIMIT
            break
        h = min(h_next, tau_end - tau)
        if tau + h == tau:
            termination = Termination.STALLED
            break
        if adaptive:
            phi_new, psi_new, e_phi, e_psi = _dp45_step(phi, psi, h, lam, gamma)
            scale_phi = atol + rtol * max(abs(phi), abs(phi_new))
            scale_psi = atol + rtol * max(abs(psi), abs(psi_new))
            err = max(abs(e_phi) / scale_phi, abs(e_psi) / scale_psi)
            factor = _MAX_FACTOR if err == 0.0 else _SAFETY * err**-0.2
            h_next = h * min(_MAX_FACTOR, max(_MIN_FACTOR, factor))
            if not err <= 1.0:  # rejected, also when err is NaN
                continue
        else:
            phi_new, psi_new = _rk4_step(phi, psi, h, lam, gamma)
        steps += 1
        if collides(phi_new):
            termination = Termination.COLLISION
            break
        tau += h
        phi, psi = phi_new, psi_new
        since_record += 1
        if since_record >= config.record_stride:
            rows.append((tau / w_ref, phi, psi))
            since_record = 0
    if since_record:  # the last accepted state is always recorded
        rows.append((tau / w_ref, phi, psi))
    return _trajectory(rows, params, termination)


def estimate_period(traj: Trajectory) -> PeriodEstimate:
    """Measure the oscillation period from descending zero crossings of phi.

    Crossing times are found by linear interpolation between the bracketing
    samples; only phi_dot < 0 crossings (phi passing from positive to
    non-positive) are used, so a release from rest at phi0 > 0 yields one
    crossing per full cycle with no half-period aliasing.
    """
    phi = traj.phi
    t = traj.t
    descending = np.nonzero((phi[:-1] > 0.0) & (phi[1:] <= 0.0))[0]
    if len(descending) < 2:
        raise InsufficientCyclesError(
            f"need >= 2 descending zero crossings to measure a period, found {len(descending)}"
        )
    t0 = t[descending]
    t1 = t[descending + 1]
    p0 = phi[descending]
    p1 = phi[descending + 1]
    crossings = t0 + p0 * (t1 - t0) / (p0 - p1)
    per_cycle = np.diff(crossings)
    return PeriodEstimate(
        mean_period=float(per_cycle.mean()),
        per_cycle_periods=per_cycle,
        cycles_observed=len(per_cycle),
    )


def energy_drift(traj: Trajectory) -> float:
    """Maximum relative deviation of the energy column from its initial
    value, max |E(t) - E(0)| / |E(0)|."""
    e0 = float(traj.energy[0])
    if e0 == 0.0:
        raise ValueError("initial energy is zero; relative drift undefined")
    return float(np.max(np.abs(traj.energy - e0)) / abs(e0))
