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
new_h = 0.9 * h * err^(-1/5), clamped to [h/10, 10*h].  The Dormand-Prince
pair is "first same as last": its 7th stage sits at the propagated solution,
so the loop carries that acceleration into the next step and an accepted
step costs 6 evaluations of _accel, not 7.

A run never raises for physics reasons: the tip reaching the safety gap,
|phi| reaching pi/2, the step budget running out, or a step that cannot
advance time to a larger finite value (stalled) all end the run with a
reported termination status, so parameter sweeps survive pathological
points.
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .analytic import linear_omega, linear_period
from .constants import constants
from .pendulum import (
    MAX_ANGLE,
    MIN_TIP_GAP,
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
    "DEFAULT_T_MAX_PERIODS",
    "integrate",
    "estimate_period",
    "energy_drift",
]

DEFAULT_T_MAX_PERIODS = 12  # enough cycles for a stable period estimate


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

    t_max         -- absolute end time of the run, s; None runs for
                     DEFAULT_T_MAX_PERIODS linearized periods of the
                     integrated pendulum
    method        -- fixed-step RK4 or adaptive Dormand-Prince 5(4)
    dt            -- fixed step size, s (required for RK4_FIXED)
    rel_tol, abs_tol -- adaptive error control on the dimensionless state
    max_steps     -- accepted-step budget before the run stops as STEP_LIMIT
    record_stride -- record every n-th accepted step (initial and final
                     states are always recorded)
    collision_gap -- tip-plate distance, m, at or below which the run stops
    """

    t_max: float | None = None
    method: Method = Method.RK45_ADAPTIVE
    dt: float | None = None
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_steps: int = 1_000_000
    record_stride: int = 1
    collision_gap: float = MIN_TIP_GAP

    def __post_init__(self) -> None:
        if self.t_max is not None and not self.t_max > 0:
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


_SAFETY = 0.9
_MIN_FACTOR = 0.1
_MAX_FACTOR = 10.0
_INITIAL_PHASE_STEP = 0.1  # trial first step, radians of linearized phase


def _accel(phi: float, lam: float, gamma: float) -> float:
    """dpsi/dtau of the dimensionless system; dphi/dtau is psi itself."""
    # q = R(phi)/R0; 2*sin^2(phi/2) avoids the 1-cos cancellation.
    q = 1.0 + lam * 2.0 * math.sin(0.5 * phi) ** 2
    return -math.sin(phi) * ((1.0 / q) ** 4 + gamma)


def _rk4_step(phi, psi, h, lam, gamma):
    a1 = _accel(phi, lam, gamma)
    v2 = psi + 0.5 * h * a1
    a2 = _accel(phi + 0.5 * h * psi, lam, gamma)
    v3 = psi + 0.5 * h * a2
    a3 = _accel(phi + 0.5 * h * v2, lam, gamma)
    v4 = psi + h * a3
    a4 = _accel(phi + h * v3, lam, gamma)
    phi_new = phi + h / 6.0 * (psi + 2.0 * v2 + 2.0 * v3 + v4)
    psi_new = psi + h / 6.0 * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
    return phi_new, psi_new


def _dp45_step(phi, psi, a1, h, lam, gamma):
    """One Dormand-Prince trial step from (phi, psi) with a1 = _accel(phi):
    returns (phi5, psi5, a7, err_phi, err_psi).  Stage i sits at
    (phi + h*sum_j a_ij*v_j, v_i) with v_1 = psi; the last stage is the
    propagated solution, so a7 is the next step's a1."""
    # Zero weights are left out; the other terms keep the tableau's order.
    v2 = psi + h * (1 / 5 * a1)
    a2 = _accel(phi + h * (1 / 5 * psi), lam, gamma)
    v3 = psi + h * (3 / 40 * a1 + 9 / 40 * a2)
    a3 = _accel(phi + h * (3 / 40 * psi + 9 / 40 * v2), lam, gamma)
    v4 = psi + h * (44 / 45 * a1 - 56 / 15 * a2 + 32 / 9 * a3)
    a4 = _accel(phi + h * (44 / 45 * psi - 56 / 15 * v2 + 32 / 9 * v3), lam, gamma)
    v5 = psi + h * (19372 / 6561 * a1 - 25360 / 2187 * a2 + 64448 / 6561 * a3
                    - 212 / 729 * a4)
    a5 = _accel(phi + h * (19372 / 6561 * psi - 25360 / 2187 * v2 + 64448 / 6561 * v3
                           - 212 / 729 * v4), lam, gamma)
    v6 = psi + h * (9017 / 3168 * a1 - 355 / 33 * a2 + 46732 / 5247 * a3 + 49 / 176 * a4
                    - 5103 / 18656 * a5)
    a6 = _accel(phi + h * (9017 / 3168 * psi - 355 / 33 * v2 + 46732 / 5247 * v3
                           + 49 / 176 * v4 - 5103 / 18656 * v5), lam, gamma)
    phi5 = phi + h * (35 / 384 * psi + 500 / 1113 * v3 + 125 / 192 * v4 - 2187 / 6784 * v5
                      + 11 / 84 * v6)
    psi5 = psi + h * (35 / 384 * a1 + 500 / 1113 * a3 + 125 / 192 * a4 - 2187 / 6784 * a5
                      + 11 / 84 * a6)
    a7 = _accel(phi5, lam, gamma)
    err_phi = h * (71 / 57600 * psi - 71 / 16695 * v3 + 71 / 1920 * v4
                   - 17253 / 339200 * v5 + 22 / 525 * v6 - 1 / 40 * psi5)
    err_psi = h * (71 / 57600 * a1 - 71 / 16695 * a3 + 71 / 1920 * a4
                   - 17253 / 339200 * a5 + 22 / 525 * a6 - 1 / 40 * a7)
    return phi5, psi5, a7, err_phi, err_psi


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
    config.t_max (by default DEFAULT_T_MAX_PERIODS linearized periods of
    params).

    Deterministic: identical inputs produce bit-identical trajectories.
    Collision (tip at or below the safety gap, |phi| >= pi/2, or a fixed
    step so large that a stage angle overflows), step exhaustion and a step
    that cannot advance time to a larger finite value are reported
    terminations, not exceptions; the violating state itself is not
    recorded, so every sample in the result is valid.
    """
    if not abs(initial.phi) < MAX_ANGLE:
        raise GeometryError(f"|initial.phi| must be below pi/2, got {initial.phi!r}")
    t_max = config.t_max
    if t_max is None:
        t_max = DEFAULT_T_MAX_PERIODS * linear_period(params)
    if not t_max > initial.t:
        raise ValueError(f"t_max={t_max!r} must exceed initial.t={initial.t!r}")

    w_ref, lam, gamma = _dimensionless_system(params)
    gap = config.collision_gap
    tau = initial.t * w_ref
    tau_end = t_max * w_ref
    phi = initial.phi
    psi = initial.phi_dot / w_ref
    rows = [(initial.t, phi, psi)]
    if tip_distance(phi, params) <= gap:
        return _trajectory(rows, params, Termination.COLLISION)

    adaptive = config.method is Method.RK45_ADAPTIVE
    acc = _accel(phi, lam, gamma)  # a1 of the first Dormand-Prince step
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
        if not tau < tau + h < math.inf:  # h underflowed, overflowed or is NaN
            termination = Termination.STALLED
            break
        if adaptive:
            phi_new, psi_new, acc_new, e_phi, e_psi = _dp45_step(phi, psi, acc, h, lam, gamma)
            scale_phi = atol + rtol * max(abs(phi), abs(phi_new))
            scale_psi = atol + rtol * max(abs(psi), abs(psi_new))
            err = max(abs(e_phi) / scale_phi, abs(e_psi) / scale_psi)
            factor = _MAX_FACTOR if err == 0.0 else _SAFETY * err**-0.2
            h_next = h * min(_MAX_FACTOR, max(_MIN_FACTOR, factor))
            if not err <= 1.0:  # rejected, also when err is NaN
                continue
            acc = acc_new
        else:
            try:
                phi_new, psi_new = _rk4_step(phi, psi, h, lam, gamma)
            except ValueError:  # math.sin of a stage angle that overflowed to inf
                termination = Termination.COLLISION
                break
        steps += 1
        if abs(phi_new) >= MAX_ANGLE or tip_distance(phi_new, params) <= gap:
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
