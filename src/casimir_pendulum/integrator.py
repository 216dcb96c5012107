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
in whether the step size adapts: classical fixed-step RK4, and the embedded
Dormand-Prince 8(5,3) pair of dop853 (Prince & Dormand 1981; Hairer, Norsett
& Wanner, Solving ODEs I, II.10), whose error is dop853's combination of its
fifth- and third-order estimates in the max norm, with the step controller
new_h = 0.9 * h * err^(-1/8), clamped to [h/10, 10*h].  The pair is "first
same as last": its 13th stage sits at the propagated solution, so the loop
carries that acceleration into the next step and an accepted step costs 12
evaluations of _accel, not 13.  As dpsi/dtau does not depend on psi, the
pair is taken in Nystrom form (II.14), with no stage velocity: with
ka_j = h*a_j, stage i's angle is phi + h*(c_i*psi + sum_j ab_ij*ka_j) with
ab = A^2, phi8 = phi + h*(psi + sum_j (b.A)_j*ka_j),
psi8 = psi + sum_j b_j*ka_j, and each error estimate is
(h*sum_j eb_j*ka_j, sum_j e_j*ka_j) with eb = e.A; nothing is divided by h.
Inside each accepted step that crosses zero descending, one more trial step
of the run's method, from the step's start to the root of the cubic Hermite
through its ends, gives the state at the crossing, which integrate records
and the period's crossing times are located from.

integrate's loop, _advance, takes the pair's trial step on floats and the
numpy lanes of _lockstep on arrays, both from _dp_trial, which fixes its
weights and the order of every sum and writes _accel in place.  A release
from rest with no t_max ends with the step of its second descending zero
crossing, capped by a closed-form bound on its period.  Runs that need only
their periods (a sweep, `period --simulate`) go through _crossing_periods,
where each run records integrate's rows around its crossings.  Whether a
step crosses (_descends), its crossing row (_crossing_row) and time
(_crossing_time) come from one function each, on floats or on the lanes'
arrays; below _LOCKSTEP_MIN_LANES runs no numpy is called.  From there up,
the adaptive runs whose tip cannot reach the safety gap take a prefix of
their steps together as lanes, each equal to a serial integrate at
record_stride 1 bit for bit wherever np.sin and np.float_power equal
math.sin and Python's ** (np.sqrt and math.sqrt are both correctly
rounded), and their crossings are located in one numpy batch.  A lane
freezes at integrate's loop head, or in its state from before a step that
reaches pi/2 or whose error or acceleration is NaN, until fewer than
_LOCKSTEP_MIN_LANES lanes can step.  Then _advance, the only code that
decides a termination, finishes every run.

A run never raises for physics reasons: the tip reaching the safety gap
(collision), |phi| reaching pi/2 or a stage angle overflowing (angle
limit), the step budget running out, or a step that cannot advance time to
a larger finite value (stalled) all end the run with a reported termination
status, so parameter sweeps survive pathological points.
"""

import math
from dataclasses import dataclass
from enum import Enum
from itertools import chain, pairwise

import numpy as np

from .analytic import _dimensionless_system, _period_bound, linear_period
from .pendulum import (
    MAX_ANGLE,
    MIN_TIP_GAP,
    PendulumParams,
    State,
    _check_angle,
    moment_of_inertia,
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

DEFAULT_T_MAX_PERIODS = 12  # linearized periods of a run that does not start at rest


class Method(Enum):
    RK4_FIXED = "rk4_fixed"
    RK45_ADAPTIVE = "rk45_adaptive"


class Termination(Enum):
    COMPLETED = "completed"
    COLLISION = "collision"
    ANGLE_LIMIT = "angle_limit"
    STEP_LIMIT = "step_limit"
    STALLED = "stalled"


class InsufficientCyclesError(ValueError):
    """Raised when a trajectory holds too few zero crossings to measure a
    period."""


@dataclass(frozen=True)
class IntegratorConfig:
    """Integration settings.

    t_max         -- absolute end time of the run, s; None ends a release
                     from rest at phi0 with the step of its second
                     descending zero crossing (one full cycle, capped at 1.5
                     upper bounds on the period, 2 for phi0 <= 0) and any other
                     start after DEFAULT_T_MAX_PERIODS linearized periods
    method        -- fixed-step RK4 or adaptive Dormand-Prince 8(5,3)
    dt            -- fixed step size, s (required for RK4_FIXED)
    rel_tol, abs_tol -- adaptive error control on the dimensionless state,
                     finite and positive; abs_tol takes over from
                     rel_tol*|y| below |y| = abs_tol/rel_tol, 1e-4 by default
    max_steps     -- accepted-step budget before the run stops as STEP_LIMIT
    record_stride -- record every n-th accepted step of integrate's
                     trajectory (initial and final states, and those before,
                     at the crossing of and after each step that crosses
                     zero descending, are always recorded)
    collision_gap -- tip-plate distance, m, at or below which the run stops
    """

    t_max: float | None = None
    method: Method = Method.RK45_ADAPTIVE
    dt: float | None = None
    rel_tol: float = 1e-10
    abs_tol: float = 1e-14
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
            if not (0 < self.rel_tol < math.inf and 0 < self.abs_tol < math.inf):
                raise ValueError(
                    f"adaptive method needs finite positive tolerances, got "
                    f"rel_tol={self.rel_tol!r}, abs_tol={self.abs_tol!r}"
                )
        if self.max_steps < 1:
            raise ValueError(f"max_steps must be >= 1, got {self.max_steps!r}")
        if self.record_stride < 1:
            raise ValueError(f"record_stride must be >= 1, got {self.record_stride!r}")
        if not self.collision_gap >= 0:  # also rejects NaN
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
            arr = np.array(getattr(self, name), dtype=float)  # a copy, not the caller's array
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

def _accel(phi, lam, gamma, sin=math.sin):  # sin as a local, which is faster to look up
    """dpsi/dtau of the dimensionless system; dphi/dtau is psi itself."""
    # r = R0/R(phi); 2*sin^2(phi/2) avoids the 1-cos cancellation.
    s = sin(0.5 * phi)
    r = 1.0 / (1.0 + lam * 2.0 * (s * s))
    r2 = r * r
    return -sin(phi) * (r2 * r2 + gamma)


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


def _dp_trial(phi, psi, acc, h, lam2, gamma, sin=math.sin):
    """One Dormand-Prince 8(5,3) trial step in Nystrom form from (phi, psi),
    with acc = _accel(phi) and lam2 = lam * 2.0: (phi8, psi8, a13, e5_phi,
    e5_psi, e3_phi, e3_psi), a13 being _accel(phi8), the next step's acc,
    and (e5, e3) dop853's fifth- and third-order error estimates.

    Floats with math.sin for _advance, or numpy arrays with np.sin for the
    lanes: the same expressions either way.  Each stage's acceleration is
    _accel written in place (lam * 2.0 * (s*s) associates left, so lam2 is
    taken once).  The weights are those of the Prince & Dormand (1981)
    tableau as scipy's dop853 holds it, taken to Nystrom form in exact
    arithmetic (tests/rk_reference.py derives them) and rounded once.  Where
    the exact tableau has a 0 that scipy's rounded one misses by about 1e-17,
    psi in e5_phi and e3_phi (sum(e) = 0) and ka4, ka5 in phi8
    (b_j*(1 - c_j), b_4 = b_5 = 0), the term is dropped.
    A stage angle at +-inf makes math.sin raise ValueError and np.sin return
    NaN, and that NaN reaches e5_psi and psi8: stages 6-12 enter them
    directly, and stages 2-5 through a later angle (2 and 4 through stage
    4's and 6's, 3 and 5 through stage 5's and 7's); phi8 at +-inf makes a13
    NaN.  _lockstep's freeze and _crossing_row's finite-psi test rely on it.
    """
    ka1 = h * acc
    x = phi + h * (0.05260015195876773 * psi)
    s = sin(0.5 * x)
    r = 1.0 / (1.0 + lam2 * (s * s))
    r2 = r * r
    ka2 = h * (-sin(x) * (r2 * r2 + gamma))
    x = phi + h * (0.0789002279381516 * psi + 0.003112622984346139 * ka1)
    s = sin(0.5 * x)
    r = 1.0 / (1.0 + lam2 * (s * s))
    r2 = r * r
    ka3 = h * (-sin(x) * (r2 * r2 + gamma))
    x = phi + h * (0.1183503419072274 * psi + 0.0017508504286947032 * ka1
                   + 0.00525255128608411 * ka2)
    s = sin(0.5 * x)
    r = 1.0 / (1.0 + lam2 * (s * s))
    r2 = r * r
    ka4 = h * (-sin(x) * (r2 * r2 + gamma))
    x = phi + h * (0.2816496580927726 * psi + 0.009915816237971964 * ka1
                   - 0.05234336665618132 * ka2 + 0.0820908153700972 * ka3)
    s = sin(0.5 * x)
    r = 1.0 / (1.0 + lam2 * (s * s))
    r2 = r * r
    ka5 = h * (-sin(x) * (r2 * r2 + gamma))
    x = phi + h * (0.3333333333333333 * psi + 0.03533793130488635 * ka1 - 0.09581915952175495 * ka3
                   + 0.11603678377242414 * ka4)
    s = sin(0.5 * x)
    r = 1.0 / (1.0 + lam2 * (s * s))
    r2 = r * r
    ka6 = h * (-sin(x) * (r2 * r2 + gamma))
    x = phi + h * (0.25 * psi + 0.018920483189113914 * ka1 - 0.03815245266364541 * ka3
                   + 0.05268745617004205 * ka4 - 0.00220548669551055 * ka5)
    s = sin(0.5 * x)
    r = 1.0 / (1.0 + lam2 * (s * s))
    r2 = r * r
    ka7 = h * (-sin(x) * (r2 * r2 + gamma))
    x = phi + h * (0.30769230769230765 * psi + 0.03067021189623757 * ka1
                   - 0.07975482628537983 * ka3 + 0.0979912056772412 * ka4
                   - 0.0014238754814449106 * ka5 - 0.00014543770014516837 * ka6)
    s = sin(0.5 * x)
    r = 1.0 / (1.0 + lam2 * (s * s))
    r2 = r * r
    ka8 = h * (-sin(x) * (r2 * r2 + gamma))
    x = phi + h * (0.651282051282051 * psi - 0.15229089727622033 * ka1 + 0.46966087733519885 * ka3
                   - 0.06814140470279369 * ka4 + 0.01071185753171531 * ka5
                   + 0.31196985474604216 * ka6 - 0.35982613247286355 * ka7)
    s = sin(0.5 * x)
    r = 1.0 / (1.0 + lam2 * (s * s))
    r2 = r * r
    ka9 = h * (-sin(x) * (r2 * r2 + gamma))
    x = phi + h * (0.5999999999999982 * psi - 0.11020716722377502 * ka1 + 0.30128953154727944 * ka3
                   + 0.07865735349516391 * ka4 + 0.030838873981239242 * ka5
                   - 0.31960414755130306 * ka6 - 0.6851760518136165 * ka7
                   + 0.8842016075650119 * ka8)
    s = sin(0.5 * x)
    r = 1.0 / (1.0 + lam2 * (s * s))
    r2 = r * r
    ka10 = h * (-sin(x) * (r2 * r2 + gamma))
    x = phi + h * (0.857142857142858 * psi + 0.3721894995071433 * ka1 - 0.5050736261155677 * ka3
                   - 0.4614987464855827 * ka4 - 0.06518509348541897 * ka5 + 4.098038403866562 * ka6
                   + 3.8922102844072377 * ka7 - 7.025278165955339 * ka8 + 0.06194438303648047 * ka9)
    s = sin(0.5 * x)
    r = 1.0 / (1.0 + lam2 * (s * s))
    r2 = r * r
    ka11 = h * (-sin(x) * (r2 * r2 + gamma))
    x = phi + h * (1.0000000000000007 * psi - 0.7650750098382327 * ka1 + 0.8347994820739504 * ka3
                   + 1.7559441441931152 * ka4 + 0.23253698859550578 * ka5
                   + 11.903719357881853 * ka6 - 1.9034949405460306 * ka7 - 10.951226401858388 * ka8
                   + 1.3530625395360725 * ka9 - 1.9602661600378632 * ka10)
    s = sin(0.5 * x)
    r = 1.0 / (1.0 + lam2 * (s * s))
    r2 = r * r
    ka12 = h * (-sin(x) * (r2 * r2 + gamma))
    phi8 = phi + h * (psi + 0.05429373411656877 * ka1 + 2.96687526183494 * ka6
                      + 1.4186384244858756 * ka7 - 4.016218126161175 * ka8
                      + 0.10850859975965002 * ka9 - 0.06086437986500647 * ka10
                      + 0.028766485829147193 * ka11)
    psi8 = psi + (0.054293734116568765 * ka1 + 4.450312892752409 * ka6 + 1.8915178993145003 * ka7
                  - 5.801203960010585 * ka8 + 0.3111643669578199 * ka9 - 0.1521609496625161 * ka10
                  + 0.20136540080403034 * ka11 + 0.04471061572777259 * ka12)
    s = sin(0.5 * phi8)
    r = 1.0 / (1.0 + lam2 * (s * s))
    r2 = r * r
    a13 = -sin(phi8) * (r2 * r2 + gamma)
    e5_phi = h * (-0.18865188001798794 * ka1 + 0.9962151331241323 * ka4 + 0.23599761577747433 * ka5
                  - 2.8546306823509116 * ka6 - 4.082808827933706 * ka7 + 6.038341535948958 * ka8
                  + 0.39584534789657555 * ka9 - 0.5259249995299615 * ka10
                  - 0.014383242914573597 * ka11)
    e5_psi = (0.01312004499419488 * ka1 - 1.2251564463762044 * ka6 - 0.4957589496572502 * ka7
              + 1.6643771824549864 * ka8 - 0.35032884874997366 * ka9 + 0.3341791187130175 * ka10
              + 0.08192320648511571 * ka11 - 0.022355307863886294 * ka12)
    e3_phi = h * (-0.45385457342917346 * ka1 + 2.6987585022618616 * ka4 + 0.6812767760191378 * ka5
                  - 16.885342816594818 * ka6 - 13.987876814514605 * ka7 + 27.96175549233409 * ka8
                  + 0.3042333850581198 * ka9 - 0.3335239499192926 * ka10
                  + 0.014573998784681819 * ka11)
    e3_psi = (-0.18980075407240762 * ka1 + 4.450312892752409 * ka6 + 1.8915178993145003 * ka7
              - 5.801203960010585 * ka8 - 0.4226823213237919 * ka9 - 0.1521609496625161 * ka10
              + 0.20136540080403034 * ka11 + 0.02265179219836082 * ka12)
    return phi8, psi8, a13, e5_phi, e5_psi, e3_phi, e3_psi


def _trajectory(rows, params: PendulumParams, run, termination: Termination) -> Trajectory:
    """SI columns from recorded (t, phi, psi) rows of the run whose record
    (see _run_start) is run.

    The energy column is the first integral of the dimensionless system,

        E = I * w_ref^2 * (psi^2/2 - q^-3/(3*lam) - gamma*cos(phi)),

    which equals total_energy of the same state up to rounding.
    """
    w_ref, lam, gamma = run[:3]
    t, phi, psi = np.fromiter(chain.from_iterable(rows), float, 3 * len(rows)).reshape(-1, 3).T
    q = 1.0 + lam * 2.0 * np.sin(0.5 * phi) ** 2
    invariant = 0.5 * psi**2 - 1.0 / (3.0 * lam * q**3) - gamma * np.cos(phi)
    return Trajectory(
        t=t,
        phi=phi,
        phi_dot=psi * w_ref,
        r=params.d - params.l * np.cos(phi),  # tip_distance of every sample
        energy=moment_of_inertia(params) * w_ref**2 * invariant,
        params=params,
        termination=termination,
    )


def _run_start(params: PendulumParams, initial: State, config: IntegratorConfig):
    """The record (w_ref, lam, gamma, tau_end, stop, tau, phi, psi, acc,
    h_next, steps) of one run, after checking its initial angle
    (GeometryError) and its end time (ValueError): stop counts the
    descending zero crossings whose last step ends the run (inf: none),
    (tau, phi, psi) is the state _advance starts from, acc = _accel(phi),
    h_next its trial step and steps the count of accepted steps, 0."""
    _check_angle(initial.phi)
    w_ref, lam, gamma = _dimensionless_system(params)
    t_max, stop = config.t_max, math.inf
    if t_max is None and initial.phi_dot == 0.0:  # crossings at T/4 + kT (3T/4 + kT if phi0 <= 0)
        stop = 2  # one cycle, capped at 1.5 (2) times an upper bound on T
        t_max = (1.5 if initial.phi > 0.0 else 2.0) * _period_bound(w_ref, lam, gamma, initial.phi)
    elif t_max is None:
        t_max = DEFAULT_T_MAX_PERIODS * linear_period(params)
    if not t_max > initial.t:
        raise ValueError(f"t_max={t_max!r} must exceed initial.t={initial.t!r}")
    h_next = _INITIAL_PHASE_STEP if config.method is Method.RK45_ADAPTIVE else config.dt * w_ref
    return (w_ref, lam, gamma, t_max * w_ref, stop, initial.t * w_ref, initial.phi,
            initial.phi_dot / w_ref, _accel(initial.phi, lam, gamma), h_next, 0)


def integrate(params: PendulumParams, initial: State, config: IntegratorConfig) -> Trajectory:
    """Integrate the nonlinear equation of motion from initial.t to
    config.t_max (by default, for a release from rest, to the end of the
    step that completes its first full cycle; see IntegratorConfig).

    Deterministic: identical inputs produce bit-identical trajectories.
    Collision (tip at or below the safety gap at any time in a step), the
    angle limit (|phi| >= pi/2, or a step so large that a stage angle
    overflows), step exhaustion and a step that cannot advance time to a
    larger finite value are reported terminations, not exceptions; the
    violating state itself is not recorded, so every sample in the result
    is valid.
    """
    run = _run_start(params, initial, config)
    rows = [(initial.t, initial.phi, run[7])]
    return _trajectory(rows, params, run,
                       _advance(params, config, run, rows, config.record_stride))


def _advance(params: PendulumParams, config: IntegratorConfig, run, out, stride) -> Termination:
    """integrate's loop, from the run's record (see _run_start): the state
    (tau, phi, psi) with acc = _accel(phi), the trial step h_next and the
    count of accepted steps; returns the run's termination.  It appends to
    out, which holds the start state's row, once each, the (t, phi, psi)
    rows of the state after each step whose count is a multiple of stride,
    of the last one, and, for each accepted step that crosses zero
    descending (_descends), of the states before it, at its crossing (see
    _crossing_row) and after it, which stride 1 records too.  The step of
    the stop-th crossing ends the run, completed.

    The loop runs once per trial step, so it keeps to locals: min and max
    are written out as the comparisons Python's min and max make (a NaN
    keeps its place).  The error is dop853's, in the max norm over (phi,
    psi): with u and w the largest scaled fifth- and third-order estimates,
    err = u^2 / sqrt(u^2 + 0.01*w^2), or 0 where u^2 is 0 (also where u^2
    underflows, which would divide by zero).  It alone decides a plate
    collision, and only when d - l <= gap (otherwise d - l*cos(phi) >=
    d - l > gap, as cos <= 1 and rounding is monotone): a start state
    (nothing is stepped) or step end at or below the gap, or a step across
    phi = 0, where the tip is at d - l.  A release from rest turns only at
    its amplitude, so no pass is missed.  The tip is tested before |phi| >=
    pi/2 (the angle limit), so a step that does both collides.
    """
    w_ref, lam, gamma, tau_end, stop, tau, phi, psi, acc, h_next, steps = run
    lam2 = lam * 2.0
    d, l, gap = params.d, params.l, config.collision_gap
    reach_gap = d - l <= gap
    if reach_gap and d - l * math.cos(phi) <= gap:
        return Termination.COLLISION
    adaptive = config.method is Method.RK45_ADAPTIVE
    rtol, atol = config.rel_tol, config.abs_tol
    max_steps = config.max_steps
    cos, sqrt, inf = math.cos, math.sqrt, math.inf
    record = out.append
    a13 = acc  # the next step's acc; RK4 steps leave it, as only _dp_trial reads acc
    termination = Termination.COMPLETED
    crossed = False  # whether the last accepted step crossed zero descending
    while tau < tau_end:
        if steps >= max_steps:
            termination = Termination.STEP_LIMIT
            break
        h = tau_end - tau
        if not h < h_next:  # min(h_next, tau_end - tau)
            h = h_next
        if not tau < tau + h < inf:  # h underflowed, overflowed or is NaN
            termination = Termination.STALLED
            break
        try:
            if adaptive:
                phi_new, psi_new, a13, e5_phi, e5_psi, e3_phi, e3_psi = _dp_trial(
                    phi, psi, acc, h, lam2, gamma)
            else:
                phi_new, psi_new = _rk4_step(phi, psi, h, lam, gamma)
        except ValueError:  # math.sin of a stage angle that overflowed to inf: the angle limit
            termination = Termination.ANGLE_LIMIT
            break
        if adaptive:
            a, b = abs(phi), abs(phi_new)
            scale_phi = atol + rtol * (b if b > a else a)
            a, b = abs(psi), abs(psi_new)
            scale_psi = atol + rtol * (b if b > a else a)
            a, b = abs(e5_phi) / scale_phi, abs(e5_psi) / scale_psi
            u = b if b > a else a
            a, b = abs(e3_phi) / scale_phi, abs(e3_psi) / scale_psi
            w = b if b > a else a
            u *= u
            err = u / sqrt(u + 0.01 * (w * w)) if u != 0.0 else 0.0
            factor = _MAX_FACTOR if err == 0.0 else _SAFETY * err**-0.125
            if not factor > _MIN_FACTOR:
                factor = _MIN_FACTOR
            h_next = h * (factor if factor < _MAX_FACTOR else _MAX_FACTOR)
            if not err <= 1.0:  # rejected, also when err is NaN
                continue
        if reach_gap and ((phi_new > 0.0) != (phi > 0.0)  # cos raises at an RK4 sum's inf
                          or abs(phi_new) < inf and d - l * cos(phi_new) <= gap):
            termination = Termination.COLLISION
            break
        if abs(phi_new) >= MAX_ANGLE:
            termination = Termination.ANGLE_LIMIT
            break
        crossed = _descends(phi, phi_new)
        if crossed:
            stop -= 1
            tau_end = tau_end if stop else tau + h  # at the stop-th, the run ends with this step
            if steps % stride:  # the state before the step, unless the stride kept it
                record((tau / w_ref, phi, psi))
            t, phi_c, psi_c, kept = _crossing_row(w_ref, lam, gamma, tau, h, phi, psi, acc,
                                                  phi_new, psi_new, not adaptive)
            if kept:
                record((t, phi_c, psi_c))
        steps += 1
        tau += h
        phi, psi, acc = phi_new, psi_new, a13
        if crossed or steps % stride == 0:
            record((tau / w_ref, phi, psi))
    if not crossed and steps % stride:  # the last accepted state, once
        record((tau / w_ref, phi, psi))
    return termination


def _if(cond, a, b):
    """np.where(cond, a, b) on floats."""
    return a if cond else b


def _descends(p0, p1):
    """p0 > 0 >= p1: a step from angle p0 to p1 crosses zero descending."""
    return (p0 > 0.0) & (p1 <= 0.0)


def _crossing_row(w_ref, lam, gamma, tau, h, phi, psi, acc, phi1, psi1, rk4=False, where=_if,
                  sin=math.sin):
    """(t, phi, psi, kept) at the crossing of an accepted step of length h
    from (tau, phi, psi), acc = _accel(phi), to (phi1, psi1) across zero
    descending: one more trial step of the run's method from the same start,
    of length the cubic Hermite root's (see _crossing_time) in tau, kept
    where its time lies strictly inside the step's, its angle below pi/2
    and its psi is finite.  On floats, a stage angle at +-inf makes the
    state NaN; on the lanes' arrays of adaptive steps (where=np.where,
    sin=np.sin, under np.errstate), np.sin's NaN there reaches psi (see
    _dp_trial), so both keep the same rows."""
    hc = _crossing_time(tau, tau + h, phi, phi1, psi, psi1, where) - tau
    try:
        phi_c, psi_c = (_rk4_step(phi, psi, hc, lam, gamma) if rk4
                        else _dp_trial(phi, psi, acc, hc, lam * 2.0, gamma, sin)[:2])
    except ValueError:  # math.sin of a stage angle at +-inf
        phi_c = psi_c = math.nan
    t = (tau + hc) / w_ref
    kept = ((tau / w_ref < t) & (t < (tau + h) / w_ref) & (abs(phi_c) < MAX_ANGLE)
            & (abs(psi_c) < math.inf))
    return t, phi_c, psi_c, kept


# Below this many running lanes, the rest finish one at a time in _advance: runs of the
# 200-point sweep benchmark stepped as 42 lanes to their ends took 0.91-0.97 times as long
# as alone, as 40 lanes 1.00-1.05 times (fastest of 30 sweeps, in each of two sessions, with
# the crossings located in one batch; 2-core x86-64, numpy 2.4).
_LOCKSTEP_MIN_LANES = 42


def _crossing_periods(runs: list[tuple[PendulumParams, State]],
                      config: IntegratorConfig) -> list[tuple[Termination, float | None]]:
    """Integrate many runs and keep only their periods.

    Each run records integrate's rows at a stride of 2**53, which no run
    reaches, from the state _advance starts from: those before, at and after
    each step that crosses zero descending, and the last.  Its crossing
    times are _crossing_time's over the row pairs that _descends, as in
    estimate_period, after those of the steps it took in _lockstep, which
    first steps some runs together.  _advance then finishes every run from
    its record, once each.

    Returns, for each run, (termination, period): what integrate at
    record_stride 1 and then estimate_period(...).mean_period give for it,
    bit for bit (see the module docstring), the period None below two
    cycles (a run's first row is at tau0 / w_ref, integrate's initial.t for
    a start at t = 0, as every caller's).  If integrate raises for some run,
    this raises what it raises for the first.
    """
    records = [_run_start(p, s, config) for p, s in runs]
    outcomes = []
    for (params, _), run, times in zip(runs, records, _lockstep(records, runs, config)):
        w_ref = run[0]
        rows = [(run[5] / w_ref, run[6], run[7])]  # the state _advance starts from
        end = _advance(params, config, run, rows, 2**53)  # a stride no run reaches
        times += [_crossing_time(t0, t1, p0, p1, v0 * w_ref, v1 * w_ref)
                  for (t0, p0, v0), (t1, p1, v1) in pairwise(rows) if _descends(p0, p1)]
        outcomes.append((end, _mean_period(times)[1]))
    return outcomes


def _lockstep(records, runs, config: IntegratorConfig) -> list[list[float]]:
    """Step the adaptive runs with d - l > gap (see _advance), from
    _LOCKSTEP_MIN_LANES of them up, together as lanes and write each back
    to records, _run_start's for runs, as the state _advance finishes it
    from.  Returns each run's crossing times in the lockstep, in time order,
    located after it in one batch (see _lane_crossing_times).

    The lanes are the columns of one float table, whose counts (stop,
    steps) are exact below 2**53, where max_steps is clamped: no run gets
    there.  Each lane takes _advance's steps until it freezes: before a
    trial step that fails integrate's loop head, so also after the step of
    its stop-th crossing, which sets its tau_end to its end as _advance
    does; or in its state from before a step that reaches pi/2 or whose err
    or a13 is NaN, as a stage angle at +-inf makes them (where math.sin
    raises, see _dp_trial).  _advance takes that step again and decides it,
    once fewer than _LOCKSTEP_MIN_LANES lanes can step.
    """
    times: list[list[float]] = [[] for _ in runs]
    lanes = ([i for i, (p, _) in enumerate(runs) if p.d - p.l > config.collision_gap]
             if config.method is Method.RK45_ADAPTIVE else [])
    if len(lanes) < _LOCKSTEP_MIN_LANES:
        return times
    table = np.array([records[i] for i in lanes]).T
    # views: the steps below update the table in place
    _, lam, gamma, tau_end, stop, tau, phi, psi, acc, h_next, steps = table
    state, lam2 = table[5:9], lam * 2.0  # (tau, phi, psi, acc); lam2 as in _advance
    max_steps, rtol, atol = min(config.max_steps, 2**53), config.rel_tol, config.abs_tol
    index, live = np.array(lanes, dtype=float), np.ones(len(lanes), bool)  # live: not frozen
    found = []  # (run index, *_lane_crossing_times' arguments) of each crossing, as columns
    with np.errstate(all="ignore"):
        while True:
            # integrate's loop head (a frozen lane keeps h as h_next); h <= 0 at tau_end
            h = np.minimum(h_next, tau_end - tau, out=h_next)
            tau_new = tau + h
            live &= (steps < max_steps) & (tau < tau_new) & (tau_new < math.inf)
            if np.count_nonzero(live) < _LOCKSTEP_MIN_LANES:
                break
            phi8, psi8, acc8, e5_phi, e5_psi, e3_phi, e3_psi = _dp_trial(
                phi, psi, acc, h, lam2, gamma, np.sin)
            new = np.array((tau_new, phi8, psi8, acc8))
            # _advance's error, phi's and psi's terms as rows, except that a NaN term makes it NaN
            size8 = np.abs(new[1:3])
            scale = atol + rtol * np.maximum(np.abs(state[1:3]), size8)
            ratios = np.abs(np.array(((e5_phi, e3_phi), (e5_psi, e3_psi)))) / scale[:, None]
            u, w = np.square(np.maximum(*ratios))
            err = np.where(u != 0.0, u / np.sqrt(u + 0.01 * w), 0.0)
            accepted = err <= 1.0
            # err and acc8 are never +-inf, so their sum is NaN just where one is
            live &= ~((accepted & (size8[0] >= MAX_ANGLE)) | np.isnan(err + acc8))
            accepted &= live
            cross = accepted & _descends(phi, phi8)
            if np.count_nonzero(cross):  # the step's crossing is located after the loop
                found.append(np.vstack((index, table[:3], tau, h, state[1:], phi8, psi8))
                             .compress(cross, axis=1))  # [:, cross] strides rows
                stop -= cross
                # the stop-th crossing ends the run with this step
                np.copyto(tau_end, tau_new, where=cross & (stop == 0.0))
            # _advance's controller: np.float_power equals ** (np.power may not), and a
            # 0 err gives inf
            factor = np.maximum(_SAFETY * np.float_power(err, -0.125), _MIN_FACTOR)
            np.copyto(h_next, h * np.minimum(factor, _MAX_FACTOR), where=live)
            np.copyto(state, new, where=accepted)
            steps += accepted
        if found:
            index, *step = np.hstack(found)
            for i, t in zip(index.astype(int).tolist(), _lane_crossing_times(*step).tolist()):
                times[i].append(t)
    for i, column in zip(lanes, table.T.tolist()):
        records[i] = column
    return times


def _lane_crossing_times(w_ref, lam, gamma, tau, h, phi, psi, acc, phi1, psi1):
    """The crossing time of each adaptive step, given as numpy columns, that
    crosses zero descending: _crossing_time over the descending pair of its
    rows before, at (_crossing_row's, where kept) and after it, as
    _crossing_periods takes it from _advance's rows, bit for bit (see the
    module docstring).  Called under np.errstate."""
    t, phi_c, psi_c, row = _crossing_row(w_ref, lam, gamma, tau, h, phi, psi, acc, phi1, psi1,
                                         where=np.where, sin=np.sin)
    first, second = row & _descends(phi_c, phi1), row & _descends(phi, phi_c)
    return _crossing_time(np.where(first, t, tau / w_ref), np.where(second, t, (tau + h) / w_ref),
                          np.where(first, phi_c, phi), np.where(second, phi_c, phi1),
                          np.where(first, psi_c, psi) * w_ref,
                          np.where(second, psi_c, psi1) * w_ref, np.where)


def _crossing_time(t0, t1, p0, p1, v0, v1, where=_if):
    """Time of the descending zero crossing between the samples (t0, p0, v0)
    and (t1, p1, v1) of (t, phi, phi_dot): the root of the cubic Hermite
    through them (Hairer, Norsett & Wanner, Solving ODEs I, II.6), by three
    Newton steps from the linear interpolant's root, whose O(h^2) error they
    take to rounding; or that linear time where the solve ends outside the
    bracket or at no finite value, or where no phi_dot is negative, so the
    slopes show no descent.

    Floats, or numpy arrays with where=np.where under np.errstate: the same
    operations in the same order.  A zero Newton slope gives the linear
    time, on floats by its ZeroDivisionError and on arrays by the inf or NaN
    it leaves, outside [0, 1]."""
    h, dp = t1 - t0, p0 - p1
    m0, m1 = h * v0, h * v1  # slopes per bracket length
    c2, c3 = -3.0 * dp - 2.0 * m0 - m1, 2.0 * dp + m0 + m1  # p0 + m0*s + c2*s^2 + c3*s^3
    linear = t0 + p0 * h / dp
    s = p0 / dp
    try:
        for _ in range(3):
            s = s - (p0 + s * (m0 + s * (c2 + s * c3))) / (m0 + s * (2.0 * c2 + s * (3.0 * c3)))
    except ZeroDivisionError:
        return linear
    return where((0.0 <= s) & (s <= 1.0) & ((v0 < 0.0) | (v1 < 0.0)), t0 + s * h, linear)


def _mean_period(times):
    """(per_cycle, mean): the spacings of successive crossing times, and
    their exact sum's float (math.fsum) over their count or None."""
    per_cycle = [b - a for a, b in zip(times, times[1:])]
    return per_cycle, math.fsum(per_cycle) / len(per_cycle) if per_cycle else None


def estimate_period(traj: Trajectory) -> PeriodEstimate:
    """Measure the oscillation period from descending zero crossings of phi.

    Each crossing time is located from the (t, phi, phi_dot) samples that
    bracket it (see _crossing_time); only phi_dot < 0 crossings (phi
    passing from positive to non-positive) are used, so a release from rest
    at phi0 > 0 yields one crossing per full cycle with no half-period
    aliasing.
    """
    k = np.flatnonzero(_descends(traj.phi[:-1], traj.phi[1:]))
    with np.errstate(all="ignore"):
        times = _crossing_time(*[col[i] for col in (traj.t, traj.phi, traj.phi_dot)
                                 for i in (k, k + 1)], np.where)
    per_cycle, mean = _mean_period(times.tolist())
    if mean is None:
        raise InsufficientCyclesError(f"need >= 2 descending zero crossings to measure a "
                                      f"period, found {len(k)}")
    return PeriodEstimate(mean_period=mean, per_cycle_periods=np.array(per_cycle),
                          cycles_observed=len(per_cycle))


def energy_drift(traj: Trajectory) -> float:
    """Maximum relative deviation of the energy column from its initial
    value, max |E(t) - E(0)| / |E(0)|."""
    e0 = float(traj.energy[0])
    if e0 == 0.0:
        raise ValueError("initial energy is zero; relative drift undefined")
    return float(np.max(np.abs(traj.energy - e0)) / abs(e0))
