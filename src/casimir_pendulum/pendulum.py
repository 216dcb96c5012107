"""Rigid nanostring pendulum hung above a conducting plate.

Geometry: the pivot sits at height d above the plate, the string (a rigid
linear atom chain of length l < d and total mass M) hangs from it, and the
tip atom feels the vacuum attraction toward the plate.  With phi the angle
from the vertical, the tip-plate distance is R(phi) = d - l*cos(phi),
smallest when the string hangs straight down.

Both torques about the pivot (gravity on the centre of mass, amplified
Casimir-Polder force on the tip) restore the string toward phi = 0, so the
system oscillates with I * phi_ddot = torque_gravity + torque_casimir.  The
integrator module steps that equation in dimensionless form; the SI
functions here are its independent reference.  The near-zone force law is
used at every angle; use the validation module to confirm the configuration
actually stays in the near zone over the whole swing.
"""

import math
from dataclasses import dataclass

from .constants import constants
from .forces import AtomProperties, force_near, potential_near, total_restoring_factor

__all__ = [
    "GeometryError",
    "PendulumParams",
    "State",
    "tip_distance",
    "moment_of_inertia",
    "torque_gravity",
    "torque_casimir",
    "potential_energy",
    "total_energy",
]

MAX_ANGLE = math.pi / 2.0


class GeometryError(ValueError):
    """Raised when an angle leaves the domain where the geometry is valid."""


@dataclass(frozen=True)
class PendulumParams:
    """Full physical configuration of the pendulum.

    d    -- pivot-to-plate distance, m
    l    -- string length, m (must satisfy d > l so the tip clears the plate)
    mass -- total string mass, kg
    atom -- polarizability and transition frequency of the tip atom
    beta -- restoring enhancement factor, dimensionless in [1, 2]
    include_gravity -- whether the gravitational torque enters the dynamics
    """

    d: float
    l: float
    mass: float
    atom: AtomProperties
    beta: float = 2.0
    include_gravity: bool = True

    def __post_init__(self) -> None:
        if not self.l > 0:
            raise ValueError(f"l must be positive, got {self.l!r}")
        if not self.d > self.l:
            raise ValueError(f"d must exceed l, got d={self.d!r}, l={self.l!r}")
        if not self.mass > 0:
            raise ValueError(f"mass must be positive, got {self.mass!r}")
        if not 1.0 <= self.beta <= 2.0:
            raise ValueError(f"beta must lie in [1, 2], got {self.beta!r}")


@dataclass(frozen=True)
class State:
    """Dynamical state: time t (s), angle phi (rad), angular velocity
    phi_dot (rad/s)."""

    t: float
    phi: float
    phi_dot: float

    def __post_init__(self) -> None:
        for name in ("t", "phi", "phi_dot"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")


def _check_angle(phi: float) -> None:
    if not abs(phi) < MAX_ANGLE:
        raise GeometryError(f"|phi| must be below pi/2, got {phi!r}")


def tip_distance(phi: float, params: PendulumParams) -> float:
    """Tip-atom height above the plate, R(phi) = d - l*cos(phi), m.

    Positive for every |phi| < pi/2 because d > l.
    """
    return params.d - params.l * math.cos(phi)


def moment_of_inertia(params: PendulumParams) -> float:
    """Moment of inertia M*l^2/3 of the uniform rigid string about the
    pivot, kg*m^2."""
    return params.mass * params.l**2 / 3.0


def torque_gravity(phi: float, params: PendulumParams) -> float:
    """Gravitational torque about the pivot, N*m, restoring (opposite in
    sign to phi).  Zero when the configuration excludes gravity."""
    if not params.include_gravity:
        return 0.0
    g = constants().g_accel
    return -params.mass * g * (params.l / 2.0) * math.sin(phi)


def torque_casimir(phi: float, params: PendulumParams) -> float:
    """Torque from the enhanced Casimir-Polder pull on the tip atom, N*m,
    restoring.

    The vertical force (1+beta)*F_near(R) on the tip acts on lever arm
    l*sin(phi) about the pivot.
    """
    f = total_restoring_factor(params.beta) * force_near(tip_distance(phi, params), params.atom)
    return f * params.l * math.sin(phi)


def potential_energy(phi: float, params: PendulumParams) -> float:
    """Potential energy V(phi), J, satisfying torque = -dV/dphi.

    V(phi) = -M*g*(l/2)*cos(phi) + (1+beta)*U_near(R(phi))

    The gravity term follows the include_gravity flag so that the gradient
    identity (and hence energy conservation) holds for either dynamics.
    """
    _check_angle(phi)
    v = total_restoring_factor(params.beta) * potential_near(tip_distance(phi, params), params.atom)
    if params.include_gravity:
        g = constants().g_accel
        v -= params.mass * g * (params.l / 2.0) * math.cos(phi)
    return v


def total_energy(state: State, params: PendulumParams) -> float:
    """Kinetic plus potential energy, J.  Conserved by the exact dynamics;
    used as the integrator drift diagnostic."""
    kinetic = 0.5 * moment_of_inertia(params) * state.phi_dot**2
    return kinetic + potential_energy(state.phi, params)
