"""Closed-form small-angle solution.

Dropping gravity (its torque coefficient is ~5 orders of magnitude below
the vacuum term for realistic designs) and linearizing sin(phi) ~ phi,
cos(phi) ~ 1 turns the equation of motion into a harmonic oscillator with

    omega^2 = 9 * (1+beta) * hbar * omega0 * alpha0 / (32*pi * M * l * (d-l)^4)

The resulting frequency and period serve as the oracle against which the
numerical integrator is checked, and linear_omega sets its time scale.
Gravity is ignored here regardless of the simulation flag; the report layer
surfaces both numbers so the (tiny) discrepancy stays visible.
"""

import math

from .constants import constants
from .forces import total_restoring_factor
from .pendulum import PendulumParams

__all__ = ["linear_omega", "linear_period"]


def linear_omega(params: PendulumParams) -> float:
    """Small-angle angular frequency, rad/s (gravity excluded).  Raises
    ValueError when omega^2 is not a finite positive float."""
    hbar = constants().hbar
    gap = params.d - params.l
    try:
        stiffness = (
            9.0
            * total_restoring_factor(params.beta)
            * hbar
            * params.atom.omega0
            * params.atom.alpha0
            / (32.0 * math.pi * params.mass * params.l * gap**4)
        )
    except (OverflowError, ZeroDivisionError):
        stiffness = math.nan
    if not 0.0 < stiffness < math.inf:
        raise ValueError(f"no finite positive stiffness for d={params.d!r}, "
                         f"l={params.l!r}, mass={params.mass!r}")
    return math.sqrt(stiffness)


def linear_period(params: PendulumParams) -> float:
    """Small-angle oscillation period 2*pi/omega, s."""
    return 2.0 * math.pi / linear_omega(params)

