"""Closed-form small-angle solution, and the exact period by quadrature.

Dropping gravity (its torque coefficient is ~5 orders of magnitude below
the vacuum term for realistic designs) and linearizing sin(phi) ~ phi,
cos(phi) ~ 1 turns the equation of motion into a harmonic oscillator with

    omega^2 = 9 * (1+beta) * hbar * omega0 * alpha0 / (32*pi * M * l * (d-l)^4)

The resulting frequency and period serve as the oracle against which the
numerical integrator is checked, and linear_omega sets its time scale.
Gravity is ignored here regardless of the simulation flag; the report layer
surfaces both numbers so the (tiny) discrepancy stays visible.

exact_period keeps both nonlinearities and gravity: it evaluates the
action integral of a release from rest in the dimensionless variables of
the integrator, whose scales _dimensionless_system gives.  _period_bound
bounds it from above in closed form, which caps a default run.
"""

import math
import sys

from .constants import constants
from .forces import total_restoring_factor
from .pendulum import PendulumParams, _check_angle

__all__ = ["linear_omega", "linear_period", "exact_period"]


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


def _gravity_share(params: PendulumParams, w_ref: float) -> float:
    """gamma: gravity's stiffness at phi = 0 over the vacuum's, whatever
    include_gravity says, for w_ref = linear_omega(params); inf where the
    vacuum stiffness underflows, 0 where it overflows."""
    try:
        return 3.0 * constants().g_accel / (2.0 * params.l * w_ref**2)
    except ZeroDivisionError:  # the vacuum stiffness underflowed
        return math.inf


def _dimensionless_system(params: PendulumParams) -> tuple[float, float, float]:
    """Scales of the dimensionless system: (w_ref, lam, gamma) with w_ref the
    linearized frequency, lam = l/R0 and gamma the gravity-to-vacuum
    stiffness ratio (0 when gravity is off).  Raises ValueError when that
    ratio is not a finite float."""
    w_ref = linear_omega(params)
    lam = params.l / (params.d - params.l)
    gamma = _gravity_share(params, w_ref) if params.include_gravity else 0.0
    if gamma == math.inf:
        raise ValueError(f"no finite gravity-to-vacuum stiffness ratio for "
                         f"d={params.d!r}, l={params.l!r}, mass={params.mass!r}")
    return w_ref, lam, gamma


# The positive nodes of the 16-point Gauss-Legendre rule on [-1, 1] and their
# weights, correctly rounded; the rule is symmetric.
_GL16 = (
    (0.09501250983763744, 0.1894506104550685),
    (0.2816035507792589, 0.18260341504492358),
    (0.45801677765722737, 0.16915651939500254),
    (0.6178762444026438, 0.14959598881657674),
    (0.755404408355003, 0.12462897125553388),
    (0.8656312023878318, 0.09515851168249279),
    (0.9445750230732326, 0.062253523938647894),
    (0.9894009349916499, 0.027152459411754096),
)
# (sin(u)^2, cos(2u), sin(2u), weight) at the nodes u of the rule mapped to [0, pi/4]
_NODES = tuple((math.sin(u) ** 2, math.cos(2.0 * u), math.sin(2.0 * u), w)
               for x, w in _GL16 for u in (math.pi / 8.0 * (1.0 - x), math.pi / 8.0 * (1.0 + x)))


def exact_period(params: PendulumParams, amplitude: float) -> float:
    """Period, s, of the full nonlinear pendulum (gravity as params says)
    released from rest at +-amplitude, |amplitude| < pi/2.

    The action integral T = 4 * integral_0^a dphi / sqrt(2*(V(a) - V(phi))/I)
    (Landau & Lifshitz, Mechanics, par. 11), in the dimensionless variables
    of the integrator, where V/(I*w_ref^2) = -q^-3/(3*lam) - gamma*cos(phi)
    with q = R(phi)/R0.  The difference factors without cancellation,

        V(a) - V(phi) = 2*D * [(q0^2 + q0*q + q^2)/(3*q0^3*q^3) + gamma],
        D = sin((a + phi)/2) * sin((a - phi)/2),

    and phi = a*sin(theta) with a - phi = 2*a*sin^2(pi/4 - theta/2) leaves
    a smooth integrand over theta in [0, pi/2], which a 16-point
    Gauss-Legendre rule integrates.  At amplitude 0, or where D underflows,
    the result is the small-amplitude limit 2*pi/(w_ref*sqrt(1 + gamma)).
    Raises GeometryError for |amplitude| >= pi/2, and ValueError for the
    params _dimensionless_system rejects.
    """
    w_ref, lam, gamma = _dimensionless_system(params)
    _check_angle(amplitude)
    a = abs(amplitude)
    s = math.sin(0.5 * a)
    q0 = 1.0 + lam * 2.0 * (s * s)
    total = 0.0
    for sin2_u, cos_2u, sin_2u, weight in _NODES:
        phi = a * cos_2u  # phi = a*sin(theta), theta = pi/2 - 2u
        dc = math.sin(0.5 * (a + phi)) * math.sin(a * sin2_u)  # (cos(phi) - cos(a))/2
        if not dc >= sys.float_info.min:  # a = 0, or a so small that dc underflows
            return 2.0 * math.pi / (w_ref * math.sqrt(1.0 + gamma))
        s = math.sin(0.5 * phi)
        q = 1.0 + lam * 2.0 * (s * s)
        b = (q0 * q0 + q0 * q + q * q) / (3.0 * (q0 * q) ** 3) + gamma
        total += weight * sin_2u / (math.sqrt(dc) * math.sqrt(b))
    return 0.5 * math.pi * a * total / w_ref


def _period_bound(w_ref: float, lam: float, gamma: float, amplitude: float) -> float:
    """An upper bound on exact_period, s, in closed form from the scales of
    the dimensionless system, for |amplitude| < pi/2.

    On |phi| <= a = |amplitude| the restoring acceleration
    sin|phi| * (q^-4 + gamma) is at least k*|phi| with
    k = (sin(a)/a) * (q0^-4 + gamma), as sin(phi)/phi and q^-4 fall with
    |phi|; so V(a) - V(phi) >= k*(a^2 - phi^2)/2 under the action integral,
    and T <= 2*pi/(w_ref*sqrt(k)), the period of that harmonic swing.  At
    a = 0 it is exactly exact_period's 2*pi/(w_ref*sqrt(1 + gamma)).
    """
    a = abs(amplitude)
    s = math.sin(0.5 * a)
    r = 1.0 / (1.0 + lam * 2.0 * (s * s))  # R0/R(a), as _accel takes it
    r2 = r * r
    k = (math.sin(a) / a if a else 1.0) * (r2 * r2 + gamma)
    return 2.0 * math.pi / (w_ref * math.sqrt(k))
