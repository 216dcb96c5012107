"""Correctness gate: every benchmarked operation is checked, and failures
are counted against the operations attempted.

An operation fails when its exit code is not 0 or a run it made did not
end as `completed`, when its period misses the action-integral oracle by
more than the acceptance tolerance, when its output differs byte for byte
from an earlier repeat of the same inputs, or when a sweep row differs
bit for bit from a serial evaluation of that point.

The oracle is the action-integral period of `quadrature_period` in
tests/test_integrator.py, an adaptive quadrature that never touches the time
stepper, evaluated outside the timed regions.  This copy writes the
potential difference V(phi0) - V(phi) as a product that has no cancellation
and asks the quadrature for a relative error of 1e-12; the test-suite form
subtracts the two potentials and is accurate only to about 1e-6 of the
period at phi0 = 1e-3, the smallest amplitude the workloads use.
"""

import math
from dataclasses import dataclass, field

from casimir_pendulum.constants import constants
from casimir_pendulum.forces import potential_near, total_restoring_factor
from casimir_pendulum.pendulum import PendulumParams, moment_of_inertia, tip_distance

# Analytic/numeric period agreement required by tests/test_acceptance.py.
PERIOD_TOLERANCE = 1e-4

COMPLETED = "completed"


def quadrature_period(params: PendulumParams, phi0: float) -> float:
    """Exact period via the action integral; no time stepping involved.

    With phi = phi0*sin(theta), T = 4 * integral over [0, pi/2] of
    phi0*cos(theta) / sqrt(2*(V(phi0) - V(phi))/I).  For the near-zone
    potential V = -(1+beta)*C/R^3 - M*g*(l/2)*cos(phi), R = d - l*cos(phi):

        V(phi0) - V(phi) = dc * [(1+beta)*C*l*(R0^2 + R0*R + R^2)/(R^3*R0^3) + M*g*l/2]

    where dc = cos(phi) - cos(phi0) = 2*sin((phi0+phi)/2)*sin((phi0-phi)/2)
    and phi0 - phi = 2*phi0*sin^2(pi/4 - theta/2).
    """
    from scipy.integrate import quad  # heavy import, kept out of the timed process start

    inertia = moment_of_inertia(params)
    vacuum = total_restoring_factor(params.beta) * -potential_near(1.0, params.atom) * params.l
    gravity = params.mass * constants().g_accel * params.l / 2.0 if params.include_gravity else 0.0
    r0 = tip_distance(phi0, params)

    def integrand(theta: float) -> float:
        phi = phi0 * math.sin(theta)
        gap = 2.0 * phi0 * math.sin(0.25 * math.pi - 0.5 * theta) ** 2  # phi0 - phi
        dc = 2.0 * math.sin(0.5 * (phi0 + phi)) * math.sin(0.5 * gap)
        r = tip_distance(phi, params)
        dv = dc * (vacuum * (r0 * r0 + r0 * r + r * r) / (r**3 * r0**3) + gravity)
        return phi0 * math.cos(theta) / math.sqrt(2.0 * dv / inertia)

    value, _ = quad(integrand, 0.0, 0.5 * math.pi, epsabs=0.0, epsrel=1e-12, limit=200)
    return 4.0 * value


def check_exit(exit_code) -> list[str]:
    return [] if exit_code == 0 else [f"exit code {exit_code!r}"]


def check_termination(termination: str) -> list[str]:
    return [] if termination == COMPLETED else [f"termination {termination!r}"]


def check_period(simulated: float | None, oracle: float) -> list[str]:
    if simulated is None:
        return ["no simulated period"]
    err = abs(simulated - oracle) / oracle
    if not err <= PERIOD_TOLERANCE:
        return [f"period {simulated!r} misses oracle {oracle!r} "
                f"by {err:.3e} > {PERIOD_TOLERANCE:g}"]
    return []


def check_repeat(key: str, digest: str, first_digests: dict[str, str]) -> list[str]:
    """Compare an output digest with the first one seen for the same key."""
    first = first_digests.setdefault(key, digest)
    return [] if digest == first else [f"output of {key} differs from its first repeat"]


def check_rows(actual: list[str], expected: list[str]) -> list[str]:
    """Sweep CSV data lines against the serial evaluation, bit for bit."""
    if len(actual) != len(expected):
        return [f"{len(actual)} sweep rows, expected {len(expected)}"]
    bad = [i for i, (a, e) in enumerate(zip(actual, expected)) if a != e]
    if bad:
        return [f"{len(bad)} sweep rows differ from the serial evaluation, first at row {bad[0]}: "
                f"{actual[bad[0]]!r} != {expected[bad[0]]!r}"]
    return []


@dataclass
class Gate:
    """Tally of checked operations and the reasons any of them failed."""

    attempted: int = 0
    failures: list[tuple[str, list[str]]] = field(default_factory=list)

    def record(self, label: str, reasons: list[str]) -> bool:
        self.attempted += 1
        if reasons:
            self.failures.append((label, reasons))
        return not reasons

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0
