"""Parameter estimation from atomic data and regime validation.

estimate_params turns a nanostring description (atom count, radius, atomic
weight) into pendulum parameters: string length l = n * 3r (adjacent atoms
about three radii apart), mass from the atomic weight, and pivot height
d = l + gap.  No rounding is applied -- a 30-atom chain of 1e-10 m atoms
gives l = 9e-9 m exactly, not the order-of-magnitude 1e-8 m.

validate checks a configuration against the model's assumptions and returns
a report instead of raising: the near-zone condition R << c/omega0, the
gravity-to-vacuum torque ratio, the geometry (pivot above the swing, tip
clear of the plate), and the small-angle envelope.
"""

import math
from dataclasses import dataclass

from .constants import constants
from .forces import (
    DEFAULT_MARGIN,
    AtomProperties,
    Zone,
    classify_regime,
    force_near,
    total_restoring_factor,
)
from .pendulum import MIN_TIP_GAP, PendulumParams, tip_distance

__all__ = [
    "NanostringSpec",
    "ValidityReport",
    "AVOGADRO",
    "DEFAULT_ALPHA0",
    "DEFAULT_OMEGA0",
    "ATOM_SPACING_RADII",
    "MAX_SMALL_ANGLE",
    "GRAVITY_RATIO_THRESHOLD",
    "estimate_params",
    "validate",
]

AVOGADRO = 6.022e23  # mol^-1

# Generic atom when the species is unspecified: polarizability of the order
# of an atomic volume, transition frequency of the order of 1e15 rad/s.
DEFAULT_ALPHA0 = 1e-30  # m^3
DEFAULT_OMEGA0 = 1e15  # rad/s

ATOM_SPACING_RADII = 3.0  # adjacent chain atoms sit ~3 radii apart

MAX_SMALL_ANGLE = 0.3  # rad, supported amplitude envelope
GRAVITY_RATIO_THRESHOLD = 100.0


@dataclass(frozen=True)
class NanostringSpec:
    """Rigid linear chain of identical atoms.

    n_atoms       -- atoms in the chain (>= 2)
    atom_radius   -- m
    atomic_weight -- g/mol
    alpha0        -- static polarizability, m^3 (None -> generic default)
    omega0        -- transition frequency, rad/s (None -> generic default)
    """

    n_atoms: int
    atom_radius: float
    atomic_weight: float
    alpha0: float | None = None
    omega0: float | None = None

    def __post_init__(self) -> None:
        if self.n_atoms < 2:
            raise ValueError(f"n_atoms must be >= 2, got {self.n_atoms!r}")
        if not self.atom_radius > 0:
            raise ValueError(f"atom_radius must be positive, got {self.atom_radius!r}")
        if not self.atomic_weight > 0:
            raise ValueError(f"atomic_weight must be positive, got {self.atomic_weight!r}")


@dataclass(frozen=True)
class ValidityReport:
    """Outcome of the regime checks; verdict is the conjunction of the four
    individual flags."""

    near_zone_ok: bool
    near_zone_ratio: float
    gravity_negligible: bool
    gravity_ratio: float
    geometry_ok: bool
    small_angle_ok: bool
    verdict: bool

    def __post_init__(self) -> None:
        expected = (
            self.near_zone_ok
            and self.gravity_negligible
            and self.geometry_ok
            and self.small_angle_ok
        )
        if self.verdict != expected:
            raise ValueError("verdict must equal the conjunction of the individual flags")


def estimate_params(spec: NanostringSpec, gap_r: float) -> PendulumParams:
    """Build pendulum parameters for a nanostring hung gap_r above the plate.

    l = n_atoms * 3 * atom_radius, per-atom mass = (atomic_weight / 1000 kg)
    / Avogadro, M = n_atoms * that, d = l + gap_r.  d > l holds by
    construction for any positive gap.
    """
    if not gap_r > 0:
        raise ValueError(f"gap_r must be positive, got {gap_r!r}")
    l = spec.n_atoms * ATOM_SPACING_RADII * spec.atom_radius
    m_atom = (spec.atomic_weight / 1000.0) / AVOGADRO
    atom = AtomProperties(
        alpha0=DEFAULT_ALPHA0 if spec.alpha0 is None else spec.alpha0,
        omega0=DEFAULT_OMEGA0 if spec.omega0 is None else spec.omega0,
    )
    return PendulumParams(d=l + gap_r, l=l, mass=spec.n_atoms * m_atom, atom=atom)


def validate(params: PendulumParams, phi0: float, margin: float = DEFAULT_MARGIN) -> ValidityReport:
    """Check params + release amplitude against the model's assumptions.

    near_zone_ok    -- classify_regime puts R(phi0) in the near zone at this
                       margin (R is maximal at the amplitude, so the whole
                       swing stays in the near zone); near_zone_ratio is
                       its c/omega0 / R(phi0)
    gravity_negligible -- Casimir torque coefficient at phi = 0 is at least
                       100x the gravity coefficient M*g*l/2
    geometry_ok     -- d > l (by type) and equilibrium gap R(0) >= MIN_TIP_GAP
    small_angle_ok  -- phi0 within the supported amplitude envelope

    Reports, never raises for physics reasons; raises ValueError for a
    non-finite phi0 or a margin below 1.
    """
    if not math.isfinite(phi0):
        raise ValueError(f"phi0 must be finite, got {phi0!r}")

    regime = classify_regime(tip_distance(abs(phi0), params), params.atom, margin)
    near_zone_ok = regime.zone is Zone.NEAR

    cas_coeff = (
        total_restoring_factor(params.beta)
        * abs(force_near(tip_distance(0.0, params), params.atom))
        * params.l
    )
    grav_coeff = params.mass * constants().g_accel * params.l / 2.0
    gravity_ratio = cas_coeff / grav_coeff
    gravity_negligible = gravity_ratio >= GRAVITY_RATIO_THRESHOLD

    geometry_ok = tip_distance(0.0, params) >= MIN_TIP_GAP
    small_angle_ok = abs(phi0) <= MAX_SMALL_ANGLE

    return ValidityReport(
        near_zone_ok=near_zone_ok,
        near_zone_ratio=regime.ratio,
        gravity_negligible=gravity_negligible,
        gravity_ratio=gravity_ratio,
        geometry_ok=geometry_ok,
        small_angle_ok=small_angle_ok,
        verdict=near_zone_ok and gravity_negligible and geometry_ok and small_angle_ok,
    )
