"""Casimir atomic pendulum: a rigid nanostring with a polarizable tip atom,
pivoted above a conducting plate and restored by the Casimir-Polder force.

The library layers are importable on their own: forces (atom-plate
potentials and forces), pendulum (geometry, torques and energies in SI
units), analytic (linearized frequency/period and the exact period),
integrator (the one time stepper: fixed-step RK4 or adaptive Dormand-Prince
on the dimensionless equation of motion, with period extraction), design
(parameter estimation and regime validation), config/report/cli (run
plumbing).
"""

from .analytic import exact_period, linear_omega, linear_period
from .config import ConfigError, RunConfig, load_config, load_preset, parse_config, preset_names
from .constants import Constants, constants, crossover_length
from .design import NanostringSpec, ValidityReport, estimate_params, validate
from .forces import (
    AtomProperties,
    Regime,
    Zone,
    classify_regime,
    force_far,
    force_near,
    potential_far,
    potential_near,
    total_restoring_factor,
)
from .integrator import (
    InsufficientCyclesError,
    IntegratorConfig,
    Method,
    PeriodEstimate,
    Termination,
    Trajectory,
    energy_drift,
    estimate_period,
    integrate,
)
from .pendulum import (
    GeometryError,
    PendulumParams,
    State,
    moment_of_inertia,
    potential_energy,
    tip_distance,
    torque_casimir,
    torque_gravity,
    total_energy,
)
from .report import SimulationReport, build_report, write_report_json, write_trajectory_csv

__version__ = "0.1.0"

__all__ = [
    "AtomProperties",
    "ConfigError",
    "Constants",
    "GeometryError",
    "InsufficientCyclesError",
    "IntegratorConfig",
    "Method",
    "NanostringSpec",
    "PendulumParams",
    "PeriodEstimate",
    "Regime",
    "RunConfig",
    "SimulationReport",
    "State",
    "Termination",
    "Trajectory",
    "ValidityReport",
    "Zone",
    "build_report",
    "classify_regime",
    "constants",
    "crossover_length",
    "energy_drift",
    "estimate_params",
    "estimate_period",
    "exact_period",
    "force_far",
    "force_near",
    "integrate",
    "linear_omega",
    "linear_period",
    "load_config",
    "load_preset",
    "moment_of_inertia",
    "parse_config",
    "potential_energy",
    "potential_far",
    "potential_near",
    "preset_names",
    "tip_distance",
    "torque_casimir",
    "torque_gravity",
    "total_energy",
    "total_restoring_factor",
    "validate",
    "write_report_json",
    "write_trajectory_csv",
]
