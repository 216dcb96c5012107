"""Serialization of trajectories and run reports.

Floats are written with Python's shortest round-trip repr so artifacts can
feed regression tests byte-for-byte; CSV files use LF line endings on every
platform.  The trajectory CSV is written in fixed blocks of whole rows.
"""

import json
from dataclasses import asdict, dataclass

import numpy as np

from .analytic import linear_omega, linear_period
from .design import ValidityReport
from .integrator import (
    InsufficientCyclesError,
    Termination,
    Trajectory,
    energy_drift,
    estimate_period,
)

__all__ = [
    "TRAJECTORY_HEADER",
    "SimulationReport",
    "build_report",
    "report_to_dict",
    "write_report_json",
    "write_trajectory_csv",
]

TRAJECTORY_HEADER = ("t_s", "phi_rad", "phi_dot_rad_s", "R_m", "energy_J")
_ROW = "%r,%r,%r,%r,%r\n"  # repr of a float is its shortest round-trip form
_BLOCK_ROWS = 4096  # trajectory rows formatted per write


@dataclass(frozen=True)
class SimulationReport:
    """Summary of one simulation run.

    simulated_period and period_rel_diff are None when the trajectory holds
    too few zero crossings to measure a period (e.g. release from
    equilibrium).
    """

    analytic_omega: float
    analytic_period: float
    simulated_period: float | None
    period_rel_diff: float | None
    energy_drift: float
    validity: ValidityReport
    termination: Termination


def build_report(traj: Trajectory, validity: ValidityReport) -> SimulationReport:
    """Assemble the report for a finished run."""
    params = traj.params
    omega = linear_omega(params)
    period = linear_period(params)
    try:
        simulated = estimate_period(traj).mean_period
        rel_diff = abs(simulated - period) / period
    except InsufficientCyclesError:
        simulated = None
        rel_diff = None
    return SimulationReport(
        analytic_omega=omega,
        analytic_period=period,
        simulated_period=simulated,
        period_rel_diff=rel_diff,
        energy_drift=energy_drift(traj),
        validity=validity,
        termination=traj.termination,
    )


def report_to_dict(report: SimulationReport) -> dict:
    return {
        "analytic_omega_rad_s": float(report.analytic_omega),
        "analytic_period_s": float(report.analytic_period),
        "simulated_period_s": None if report.simulated_period is None
        else float(report.simulated_period),
        "period_rel_diff": None if report.period_rel_diff is None
        else float(report.period_rel_diff),
        "energy_drift": float(report.energy_drift),
        "validity": asdict(report.validity),
        "termination": report.termination.value,
    }


def write_report_json(report: SimulationReport, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(report_to_dict(report), indent=2) + "\n")


def write_trajectory_csv(traj: Trajectory, path: str) -> None:
    """Write the sample columns as CSV with a fixed header and LF endings.
    A non-finite value raises ValueError before the file is opened."""
    table = np.column_stack((traj.t, traj.phi, traj.phi_dot, traj.r, traj.energy))
    bad = np.flatnonzero(~np.isfinite(table))
    if bad.size:
        raise ValueError(f"refusing to serialize non-finite value {table.flat[bad[0]].item()!r}")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(TRAJECTORY_HEADER) + "\n")
        for start in range(0, len(table), _BLOCK_ROWS):
            rows = table[start:start + _BLOCK_ROWS].tolist()
            fh.writelines(_ROW % tuple(row) for row in rows)
