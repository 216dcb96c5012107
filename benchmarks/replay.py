"""Serial evaluation of a CLI invocation through the package's public
functions, called in the order the CLI calls them.

Each call into a layer goes through `tracer.call`, so the same code is the
traced run (with a spans.Tracer) and the untraced reference evaluation the
correctness gate compares the CLI's output against (with a NullTracer).
The sweep is evaluated point by point in one process, with no pool.
"""

from dataclasses import dataclass

import numpy as np

from casimir_pendulum import report as report_module
from casimir_pendulum.analytic import linear_period
from casimir_pendulum.config import ConfigError, load_config
from casimir_pendulum.design import validate
from casimir_pendulum.integrator import (
    InsufficientCyclesError,
    Trajectory,
    estimate_period,
    integrate,
)
from casimir_pendulum.pendulum import GeometryError, PendulumParams, State
from casimir_pendulum.report import build_report, write_report_json, write_trajectory_csv

from spans import instrument


@dataclass(frozen=True)
class Design:
    """One integrated design: its inputs and the run the program made."""

    params: PendulumParams
    phi0: float
    trajectory: Trajectory
    period: float | None


def _release(config, params=None):
    params = config.params if params is None else params
    return State(t=0.0, phi=config.phi0_rad, phi_dot=0.0), config.build_integrator(params)


def simulate(tracer, config_path: str, csv_path: str, json_path: str):
    """cli.cmd_simulate: returns (Design, SimulationReport)."""
    config = tracer.call("config.load_config", load_config, config_path)
    validity = tracer.call("design.validate", validate, config.params, config.phi0_rad)
    traj = tracer.call("integrator.integrate", integrate, config.params, *_release(config))
    with instrument(tracer, report_module, "estimate_period", "integrator.estimate_period"), \
            instrument(tracer, report_module, "energy_drift", "integrator.energy_drift"):
        report = tracer.call("report.build_report", build_report, traj, validity)
    tracer.call("report.write_trajectory_csv", write_trajectory_csv, traj, csv_path)
    tracer.call("report.write_report_json", write_report_json, report, json_path)
    return Design(config.params, config.phi0_rad, traj, report.simulated_period), report


def period(tracer, config_path: str) -> Design:
    """cli.cmd_period with --simulate."""
    config = tracer.call("config.load_config", load_config, config_path)
    traj = tracer.call("integrator.integrate", integrate, config.params, *_release(config))
    try:
        measured = tracer.call("integrator.estimate_period", estimate_period, traj).mean_period
    except InsufficientCyclesError:
        measured = None
    return Design(config.params, config.phi0_rad, traj, measured)


def fmt(x: float | None) -> str:
    """The sweep CSV's number format."""
    return "" if x is None else repr(float(x))


def sweep(tracer, config_path: str, param: str, start: float, stop: float, points: int,
          log: bool) -> tuple[list[str], list[Design]]:
    """cli.cmd_sweep evaluated serially: the CSV data lines it must write,
    and the designs it integrated."""
    base = tracer.call("config.load_config", load_config, config_path)
    values = np.geomspace(start, stop, points) if log else np.linspace(start, stop, points)
    lines, designs = [], []
    for v in values:
        value = float(v)
        analytic = simulated = None
        verdict = False
        try:
            config = tracer.call("config.with_swept_value", base.with_swept_value, param, value)
        except (ConfigError, ValueError):
            config = None
        if config is not None:
            params = config.params
            analytic = linear_period(params)
            verdict = tracer.call("design.validate", validate, params, config.phi0_rad).verdict
        if verdict:
            try:
                traj = tracer.call("integrator.integrate", integrate, params,
                                   *_release(config, params))
                simulated = tracer.call("integrator.estimate_period", estimate_period,
                                        traj).mean_period
                designs.append(Design(params, config.phi0_rad, traj, simulated))
            except (GeometryError, InsufficientCyclesError):
                pass
        lines.append(f"{fmt(value)},{fmt(analytic)},{fmt(simulated)},"
                     f"{'true' if verdict else 'false'}")
    return lines, designs
