"""Trajectory CSV and report JSON serialization."""

import csv
import json

import numpy as np
import pytest

from casimir_pendulum import (
    IntegratorConfig,
    State,
    build_report,
    integrate,
    linear_period,
    validate,
    write_report_json,
    write_trajectory_csv,
)
from casimir_pendulum.report import report_to_dict

REPORT_KEYS = [
    "analytic_omega_rad_s",
    "analytic_period_s",
    "simulated_period_s",
    "period_rel_diff",
    "energy_drift",
    "validity",
    "termination",
]


@pytest.fixture
def run(params):
    config = IntegratorConfig(t_max=4 * linear_period(params))
    traj = integrate(params, State(0.0, 1e-3, 0.0), config)
    return traj, build_report(traj, validate(params, 1e-3))


def test_csv_header_and_shape(run, tmp_path):
    traj, _ = run
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, str(path))
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t_s", "phi_rad", "phi_dot_rad_s", "R_m", "energy_J"]
    assert len(rows) == len(traj) + 1


def test_csv_has_lf_line_endings(run, tmp_path):
    traj, _ = run
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, str(path))
    raw = path.read_bytes()
    assert b"\r" not in raw
    assert raw.endswith(b"\n")


def test_csv_floats_round_trip(run, tmp_path):
    """repr serialization: parsing the file recovers the arrays bit-for-bit."""
    traj, _ = run
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, str(path))
    data = np.genfromtxt(path, delimiter=",", skip_header=1)
    assert np.array_equal(data[:, 0], traj.t)
    assert np.array_equal(data[:, 1], traj.phi)
    assert np.array_equal(data[:, 2], traj.phi_dot)
    assert np.array_equal(data[:, 3], traj.r)
    assert np.array_equal(data[:, 4], traj.energy)


def test_report_keys_exact(run):
    _, report = run
    assert list(report_to_dict(report).keys()) == REPORT_KEYS


def test_report_values(run, params):
    _, report = run
    doc = report_to_dict(report)
    assert doc["analytic_period_s"] == linear_period(params)
    assert doc["termination"] == "completed"
    assert doc["validity"]["verdict"] is True
    assert doc["period_rel_diff"] == pytest.approx(
        abs(doc["simulated_period_s"] - doc["analytic_period_s"]) / doc["analytic_period_s"],
        rel=1e-12,
    )
    assert doc["energy_drift"] >= 0.0


def test_report_json_parses(run, tmp_path):
    _, report = run
    path = tmp_path / "report.json"
    write_report_json(report, str(path))
    doc = json.loads(path.read_text())
    assert list(doc.keys()) == REPORT_KEYS


def test_equilibrium_reports_absent_period(params):
    config = IntegratorConfig(t_max=2 * linear_period(params))
    traj = integrate(params, State(0.0, 0.0, 0.0), config)
    doc = report_to_dict(build_report(traj, validate(params, 0.0)))
    assert doc["simulated_period_s"] is None
    assert doc["period_rel_diff"] is None
    assert doc["termination"] == "completed"


def test_reports_are_deterministic(params, tmp_path):
    def once(name: str) -> bytes:
        config = IntegratorConfig(t_max=4 * linear_period(params))
        traj = integrate(params, State(0.0, 1e-3, 0.0), config)
        path = tmp_path / name
        write_report_json(build_report(traj, validate(params, 1e-3)), str(path))
        return path.read_bytes()

    assert once("a.json") == once("b.json")
