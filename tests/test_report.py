"""Trajectory CSV and report JSON serialization."""

import csv
import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casimir_pendulum import (
    IntegratorConfig,
    State,
    Termination,
    Trajectory,
    build_report,
    energy_drift,
    integrate,
    linear_period,
    load_preset,
    validate,
    write_report_json,
    write_trajectory_csv,
)
from casimir_pendulum.report import _BLOCK_ROWS, TRAJECTORY_HEADER, report_to_dict

COLUMNS = ("t", "phi", "phi_dot", "r", "energy")
MAX_FLOAT = 1.7976931348623157e308
# Signed zeros, the smallest subnormal, both sides of the points where repr
# switches between fixed and exponent notation, and the largest floats.
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, MAX_FLOAT, -MAX_FLOAT] + [
    sign * x for edge in (1e-4, 1e-5, 1e16) for sign in (1.0, -1.0)
    for x in (math.nextafter(edge, 0.0), edge, math.nextafter(edge, math.inf))]

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


def test_zero_initial_energy_reports_absent_drift(params):
    # at d 1.5e70 the energy scale I*w_ref**2 underflows, so every energy is 0
    far = replace(params, d=1.5e70)
    # over 12 linearized periods the first trial step is 0.1 in tau; at a
    # tolerance that admits it, it lands far beyond pi/2 (at the default
    # tolerances the default horizon, 1.5 periods of the gravity-dominated
    # swing, completes)
    config = IntegratorConfig(t_max=12 * linear_period(far), rel_tol=1.0)
    traj = integrate(far, State(0.0, 0.3, 0.0), config)
    assert traj.energy[0] == 0.0
    with pytest.raises(ValueError, match="initial energy is zero"):
        energy_drift(traj)
    report = build_report(traj, validate(far, 0.3))
    assert report.energy_drift is None
    doc = report_to_dict(report)
    assert doc["energy_drift"] is None
    assert doc["termination"] == "angle_limit"


def test_reports_are_deterministic(params, tmp_path):
    def once(name: str) -> bytes:
        config = IntegratorConfig(t_max=4 * linear_period(params))
        traj = integrate(params, State(0.0, 1e-3, 0.0), config)
        path = tmp_path / name
        write_report_json(build_report(traj, validate(params, 1e-3)), str(path))
        return path.read_bytes()

    assert once("a.json") == once("b.json")


def reference_csv(traj, path) -> None:
    """The row-at-a-time csv.writer + repr writer that block writing replaced."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(TRAJECTORY_HEADER)
        for row in zip(traj.t, traj.phi, traj.phi_dot, traj.r, traj.energy):
            writer.writerow([repr(float(x)) for x in row])


def table_trajectory(table) -> Trajectory:
    """A trajectory whose five columns are those of `table`, in CSV order."""
    return Trajectory(**{name: table[:, k] for k, name in enumerate(COLUMNS)},
                      params=load_preset("paper-defaults").params,
                      termination=Termination.COMPLETED)


def assert_matches_reference(traj, directory) -> None:
    new, old = directory / "new.csv", directory / "old.csv"
    write_trajectory_csv(traj, str(new))
    reference_csv(traj, str(old))
    assert new.read_bytes() == old.read_bytes()
    with open(new, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    parsed = np.array([[float(x) for x in row] for row in rows]).reshape(-1, 5)
    for k, name in enumerate(COLUMNS):  # bit for bit, sign of zero included
        assert np.array_equal(parsed[:, k].view(np.int64), getattr(traj, name).view(np.int64))


@settings(derandomize=True, database=None, max_examples=200)
@given(rows=st.lists(st.tuples(*[st.floats(allow_nan=False, allow_infinity=False)
                                 | st.sampled_from(EDGE_FLOATS)] * 5), max_size=30))
def test_csv_bytes_match_reference_writer(tmp_path_factory, rows):
    table = np.array(rows, dtype=float).reshape(-1, 5)
    assert_matches_reference(table_trajectory(table), tmp_path_factory.mktemp("csv"))


@pytest.mark.parametrize("n", [1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1,
                               2 * _BLOCK_ROWS + 1])
def test_csv_bytes_match_reference_writer_across_blocks(tmp_path, n):
    rng = np.random.default_rng(n)
    table = rng.standard_normal((n, 5)) * 10.0 ** rng.integers(-320, 300, (n, 5))
    assert_matches_reference(table_trajectory(table), tmp_path)


def test_csv_bytes_match_reference_writer_on_integrated_run(tmp_path):
    config = load_preset("paper-defaults")
    integ = replace(config.integrator, t_max=500 * linear_period(config.params), record_stride=1)
    traj = integrate(config.params, State(0.0, config.phi0_rad, 0.0), integ)
    assert traj.termination is Termination.COMPLETED
    assert len(traj) > 2 * _BLOCK_ROWS
    assert_matches_reference(traj, tmp_path)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_refused_csv_leaves_existing_file(run, tmp_path, bad):
    traj, _ = run
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, str(path))
    before = path.read_bytes()
    energy = traj.energy.copy()
    energy[-1] = bad
    message = f"refusing to serialize non-finite value {bad!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        write_trajectory_csv(replace(traj, energy=energy), str(path))
    assert path.read_bytes() == before
    with pytest.raises(ValueError):
        write_trajectory_csv(replace(traj, energy=energy), str(tmp_path / "new.csv"))
    assert not (tmp_path / "new.csv").exists()


def test_refusal_names_first_bad_value_in_row_order(run, tmp_path):
    traj, _ = run
    table = np.column_stack([getattr(traj, name) for name in COLUMNS])
    table[0, 4] = -math.inf  # last column of the first row...
    table[1, 0] = math.nan   # ...comes before the first column of the second
    with pytest.raises(ValueError, match="non-finite value -inf$"):
        write_trajectory_csv(table_trajectory(table), str(tmp_path / "t.csv"))
