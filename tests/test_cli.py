"""End-to-end CLI behaviour: subcommands, artifacts, exit codes.

main() is called in-process; argparse usage failures surface as SystemExit
with code 1 (code 2 is reserved for physics terminations).
"""

import contextlib
import csv
import io
import json
import math
import os
import shlex
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import casimir_pendulum
from casimir_pendulum import (
    InsufficientCyclesError,
    State,
    Termination,
    cli,
    estimate_period,
    integrate,
    integrator,
    linear_period,
    load_config,
    parse_config,
)
from casimir_pendulum.cli import build_parser, main

PARAMS = {
    "d_m": 2e-8,
    "l_m": 1e-8,
    "mass_kg": 1e-24,
    "alpha0_m3": 1e-30,
    "omega0_rad_s": 1e15,
}


def write_config(tmp_path, doc, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def lone_pair_rows(tmp_path, source, param, values):
    """The data lines of a log sweep of param over values, read from source
    (the --config or --preset arguments), and, for each even i, those of the
    2-point sweep of values[i] and values[i + 1]."""
    def data_lines(start, stop, points):
        out = str(tmp_path / "s.csv")
        assert main(["sweep", *source, "--param", param, "--from", repr(start), "--to", repr(stop),
                     "--points", str(points), "--log", "--out", out]) == 0
        with open(out) as fh:
            return fh.read().splitlines()[1:]

    full = data_lines(values[0], values[-1], len(values))
    return full, [data_lines(values[i], values[i + 1], 2) for i in range(0, len(values), 2)]


# the first RK4 step overflows a stage angle to inf (see test_integrator.py)
OVERFLOW_DOC = {
    "params": PARAMS,
    "initial": {"phi0_rad": 0.3},
    "integrator": {"method": "rk4_fixed", "dt": 1e283, "t_max": 1e300},
}


# at equilibrium the error estimate is 0, so the step grows tenfold each
# step; t_max * omega_ref overflows to inf, so only the stall test ends the run
HUGE_T_MAX_DOC = {"params": PARAMS, "integrator": {"t_max": 1e302}}


def accepted_steps(doc, phi0):
    """Accepted steps of doc's run from rest at phi0 to its end, at
    record_stride 1: its rows but the initial one and the row inside each
    step that crosses zero descending (one descending pair of rows each)."""
    config = parse_config(doc)
    traj = integrate(config.params, State(0.0, phi0, 0.0),
                     replace(config.integrator, record_stride=1))
    assert traj.termination is Termination.COMPLETED
    return len(traj) - 1 - int(np.count_nonzero((traj.phi[:-1] > 0.0) & (traj.phi[1:] <= 0.0)))


# d - l = 0.29999997 nm against a 0.3 nm safety gap: the tip reaches the gap
# only at |phi| < 7.7e-5, which most steps across phi = 0 jump over
PLATE_ZONE_DOC = {
    "params": dict(PARAMS, d_m=1.029999997e-8),
    "initial": {"phi0_rad": 0.1},
    "integrator": {"collision_gap": 3e-10},
}


def run_cli(args, cwd):
    """The CLI in a child process, so a run that never ends fails the test
    by its timeout instead of hanging the suite."""
    env = dict(os.environ, PYTHONPATH=str(Path(casimir_pendulum.__file__).parents[1]))
    return subprocess.run([sys.executable, "-m", "casimir_pendulum.cli", *args], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=30)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestSimulate:
    def test_preset_end_to_end(self, tmp_path, capsys):
        out = str(tmp_path / "t.csv")
        rep = str(tmp_path / "r.json")
        code = main(["simulate", "--preset", "paper-defaults", "--out", out, "--report", rep])
        assert code == 0
        assert "termination = completed" in capsys.readouterr().out

        doc = json.loads((tmp_path / "r.json").read_text())
        assert doc["analytic_period_s"] == pytest.approx(3.7333e-7, rel=1e-4)
        assert doc["simulated_period_s"] == pytest.approx(doc["analytic_period_s"], rel=1e-4)
        assert doc["energy_drift"] <= 1e-9
        assert doc["validity"]["verdict"] is True
        assert doc["termination"] == "completed"

        rows = read_csv(out)
        assert list(rows[0].keys()) == ["t_s", "phi_rad", "phi_dot_rad_s", "R_m", "energy_J"]
        assert float(rows[0]["phi_rad"]) == 1e-3

    def test_output_paths_from_config(self, tmp_path):
        doc = {
            "params": PARAMS,
            "initial": {"phi0_rad": 1e-3},
            "outputs": {
                "trajectory_csv": str(tmp_path / "cfg.csv"),
                "report_json": str(tmp_path / "cfg.json"),
            },
        }
        assert main(["simulate", "--config", write_config(tmp_path, doc)]) == 0
        assert (tmp_path / "cfg.csv").exists()
        assert (tmp_path / "cfg.json").exists()

    def test_equilibrium_release(self, tmp_path):
        doc = {"params": PARAMS, "initial": {"phi0_rad": 0.0}}
        rep = str(tmp_path / "r.json")
        code = main(["simulate", "--config", write_config(tmp_path, doc),
                     "--out", str(tmp_path / "t.csv"), "--report", rep])
        assert code == 0
        parsed = json.loads((tmp_path / "r.json").read_text())
        assert parsed["simulated_period_s"] is None
        assert parsed["period_rel_diff"] is None

    def test_collision_exits_2(self, tmp_path):
        # tip gap at the bottom of the swing is below the safety margin
        doc = {
            "params": dict(PARAMS, d_m=1.019e-8),
            "initial": {"phi0_rad": 0.3},
        }
        rep = str(tmp_path / "r.json")
        code = main(["simulate", "--config", write_config(tmp_path, doc),
                     "--out", str(tmp_path / "t.csv"), "--report", rep])
        assert code == 2
        assert json.loads((tmp_path / "r.json").read_text())["termination"] == "collision"

    def test_swing_through_plate_zone_exits_2(self, tmp_path, capsys):
        out, rep = tmp_path / "t.csv", tmp_path / "r.json"
        code = main(["simulate", "--config", write_config(tmp_path, PLATE_ZONE_DOC),
                     "--out", str(out), "--report", str(rep)])
        assert code == 2
        assert capsys.readouterr().out.startswith("termination = collision\n")
        assert json.loads(rep.read_text())["termination"] == "collision"
        rows = read_csv(out)  # up to the first pass through phi = 0, which is not recorded
        assert all(float(r["phi_rad"]) > 0.0 and float(r["R_m"]) > 3e-10 for r in rows)

    def test_step_limit_exits_2(self, tmp_path):
        # one step fewer than the run takes to its end
        doc = {
            "params": PARAMS,
            "initial": {"phi0_rad": 1e-3},
            "integrator": {"max_steps": accepted_steps({"params": PARAMS}, 1e-3) - 1},
        }
        code = main(["simulate", "--config", write_config(tmp_path, doc),
                     "--out", str(tmp_path / "t.csv"), "--report", str(tmp_path / "r.json")])
        assert code == 2

    def test_overflowing_fixed_step_exits_2(self, tmp_path):
        out = tmp_path / "t.csv"
        rep = tmp_path / "r.json"
        code = main(["simulate", "--config", write_config(tmp_path, OVERFLOW_DOC),
                     "--out", str(out), "--report", str(rep)])
        assert code == 2
        assert json.loads(rep.read_text())["termination"] == "angle_limit"
        rows = read_csv(out)  # the start state only
        assert [(r["t_s"], r["phi_rad"], r["phi_dot_rad_s"]) for r in rows] == [("0.0", "0.3", "0.0")]

    def test_overflowing_end_time_stalls(self, tmp_path):
        cfg = write_config(tmp_path, HUGE_T_MAX_DOC)
        sim = run_cli(["simulate", "--config", cfg, "--out", "t.csv", "--report", "r.json"],
                      tmp_path)
        assert sim.returncode == 2, sim.stderr
        assert json.loads((tmp_path / "r.json").read_text())["termination"] == "stalled"
        assert len(read_csv(tmp_path / "t.csv")) > 1
        per = run_cli(["period", "--config", cfg, "--simulate"], tmp_path)
        assert per.returncode == 2, per.stderr
        assert "T_simulated = n/a" in per.stdout

    def test_zero_energy_scale_reports_angle_limit(self, tmp_path, capsys):
        # I*w_ref**2 underflows to 0, so the report has no relative energy drift
        doc = {"params": dict(PARAMS, d_m=1.5e70), "initial": {"phi0_rad": 0.3}}
        # 12 linearized periods, so that the first trial step is 0.1 in tau, and
        # a tolerance that admits it: it lands far beyond pi/2
        far = load_config(write_config(tmp_path, doc)).params
        doc["integrator"] = {"t_max": 12 * linear_period(far), "rel_tol": 1.0}
        out, rep = tmp_path / "t.csv", tmp_path / "r.json"
        code = main(["simulate", "--config", write_config(tmp_path, doc),
                     "--out", str(out), "--report", str(rep)])
        assert code == 2
        assert capsys.readouterr().out.startswith("termination = angle_limit\nsamples = 1\n")
        assert len(read_csv(out)) == 1
        report = json.loads(rep.read_text())
        assert report["energy_drift"] is None
        assert report["termination"] == "angle_limit"

    def test_identical_configs_identical_artifacts(self, tmp_path):
        doc = {"params": PARAMS, "initial": {"phi0_rad": 1e-3}}
        cfg = write_config(tmp_path, doc)
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{tag}.csv"
            rep = tmp_path / f"{tag}.json"
            assert main(["simulate", "--config", cfg, "--out", str(out),
                         "--report", str(rep)]) == 0
            outs.append((out.read_bytes(), rep.read_bytes()))
        assert outs[0] == outs[1]


# stands for half the steps that a run takes to its end time, whatever that is: counted in
# the test, so that an integrator fault fails it and does not stop the module's collection
HALF = "half"


class TestPeriod:
    def test_analytic_lines(self, capsys):
        assert main(["period", "--preset", "paper-defaults"]) == 0
        out = capsys.readouterr().out
        assert "omega_analytic = 1.6829e+07 rad/s" in out
        assert "T_analytic = 3.7334e-07 s" in out
        assert "T_simulated" not in out

    def test_simulated_line(self, capsys):
        assert main(["period", "--preset", "paper-defaults", "--simulate"]) == 0
        assert "T_simulated = 3.7334e-07 s" in capsys.readouterr().out

    @pytest.mark.parametrize("doc, termination", [
        ({"params": PARAMS, "initial": {"phi0_rad": 0.2}}, Termination.COMPLETED),
        ({"params": PARAMS, "initial": {"phi0_rad": 0.2}, "integrator": {"max_steps": HALF}},
         Termination.STEP_LIMIT),
        ({"params": dict(PARAMS, d_m=1.019e-8), "initial": {"phi0_rad": 0.3}},
         Termination.COLLISION),
        ({"params": PARAMS, "initial": {"phi0_rad": 0.2},
          "integrator": {"method": "rk4_fixed", "dt": 4e-9}}, Termination.COMPLETED),
        ({"params": PARAMS, "initial": {"phi0_rad": 0.0}}, Termination.COMPLETED),
        (PLATE_ZONE_DOC, Termination.COLLISION),
        ({"params": PARAMS, "initial": {"phi0_rad": 0.2}, "integrator": {"record_stride": 7}},
         Termination.COMPLETED),
        # integrate at this stride records only the run's first and last rows and those
        # around its crossings
        ({"params": PARAMS, "initial": {"phi0_rad": 0.2}, "integrator": {"record_stride": 10**6}},
         Termination.COMPLETED),
    ], ids=["completed", "step_limit", "collision", "rk4", "rest", "plate_zone", "stride_7",
            "stride_1e6"])
    def test_simulated_line_equals_integrate(self, tmp_path, capsys, monkeypatch, doc,
                                             termination):
        """period --simulate keeps only the crossings, yet prints what
        integrate at record_stride 1 + estimate_period give, termination
        included, and builds no Trajectory: the stride thins only
        simulate's rows."""
        if doc.get("integrator") == {"max_steps": HALF}:
            doc = dict(doc, integrator={"max_steps": accepted_steps({"params": PARAMS}, 0.2) // 2})
        cfg = write_config(tmp_path, doc)
        config = load_config(cfg)
        traj = integrate(config.params, State(0.0, config.phi0_rad, 0.0),
                         replace(config.integrator, record_stride=1))
        assert traj.termination is termination
        try:
            expected = f"T_simulated = {estimate_period(traj).mean_period:.4e} s"
        except InsufficientCyclesError:
            few = ("no descending zero crossing" if config.phi0_rad > 0.0
                   else "fewer than 2 descending zero crossings")
            expected = f"T_simulated = n/a ({few})"

        def no_trajectory(*args):
            raise AssertionError("period built a Trajectory")

        monkeypatch.setattr(integrator, "_trajectory", no_trajectory)
        code = main(["period", "--config", cfg, "--simulate"])
        assert code == (0 if termination is Termination.COMPLETED else 2)
        assert capsys.readouterr().out.splitlines()[1:] == [
            f"T_analytic = {linear_period(config.params):.4e} s",
            f"termination = {termination.value}", expected]

    def test_beta_one_period(self, tmp_path, capsys):
        doc = {"params": dict(PARAMS, beta=1.0)}
        assert main(["period", "--config", write_config(tmp_path, doc)]) == 0
        assert "T_analytic = 4.5725e-07 s" in capsys.readouterr().out


class TestSweep:
    def test_beta_endpoint_law(self, tmp_path):
        """T(beta=1)/T(beta=2) = sqrt(3/2) exactly (analytic column)."""
        out = str(tmp_path / "s.csv")
        code = main(["sweep", "--preset", "paper-defaults", "--param", "beta",
                     "--from", "1", "--to", "2", "--points", "3", "--out", out])
        assert code == 0
        rows = read_csv(out)
        assert [r["param_value"] for r in rows] == ["1.0", "1.5", "2.0"]
        ratio = float(rows[0]["T_analytic"]) / float(rows[2]["T_analytic"])
        assert ratio == pytest.approx(math.sqrt(1.5), rel=1e-9)
        assert all(r["validity_verdict"] == "true" for r in rows)

    def test_gap_square_law_parallel(self, tmp_path):
        """20 log-spaced points across the near-zone edge; T ~ (d-l)^2."""
        out = str(tmp_path / "d.csv")
        code = main(["sweep", "--preset", "paper-defaults", "--param", "d_m",
                     "--from", "1.5e-8", "--to", "5e-8", "--points", "20",
                     "--log", "--out", out])
        assert code == 0
        rows = read_csv(out)
        assert len(rows) == 20
        consts = [float(r["T_analytic"]) / (float(r["param_value"]) - 1e-8) ** 2 for r in rows]
        assert max(consts) / min(consts) - 1 <= 1e-6
        # far points leave the near zone: flagged, analytic value only
        assert rows[-1]["validity_verdict"] == "false"
        assert rows[-1]["T_simulated"] == ""
        assert rows[0]["validity_verdict"] == "true"
        assert rows[0]["T_simulated"] != ""

    def test_amplitude_softening(self, tmp_path):
        out = str(tmp_path / "a.csv")
        code = main(["sweep", "--preset", "paper-defaults", "--param", "phi0_rad",
                     "--from", "1e-3", "--to", "3e-1", "--points", "5", "--out", out])
        assert code == 0
        periods = [float(r["T_simulated"]) for r in read_csv(out)]
        assert all(a < b for a, b in zip(periods, periods[1:]))  # each run from its own phi0

    def test_header(self, tmp_path):
        out = str(tmp_path / "s.csv")
        main(["sweep", "--preset", "paper-defaults", "--param", "beta",
              "--from", "1", "--to", "2", "--points", "2", "--out", out])
        with open(out) as fh:
            assert fh.readline().strip() == "param_value,T_analytic,T_simulated,validity_verdict"

    def test_unbuildable_points_carry_false(self, tmp_path):
        # d_m below l: no such pendulum, but the sweep must survive
        out = str(tmp_path / "s.csv")
        code = main(["sweep", "--preset", "paper-defaults", "--param", "d_m",
                     "--from", "0.5e-8", "--to", "3e-8", "--points", "4", "--out", out])
        assert code == 0
        rows = read_csv(out)
        assert rows[0]["validity_verdict"] == "false"
        assert rows[0]["T_analytic"] == ""
        assert rows[-1]["validity_verdict"] == "true"

    def test_no_finite_period_carries_false(self, tmp_path):
        # at d = 1e300 the stiffness (d-l)^-4 is not a float; the row says so
        out = str(tmp_path / "s.csv")
        code = main(["sweep", "--preset", "paper-defaults", "--param", "d_m",
                     "--from", "1.5e-8", "--to", "1e300", "--points", "2", "--out", out])
        assert code == 0
        rows = read_csv(out)
        assert rows[0]["validity_verdict"] == "true"
        assert rows[1] == {"param_value": "1e+300", "T_analytic": "", "T_simulated": "",
                           "validity_verdict": "false"}

    def test_overflowing_fixed_step_carries_true(self, tmp_path):
        # valid designs whose run ends at once at the angle limit: no period
        out = str(tmp_path / "s.csv")
        code = main(["sweep", "--config", write_config(tmp_path, OVERFLOW_DOC),
                     "--param", "beta", "--from", "1.5", "--to", "2", "--points", "2",
                     "--out", out])
        assert code == 2
        rows = read_csv(out)
        assert [(r["param_value"], r["T_simulated"], r["validity_verdict"]) for r in rows] == [
            ("1.5", "", "true"), ("2.0", "", "true")]

    def test_overflowing_end_time_writes_csv(self, tmp_path):
        cfg = write_config(tmp_path, HUGE_T_MAX_DOC)
        result = run_cli(["sweep", "--config", cfg, "--param", "d_m", "--from", "1.5e-8",
                          "--to", "3e-8", "--points", "2", "--out", "s.csv"], tmp_path)
        assert result.returncode == 2, result.stderr
        assert result.stdout.endswith("not completed = 2 of 2 simulated points\n")
        rows = read_csv(tmp_path / "s.csv")
        assert [(r["param_value"], r["T_simulated"], r["validity_verdict"]) for r in rows] == [
            ("1.5e-08", "", "true"), ("3e-08", "", "true")]

    def test_unfinished_run_exits_2(self, tmp_path, capsys):
        """A sweep whose runs exhaust their steps writes every row, counts
        them and exits 2, as period --simulate does on one of its points.
        The budget stops each run one step or more before the step of its
        crossing, which ends it, so no row carries a period."""
        steps = min(accepted_steps({"params": PARAMS}, phi0) for phi0 in (0.05, 0.1, 0.15))
        doc = {"params": PARAMS, "initial": {"phi0_rad": 0.1},
               "integrator": {"max_steps": steps - 1}}
        cfg = write_config(tmp_path, doc)
        assert main(["period", "--config", cfg, "--simulate"]) == 2
        assert "termination = step_limit\n" in capsys.readouterr().out
        out = str(tmp_path / "s.csv")
        assert main(["sweep", "--config", cfg, "--param", "phi0_rad", "--from", "0.05",
                     "--to", "0.15", "--points", "3", "--out", out]) == 2
        assert capsys.readouterr().out.endswith("not completed = 3 of 3 simulated points\n")
        rows = read_csv(out)
        assert len(rows) == 3
        assert all(row["T_simulated"] == "" and row["validity_verdict"] == "true"
                   for row in rows)

    def test_row_independent_of_other_points(self, tmp_path):
        """A point's row is the same bytes alone as among 20 points."""
        full, pairs = lone_pair_rows(tmp_path, ["--preset", "paper-defaults"], "d_m",
                                     np.geomspace(1.5e-8, 5e-8, 20).tolist())
        assert pairs == [full[i:i + 2] for i in range(0, 20, 2)]

    @pytest.mark.parametrize("integrator_doc", [{"method": "rk45_adaptive"},
                                                {"method": "rk4_fixed", "dt": 4e-9}],
                             ids=["rk45_adaptive", "rk4_fixed"])
    def test_lockstep_rows_equal_lone_rows(self, tmp_path, integrator_doc):
        """With 64 points (52 valid) adaptive lanes step in lockstep; with 2,
        and with RK4 at any size, each run finishes alone.  The rows agree
        byte for byte."""
        doc = {"params": dict(PARAMS, beta=2.0, include_gravity=True),  # the preset's design
               "initial": {"phi0_rad": 1e-3}, "integrator": integrator_doc}
        full, pairs = lone_pair_rows(tmp_path, ["--config", write_config(tmp_path, doc)], "d_m",
                                     np.geomspace(1.5e-8, 5e-8, 64).tolist())
        assert sum(line.endswith(",true") for line in full) > integrator._LOCKSTEP_MIN_LANES
        assert pairs == [full[i:i + 2] for i in range(0, 64, 2)]

    @pytest.mark.parametrize("param, start, stop", [
        ("phi0_rad", 1e-3, 0.3),  # every point keeps the preset's params, with its own start
        ("mass_kg", 1e-25, 1e-23),  # a field of the params themselves
        ("omega0_rad_s", 1e14, 1e16),  # a field of the atom, which each point builds anew
    ])
    def test_lockstep_rows_equal_lone_rows_of_each_field(self, tmp_path, param, start, stop):
        """Whichever way a point is built from the base config, the lanes of a
        64-point sweep write the rows that the 2-point sweeps of each pair of
        neighbours, whose runs finish alone, write."""
        full, pairs = lone_pair_rows(tmp_path, ["--preset", "paper-defaults"], param,
                                     np.geomspace(start, stop, 64).tolist())
        assert sum(line.endswith(",true") for line in full) > integrator._LOCKSTEP_MIN_LANES
        assert pairs == [full[i:i + 2] for i in range(0, 64, 2)]

    @pytest.mark.parametrize("stop, points, valid", [(5e-8, 64, 52), (3e-8, 2, 2)],
                             ids=["lockstep", "alone"])
    def test_record_stride_leaves_the_rows(self, tmp_path, stop, points, valid):
        """record_stride thins only simulate's trajectory: a sweep at stride 7
        writes the bytes of one at stride 1, whether its runs step in
        lockstep or finish alone."""
        def written(stride):
            doc = {"params": dict(PARAMS, beta=2.0, include_gravity=True),
                   "initial": {"phi0_rad": 0.2}, "integrator": {"record_stride": stride}}
            out = tmp_path / "s.csv"
            assert main(["sweep", "--config", write_config(tmp_path, doc), "--param", "d_m",
                         "--from", "1.5e-8", "--to", repr(stop), "--points", str(points),
                         "--log", "--out", str(out)]) == 0
            return out.read_bytes()

        rows = written(1)
        assert rows.count(b",true\n") == valid
        assert written(7) == rows

    def test_swing_through_plate_zone_has_no_period(self, tmp_path):
        """Every point's tip reaches the collision gap at phi = 0, so
        validate rates every point false and none is simulated."""
        out = str(tmp_path / "s.csv")
        code = main(["sweep", "--config", write_config(tmp_path, PLATE_ZONE_DOC),
                     "--param", "phi0_rad", "--from", "0.01", "--to", "0.3", "--points", "40",
                     "--out", out])
        assert code == 0
        rows = read_csv(out)
        assert [(r["T_simulated"], r["validity_verdict"]) for r in rows] == [("", "false")] * 40

    def test_plate_zone_runs_have_no_period(self, tmp_path):
        """More runs than _LOCKSTEP_MIN_LANES, each of which passes through
        the plate zone: every one collides and none has a period."""
        config = load_config(write_config(tmp_path, PLATE_ZONE_DOC))
        n = integrator._LOCKSTEP_MIN_LANES + 8
        runs = [(config.params, State(0.0, float(phi0), 0.0)) for phi0 in np.linspace(0.01, 0.3, n)]
        results = integrator._crossing_periods(runs, config.integrator)
        assert results == [(Termination.COLLISION, None)] * n

    # step budgets beyond int64, which the sweep lanes compare with their float step counts
    @pytest.mark.parametrize("integrator_doc", [{"max_steps": 2**63}, {"max_steps": 10**400}],
                             ids=["max_steps_2**63", "max_steps_1e400"])
    @pytest.mark.parametrize("command", [
        ["period", "--simulate"],
        ["sweep", "--param", "d_m", "--from", "1.5e-8", "--to", "5e-8", "--points", "200",
         "--out", "s.csv"]], ids=["period", "sweep"])
    def test_counts_beyond_int64(self, tmp_path, capsys, monkeypatch, command, integrator_doc):
        """Such budgets act as 2**63 - 1: past any run's step count."""
        monkeypatch.chdir(tmp_path)

        def outcome(doc):
            (tmp_path / "s.csv").unlink(missing_ok=True)
            cfg = write_config(tmp_path, {"params": dict(PARAMS, beta=2.0, include_gravity=True),
                                          "initial": {"phi0_rad": 1e-3}, "integrator": doc})
            code = main([command[0], "--config", cfg, *command[1:]])
            written = (tmp_path / "s.csv").read_bytes() if command[0] == "sweep" else None
            return code, capsys.readouterr(), written

        assert outcome(integrator_doc) == outcome({"max_steps": 2**63 - 1})

    def test_unknown_param_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--preset", "paper-defaults", "--param", "t_max",
                  "--from", "1", "--to", "2", "--points", "2",
                  "--out", str(tmp_path / "s.csv")])
        assert exc.value.code == 1

    @pytest.mark.parametrize("param, start, stop", [
        ("beta", "2", "1"),
        ("d_m", "1.5e-8", "inf"),  # an infinite end
        ("phi0_rad", "-1e308", "1e308"),  # a span that overflows
        ("beta", "-inf", "2"),
    ])
    def test_inverted_range_rejected(self, tmp_path, capsys, param, start, stop):
        out = tmp_path / "s.csv"
        code = main(["sweep", "--preset", "paper-defaults", "--param", param,
                     f"--from={start}", "--to", stop, "--points", "3", "--out", str(out)])
        assert code == 1
        assert not out.exists()
        assert "nan" not in capsys.readouterr().err  # the error names the range given

    def test_one_point_rejected(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        code = main(["sweep", "--preset", "paper-defaults", "--param", "beta",
                     "--from", "1", "--to", "2", "--points", "1", "--out", str(out)])
        assert code == 1
        assert not out.exists()
        assert capsys.readouterr().err == "error: --points must be >= 2, got 1\n"

    def test_log_needs_positive_start(self, tmp_path):
        code = main(["sweep", "--preset", "paper-defaults", "--param", "beta",
                     "--from", "0", "--to", "2", "--points", "2", "--log",
                     "--out", str(tmp_path / "s.csv")])
        assert code == 1


class TestValidateCommand:
    def test_reference_design(self, capsys):
        assert main(["validate", "--preset", "paper-defaults"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] is True
        assert doc["near_zone_ratio"] == pytest.approx(29.98, rel=1e-3)
        assert doc["gravity_ratio"] == pytest.approx(1.93e5, rel=1e-2)

    def test_heavy_string(self, tmp_path, capsys):
        doc = {"params": dict(PARAMS, mass_kg=1e-18)}
        assert main(["validate", "--config", write_config(tmp_path, doc)]) == 0
        parsed = json.loads(capsys.readouterr().out)
        assert parsed["gravity_negligible"] is False
        assert parsed["verdict"] is False

    def test_plate_zone_design_fails_geometry(self, tmp_path, capsys):
        """R(0) is below the configured collision_gap, though above the
        default one: every run collides, so the design is not valid."""
        assert main(["validate", "--config", write_config(tmp_path, PLATE_ZONE_DOC)]) == 0
        parsed = json.loads(capsys.readouterr().out)
        assert parsed["geometry_ok"] is False
        assert parsed["verdict"] is False

    def test_zero_gap_keeps_the_model_floor(self, tmp_path, capsys):
        """A collision_gap of 0 does not rate a tip 1e-10 m from the plate,
        below the point-atom floor of 2e-10 m, as valid."""
        doc = {"params": dict(PARAMS, d_m=1.01e-8), "integrator": {"collision_gap": 0.0}}
        assert main(["validate", "--config", write_config(tmp_path, doc)]) == 0
        parsed = json.loads(capsys.readouterr().out)
        assert parsed["geometry_ok"] is False
        assert parsed["verdict"] is False

    def test_infinite_gravity_ratio_is_strict_json(self, tmp_path, capsys, monkeypatch):
        """gamma underflows to 0, so gravity_ratio is inf: validate's stdout
        and the report write it as null, which a strict reader accepts."""
        doc = {"params": {"d_m": 1000000000000000.25, "l_m": 1e15, "mass_kg": 1e-320,
                          "alpha0_m3": 5e11, "omega0_rad_s": 1e20}}
        cfg = write_config(tmp_path, doc)

        def strict(text):
            def reject(token):
                raise ValueError(f"non-JSON token {token}")

            return json.loads(text, parse_constant=reject)

        assert main(["validate", "--config", cfg]) == 0
        parsed = strict(capsys.readouterr().out)
        assert parsed["gravity_ratio"] is None
        assert (parsed["gravity_negligible"], parsed["verdict"]) == (True, False)
        monkeypatch.chdir(tmp_path)
        assert main(["simulate", "--config", cfg, "--out", "t.csv", "--report", "r.json"]) == 0
        assert strict((tmp_path / "r.json").read_text())["validity"]["gravity_ratio"] is None


# M*g*l/2 underflows to 0, yet the design has a finite small-angle period
# and a finite gravity-to-vacuum stiffness ratio gamma
UNDERFLOWING_GRAVITY_PARAMS = dict(PARAMS, mass_kg=1e-310, l_m=1e-15, d_m=1e10)


class TestUnderflowingGravity:
    def test_validate_rates_it(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"params": UNDERFLOWING_GRAVITY_PARAMS})
        assert main(["validate", "--config", cfg]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] is False  # d_m 1e10 is far outside the near zone
        assert doc["near_zone_ok"] is False
        assert 0.0 < doc["gravity_ratio"] < math.inf

    def test_simulate_runs(self, tmp_path, capsys, monkeypatch):
        cfg = write_config(tmp_path, {"params": UNDERFLOWING_GRAVITY_PARAMS})
        monkeypatch.chdir(tmp_path)
        assert main(["simulate", "--config", cfg, "--out", "t.csv", "--report", "r.json"]) == 0
        assert capsys.readouterr().out.startswith("termination = completed\n")
        assert json.loads((tmp_path / "r.json").read_text())["validity"]["verdict"] is False
        assert (tmp_path / "t.csv").exists()

    def test_sweep_point_carries_false(self, tmp_path):
        out = str(tmp_path / "s.csv")
        cfg = write_config(tmp_path, {"params": UNDERFLOWING_GRAVITY_PARAMS})
        assert main(["sweep", "--config", cfg, "--param", "mass_kg", "--from", "1e-312",
                     "--to", "1e-305", "--points", "8", "--log", "--out", out]) == 0
        rows = read_csv(out)
        assert len(rows) == 8
        # below 1e-310 the stiffness is no float; at 1e-310 only M*g*l/2 underflows
        assert rows[2] == {"param_value": "9.999999999988e-311",
                           "T_analytic": "1.1704887183606319e-117", "T_simulated": "",
                           "validity_verdict": "false"}
        assert [row["T_analytic"] != "" for row in rows] == [False, False] + [True] * 6


class TestEstimate:
    def test_reference_chain(self, capsys):
        code = main(["estimate", "--atoms", "30", "--atom-radius", "1e-10",
                     "--atomic-weight", "60.22", "--gap", "1e-8"])
        assert code == 0
        [(section, doc)] = json.loads(capsys.readouterr().out).items()
        assert section == "params"
        assert doc["l_m"] == pytest.approx(9e-9, rel=1e-15)
        assert doc["mass_kg"] == pytest.approx(3e-24, rel=1e-12)
        assert doc["d_m"] == pytest.approx(1.9e-8, rel=1e-15)
        assert doc["alpha0_m3"] == 1e-30
        assert doc["omega0_rad_s"] == 1e15

    def test_two_atom_chain(self, capsys):
        assert main(["estimate", "--atoms", "2", "--atom-radius", "1e-10",
                     "--atomic-weight", "1.0", "--gap", "1e-8"]) == 0
        doc = json.loads(capsys.readouterr().out)["params"]
        assert doc["l_m"] == pytest.approx(6e-10, rel=1e-15)

    def test_output_is_a_run_config(self, tmp_path, capsys):
        assert main(["estimate", "--atoms", "30", "--atom-radius", "1e-10",
                     "--atomic-weight", "60.22", "--gap", "1e-8"]) == 0
        path = tmp_path / "e.json"
        path.write_text(capsys.readouterr().out)
        assert main(["period", "--config", str(path), "--simulate"]) == 0
        out = capsys.readouterr().out
        assert "termination = completed\n" in out
        assert load_config(str(path)).params.l == pytest.approx(9e-9, rel=1e-15)

    def test_single_atom_rejected(self, capsys):
        code = main(["estimate", "--atoms", "1", "--atom-radius", "1e-10",
                     "--atomic-weight", "60.22", "--gap", "1e-8"])
        assert code == 1
        assert "n_atoms" in capsys.readouterr().err

    # params that no run accepts: an infinite d or mass leaves no finite
    # positive stiffness, and would print as the non-JSON Infinity
    @pytest.mark.parametrize("flag", ["--gap", "--atomic-weight"])
    def test_infinite_input_rejected(self, capsys, flag):
        argv = ["estimate", "--atoms", "30", "--atom-radius", "1e-10", "--atomic-weight", "60.22",
                "--gap", "1e-8"]
        argv[argv.index(flag) + 1] = "inf"
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: no finite positive stiffness for d=")

    # a gap below the rounding of l leaves d == l: the error names the gap
    @pytest.mark.parametrize("radius, gap", [("1e-10", "1e-320"), ("1e300", "1e-8")])
    def test_gap_lost_to_rounding_rejected(self, capsys, radius, gap):
        code = main(["estimate", "--atoms", "30", "--atom-radius", radius,
                     "--atomic-weight", "60.22", "--gap", gap])
        assert code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: gap_r={float(gap)!r} is below the rounding of l=")

    def test_atom_count_beyond_float_range(self, capsys):
        code = main(["estimate", "--atoms", str(10**400), "--atom-radius", "1e-10",
                     "--atomic-weight", "60.22", "--gap", "1e-8"])
        assert code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: n_atoms ")


class TestErrorHandling:
    def test_unknown_config_key_names_it(self, tmp_path, capsys):
        doc = {"params": PARAMS, "integrator": {"step": 1e-10}}
        code = main(["validate", "--config", write_config(tmp_path, doc)])
        assert code == 1
        assert "step" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["validate", "--config", str(tmp_path / "nope.json")])
        assert code == 1
        assert "nope.json" in capsys.readouterr().err

    def test_unknown_preset(self, capsys):
        assert main(["validate", "--preset", "nope"]) == 1
        assert "nope" in capsys.readouterr().err

    def test_config_and_preset_conflict(self, tmp_path):
        doc = {"params": PARAMS}
        with pytest.raises(SystemExit) as exc:
            main(["validate", "--config", write_config(tmp_path, doc),
                  "--preset", "paper-defaults"])
        assert exc.value.code == 1

    def test_source_required(self):
        with pytest.raises(SystemExit) as exc:
            main(["validate"])
        assert exc.value.code == 1

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 1

    @pytest.mark.parametrize("key", ["rel_tol", "abs_tol"])
    def test_infinite_tolerance_is_a_config_error(self, tmp_path, capsys, key):
        # with error control off, the far-from-plate reference design used to end as collision
        doc = {"params": PARAMS, "initial": {"phi0_rad": 0.2}, "integrator": {key: math.inf}}
        assert main(["period", "--config", write_config(tmp_path, doc), "--simulate"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invalid 'integrator' section")
        assert f"{key}=inf" in err

    def test_unwritable_output(self, tmp_path, capsys):
        doc = {"params": PARAMS, "initial": {"phi0_rad": 1e-3}}
        code = main(["simulate", "--config", write_config(tmp_path, doc),
                     "--out", str(tmp_path / "missing-dir" / "t.csv"),
                     "--report", str(tmp_path / "r.json")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    # the vacuum stiffness 2*l*w_ref^2 underflows to 0 (d 1e75) or to a
    # subnormal (d 1e72), so gravity's share of it is no finite float
    @pytest.mark.parametrize("d_m", [1e72, 1e75])
    @pytest.mark.parametrize("command", [["simulate", "--out", "t.csv", "--report", "r.json"],
                                         ["period", "--simulate"]])
    def test_gravity_ratio_beyond_float_range(self, tmp_path, capsys, monkeypatch, command, d_m):
        doc = {"params": dict(PARAMS, d_m=d_m), "initial": {"phi0_rad": 0.3}}
        cfg = write_config(tmp_path, doc)
        monkeypatch.chdir(tmp_path)
        assert main([*command[:1], "--config", cfg, *command[1:]]) == 1
        assert capsys.readouterr().err.startswith(
            "error: no finite gravity-to-vacuum stiffness ratio for d=")
        assert not (tmp_path / "t.csv").exists()


class TestParserReuse:
    """main builds its parser once per process; nothing of one call may
    reach the next."""

    SEQUENCE = [
        ["period", "--preset", "paper-defaults", "--simulate"],
        ["period", "--preset", "paper-defaults"],
        ["sweep", "--preset", "paper-defaults", "--param", "t_max", "--from", "1", "--to", "2",
         "--points", "2", "--out", "s.csv"],
        ["--help"],
        ["sweep", "--preset", "paper-defaults", "--param", "d_m", "--from", "1.5e-8",
         "--to", "3e-8", "--points", "3", "--out", "s.csv"],
        ["validate", "--preset", "paper-defaults"],
    ]

    @staticmethod
    def outcome(argv, capsys, tmp_path):
        (tmp_path / "s.csv").unlink(missing_ok=True)
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        written = (tmp_path / "s.csv").read_bytes() if (tmp_path / "s.csv").exists() else None
        return code, captured.out, captured.err, written

    def test_sequence_equals_fresh_parsers(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        build_parser.cache_clear()
        reused = [self.outcome(argv, capsys, tmp_path) for argv in self.SEQUENCE]
        assert build_parser.cache_info().misses == 1
        monkeypatch.setattr(cli, "build_parser", build_parser.__wrapped__)  # fresh per call
        fresh = [self.outcome(argv, capsys, tmp_path) for argv in self.SEQUENCE]
        assert reused == fresh

        simulated, analytic, usage, help_, sweep, validated = reused
        assert simulated[0] == 0 and simulated[1].endswith("T_simulated = 3.7334e-07 s\n")
        assert analytic[0] == 0 and "T_simulated" not in analytic[1]
        assert usage[0] == 1 and usage[1] == ""
        assert usage[2].startswith("usage: casimir-pendulum sweep ")
        assert "invalid choice: 't_max'" in usage[2]
        assert help_[0] == 0 and help_[1].startswith("usage: casimir-pendulum ")
        assert sweep[0] == 0 and sweep[3].count(b"\n") == 4
        assert validated[0] == 0 and json.loads(validated[1])["verdict"] is True

    def test_usage_goes_to_the_current_stderr(self):
        streams = [io.StringIO(), io.StringIO()]
        for stream in streams:
            with contextlib.redirect_stderr(stream), pytest.raises(SystemExit) as exc:
                main(["validate"])
            assert exc.value.code == 1
        assert streams[0].getvalue() == streams[1].getvalue()
        assert streams[0].getvalue().startswith("usage: casimir-pendulum validate ")

    def test_import_builds_no_parser(self):
        probe = ("import casimir_pendulum.cli as cli\n"
                 "assert cli.build_parser.cache_info().currsize == 0\n")
        env = dict(os.environ, PYTHONPATH=str(Path(casimir_pendulum.__file__).parents[1]))
        result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                                text=True, timeout=30)
        assert result.returncode == 0, result.stderr


def test_runs_without_the_test_extras(tmp_path):
    """The runtime needs numpy only: period --simulate, sweep and validate
    run with scipy and hypothesis unimportable."""
    probe = ("import sys\n"
             "sys.modules['scipy'] = sys.modules['hypothesis'] = None\n"
             "from casimir_pendulum.cli import main\n"
             "sys.exit(max(main(argv) for argv in [\n"
             "    ['period', '--preset', 'paper-defaults', '--simulate'],\n"
             "    ['sweep', '--preset', 'paper-defaults', '--param', 'd_m', '--from', '1.5e-8',\n"
             "     '--to', '3e-8', '--points', '3', '--out', 's.csv'],\n"
             "    ['validate', '--preset', 'paper-defaults']]))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(casimir_pendulum.__file__).parents[1]))
    result = subprocess.run([sys.executable, "-c", probe], cwd=tmp_path, env=env,
                            capture_output=True, text=True, timeout=30)
    assert result.returncode == 0, result.stderr
    assert "T_simulated = 3.7334e-07 s" in result.stdout
    assert (tmp_path / "s.csv").read_text().count("\n") == 4


def readme_cli_examples():
    """(argv, quoted) of each command in README's CLI block under which
    README quotes output: the text of its `#   ` lines."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    examples = []
    for line in block.replace("\\\n", " ").splitlines():
        if line.startswith("casimir-pendulum "):
            examples.append((shlex.split(line)[1:], []))
        elif line.startswith("#   ") and examples:
            examples[-1][1].append(line[4:])
    return [(argv, quoted) for argv, quoted in examples if quoted]


def test_readme_quotes_the_cli_output(tmp_path, capsys, monkeypatch):
    """Each output line README quotes under the preset's simulate and
    period --simulate commands is a line of that command's stdout."""
    examples = readme_cli_examples()
    assert [argv[:3] for argv, _ in examples] == [["simulate", "--preset", "paper-defaults"],
                                                  ["period", "--preset", "paper-defaults"]]
    monkeypatch.chdir(tmp_path)
    for argv, quoted in examples:
        assert main(argv) == 0
        out = capsys.readouterr().out.splitlines()
        assert [line for line in quoted if line not in out] == [], argv
