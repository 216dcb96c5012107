"""End-to-end CLI behaviour: subcommands, artifacts, exit codes.

main() is called in-process; argparse usage failures surface as SystemExit
with code 1 (code 2 is reserved for physics terminations).
"""

import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import casimir_pendulum
from casimir_pendulum.cli import main

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


# the first RK4 step overflows a stage angle to inf (see test_integrator.py)
OVERFLOW_DOC = {
    "params": PARAMS,
    "initial": {"phi0_rad": 0.3},
    "integrator": {"method": "rk4_fixed", "dt": 1e283, "t_max": 1e300},
}


# at equilibrium the error estimate is 0, so the step grows tenfold each
# step; t_max * omega_ref overflows to inf, so only the stall test ends the run
HUGE_T_MAX_DOC = {"params": PARAMS, "integrator": {"t_max": 1e302}}


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

    def test_step_limit_exits_2(self, tmp_path):
        doc = {
            "params": PARAMS,
            "initial": {"phi0_rad": 1e-3},
            "integrator": {"max_steps": 10},
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
        assert json.loads(rep.read_text())["termination"] == "collision"
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
        assert all(a <= b for a, b in zip(periods, periods[1:]))

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
        # valid designs whose run ends at once as a collision: no period
        out = str(tmp_path / "s.csv")
        code = main(["sweep", "--config", write_config(tmp_path, OVERFLOW_DOC),
                     "--param", "beta", "--from", "1.5", "--to", "2", "--points", "2",
                     "--out", out])
        assert code == 0
        rows = read_csv(out)
        assert [(r["param_value"], r["T_simulated"], r["validity_verdict"]) for r in rows] == [
            ("1.5", "", "true"), ("2.0", "", "true")]

    def test_overflowing_end_time_writes_csv(self, tmp_path):
        cfg = write_config(tmp_path, HUGE_T_MAX_DOC)
        result = run_cli(["sweep", "--config", cfg, "--param", "d_m", "--from", "1.5e-8",
                          "--to", "3e-8", "--points", "2", "--out", "s.csv"], tmp_path)
        assert result.returncode == 0, result.stderr
        rows = read_csv(tmp_path / "s.csv")
        assert [(r["param_value"], r["T_simulated"], r["validity_verdict"]) for r in rows] == [
            ("1.5e-08", "", "true"), ("3e-08", "", "true")]

    def test_row_independent_of_other_points(self, tmp_path):
        """A point's row is the same bytes alone as among 20 points."""
        def data_lines(start, stop, points):
            out = str(tmp_path / "s.csv")
            assert main(["sweep", "--preset", "paper-defaults", "--param", "d_m",
                         "--from", repr(start), "--to", repr(stop), "--points", str(points),
                         "--log", "--out", out]) == 0
            with open(out) as fh:
                return fh.read().splitlines()[1:]

        values = np.geomspace(1.5e-8, 5e-8, 20).tolist()
        full = data_lines(values[0], values[-1], 20)
        for i in range(0, 20, 2):
            assert data_lines(values[i], values[i + 1], 2) == full[i:i + 2]

    def test_unknown_param_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--preset", "paper-defaults", "--param", "t_max",
                  "--from", "1", "--to", "2", "--points", "2",
                  "--out", str(tmp_path / "s.csv")])
        assert exc.value.code == 1

    def test_inverted_range_rejected(self, tmp_path):
        code = main(["sweep", "--preset", "paper-defaults", "--param", "beta",
                     "--from", "2", "--to", "1", "--points", "2",
                     "--out", str(tmp_path / "s.csv")])
        assert code == 1

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


class TestEstimate:
    def test_reference_chain(self, capsys):
        code = main(["estimate", "--atoms", "30", "--atom-radius", "1e-10",
                     "--atomic-weight", "60.22", "--gap", "1e-8"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["l_m"] == pytest.approx(9e-9, rel=1e-15)
        assert doc["mass_kg"] == pytest.approx(3e-24, rel=1e-12)
        assert doc["d_m"] == pytest.approx(1.9e-8, rel=1e-15)
        assert doc["alpha0_m3"] == 1e-30
        assert doc["omega0_rad_s"] == 1e15

    def test_two_atom_chain(self, capsys):
        assert main(["estimate", "--atoms", "2", "--atom-radius", "1e-10",
                     "--atomic-weight", "1.0", "--gap", "1e-8"]) == 0
        assert json.loads(capsys.readouterr().out)["l_m"] == pytest.approx(6e-10, rel=1e-15)

    def test_single_atom_rejected(self, capsys):
        code = main(["estimate", "--atoms", "1", "--atom-radius", "1e-10",
                     "--atomic-weight", "60.22", "--gap", "1e-8"])
        assert code == 1
        assert "n_atoms" in capsys.readouterr().err


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

    def test_unwritable_output(self, tmp_path, capsys):
        doc = {"params": PARAMS, "initial": {"phi0_rad": 1e-3}}
        code = main(["simulate", "--config", write_config(tmp_path, doc),
                     "--out", str(tmp_path / "missing-dir" / "t.csv"),
                     "--report", str(tmp_path / "r.json")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")
