"""Mutation checks: one-line mutants of src/ that named tier-1 tests must kill.

Each mutant copies src/ to a temporary directory, replaces one line that
must occur exactly once in its file, and runs its tests there with -x and
the Hypothesis profile "no-shrink" (see tests/conftest.py), so that a
failing property reports its first failing example unshrunk.  The check
fails if a mutant survives (its tests pass), if its line does not
occur exactly once, if pytest ends other than by a failing test, or if its
tests run longer than BOUND_S.  Run from anywhere (pytest does not collect
this file):

    python tests/mutants.py

Not in the table: _crossing_row's finite-psi keep term, `abs(psi_c) <
math.inf`.  It makes the lanes' rows equal the float rows where math.sin
raises (np.sin's NaN reaches psi there, see _dp_trial), yet no input is
known on which it alone decides a row: of 400,000 random crossing steps
(log-uniform, gamma up to 1.7e308, h up to 1e300) none had a crossing state
inside its step with |phi| < pi/2 and psi not finite, so its `<=` mutant
survives every test.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BOUND_S = 30.0  # the longest a mutant's tests may take to kill it

# (file under src/, old line, new line, why a test must kill it, test ids); the ids are the
# fastest tier-1 tests found to kill each mutant
INTEGRATOR = "casimir_pendulum/integrator.py"
LANES = "tests/test_integrator.py::TestLockstepLanes::"
MUTANTS = [
    # the crossing rules, one site each
    (
        INTEGRATOR,
        "    return (p0 > 0.0) & (p1 <= 0.0)",
        "    return (p0 > 0.0) & (p1 < 0.0)",
        "a step from phi > 0 to exactly 0 crosses zero descending",
        ["tests/test_integrator.py::TestEstimatePeriod::test_crossing_that_lands_on_zero"],
    ),
    (
        INTEGRATOR,
        "    kept = ((tau / w_ref < t) & (t < (tau + h) / w_ref) & (abs(phi_c) < MAX_ANGLE)",
        "    kept = ((tau / w_ref <= t) & (t < (tau + h) / w_ref) & (abs(phi_c) < MAX_ANGLE)",
        "no crossing row is kept at its step's start time",
        ["tests/test_integrator.py::TestCrossingRows::test_crossing_row_strictly_inside_its_step"],
    ),
    (
        INTEGRATOR,
        "    kept = ((tau / w_ref < t) & (t < (tau + h) / w_ref) & (abs(phi_c) < MAX_ANGLE)",
        "    kept = ((tau / w_ref < t) & (t <= (tau + h) / w_ref) & (abs(phi_c) < MAX_ANGLE)",
        "no crossing row is kept at its step's end time",
        ["tests/test_integrator.py::TestCrossingRows::test_crossing_row_strictly_inside_its_step"],
    ),
    (
        INTEGRATOR,
        "    kept = ((tau / w_ref < t) & (t < (tau + h) / w_ref) & (abs(phi_c) < MAX_ANGLE)",
        "    kept = ((tau / w_ref < t) & (t < (tau + h) / w_ref) & (abs(phi_c) <= MAX_ANGLE)",
        "no crossing row is kept at |phi| = pi/2, the angle limit",
        ["tests/test_integrator.py::TestCrossingRows::test_crossing_row_below_the_angle_limit"],
    ),
    (
        INTEGRATOR,
        "    except ValueError:  # math.sin of a stage angle at +-inf",
        "    except ZeroDivisionError:",
        "a crossing step whose stage angle overflows keeps no row, and raises nothing",
        ["tests/test_integrator.py::TestCrossingRows"
         "::test_overflowing_crossing_step_keeps_no_row"],
    ),
    (
        INTEGRATOR,
        "    first, second = kept & _descends(phi_c, phi1), kept & _descends(phi, phi_c)"
        "  # the row's place",
        "    second, first = kept & _descends(phi_c, phi1), kept & _descends(phi, phi_c)",
        "a crossing is timed over the descending pair of its step's rows, on floats and lanes",
        ["tests/test_integrator.py::TestBatchedCrossingBrackets::test_equals_scalar_brackets"],
    ),
    # _advance and the runs it records
    (
        INTEGRATOR,
        "        except ValueError:  # math.sin of a stage angle that overflowed to inf: the angle"
        " limit",
        "        except ZeroDivisionError:",
        "a stage angle that overflows ends the run as angle_limit, not with an exception",
        ["tests/test_integrator.py::TestTerminations"
         "::test_overflowing_adaptive_stage_is_angle_limit"],
    ),
    (
        INTEGRATOR,
        "        record((tau / w_ref, phi, psi))",
        "        pass",
        "the last accepted state is recorded at any stride",
        ["tests/test_integrator.py::TestTrajectoryInvariants"
         "::test_record_stride_thins_but_keeps_endpoints"],
    ),
    (
        INTEGRATOR,
        "    reach_gap = d - l <= gap",
        "    reach_gap = False",
        "a run whose tip can reach the gap collides",
        ["tests/test_integrator.py::TestTerminations::test_collision_at_initial_state"],
    ),
    (
        INTEGRATOR,
        "    if reach_gap and d - l * math.cos(phi) <= gap:",
        "    if reach_gap and d - l * math.cos(phi) < gap:",
        "a start state with its tip exactly at the gap collides",
        ["tests/test_integrator.py::TestTerminations::test_collision_at_the_gap_exactly"],
    ),
    (
        INTEGRATOR,
        "            times.append(t)",
        "            if steps: times.append(t)",
        "a crossing in _advance's first step is timed from the state it starts from",
        [LANES + "test_lanes_equal_serial_runs"],
    ),
    (
        INTEGRATOR,
        "            times.append(t)",
        "            pass",
        "_advance hands on the time of every crossing it makes",
        ["tests/test_integrator.py::TestEstimatePeriod::test_single_crossing_is_insufficient"],
    ),
    (
        INTEGRATOR,
        "    return per_cycle, math.fsum(per_cycle) / len(per_cycle) if per_cycle else None",
        "    return per_cycle, sum(per_cycle) / len(per_cycle) if per_cycle else None",
        "the mean period is the float of the spacings' exact sum, in any order",
        [LANES + "test_lanes_equal_serial_runs"],
    ),
    # the quarter swing: a release from rest at phi0 > 0 ends at its first descending
    # crossing, and only such a run is timed by it
    (
        INTEGRATOR,
        "        stop, cap = (1, 0.5) if initial.phi > 0.0 else (2, 2.0)"
        "  # cap in bounds on T, >= T",
        "        stop, cap = (2, 1.5) if initial.phi > 0.0 else (2, 2.0)"
        "  # cap in bounds on T, >= T",
        "a default release from rest at phi0 > 0 ends with the step of its first crossing",
        ["tests/test_integrator.py::TestDefaultHorizon::test_release_from_rest_sees_one_cycle"],
    ),
    (
        INTEGRATOR,
        "        t_max = initial.t + cap * _period_bound(w_ref, lam, gamma, initial.phi)",
        "        t_max = cap * _period_bound(w_ref, lam, gamma, initial.phi)",
        "the cap of a release from rest counts from its start time",
        ["tests/test_integrator.py::TestDefaultHorizon::test_release_at_a_later_time"],
    ),
    (
        INTEGRATOR,
        "    rest = traj.phi_dot[0] == 0.0 and traj.phi[0] > 0.0  # see _mean_period",
        "    rest = traj.phi_dot[0] == 0.0 and traj.phi[0] != 0.0  # see _mean_period",
        "one crossing of a release from phi0 < 0 times no period",
        ["tests/test_integrator.py::TestEstimatePeriod::test_single_crossing_is_insufficient"],
    ),
    (
        INTEGRATOR,
        "        rest = initial.phi_dot == 0.0 and initial.phi > 0.0  # estimate_period's test",
        "        rest = initial.phi_dot == 0.0 and initial.phi != 0.0  # estimate_period's test",
        "one crossing of a lane released from phi0 < 0 times no period, as in estimate_period",
        ["tests/test_integrator.py::TestEstimatePeriod::test_single_crossing_is_insufficient"],
    ),
    (
        INTEGRATOR,
        "    per_cycle = ([4.0 * (times[0] - t0)] if t0 is not None and len(times) == 1",
        "    per_cycle = ([4.0 * (times[0] - t0)] if t0 is not None and len(times) >= 1",
        "a run from rest with two crossings or more is timed by their spacings",
        ["tests/test_integrator.py::TestEstimatePeriod::test_synthetic_unit_sinusoid"],
    ),
    # the steps' weights
    (
        INTEGRATOR,
        "    x = phi + h * (0.05260015195876773 * psi)",
        "    x = phi + h * (0.15260015195876773 * psi)",
        "a DOP853 stage weight is the tableau's",
        [LANES + "test_lane_steps_equal_scalar_steps"],
    ),
    (
        INTEGRATOR,
        "    e5_psi = (0.01312004499419488 * ka1 - 1.2251564463762044 * ka6"
        " - 0.4957589496572502 * ka7",
        "    e5_psi = (0.02312004499419488 * ka1 - 1.2251564463762044 * ka6"
        " - 0.4957589496572502 * ka7",
        "an error weight is the tableau's",
        [LANES + "test_lane_steps_equal_scalar_steps"],
    ),
    (
        INTEGRATOR,
        "    a2 = _accel(phi + 0.5 * h * psi, lam, gamma)",
        "    a2 = _accel(phi + 0.6 * h * psi, lam, gamma)",
        "an RK4 stage is the classical one",
        ["tests/test_integrator.py::TestReversibility::test_rk4_round_trip"],
    ),
    # the lockstep lanes
    (
        INTEGRATOR,
        "            live &= ~((accepted & (size8[0] >= MAX_ANGLE)) | np.isnan(err + acc8))",
        "            live &= ~((accepted & (size8[0] >= MAX_ANGLE)) | np.isnan(acc8))",
        "a lane with a NaN err must freeze, so that _advance decides its step",
        [LANES + "test_nan_stage_sends_the_lane_to_advance[psi8_inf]"],
    ),
    (
        INTEGRATOR,
        "            located = _crossing_row(*step, where=np.where, sin=np.sin)[2]",
        "            located = _crossing_row(*step, where=np.where, sin=np.sin)[0][0]",
        "a lane's crossing is timed over its step's rows, not by its crossing row's time",
        [LANES + "test_lanes_equal_serial_runs"],
    ),
    (
        INTEGRATOR,
        "                np.copyto(tau_end, tau_new, where=cross & (stop == 0.0))",
        "                pass",
        "a lane's stop-th crossing ends its run with that step, as in _advance",
        ["tests/test_integrator.py::TestDefaultHorizon::test_release_from_rest_sees_one_cycle"],
    ),
    # the run's inputs
    (
        "casimir_pendulum/analytic.py",
        "    if gamma == math.inf:",
        "    if False:",
        "a design with no finite gravity-to-vacuum ratio is refused, not run",
        ["tests/test_cli.py::TestErrorHandling::test_gravity_ratio_beyond_float_range"],
    ),
    (
        "casimir_pendulum/config.py",
        "    fields = dict(vars(params))",
        "    fields = vars(params)",
        "a sweep point is a copy, and the base params stay as they were",
        ["tests/test_config.py::TestSweptCopies::test_base_untouched"],
    ),
]


def run(path: str, old: str, new: str, tests: list[str]) -> str | None:
    """Why the mutant old -> new of src/path lives, or None if it is killed."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        target = src / path
        lines = target.read_text().split("\n")
        if lines.count(old) != 1:
            return f"its old line occurs {lines.count(old)} times in {path}"
        lines[lines.index(old)] = new
        target.write_text("\n".join(lines))
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
        where = subprocess.run([sys.executable, "-c", "import casimir_pendulum; "
                                "print(casimir_pendulum.__file__)"],
                               env=env, capture_output=True, text=True, check=True).stdout
        if not Path(where.strip()).is_relative_to(src):
            return f"the tests would import {where.strip()}, not the mutant"
        try:
            result = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p",
                                     "no:cacheprovider", "--hypothesis-profile=no-shrink",
                                     *tests], cwd=ROOT, env=env,
                                    capture_output=True, text=True, timeout=BOUND_S)
        except subprocess.TimeoutExpired:
            return f"its tests ran longer than {BOUND_S:g} s"
        if result.returncode == 1:  # a test failed: killed
            return None
        tail = "\n".join(result.stdout.splitlines()[-3:])
        return (f"it survives {' '.join(tests)}" if result.returncode == 0
                else f"pytest exited {result.returncode}:\n{tail}")


def main() -> int:
    alive = 0
    for path, old, new, why, tests in MUTANTS:
        lines = (ROOT / "src" / path).read_text().split("\n")
        line = lines.index(old) + 1 if old in lines else "?"
        start = time.perf_counter()
        reason = run(path, old, new, tests)
        print(f"{'killed' if reason is None else 'ALIVE '} {time.perf_counter() - start:5.1f} s  "
              f"{path}:{line}: {new.strip()}")
        if reason is not None:
            alive += 1
            print(f"        {reason}; it must die because {why}")
    print(f"{len(MUTANTS) - alive} of {len(MUTANTS)} mutants killed")
    return 1 if alive else 0


if __name__ == "__main__":
    sys.exit(main())
