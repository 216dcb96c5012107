"""Mutation checks: one-line mutants of src/ that named tier-1 tests must kill.

Each mutant copies src/ to a temporary directory, replaces one line that
must occur exactly once in its file, and runs its tests there with -x.  The
check fails if a mutant survives (its tests pass), if its line does not
occur exactly once, or if pytest ends other than by a failing test.  Run
from anywhere (pytest does not collect this file):

    python tests/mutants.py
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# (file under src/, old line, new line, why a test must kill it, test ids)
MUTANTS = [
    (
        "casimir_pendulum/integrator.py",
        "            live &= ~((accepted & (size8[0] >= MAX_ANGLE)) | np.isnan(err + acc8))",
        "            live &= ~((accepted & (size8[0] >= MAX_ANGLE)) | np.isnan(acc8))",
        "a lane with a NaN err must freeze, so that _advance decides its step",
        ["tests/test_integrator.py::TestLockstepLanes::test_nan_stage_sends_the_lane_to_advance"
         "[psi8_inf]"],
    ),
    (
        "casimir_pendulum/integrator.py",
        "    if reach_gap and d - l * math.cos(phi) <= gap:",
        "    if reach_gap and d - l * math.cos(phi) < gap:",
        "a start state with its tip exactly at the gap collides",
        ["tests/test_integrator.py::TestTerminations::test_collision_at_the_gap_exactly"],
    ),
    (
        "casimir_pendulum/integrator.py",
        "    inside = tau / w_ref < t < (tau + h) / w_ref and abs(phi_c) < MAX_ANGLE",
        "    inside = tau / w_ref < t < (tau + h) / w_ref and abs(phi_c) <= MAX_ANGLE",
        "no crossing row is kept at |phi| = pi/2, the angle limit",
        ["tests/test_integrator.py::TestCrossingRows::test_crossing_row_below_the_angle_limit"],
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
        result = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p",
                                 "no:cacheprovider", *tests], cwd=ROOT, env=env,
                                capture_output=True, text=True)
        if result.returncode == 1:  # a test failed: killed
            return None
        tail = "\n".join(result.stdout.splitlines()[-3:])
        return (f"it survives {' '.join(tests)}" if result.returncode == 0
                else f"pytest exited {result.returncode}:\n{tail}")


def main() -> int:
    alive = 0
    for path, old, new, why, tests in MUTANTS:
        reason = run(path, old, new, tests)
        print(f"{'killed' if reason is None else 'ALIVE '}  {path}: {new.strip()}")
        if reason is not None:
            alive += 1
            print(f"        {reason}; it must die because {why}")
    print(f"{len(MUTANTS) - alive} of {len(MUTANTS)} mutants killed")
    return 1 if alive else 0


if __name__ == "__main__":
    sys.exit(main())
