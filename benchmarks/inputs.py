"""Seeded input generator for the benchmark workloads.

Each workload turns its seed into config files in a work directory and a
list of CLI invocations ("operations") that read them.  The program sees
only those files and arguments.  The same seed always gives the same files
and the same operations, byte for byte.

Designs are drawn by stratified (Latin hypercube) sampling: every seed
covers the whole parameter range, and the seed only moves each design
within its stratum.  Medians and maxima over a round of designs then
depend on the program, not on which corner of the range a seed happened
to favour.
"""

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

from casimir_pendulum.analytic import linear_period
from casimir_pendulum.config import parse_config
from casimir_pendulum.design import validate

# The reference design of the paper (README "Model").
REFERENCE_PARAMS = {
    "d_m": 2e-8,
    "l_m": 1e-8,
    "mass_kg": 1e-24,
    "alpha0_m3": 1e-30,
    "omega0_rad_s": 1e15,
    "beta": 2.0,
    "include_gravity": True,
}

LONG_SWING_DESIGNS = 6
LONG_SWING_PERIODS = 100
LONG_SWING_PHI0 = (0.15, 0.3)

PERIOD_CHECK_DESIGNS = 30
PERIOD_CHECK_D = (1.5e-8, 4e-8)
PERIOD_CHECK_L_OVER_D = (0.3, 0.7)
PERIOD_CHECK_PHI0 = (1e-3, 0.5)  # log-uniform; designs failing validate are redrawn

SWEEP_POINTS = 200
SWEEP_RANGE = (1.5e-8, 5e-8)
SWEEP_JITTER = 0.02  # each end moves by up to 2 %


@dataclass(frozen=True)
class Operation:
    """One CLI invocation.

    argv      -- arguments for casimir_pendulum.cli.main, paths relative to
                 the work directory
    key       -- identity of the inputs; repeats of a key must produce
                 identical output
    config    -- the config file the invocation reads
    designs   -- designs the invocation evaluates (sweep points for sweep)
    artifacts -- files the invocation writes
    """

    argv: tuple[str, ...]
    key: str
    config: str
    designs: int = 1
    artifacts: tuple[str, ...] = ()


@dataclass(frozen=True)
class Workload:
    """A round of operations; a run repeats whole rounds."""

    kind: str  # the CLI subcommand: simulate, period or sweep
    operations: tuple[Operation, ...]


def _write_config(workdir: Path, name: str, document: dict) -> str:
    (workdir / name).write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")
    return name


def _strata(rng: random.Random, n: int) -> list[float]:
    """n uniform draws in [0, 1), one per stratum, in shuffled order."""
    draws = [(i + rng.random()) / n for i in range(n)]
    rng.shuffle(draws)
    return draws


def _log_uniform(u: float, lo: float, hi: float) -> float:
    return math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


def long_swing(rng: random.Random, workdir: Path) -> Workload:
    t_max = LONG_SWING_PERIODS * linear_period(parse_config({"params": REFERENCE_PARAMS}).params)
    lo, hi = LONG_SWING_PHI0
    ops = []
    for k, u in enumerate(sorted(_strata(rng, LONG_SWING_DESIGNS))):
        config = _write_config(workdir, f"swing-{k}.json", {
            "params": REFERENCE_PARAMS,
            "initial": {"phi0_rad": lo + u * (hi - lo)},
            "integrator": {"method": "rk45_adaptive", "t_max": t_max, "record_stride": 1},
        })
        csv, report = f"traj-{k}.csv", f"report-{k}.json"
        ops.append(Operation(
            argv=("simulate", "--config", config, "--out", csv, "--report", report),
            key=config, config=config, artifacts=(csv, report),
        ))
    return Workload("simulate", tuple(ops))


def _period_design(u_d: float, u_ratio: float, u_phi: float) -> dict:
    (d_lo, d_hi), (r_lo, r_hi) = PERIOD_CHECK_D, PERIOD_CHECK_L_OVER_D
    d = d_lo + u_d * (d_hi - d_lo)
    ratio = r_lo + u_ratio * (r_hi - r_lo)
    return {
        "params": dict(REFERENCE_PARAMS, d_m=d, l_m=ratio * d),
        "initial": {"phi0_rad": _log_uniform(u_phi, *PERIOD_CHECK_PHI0)},
    }


def period_check(rng: random.Random, workdir: Path) -> Workload:
    columns = [_strata(rng, PERIOD_CHECK_DESIGNS) for _ in range(3)]
    ops = []
    for k, draw in enumerate(zip(*columns)):
        document = _period_design(*draw)
        while True:
            config = parse_config(document)
            if validate(config.params, config.phi0_rad).verdict:
                break
            document = _period_design(rng.random(), rng.random(), rng.random())
        name = _write_config(workdir, f"design-{k:02d}.json", document)
        ops.append(Operation(argv=("period", "--config", name, "--simulate"), key=name,
                             config=name))
    return Workload("period", tuple(ops))


def sweep_200(rng: random.Random, workdir: Path) -> Workload:
    lo = SWEEP_RANGE[0] * (1.0 + SWEEP_JITTER * (2.0 * rng.random() - 1.0))
    hi = SWEEP_RANGE[1] * (1.0 + SWEEP_JITTER * (2.0 * rng.random() - 1.0))
    config = _write_config(workdir, "sweep-base.json", {
        "params": REFERENCE_PARAMS,
        "initial": {"phi0_rad": 1e-3},
        "integrator": {"method": "rk45_adaptive"},
    })
    op = Operation(
        argv=("sweep", "--config", config, "--param", "d_m", "--from", repr(lo), "--to", repr(hi),
              "--points", str(SWEEP_POINTS), "--log", "--out", "sweep.csv"),
        key=config, config=config, designs=SWEEP_POINTS, artifacts=("sweep.csv",),
    )
    return Workload("sweep", (op,))


GENERATORS = {"long-swing": long_swing, "period-check": period_check, "sweep-200": sweep_200}


def generate(name: str, seed: int, workdir: Path) -> Workload:
    """Write the config files of workload `name` for `seed` into workdir."""
    if name not in GENERATORS:
        raise ValueError(f"unknown workload {name!r}; choose from {sorted(GENERATORS)}")
    workdir.mkdir(parents=True, exist_ok=True)
    return GENERATORS[name](random.Random(f"{name}:{seed}"), workdir)
