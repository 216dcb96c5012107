"""Command-line interface.

Subcommands: simulate, period, sweep, validate, estimate.  Exit codes: 0 on
success, 1 on usage/config errors, 2 when a simulation ends by collision,
the angle limit (|phi| reaching pi/2, or a step that overflows), step
exhaustion or a stall (a step that cannot advance time to a larger finite
value) rather than reaching t_max; a sweep exits 2 when any of its
simulated points ends so, and still writes every row.  A sweep
integrates its valid points in this process and keeps only the rows around
the steps that cross zero, not each run's trajectory; each run, released
from rest, ends with the step of its second descending crossing.  Every
crossing time comes from one Hermite locator, on floats or on the lanes'
arrays: from _LOCKSTEP_MIN_LANES adaptive points up, the first steps of
their runs are taken together as numpy lanes, and integrate's own loop then
finishes every run (see the integrator module's docstring).  Each row
depends only on the base config and its own value.
`period --simulate` takes the same path with one run, which sets its cap,
steps, and locates and averages its crossings in plain Python.
"""

import argparse
import functools
import math
import sys
from dataclasses import asdict

import numpy as np

from .analytic import linear_omega, linear_period
from .config import (
    SWEEPABLE_PARAMS,
    ConfigError,
    RunConfig,
    _swept_params,
    load_config,
    load_preset,
    params_to_dict,
)
from .design import NanostringSpec, estimate_params, validate
from .integrator import Termination, _crossing_periods, integrate
from .pendulum import State
from .report import _strict_json, build_report, write_report_json, write_trajectory_csv

__all__ = ["main"]

DEFAULT_TRAJECTORY_CSV = "trajectory.csv"
DEFAULT_REPORT_JSON = "report.json"

SWEEP_HEADER = ("param_value", "T_analytic", "T_simulated", "validity_verdict")

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_PHYSICS = 2


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; this CLI reserves 2 for physics
    terminations, so usage errors exit 1 instead."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def _add_config_source(sub: argparse.ArgumentParser) -> None:
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--config", metavar="PATH", help="JSON run configuration file")
    group.add_argument("--preset", metavar="NAME",
                       help="bundled preset name (e.g. paper-defaults)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built by the first call in a process and returned
    by every later one, which parsing cannot change; argparse looks up
    sys.stdout and sys.stderr when it writes, not here."""
    parser = _Parser(
        prog="casimir-pendulum",
        description="Simulate a nanostring pendulum restored by the Casimir-Polder force.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run a simulation; write trajectory CSV + report JSON")
    _add_config_source(p_sim)
    p_sim.add_argument("--out", metavar="CSV", help="trajectory output path")
    p_sim.add_argument("--report", metavar="JSON", help="report output path")
    p_sim.set_defaults(func=cmd_simulate)

    p_per = sub.add_parser("period", help="print analytic angular frequency and period")
    _add_config_source(p_per)
    p_per.add_argument("--simulate", action="store_true",
                       help="also integrate and print the measured period")
    p_per.set_defaults(func=cmd_period)

    p_swp = sub.add_parser("sweep", help="sweep one parameter; write period-vs-value CSV")
    _add_config_source(p_swp)
    p_swp.add_argument("--param", required=True, choices=SWEEPABLE_PARAMS,
                       help="parameter to sweep")
    p_swp.add_argument("--from", dest="from_", metavar="V", type=float, required=True,
                       help="first value")
    p_swp.add_argument("--to", metavar="V", type=float, required=True, help="last value")
    p_swp.add_argument("--points", metavar="N", type=int, required=True,
                       help="number of sweep points (>= 2)")
    p_swp.add_argument("--log", action="store_true", help="logarithmic spacing")
    p_swp.add_argument("--out", metavar="CSV", required=True, help="sweep output path")
    p_swp.set_defaults(func=cmd_sweep)

    p_val = sub.add_parser("validate", help="print the regime-validity report as JSON")
    _add_config_source(p_val)
    p_val.set_defaults(func=cmd_validate)

    p_est = sub.add_parser("estimate",
                           help="print a run config of parameters estimated from atomic data")
    p_est.add_argument("--atoms", metavar="N", type=int, required=True,
                       help="number of atoms in the chain")
    p_est.add_argument("--atom-radius", metavar="M", type=float, required=True,
                       help="atom radius, m")
    p_est.add_argument("--atomic-weight", metavar="W", type=float, required=True,
                       help="atomic weight, g/mol")
    p_est.add_argument("--gap", metavar="M", type=float, required=True,
                       help="tip-plate gap at rest, m")
    p_est.set_defaults(func=cmd_estimate)

    return parser


def _load_run_config(args) -> RunConfig:
    if args.config is not None:
        return load_config(args.config)
    return load_preset(args.preset)


def cmd_simulate(args) -> int:
    config = _load_run_config(args)
    params = config.params
    validity = validate(params, config.phi0_rad, gap=config.integrator.collision_gap)
    initial = State(t=0.0, phi=config.phi0_rad, phi_dot=0.0)
    traj = integrate(params, initial, config.integrator)
    report = build_report(traj, validity)

    csv_path = args.out or config.trajectory_csv or DEFAULT_TRAJECTORY_CSV
    json_path = args.report or config.report_json or DEFAULT_REPORT_JSON
    write_trajectory_csv(traj, csv_path)
    write_report_json(report, json_path)

    print(f"termination = {traj.termination.value}")
    print(f"samples = {len(traj)}")
    print(f"wrote {csv_path} and {json_path}")
    return EXIT_OK if traj.termination is Termination.COMPLETED else EXIT_PHYSICS


def cmd_period(args) -> int:
    config = _load_run_config(args)
    params = config.params
    print(f"omega_analytic = {linear_omega(params):.4e} rad/s")
    print(f"T_analytic = {linear_period(params):.4e} s")
    if not args.simulate:
        return EXIT_OK

    # load_config has rejected |phi0| >= pi/2, so the run has a termination
    initial = State(t=0.0, phi=config.phi0_rad, phi_dot=0.0)
    [(termination, period)] = _crossing_periods([(params, initial)], config.integrator)
    print(f"termination = {termination.value}")
    if period is None:
        print("T_simulated = n/a (fewer than 2 descending zero crossings)")
    else:
        print(f"T_simulated = {period:.4e} s")
    return EXIT_OK if termination is Termination.COMPLETED else EXIT_PHYSICS


def cmd_sweep(args) -> int:
    config = _load_run_config(args)
    if not args.from_ < args.to:
        raise ConfigError(f"--from ({args.from_!r}) must be below --to ({args.to!r})")
    if not math.isfinite(args.to - args.from_):  # an infinite end, or a span that overflows
        raise ConfigError(f"--from ({args.from_!r}) to --to ({args.to!r}) is not a finite range")
    if args.points < 2:
        raise ConfigError(f"--points must be >= 2, got {args.points!r}")
    if args.log:
        if not args.from_ > 0:
            raise ConfigError(f"--log spacing needs --from > 0, got {args.from_!r}")
        values = np.geomspace(args.from_, args.to, args.points)
    else:
        values = np.linspace(args.from_, args.to, args.points)

    # Each row is [value, T_analytic, T_simulated, verdict]. Points whose
    # parameters parse_config would reject carry verdict False and no
    # periods; points that fail validation carry verdict False and are not
    # simulated; the rest are integrated together.  A point's params are
    # built as with_swept_value builds them, and the params or start state
    # that the swept value leaves as they are serve every point.
    rows = []
    runs = []
    gap = config.integrator.collision_gap
    params, phi0 = config.params, config.phi0_rad
    analytic, initial = linear_period(params), State(t=0.0, phi=phi0, phi_dot=0.0)
    for value in values.tolist():
        if args.param == "phi0_rad":
            phi0, initial = value, None
        else:
            try:
                params = _swept_params(config.params, args.param, value)
                analytic = linear_period(params)  # raises where with_swept_value does
            except ValueError:
                rows.append([value, None, None, False])
                continue
        verdict = validate(params, phi0, gap=gap).verdict
        rows.append([value, analytic, None, verdict])
        if verdict:
            runs.append((params, initial or State(t=0.0, phi=phi0, phi_dot=0.0)))
    results = _crossing_periods(runs, config.integrator)
    periods = iter(results)
    for row in rows:
        if row[3]:
            row[2] = next(periods)[1]
    unfinished = sum(termination is not Termination.COMPLETED for termination, _ in results)

    def fmt(x: float | None) -> str:
        return "" if x is None else repr(float(x))

    lines = [",".join(SWEEP_HEADER)] + [
        f"{fmt(value)},{fmt(analytic)},{fmt(simulated)},{'true' if verdict else 'false'}"
        for value, analytic, simulated, verdict in rows]
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")  # a write per row took about a fifth of the writer
    print(f"wrote {len(rows)} rows to {args.out}")
    if unfinished:
        print(f"not completed = {unfinished} of {len(results)} simulated points")
        return EXIT_PHYSICS
    return EXIT_OK


def cmd_validate(args) -> int:
    config = _load_run_config(args)
    report = validate(config.params, config.phi0_rad, gap=config.integrator.collision_gap)
    print(_strict_json(asdict(report)))
    return EXIT_OK


def cmd_estimate(args) -> int:
    spec = NanostringSpec(
        n_atoms=args.atoms,
        atom_radius=args.atom_radius,
        atomic_weight=args.atomic_weight,
    )
    params = estimate_params(spec, args.gap)
    linear_omega(params)  # rejects params no run accepts, as load_config does
    print(_strict_json({"params": params_to_dict(params)}))  # a --config file
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # includes ConfigError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
