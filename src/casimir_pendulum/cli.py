"""Command-line interface.

Subcommands: simulate, period, sweep, validate, estimate.  Exit codes: 0 on
success, 1 on usage/config errors, 2 when a simulation ends by collision,
step exhaustion or a stall (a step that cannot advance time to a larger
finite value) rather than reaching t_max.  A sweep evaluates its points one
after another in this process; each row depends only on the base config and
its own value.
"""

import argparse
import json
import sys
from dataclasses import asdict

import numpy as np

from .analytic import linear_omega, linear_period
from .config import (
    SWEEPABLE_PARAMS,
    ConfigError,
    RunConfig,
    load_config,
    load_preset,
    params_to_dict,
)
from .design import NanostringSpec, estimate_params, validate
from .integrator import InsufficientCyclesError, Termination, estimate_period, integrate
from .pendulum import GeometryError, State
from .report import build_report, write_report_json, write_trajectory_csv

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


def build_parser() -> argparse.ArgumentParser:
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

    p_est = sub.add_parser("estimate", help="estimate pendulum parameters from atomic data")
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
    validity = validate(params, config.phi0_rad)
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

    initial = State(t=0.0, phi=config.phi0_rad, phi_dot=0.0)
    traj = integrate(params, initial, config.integrator)
    try:
        print(f"T_simulated = {estimate_period(traj).mean_period:.4e} s")
    except InsufficientCyclesError:
        print("T_simulated = n/a (fewer than 2 full cycles observed)")
    return EXIT_OK if traj.termination is Termination.COMPLETED else EXIT_PHYSICS


def _sweep_point(base: RunConfig, name: str,
                 value: float) -> tuple[float, float | None, float | None, bool]:
    """Evaluate one sweep point: (value, T_analytic, T_simulated, verdict).

    Points whose parameters are unbuildable or have no finite small-angle
    period carry verdict False and no periods; points that fail validation
    carry verdict False and skip the simulation.
    """
    try:
        config = base.with_swept_value(name, value)
        analytic = linear_period(config.params)
    except ValueError:  # includes ConfigError
        return value, None, None, False
    params = config.params
    if not validate(params, config.phi0_rad).verdict:
        return value, analytic, None, False

    simulated = None
    try:
        initial = State(t=0.0, phi=config.phi0_rad, phi_dot=0.0)
        traj = integrate(params, initial, config.integrator)
        simulated = estimate_period(traj).mean_period
    except (GeometryError, InsufficientCyclesError):
        pass
    return value, analytic, simulated, True


def cmd_sweep(args) -> int:
    config = _load_run_config(args)
    if not args.from_ < args.to:
        raise ConfigError(f"--from ({args.from_!r}) must be below --to ({args.to!r})")
    if args.points < 2:
        raise ConfigError(f"--points must be >= 2, got {args.points!r}")
    if args.log:
        if not args.from_ > 0:
            raise ConfigError(f"--log spacing needs --from > 0, got {args.from_!r}")
        values = np.geomspace(args.from_, args.to, args.points)
    else:
        values = np.linspace(args.from_, args.to, args.points)

    rows = [_sweep_point(config, args.param, float(v)) for v in values]

    def fmt(x: float | None) -> str:
        return "" if x is None else repr(float(x))

    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(SWEEP_HEADER) + "\n")
        for value, analytic, simulated, verdict in rows:
            fh.write(f"{fmt(value)},{fmt(analytic)},{fmt(simulated)},"
                     f"{'true' if verdict else 'false'}\n")
    print(f"wrote {len(rows)} rows to {args.out}")
    return EXIT_OK


def cmd_validate(args) -> int:
    config = _load_run_config(args)
    report = validate(config.params, config.phi0_rad)
    print(json.dumps(asdict(report), indent=2))
    return EXIT_OK


def cmd_estimate(args) -> int:
    spec = NanostringSpec(
        n_atoms=args.atoms,
        atom_radius=args.atom_radius,
        atomic_weight=args.atomic_weight,
    )
    params = estimate_params(spec, args.gap)
    print(json.dumps(params_to_dict(params), indent=2))
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
