"""Benchmark entry point: one workload, one seed, one run.

    python3 benchmarks/run.py --workload long-swing --seed 1 --seconds 25 --trace 0

The program is imported from the src/ directory of the checkout this file
sits in, never from an installed copy; without it the run fails.

--trace 0 times whole CLI invocations (in-process casimir_pendulum.cli.main
calls) with no tracing and reports the end-to-end metrics.  --trace 1
follows each untraced invocation with a traced serial evaluation of the
same inputs through the public functions (replay.py), and reports the
per-layer metrics and the tracing overhead.  Set-up time is measured in cold
interpreters.  Every invocation is checked by the gate (gate.py).  The last
line of standard output is the JSON result; a readable summary goes to
standard error, and the traced run writes its spans to .bench_out/.
Metric names and units come from BENCHMARK.json.
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "casimir_pendulum" / "__init__.py").is_file():
    sys.exit(f"error: program source not found under {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from casimir_pendulum import cli  # noqa: E402
from casimir_pendulum.config import load_config  # noqa: E402
from casimir_pendulum.integrator import (  # noqa: E402
    Termination,
    Trajectory,
    energy_drift,
    estimate_period,
)

import gate as gates  # noqa: E402
from calibration import START_REFERENCE_S, Calibrator  # noqa: E402
import inputs  # noqa: E402
import replay  # noqa: E402
import spans  # noqa: E402

SPEC_PATH = ROOT / "BENCHMARK.json"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"

SETUP_SAMPLES = 15

MIN_ROUNDS = 2  # every input runs at least twice, so repeats can be compared
EPSILON = 2.0 ** -52  # floor for an energy drift of exactly 0 before taking log10

_SETUP_PROBE = (
    "import time\n"
    "t0 = time.clock_gettime_ns(time.CLOCK_MONOTONIC)\n"
    "import numpy\n"
    "t1 = time.clock_gettime_ns(time.CLOCK_MONOTONIC)\n"
    "import casimir_pendulum.cli\n"
    "t2 = time.clock_gettime_ns(time.CLOCK_MONOTONIC)\n"
    "print(t0, t1, t2, casimir_pendulum.cli.__file__)\n"
)

TIMINGS = ("setup_s", "op_ms_p50", "designs_per_s", "cpu_ms_per_design")

# Per-layer metric -> the span whose self time it reports.
LAYER_SPANS = {
    "config.load_config_s": "config.load_config",
    "design.validate_s": "design.validate",
    "integrator.integrate_s": "integrator.integrate",
    "integrator.estimate_period_s": "integrator.estimate_period",
    "integrator.energy_drift_s": "integrator.energy_drift",
    "report.build_report_s": "report.build_report",
    "report.write_trajectory_csv_s": "report.write_trajectory_csv",
    "report.write_report_json_s": "report.write_report_json",
}


class ColdStart(NamedTuple):
    """One cold interpreter start, timed in a child process."""

    setup_s: float  # as measured
    numpy_import_s: float
    package_import_s: float
    scale: float  # to the reference speed (calibration.py)

    def at_reference(self) -> float:
        return START_REFERENCE_S + self.package_import_s * self.scale


@dataclass
class Observation:
    """What one CLI invocation did, gathered outside its timed window."""

    key: str
    exit_code: object
    stdout: str
    digest: str
    wall_s: float
    cpu_s: float
    designs: int
    timed: bool
    error: str | None
    scale: float = 1.0  # to the reference speed (calibration.py)


def _cpu_s() -> float:
    """CPU seconds of this process and of its reaped children (pool workers)."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def measure_setup(samples: int) -> list[ColdStart]:
    """Time `samples` cold interpreter starts.

    One extra start is made first and discarded: it fills the bytecode
    cache, which users pay once, not on every run.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = []
    with Calibrator() as cal:
        for i in range(samples + 1):
            begin = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
            probe = subprocess.run([sys.executable, "-c", _SETUP_PROBE], env=env, cwd=ROOT,
                                   capture_output=True, text=True, check=True, timeout=60)
            elapsed = (time.clock_gettime_ns(time.CLOCK_MONOTONIC) - begin) * 1e-9
            t0, t1, t2, where = probe.stdout.split()
            if not Path(where).resolve().is_relative_to(SRC):
                raise RuntimeError(f"cold interpreter imported the program from {where}")
            scale = cal.scale_after(elapsed)
            if i:
                out.append(ColdStart((int(t2) - begin) * 1e-9, (int(t1) - int(t0)) * 1e-9,
                                     (int(t2) - int(t1)) * 1e-9, scale))
    return out


def run_operation(op, timed: bool) -> Observation:
    buf = io.StringIO()
    error = None
    with contextlib.redirect_stdout(buf):
        cpu0 = _cpu_s()
        t0 = time.perf_counter()
        try:
            code = cli.main(list(op.argv))
        except SystemExit as exc:
            code = exc.code
        except Exception:
            code = None
            error = traceback.format_exc().strip().splitlines()[-1]
        wall = time.perf_counter() - t0
        cpu = _cpu_s() - cpu0
    digest = hashlib.sha256(buf.getvalue().encode())
    for name in op.artifacts:
        with contextlib.suppress(OSError):
            digest.update(Path(name).read_bytes())
    return Observation(op.key, code, buf.getvalue(), digest.hexdigest(), wall, cpu,
                       op.designs, timed, error)


def cli_loop(workload, budget_s: float) -> list[Observation]:
    """One untimed warm-up invocation, then whole rounds until the budget
    is spent and every input has run MIN_ROUNDS times.  Calibration runs on
    as many cores as the invocations use."""
    observations = [run_operation(workload.operations[0], timed=False)]
    with Calibrator(_cores(workload)) as cal:
        start = time.perf_counter()
        rounds = 0
        while rounds < MIN_ROUNDS or time.perf_counter() - start < budget_s:
            for op in workload.operations:
                obs = run_operation(op, timed=True)
                obs.scale = cal.scale_after(obs.wall_s)
                observations.append(obs)
            rounds += 1
    return observations


def _cores(workload) -> int:
    """Cores an invocation keeps busy: the sweep's process pool uses them all."""
    return os.cpu_count() if workload.kind == "sweep" else 1


def replay_operation(tracer, kind: str, op) -> tuple[list, int]:
    """Evaluate one operation serially: (designs integrated, CSV bytes written)."""
    args = cli.build_parser().parse_args(list(op.argv))
    if kind == "simulate":
        csv_path = "replay-" + args.out
        design, _ = replay.simulate(tracer, args.config, csv_path, "replay-" + args.report)
        return [design], os.path.getsize(csv_path)
    if kind == "period":
        return [replay.period(tracer, args.config)], 0
    _, designs = replay.sweep(tracer, args.config, args.param, args.from_, args.to,
                              args.points, args.log)
    return designs, 0


def reference(kind: str, op) -> tuple[list[str], list]:
    """Checks that hold for every repeat of `op`, and the designs it
    integrated: read back from its artifacts (simulate) or evaluated
    serially through the public functions (period, sweep)."""
    if kind == "simulate":
        report = json.loads(Path(op.artifacts[1]).read_text(encoding="utf-8"))
        config = load_config(op.config)
        cols = np.loadtxt(op.artifacts[0], delimiter=",", skiprows=1, ndmin=2)
        traj = Trajectory(*cols.T, params=config.params,
                          termination=Termination(report["termination"]))
        reported = report["simulated_period_s"]
        reasons = []
        if reported is not None and reported != estimate_period(traj).mean_period:
            reasons.append("report period differs from the period of its CSV")
        return reasons, [replay.Design(config.params, config.phi0_rad, traj, reported)]
    null = spans.NullTracer()
    args = cli.build_parser().parse_args(list(op.argv))
    if kind == "period":
        return [], [replay.period(null, args.config)]
    lines, designs = replay.sweep(null, args.config, args.param, args.from_, args.to,
                                  args.points, args.log)
    written = Path(args.out).read_text(encoding="utf-8").splitlines()[1:]
    return gates.check_rows(written, lines), designs


def evaluate(workload, observations) -> tuple[gates.Gate, dict, int]:
    """Gate every observation; return (gate, accuracy metrics, designs integrated)."""
    shared: dict[str, list[str]] = {}
    stdout_line: dict[str, str] = {}
    cycle_errs, drifts, period_errs = [], [], []
    integrated = 0
    for op in workload.operations:
        reasons, designs = reference(workload.kind, op)
        integrated += len(designs)
        for d in designs:
            oracle = gates.quadrature_period(d.params, d.phi0)
            reasons += gates.check_termination(d.trajectory.termination.value)
            reasons += gates.check_period(d.period, oracle)
            if d.period is not None:
                period_errs.append(abs(d.period - oracle) / oracle)
                cycles = estimate_period(d.trajectory).per_cycle_periods
                cycle_errs.extend(((cycles - oracle) / oracle).tolist())
            drifts.append(energy_drift(d.trajectory))
        if workload.kind == "period" and designs[0].period is not None:
            stdout_line[op.key] = f"T_simulated = {designs[0].period:.4e} s"
        shared[op.key] = reasons

    gate = gates.Gate()
    first_digests: dict[str, str] = {}
    for i, obs in enumerate(observations):
        reasons = gates.check_exit(obs.exit_code) + shared[obs.key]
        reasons += gates.check_repeat(obs.key, obs.digest, first_digests)
        line = stdout_line.get(obs.key)
        if line is not None and line not in obs.stdout.splitlines():
            reasons.append(f"stdout lacks {line!r}")
        if obs.error:
            reasons.append(obs.error)
        gate.record(f"#{i} {obs.key}", reasons)

    accuracy = {
        "period_err_digits": -math.log10(math.sqrt(statistics.fmean(e * e for e in cycle_errs)))
        if cycle_errs else 0.0,
        "energy_drift_digits": statistics.fmean(-math.log10(max(x, EPSILON)) for x in drifts)
        if drifts else 0.0,
        "integrator.period_rel_err_max": max(period_errs, default=0.0),
        "integrator.energy_drift_max": max(drifts, default=0.0),
    }
    return gate, accuracy, integrated


def end_to_end(observations, setup, accuracy, calibrated=True) -> dict[str, float]:
    """Times at the reference speed (calibration.py), or as measured."""
    timed = [o for o in observations if o.timed]
    scales = [o.scale if calibrated else 1.0 for o in timed]
    walls = [o.wall_s * k for o, k in zip(timed, scales)]
    designs = sum(o.designs for o in timed)
    return {
        "setup_s": statistics.median(c.at_reference() if calibrated else c.setup_s
                                     for c in setup),
        "op_ms_p50": 1e3 * statistics.median(walls),
        "designs_per_s": designs / sum(walls),
        "cpu_ms_per_design": 1e3 * sum(o.cpu_s * k for o, k in zip(timed, scales)) / designs,
        "period_err_digits": accuracy["period_err_digits"],
        "energy_drift_digits": accuracy["energy_drift_digits"],
    }


@dataclass
class Sample:
    """One operation of the traced run: the untraced CLI invocation and the
    traced serial evaluation of the same inputs that follows it."""

    key: str
    cli_wall_s: float
    traced_wall_s: float
    designs: list
    csv_bytes: int


def trace_loop(workload, budget_s: float):
    """Like cli_loop, but each invocation is followed by its traced serial
    evaluation, so the two are neighbours in time.  The tracer's operation
    id is the index of the sample."""
    observations = [run_operation(workload.operations[0], timed=False)]
    tracer = spans.Tracer()
    samples: list[Sample] = []
    start = time.perf_counter()
    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() - start < budget_s:
        for op in workload.operations:
            obs = run_operation(op, timed=True)
            observations.append(obs)
            tracer.op = len(samples)
            t0 = time.perf_counter()
            designs, csv_bytes = replay_operation(tracer, workload.kind, op)
            samples.append(Sample(op.key, obs.wall_s, time.perf_counter() - t0, designs,
                                  csv_bytes))
        rounds += 1
    return observations, tracer, samples


def per_layer(workload, setup, accuracy, tracer, samples) -> dict[str, float]:
    self_times = tracer.self_times()
    top = tracer.top_level_s()
    ops = range(len(samples))
    workers = _cores(workload)
    metrics = {name: statistics.median(self_times[i].get(span, 0.0) for i in ops)
               for name, span in LAYER_SPANS.items()}
    steps = [sum(len(d.trajectory) - 1 for d in s.designs) for s in samples]
    integrate_s = sum(self_times[i].get("integrator.integrate", 0.0) for i in ops)
    csv_s = sum(self_times[i].get("report.write_trajectory_csv", 0.0) for i in ops)
    csv_bytes = [s.csv_bytes for s in samples]
    count = tracer.spans_per_op()
    span_cost = spans.span_cost_s()
    metrics.update({
        "setup.numpy_import_s": statistics.median(c.numpy_import_s for c in setup),
        "setup.package_import_s": statistics.median(c.package_import_s for c in setup),
        "integrator.accepted_steps": statistics.median(steps),
        "integrator.us_per_step": 1e6 * integrate_s / max(1, sum(steps)),
        "integrator.period_rel_err_max": accuracy["integrator.period_rel_err_max"],
        "integrator.energy_drift_max": accuracy["integrator.energy_drift_max"],
        "report.csv_bytes": statistics.median(csv_bytes),
        "report.csv_MB_per_s": 1e-6 * sum(csv_bytes) / csv_s if csv_s else 0.0,
        "cli.self_s":
            statistics.median(s.cli_wall_s - top[i] / workers for i, s in enumerate(samples)),
        "cli.sweep_points_simulated":
            statistics.median(len(s.designs) for s in samples) if workload.kind == "sweep" else 0,
        "cli.sweep_parallel_eff":
            statistics.median(top[i] / (s.cli_wall_s * workers) for i, s in enumerate(samples)),
        "trace.overhead_frac": statistics.median(
            n * span_cost / (s.traced_wall_s - n * span_cost)
            for s, n in zip(samples, (count[i] for i in ops))),
    })
    return metrics


def run(args, spec, workdir: Path) -> dict:
    setup = measure_setup(SETUP_SAMPLES)
    workload = inputs.generate(args.workload, args.seed, workdir)
    os.chdir(workdir)
    if args.trace:
        observations, tracer, samples = trace_loop(workload, args.seconds)
    else:
        observations = cli_loop(workload, args.seconds)
    gate, accuracy, integrated = evaluate(workload, observations)
    if args.trace:
        values = per_layer(workload, setup, accuracy, tracer, samples)
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.json")
        section = spec["per_layer"]
    else:
        values = end_to_end(observations, setup, accuracy)
        section = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in section}
    _summary(args, gate, integrated, metrics)
    if not args.trace:
        # The timings without calibration, so its effect on the spread stays visible.
        measured = end_to_end(observations, setup, accuracy, calibrated=False)
        print("  as measured: " + ", ".join(f"{name} {measured[name]:.6g}" for name in TIMINGS),
              file=sys.stderr)
    return {"correct": gate.failed == 0, "attempted": gate.attempted, "failed": gate.failed,
            "metrics": metrics}


def _summary(args, gate, integrated, metrics) -> None:
    err = sys.stderr
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{gate.attempted} operations, {gate.failed} failed "
          f"(ops_failed_frac {gate.failed_frac:g}), {integrated} designs checked", file=err)
    for label, reasons in gate.failures[:10]:
        print(f"  FAIL {label}: {'; '.join(reasons)}", file=err)
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}", file=err)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported the program from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC_PATH.read_text(encoding="utf-8"))
    workdir = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    try:
        result = run(args, spec, workdir)
    finally:
        os.chdir(ROOT)
        shutil.rmtree(workdir, ignore_errors=True)
    if not _children_ended(timeout_s=10.0):
        print("error: a child process is still running", file=sys.stderr)
        return 3
    print(json.dumps(result))
    return 0


def _children_ended(timeout_s: float) -> bool:
    """Reap every ended child; True once none is left, False if one is
    still running after timeout_s."""
    deadline = time.monotonic() + timeout_s
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return True
        if pid == 0:
            if time.monotonic() > deadline:
                return False
            time.sleep(0.05)


if __name__ == "__main__":
    sys.exit(main())
