"""Run every workload over several seeds and record the results.

    python3 benchmarks/suite.py --runs 10 --out .bench_out/results.json

Each run is a separate `benchmarks/run.py` process of BENCHMARK.json's
run_seconds, seeds 1..N, every workload in BENCHMARK.json interleaved within
each seed so slow drift of the machine falls on all of them alike.  After
the untraced runs, each workload gets one traced run (seed 1) for the
per-layer metrics.  Prints every
end-to-end metric with its unit for each workload: the median, the
quartiles and the spread (interquartile range over the median) against the
metric's bound.  Exits 1 when any run fails, reports a failed operation or
is not correct.  The results file is the input of compare.py.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_once(workload: str, seed: int, trace: int) -> dict | None:
    cmd = [*SPEC["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, first quartile, third quartile, IQR over median)."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / abs(med) if med else float("inf")


def summarize(results: dict) -> None:
    for workload, runs in results["runs"].items():
        print(f"{workload}: {len(runs)} untraced runs")
        for metric in SPEC["end_to_end"]:
            values = [r["result"]["metrics"][metric["name"]]["value"] for r in runs if r["result"]]
            if not values:
                continue
            med, q1, q3, rel = spread(values)
            flag = "" if rel <= metric["bound"] / 3 else "  (spread above a third of the bound)"
            print(f"  {metric['name']:22s} {med:12.6g} {metric['unit']:7s} "
                  f"q1 {q1:.6g} q3 {q3:.6g} spread {rel:.4f} bound {metric['bound']}{flag}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10, help="untraced runs per workload")
    parser.add_argument("--out", type=Path, help="results file to write")
    args = parser.parse_args(argv)

    workloads = [w["name"] for w in SPEC["workloads"]]
    results = {
        "machine": {"cpus": os.cpu_count(), "python": platform.python_version(),
                    "platform": platform.platform()},
        "seconds": SPEC["run_seconds"],
        "runs": {w: [] for w in workloads},
        "traced": {w: [] for w in workloads},
    }
    ok = True
    plan = [(w, s, 0) for s in range(1, args.runs + 1) for w in workloads]
    plan += [(w, 1, 1) for w in workloads]
    for workload, seed, trace in plan:
        result = run_once(workload, seed, trace)
        ok &= bool(result and result["correct"] and result["failed"] == 0)
        results["traced" if trace else "runs"][workload].append({"seed": seed, "result": result})
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")
    summarize(results)
    if not ok:
        print("FAILED: a run failed or reported failed operations", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
