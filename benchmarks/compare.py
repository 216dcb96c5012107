"""Compare two results files written by suite.py.

    python3 benchmarks/compare.py BASE.json NEW.json

For each workload and end-to-end metric it prints both medians, the ratio
of the new median to the base (with the base value), and a verdict from
the benchmark's own bounds:

  worse       the new median is worse than the base by more than the bound
  better      the new median is better by more than the base's own
              interquartile range, and the new run wins at least 9 in 10
              of the runs paired by seed
  unresolved  the spread of either side exceeds the bound, unless every new
              run reads better than every base run (then: better)
  same        otherwise

Per-layer metrics of the traced runs follow, as ratios without a verdict.
Exits 1 when any verdict is `worse` or a new run failed an operation, and
2 when the two files were recorded at different run lengths.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json")
                  .read_text(encoding="utf-8"))


def _values(runs: list[dict], name: str) -> dict[int, float]:
    return {r["seed"]: r["result"]["metrics"][name]["value"] for r in runs if r["result"]}


def _spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def verdict(base: dict[int, float], new: dict[int, float], better: str, bound: float) -> str:
    """Classify new against base (seed -> value) under the metric's bound."""
    sign = 1.0 if better == "lower" else -1.0  # sign * (x - y) > 0: x is worse than y
    m0 = statistics.median(base.values())
    m1 = statistics.median(new.values())
    if max(_spread(list(base.values())), _spread(list(new.values()))) > bound:
        worst_new = max(new.values(), key=lambda v: sign * v)
        best_base = min(base.values(), key=lambda v: sign * v)
        return "better" if sign * (worst_new - best_base) < 0 else "unresolved"
    worse_by = sign * (m1 - m0) / abs(m0)
    if worse_by > bound:
        return "worse"
    q1, _, q3 = statistics.quantiles(base.values(), n=4) if len(base) > 1 else (m0, m0, m0)
    pairs = [(base[s], new[s]) for s in base.keys() & new.keys() if base[s] != new[s]]
    wins = sum(1 for b, n in pairs if sign * (n - b) < 0)
    if -worse_by * abs(m0) > q3 - q1 and pairs and wins >= 0.9 * len(pairs):
        return "better"
    return "same"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    base = json.loads(args.base.read_text(encoding="utf-8"))
    new = json.loads(args.new.read_text(encoding="utf-8"))
    if base["seconds"] != new["seconds"]:
        print(f"error: runs of {base['seconds']} s and {new['seconds']} s are not comparable",
              file=sys.stderr)
        return 2

    status = 0
    for workload in [w for w in base["runs"] if w in new["runs"]]:
        failed = sum(r["result"]["failed"] if r["result"] else 1 for r in new["runs"][workload])
        print(f"{workload}: new runs failed {failed} operations")
        status |= failed > 0
        for m in SPEC["end_to_end"]:
            b = _values(base["runs"][workload], m["name"])
            n = _values(new["runs"][workload], m["name"])
            if not b or not n:
                continue
            v = verdict(b, n, m["better"], m["bound"])
            status |= v == "worse"
            m0, m1 = statistics.median(b.values()), statistics.median(n.values())
            print(f"  {m['name']:22s} {v:10s} ratio {m1 / m0:.4f} of base {m0:.6g} {m['unit']} "
                  f"(new {m1:.6g}; {m['better']} is better, bound {m['bound']})")
        traced_b = base.get("traced", {}).get(workload)
        traced_n = new.get("traced", {}).get(workload)
        if traced_b and traced_n:
            for m in SPEC["per_layer"]:
                b = list(_values(traced_b, m["name"]).values())
                n = list(_values(traced_n, m["name"]).values())
                if b and n and statistics.median(b):
                    m0, m1 = statistics.median(b), statistics.median(n)
                    print(f"    {m['name']:32s} ratio {m1 / m0:.4f} of base {m0:.6g} {m['unit']}")
    return status


if __name__ == "__main__":
    sys.exit(main())
