"""Every workload at several seeds, plus one traced run each: a table of
every end-to-end metric and a JSON baseline.

    python3 perfbench/baseline.py [--runs 10] [--out FILE]

Run from the root of a checkout.  For each workload it makes ``--runs``
untraced runs with seeds 1..runs and one traced run with seed 1, at the
default run length of ``run.py``.  It prints, per workload, the failed
share of operations and each metric's median, spread and unit, where the
spread is the distance between the first and third quartile over the
median, from ``statistics.quantiles(n=4)``.  Values, spreads, per-layer
metrics and the run records go to ``--out`` (default
``perfbench/baseline.json``).
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import run

HERE = Path(__file__).resolve().parent

# Left out of the benchmark because one run is far too long to repeat for
# every check.  Single wall-clock runs, Python 3.11.7, 2 CPUs.
OUT_OF_SCOPE = {
    "smallcat nabla --dim 5": "53 s",
    "level-4 validate_category (912 morphisms)": "258 s",
    "find_isomorphism(delta_leq(3), delta_leq(3))": "79 s, then BudgetError",
    "Tier-1 test suite (211 tests)": "37 s",
}


def one_run(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", str(trace)],
        capture_output=True, text=True, check=True)
    record_line, result_line = proc.stdout.strip().splitlines()[-2:]
    return json.loads(record_line)["record"], json.loads(result_line)


def summary(values: list[float], unit: str) -> dict:
    out = {"median": statistics.median(values), "unit": unit, "values": values}
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out["spread"] = (q3 - q1) / out["median"]
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out", default=str(HERE / "baseline.json"))
    args = parser.parse_args()
    out = {"out_of_scope": OUT_OF_SCOPE, "workloads": {}}
    for workload in run.WORKLOADS:
        records, results = [], []
        for seed in range(1, args.runs + 1):
            record, result = one_run(workload, seed, 0)
            records.append(record)
            results.append(result)
        _, traced = one_run(workload, 1, 1)
        attempted = sum(r["attempted"] for r in results + [traced])
        failed = sum(r["failed"] for r in results + [traced])
        metrics = {name: summary([r["metrics"][name]["value"] for r in results],
                                 m["unit"])
                   for name, m in results[0]["metrics"].items()}
        out["workloads"][workload] = {
            "correct": all(r["correct"] for r in results + [traced]),
            "attempted": attempted, "failed": failed,
            "end_to_end": metrics,
            "per_layer": {k: m["value"] for k, m in traced["metrics"].items()},
            "records": records,
        }
        print(f"{workload}: fail_ratio {failed / attempted:g} "
              f"({failed}/{attempted}), {args.runs} runs", flush=True)
        for name, s in metrics.items():
            spread = f"spread {s['spread']:.3f}" if "spread" in s else ""
            print(f"  {name:<12} {s['median']:12.4f} {s['unit']:<3} {spread}",
                  flush=True)
    Path(args.out).write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
