"""Run every workload over several seeds and record or compare the results.

    python3 bench/baseline.py --seeds 10 --out bench/BENCH_baseline.json
    python3 bench/baseline.py --seeds 10 --compare bench/BENCH_baseline.json

Each run is one ``bench/run.py`` invocation lasting ``run_seconds`` from
BENCHMARK.json: seeds 1..N in the outer loop and the workloads in turn
inside it, so that a slow spell of the machine falls on every workload
alike, then one traced run per workload.  Prints, for every workload and end-to-end metric,
the median over the runs with its unit, the spread (interquartile range as a
share of the median) against the metric's bound, and the error rate.  With
``--compare`` it also prints each median's change against the recorded one
and exits with 1 when a change is worse than the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def bench_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / statistics.median(values)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10, help="runs per workload, seeds 1..N")
    parser.add_argument("--out", help="write the results to this file")
    parser.add_argument("--compare", help="compare the medians with this recorded file")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    names = [w["name"] for w in spec["workloads"]]
    runs: dict[str, list[dict]] = {name: [] for name in names}
    for seed in range(1, args.seeds + 1):
        for name in names:
            runs[name].append(bench_run(name, seed, spec["run_seconds"], 0))
    traced = {name: bench_run(name, 1, spec["run_seconds"], 1) for name in names}

    recorded = None
    if args.compare:
        with open(args.compare, encoding="utf-8") as handle:
            recorded = json.load(handle)["workloads"]
    worse = False
    report: dict[str, dict] = {}
    for name in names:
        attempted = sum(r["attempted"] for r in runs[name])
        failed = sum(r["failed"] for r in runs[name])
        entry = {"runs": len(runs[name]), "error_rate": failed / attempted, "metrics": {}, "traced": traced[name]}
        print(f"{name}: error_rate = {failed / attempted:.6g} ({failed} of {attempted} operations)")
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs[name]]
            median = statistics.median(values)
            entry["metrics"][metric["name"]] = {
                "unit": metric["unit"], "median": median, "spread": spread(values), "values": values,
            }
            line = (f"  {metric['name']} = {median:.6g} {metric['unit']}  "
                    f"spread {spread(values):.3f} (bound {metric['bound']})")
            if recorded:
                change = median / recorded[name]["metrics"][metric["name"]]["median"] - 1
                worse |= change > metric["bound"]
                line += f"  change {change:+.3f}"
            print(line)
        print(f"  trace.overhead_frac = {traced[name]['metrics']['trace.overhead_frac']['value']:.4f} ratio")
        report[name] = entry
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"run_seconds": spec["run_seconds"], "workloads": report}, handle, indent=1)
            handle.write("\n")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
