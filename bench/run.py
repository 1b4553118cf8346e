"""Benchmark runner for evenzeta.

    python3 bench/run.py --workload build-deep --seed 1 --seconds 25 --trace 0

Runs repetitions of one workload, each in a fresh interpreter and one at a
time, until ``--seconds`` are used up (at least three), then prints a summary
and, as its last line, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones: ``wall_s`` (median
wall time of the timed part of a repetition), ``setup_s`` (median time to
launch the interpreter, import evenzeta and generate the inputs) and
``peak_rss_mb`` (median peak resident memory of a repetition).  Both times
are at the reference speed of ``child.probe`` (see ``child.py``); the wall
times as measured are printed above the result.  The error rate is
``failed / attempted``.  With ``--trace 1`` traced and untraced repetitions
alternate; the metrics are the per-layer figures, medians over the traced
repetitions, and ``trace.overhead_frac``, the traced median wall time over
the untraced one, minus one.

Exits with 2 when there is no evenzeta source to benchmark, and with 1 when
a repetition dies or prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CHILD = os.path.join(ROOT, "bench", "child.py")
MIN_REPETITIONS = 3
CHILD_TIMEOUT_S = 120

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def repetition(workload: str, seed: int, trace: bool) -> dict:
    """Run one repetition in a child interpreter and return its result."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), PYTHONHASHSEED="0")
    argv = [sys.executable, CHILD, "--workload", workload, "--seed", str(seed), "--trace", str(int(trace))]
    launched = time.monotonic()
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"repetition exited with {proc.returncode}:\n{proc.stderr.strip()}")
    result = json.loads(lines[-1])
    result["setup_s"] = (result.pop("ready") - launched) * result.pop("setup_speed")
    result["elapsed_s"] = time.monotonic() - launched
    result["traced"] = trace
    return result


def repetitions(workload: str, seed: int, seconds: float, trace: bool) -> list[dict]:
    """Repetitions until the next one would overrun ``seconds``; with
    ``trace`` every second repetition is traced."""
    deadline = time.monotonic() + seconds
    reps: list[dict] = []
    while True:
        reps.append(repetition(workload, seed, trace and len(reps) % 2 == 1))
        longest = max(rep["elapsed_s"] for rep in reps)
        if len(reps) >= MIN_REPETITIONS + trace and time.monotonic() + longest > deadline:
            return reps


def summarize(reps: list[dict], trace: bool) -> dict:
    plain = [rep for rep in reps if not rep["traced"]]
    if trace:
        traced = [rep for rep in reps if rep["traced"]]
        names = traced[0]["layers"]
        metrics = {name: statistics.median(rep["layers"][name] for rep in traced) for name in names}
        overhead = statistics.median(r["wall_s"] for r in traced) / statistics.median(r["wall_s"] for r in plain)
        metrics["trace.overhead_frac"] = overhead - 1
        units = {name: _layer_unit(name) for name in metrics}
    else:
        metrics = {
            "wall_s": statistics.median(rep["wall_s"] for rep in plain),
            "setup_s": statistics.median(rep["setup_s"] for rep in reps),
            "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in plain),
        }
        units = END_TO_END_UNITS
    attempted = sum(rep["attempted"] for rep in reps)
    failed = sum(rep["failed"] for rep in reps)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def _layer_unit(name: str) -> str:
    stat = name.rsplit(".", 1)[1]
    return {"self_s": "s", "hit_ratio": "ratio", "overhead_frac": "ratio"}.get(stat, "count")


def _samples(values) -> str:
    return ", ".join(f"{value:.3f}" for value in values)


def describe(workload: str, seed: int, reps: list[dict], result: dict) -> list[str]:
    """Human-readable lines naming every metric with its unit."""
    plain = [rep for rep in reps if not rep["traced"]]
    lines = [
        f"workload={workload} seed={seed} repetitions={len(reps)} (untraced {len(plain)}; "
        f"wall_s {_samples(r['wall_s'] for r in plain)}; as measured {_samples(r['raw_wall_s'] for r in plain)})"
    ]
    for name, metric in result["metrics"].items():
        lines.append(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    rate = result["failed"] / result["attempted"]
    lines.append(f"  error_rate = {rate:.6g} ({result['failed']} of {result['attempted']} operations)")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "evenzeta", "__init__.py")):
        print(f"error: no evenzeta source under {ROOT}/src", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    try:
        reps = repetitions(args.workload, args.seed, args.seconds, trace)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    result = summarize(reps, trace)
    print("\n".join(describe(args.workload, args.seed, reps, result)))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
