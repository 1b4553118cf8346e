"""Tests of the benchmark itself.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import child  # noqa: E402
import record_references  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402


def test_same_seed_gives_byte_identical_inputs():
    for workload in workloads.WORKLOADS:
        first = json.dumps(workloads.make_inputs(workload, 7))
        assert json.dumps(workloads.make_inputs(workload, 7)) == first
        assert json.dumps(workloads.make_inputs(workload, 8)) != first


def test_seeds_give_the_same_operations_per_stratum():
    for workload in workloads.WORKLOADS:
        strata = [Counter(op[1] for op in workloads.make_inputs(workload, seed)) for seed in range(6)]
        assert all(counts == strata[0] for counts in strata)


def test_every_drawable_identity_has_a_reference():
    references = workloads.load_references()
    keys = {workloads.reference_key(op) for op in record_references.reference_ops()}
    assert keys == set(references["documents"]) | set(references["suites"])
    for workload in ("build-deep", "build-wide"):
        for seed in range(20):
            for op in workloads.make_inputs(workload, seed):
                assert workloads.reference_key(op) in references["documents"]


def test_self_time_of_nested_spans():
    # a [0, 10] holds b [1, 3] and b [4, 7]; the second b holds c [5, 6].
    ticks = iter([0.0, 1.0, 3.0, 4.0, 5.0, 6.0, 7.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    a, b, c = (tracer.name_id(name) for name in "abc")
    tracer.begin(a)
    tracer.begin(b)
    tracer.end()
    tracer.begin(b)
    tracer.begin(c)
    tracer.end()
    tracer.end()
    tracer.end()
    assert list(tracer.parents) == [-1, 0, 0, 2]
    assert self_times(tracer.parents, tracer.starts, tracer.ends) == [5.0, 2.0, 2.0, 1.0]
    assert tracer.self_seconds() == {"a": 5.0, "b": 4.0, "c": 1.0}


def test_recursion_and_generators_make_one_span_per_item():
    tracer = Tracer()

    def countdown(n):
        if n:
            yield n
            yield from traced(n - 1)

    traced = tracer.wrap("countdown", countdown)
    assert list(traced(3)) == [3, 2, 1]
    assert tracer.counts == Counter({"countdown.calls": 1, "countdown.yielded": 3})
    assert len(tracer.starts) == 4 and set(tracer.parents) == {-1}


def _cheap_ops() -> list[list]:
    deep = workloads.make_inputs("build-deep", 0)[:2]
    wide = workloads.make_inputs("build-wide", 0)[:2]
    grid = [op for op in workloads.make_inputs("verify-grid", 0) if op[0] != "cli"]
    spot = [op for op in workloads.make_inputs("spot-checks", 0) if op[0] == "stuffle" or op[2] == [4]]
    return deep + wide + grid + spot


def test_corrupted_outputs_count_as_failures():
    references = workloads.load_references()
    ops = _cheap_ops()
    outputs = [workloads.execute(op) for op in ops]
    assert all(workloads.passes(op, out, references) for op, out in zip(ops, outputs))
    for op, out in zip(ops, outputs):
        # lower the first nonzero digit of the output; the check must notice
        position = min(i for i, ch in enumerate(out) if ch in "123456789")
        corrupted = out[:position] + str(int(out[position]) - 1) + out[position + 1 :]
        assert not workloads.passes(op, corrupted, references), op
    assert not workloads.passes(ops[0], "error: RuntimeError()", references)

    reps = [{"traced": False, "wall_s": 1.0, "setup_s": 0.1, "peak_rss_mb": 20.0, "attempted": 5, "failed": f}
            for f in (0, 1, 0)]
    result = run.summarize(reps, trace=False)
    assert result["correct"] is False and (result["failed"], result["attempted"]) == (1, 15)


def test_tracing_leaves_outputs_byte_identical():
    import evenzeta.cli
    from evenzeta import bernoulli_sums, derivative_tables

    original = derivative_tables.g_table
    ops = _cheap_ops()
    tracer = Tracer()
    tracer.install()
    assert bernoulli_sums.g_table is not original and evenzeta.cli.g_table is not original
    try:
        traced = [workloads.execute(op) for op in ops]
    finally:
        tracer.uninstall()
    assert bernoulli_sums.g_table is original and evenzeta.cli.g_table is original
    assert [workloads.execute(op) for op in ops] == traced
    metrics = child.layer_metrics(tracer, ops, traced)
    assert metrics["cli.main.self_s"] > 0 and metrics["quasi_shuffle.products.calls"] > 0


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert [m["unit"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS.values())
    layer_names = [*child.layer_metrics(Tracer(), [], []), "trace.overhead_frac"]
    assert sorted(m["name"] for m in spec["per_layer"]) == sorted(layer_names)
    assert all(m["unit"] == run._layer_unit(m["name"]) for m in spec["per_layer"])
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "build-deep", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def test_times_are_rescaled_by_the_probes_around_each_operation():
    reference = child.REFERENCE_PROBE_S
    # an operation between two probes at twice the reference time ran at half speed
    assert child.at_reference_speed([4.0], [2 * reference, 2 * reference]) == 2.0
    assert child.at_reference_speed([1.0, 3.0], [reference, reference, 3 * reference]) == 1.0 + 1.5
