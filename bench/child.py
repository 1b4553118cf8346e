"""One repetition of a benchmark workload, in a fresh interpreter.

Prints one JSON line: when set-up ended (``time.monotonic``, which the parent
shares on Linux), the timed part's wall time as measured and at reference
speed, the peak resident memory at its end, how many operations were
attempted and failed and, when traced, the per-layer figures.  Outputs are
checked after the timed part, with the tracer removed, so checking costs
neither time nor spans.

On the 2-CPU virtual machine the baseline was recorded on, CPU speed changes
by up to about 1.8x, for seconds to minutes at a time, with the load of the
host (CPU time equals wall time throughout).  So a fixed probe, written here
and sharing no code with evenzeta, is timed before the first operation and
after each one.  Each operation's wall time is rescaled by REFERENCE_PROBE_S
over the mean of the probes on either side of it, which gives its duration
at the reference speed.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from fractions import Fraction

import workloads
from tracer import LAYERS, Tracer

#: Time of ``probe()`` on an uncontended CPU of the 2-CPU sandbox the
#: baseline was recorded on; it sets the unit of the reported times.
REFERENCE_PROBE_S = 0.0075

# Per-layer figures besides each module's self time.  A function named here
# gives "<module>.<function>.self_s"; a combined metric sums several.
FUNCTION_SELF_TIMES = (
    "derivative_tables.f_table",
    "derivative_tables.g_table",
    "bernoulli_sums.f_prod",
    "bernoulli_sums.big_F",
    "bernoulli_sums.a_coeffs",
    "bernoulli_sums.bernoulli_identity",
    "bernoulli_sums.bernoulli_lhs",
    "zeta_identities.zeta_identity_poly",
    "zeta_identities.eval_zeta_lhs",
    "zeta_identities.eval_identity_rhs",
    "mzv_identities.block_reduce",
    "mzv_identities.composition_power_sum",
    "mzv_identities.power_sum_2",
    "mzv_identities.mzv_lhs_exact",
    "mzv_identities.mzv_numeric",
    "enumeration.compositions",
    "quasi_shuffle.verify_symmetric_sum",
    "polynomials.parse_poly",
    "cli.main",
)
COMBINED = {
    "mzv_identities.symmetric_assembly": ("mzv_identities.mzv_identity", "mzv_identities.mzsv_identity"),
    "quasi_shuffle.products": ("quasi_shuffle.star", "quasi_shuffle.sbar"),
    "documents.render": ("documents.document_from_identity", "documents.to_json", "documents.to_text"),
}
FUNCTION_CALLS = ("mzv_identities.block_reduce", "mzv_identities.power_sum_2", "enumeration.set_partitions")


def probe() -> float:
    """Seconds taken by a fixed exact-rational convolution, like the
    polynomial products that dominate evenzeta."""
    left = [Fraction(i + 1, 2 * i + 3) for i in range(24)]
    right = [Fraction(3 * i + 1, i + 5) for i in range(24)]
    start = time.perf_counter()
    for _ in range(4):
        out = [Fraction(0)] * 47
        for i, a in enumerate(left):
            for j, b in enumerate(right):
                out[i + j] += a * b
    return time.perf_counter() - start


def at_reference_speed(op_seconds: list[float], probes: list[float]) -> float:
    """Total of the operation times, each rescaled by the probes around it."""
    return sum(
        seconds * REFERENCE_PROBE_S * 2 / (before + after)
        for seconds, before, after in zip(op_seconds, probes, probes[1:])
    )


def _hit_ratio(cached) -> float:
    info = cached.cache_info()
    lookups = info.hits + info.misses
    return info.hits / lookups if lookups else 0.0


def layer_metrics(tracer: Tracer, ops: list, outputs: list[str], speed: float = 1.0) -> dict[str, float]:
    """Every per-layer figure of one traced repetition; self times are
    multiplied by ``speed`` to bring them to the reference speed."""
    from evenzeta import derivative_tables, quasi_shuffle, rationals, zeta_identities

    seconds = tracer.self_seconds()
    groups = {layer: [n for n in seconds if n.startswith(layer + ".")] for layer in LAYERS}
    groups.update({name: (name,) for name in FUNCTION_SELF_TIMES})
    groups.update(COMBINED)
    out = {f"{group}.self_s": speed * sum(seconds.get(n, 0.0) for n in names) for group, names in groups.items()}
    for name in FUNCTION_CALLS:
        out[f"{name}.calls"] = tracer.counts[f"{name}.calls"]
    out["quasi_shuffle.products.calls"] = sum(tracer.counts[f"{n}.calls"] for n in COMBINED["quasi_shuffle.products"])
    out["enumeration.compositions.yielded"] = tracer.counts["enumeration.compositions.yielded"]
    out["rationals.bernoulli_numbers"] = len(rationals._SHARED_TABLE._values)
    out["derivative_tables.table_builds"] = (
        derivative_tables.f_table.cache_info().misses + derivative_tables.g_table.cache_info().misses
    )
    out["zeta_identities.monomial_identity.builds"] = zeta_identities._monomial_identity.cache_info().misses
    out["zeta_identities.monomial_identity.hit_ratio"] = _hit_ratio(zeta_identities._monomial_identity)
    out["quasi_shuffle.word_product.hit_ratio"] = _hit_ratio(quasi_shuffle._word_product)
    out["suites.checks"] = workloads.suite_checks(ops, outputs)
    return out


def run(workload: str, seed: int, trace: bool) -> dict:
    import evenzeta.cli  # noqa: F401  (set-up includes the import)

    ops = workloads.make_inputs(workload, seed)
    ready = time.monotonic()
    probes = [probe()]
    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
    outputs, op_seconds = [], []
    for op in ops:
        start = time.perf_counter()
        try:
            outputs.append(workloads.execute(op))
        except Exception as exc:  # a failed operation is counted, not fatal
            outputs.append(f"error: {exc!r}")
        op_seconds.append(time.perf_counter() - start)
        probes.append(probe())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    raw_wall = sum(op_seconds)
    wall = at_reference_speed(op_seconds, probes)
    layers = None
    if tracer:
        tracer.uninstall()
        layers = layer_metrics(tracer, ops, outputs, wall / raw_wall)
    references = workloads.load_references()
    failed = sum(not workloads.passes(op, output, references) for op, output in zip(ops, outputs))
    return {
        "ready": ready,
        "setup_speed": REFERENCE_PROBE_S / probes[0],
        "wall_s": wall,
        "raw_wall_s": raw_wall,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(ops),
        "failed": failed,
        "layers": layers,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    print(json.dumps(run(args.workload, args.seed, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
