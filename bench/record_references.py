"""Record the reference outputs that the benchmark checks against.

    PYTHONPATH=src python3 bench/record_references.py

Writes ``bench/references.json``: the sha256 digest of the JSON document for
every identity that the build workloads can draw (all pool entries), and the
passed/failed/skipped counts of every suite run the benchmark makes.  Run it
only on a commit whose outputs are known to be right; a change that alters
any of these outputs fails the benchmark's correctness check until then.
"""

from __future__ import annotations

import json

import workloads


def reference_ops() -> list[list]:
    ops = []
    for total, n in workloads.DEEP_LADDER:
        for mvec in workloads.deep_pool(total, n):
            for kind in ("bernoulli", "zeta"):
                ops.append(["cli", "", workloads.identity_argv(kind, n, mvec)])
    for n in sorted(workloads.WIDE_TERMS):
        for poly in workloads.wide_pool(n):
            for kind in ("mzv", "mzsv"):
                ops.append(["cli", "", workloads.identity_argv(kind, n, poly=poly)])
    for workload in ("verify-grid", "spot-checks"):
        ops.extend(op for op in workloads.make_inputs(workload, 0) if op[0] == "cli")
    return ops


def main() -> None:
    references: dict[str, dict] = {"documents": {}, "suites": {}}
    for op in reference_ops():
        result = json.loads(workloads.execute(op))
        if result["exit"] != 0:
            raise SystemExit(f"{workloads.reference_key(op)} exited with {result['exit']}")
        text = result["stdout"]
        if op[2][0] == "verify":
            counts = {s["suite"]: [s["passed"], s["failed"], s["skipped"]] for s in json.loads(text)["suites"]}
            references["suites"][workloads.reference_key(op)] = counts
        else:
            references["documents"][workloads.reference_key(op)] = workloads.digest(text)
    with open(workloads.REFERENCES_PATH, "w", encoding="utf-8") as handle:
        json.dump(references, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
