"""Self-check of the harness at toy size, through the same code path.

    python3 perfbench/selfcheck.py

For every workload it runs run.py at ``--scale toy`` three times: seed 1
untraced, seed 1 traced and seed 2 untraced.  It fails unless every run is
correct and prints every metric BENCHMARK.json declares, the two seed-1
runs produce byte-identical outputs (tracing changes nothing), and seed 2
gives different inputs and different outputs.  Takes about two minutes;
the study's fixed-length desk chains cost most of it.
"""
from __future__ import annotations

import json
import sys

from suite import ROOT, run_one


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {0: {m["name"] for m in bench["end_to_end"]},
                1: {m["name"] for m in bench["per_layer"]}}
    problems = []
    for w in bench["workloads"]:
        name = w["name"]
        runs = [run_one(name, seed, 1, trace, "toy")
                for seed, trace in ((1, 0), (1, 1), (2, 0))]
        for r in runs:
            res = r["result"]
            tag = f"{name} seed {r['seed']} trace {r['trace']}"
            if not res["correct"] or res["failed"] or res["attempted"] < 1:
                problems.append(f"{tag}: not correct ({res})")
            if set(res["metrics"]) != declared[r["trace"]]:
                problems.append(f"{tag}: metrics differ from BENCHMARK.json")
        a, traced, b = (r["detail"] for r in runs)
        if a["output_digests"] != traced["output_digests"]:
            problems.append(f"{name}: tracing changed the outputs")
        if a["input_digests"] and a["input_digests"] == b["input_digests"]:
            problems.append(f"{name}: seeds 1 and 2 gave the same inputs")
        same = [k for k, v in a["output_digests"].items()
                if b["output_digests"].get(k) == v]
        if same:
            problems.append(f"{name}: seeds 1 and 2 gave identical outputs {same}")
        print(f"{name}: {len(runs)} toy runs checked", flush=True)
    for p in problems:
        print(f"FAIL {p}")
    print("self-check " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
