"""Run the benchmark over workloads and seeds and summarise the spread.

    python3 perfbench/suite.py --seeds 1-10                # every workload
    python3 perfbench/suite.py --workloads study --seeds 1-5 --trace both

Each run is ``run.py`` in its own process, one at a time.  For every
workload and metric it prints the median, the quartiles and the spread
(quartile distance over median) next to the metric's bound; with
``--trace both`` it adds the tracing overhead, traced over untraced
``wall_s`` of the same seeds.  Every run's raw values go to
perfbench/results/suite-<label>.json.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_one(workload: str, seed: int, seconds: float, trace: int, scale: str) -> dict:
    """One run.py process: its last-line result plus its results file."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--scale", scale]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    elapsed = time.monotonic() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    path = next(line.split(": ", 1)[1] for line in proc.stderr.splitlines()
                if line.startswith("results: "))
    return {"workload": workload, "seed": seed, "trace": trace, "run_s": elapsed,
            "result": last, "results_file": path,
            "detail": json.loads((ROOT / path).read_text())}


def quartiles(values: list):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def summarise(runs: list, bounds: dict) -> dict:
    table = {}
    for r in runs:
        key = (r["workload"], r["trace"])
        for name, m in r["result"]["metrics"].items():
            table.setdefault(key, {}).setdefault(name, []).append(m["value"])
    out = {}
    for (workload, trace), metrics in sorted(table.items()):
        for name, values in metrics.items():
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else 0.0
            out[f"{workload}/t{trace}/{name}"] = {
                "values": values, "q1": q1, "median": statistics.median(values),
                "q3": q3, "spread": spread, "bound": bounds.get(name),
            }
    return out


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--trace", choices=("0", "1", "both"), default="0")
    p.add_argument("--seconds", type=float, default=bench["run_seconds"])
    p.add_argument("--scale", default="full")
    p.add_argument("--label", default=time.strftime("%Y%m%dT%H%M%S"))
    args = p.parse_args(argv)

    traces = (0, 1) if args.trace == "both" else (int(args.trace),)
    runs = []
    for workload in args.workloads.split(","):
        for seed in parse_seeds(args.seeds):
            for trace in traces:
                r = run_one(workload, seed, args.seconds, trace, args.scale)
                res = r["result"]
                print(f"{workload:9s} seed {seed:3d} trace {trace}: "
                      f"correct={res['correct']} attempted={res['attempted']} "
                      f"failed={res['failed']} run {r['run_s']:.1f} s", flush=True)
                runs.append(r)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    summary = summarise(runs, bounds)
    print(f"\n{'workload/trace/metric':52s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>7s} {'bound':>6s}  unit")
    for key, s in summary.items():
        bound = "" if s["bound"] is None else f"{s['bound']:.2f}"
        print(f"{key:52s} {s['median']:12.6g} {s['q1']:12.6g} {s['q3']:12.6g} "
              f"{s['spread']:7.4f} {bound:>6s}  {units.get(key.rsplit('/', 1)[1], '')}")

    overhead = {}
    if len(traces) == 2:
        for workload in args.workloads.split(","):
            walls = {t: {r["seed"]: statistics.median(
                        it["wall_s"] for it in r["detail"]["iterations"])
                         for r in runs if r["workload"] == workload and r["trace"] == t}
                     for t in traces}
            ratios = [walls[1][s] / walls[0][s] for s in walls[0] if s in walls[1]]
            overhead[workload] = {"per_seed": ratios, "median": statistics.median(ratios)}
            print(f"tracing overhead {workload:9s}: traced/untraced wall_s = "
                  f"{overhead[workload]['median']:.4f} (median of {len(ratios)} seeds)")

    failed = sum(r["result"]["failed"] for r in runs)
    attempted = sum(r["result"]["attempted"] for r in runs)
    print(f"\nstage calls: {attempted} attempted, {failed} failed; "
          f"runs not correct: {sum(not r['result']['correct'] for r in runs)}")
    out = HERE / "results" / f"suite-{args.label}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({
        "args": vars(args),
        "env": runs[0]["detail"]["env"] if runs else None,
        "runs": [{k: r[k] for k in ("workload", "seed", "trace", "run_s", "result",
                                    "results_file")} for r in runs],
        "summary": summary,
        "tracing_overhead": overhead,
    }, indent=1) + "\n")
    print(f"summary: {out.relative_to(ROOT)}")
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
