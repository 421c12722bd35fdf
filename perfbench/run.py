"""Benchmark harness for mixedsynth: one workload, one seed, one run.

    python3 perfbench/run.py --workload release --seed 1 --seconds 50 --trace 0

Builds the workload's inputs from the seed, sets up (several times, the
median is ``setup_s``), then runs the workload's CLI stages in a closed loop
for ``--seconds`` seconds, each stage a fresh ``mixedsynth`` process with
BLAS pinned to one thread.  Every stage's outputs are checked and digested.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs every
stage under tracer.py and reports the per-layer metrics; suite.py sets the
two side by side to give the tracing overhead.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics.  A results file with the environment, every raw value
and every output digest goes to perfbench/results/.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5
RUN_DEADLINE_S = 170.0  # a run must end within 180 s
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}


def _declared_metrics() -> dict:
    """Metric name -> unit, from BENCHMARK.json beside this directory."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        0: {m["name"]: m["unit"] for m in doc["end_to_end"]},
        1: {m["name"]: m["unit"] for m in doc["per_layer"]},
    }


def _child_env() -> dict:
    env = dict(os.environ, **BLAS_PIN)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return env


def source_digest() -> str:
    """SHA-256 over the package sources: identifies the code under test."""
    h = hashlib.sha256()
    for path in sorted((SRC / "mixedsynth").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(seed: int) -> dict:
    import numpy
    from importlib.metadata import PackageNotFoundError, version

    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    try:
        scipy_version = version("scipy")
    except PackageNotFoundError:
        scipy_version = None
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "blas": blas,
        "blas_pin": BLAS_PIN,
        "git_commit": commit,
        "source_sha256": source_digest(),
        "seed": seed,
    }


def digest_tree(d: Path, names: list) -> dict:
    """Relative path -> SHA-256 of every file under the named outputs."""
    out = {}
    for name in names:
        p = d / name
        files = sorted(f for f in p.rglob("*") if f.is_file()) if p.is_dir() else [p]
        for f in files:
            if f.is_file():
                out[str(f.relative_to(d))] = hashlib.sha256(f.read_bytes()).hexdigest()
    return out


class Runner:
    """Runs stages as child processes and keeps the run's bookkeeping."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = _child_env()
        self.attempted = 0
        self.failed = 0

    def stage(self, stage, d: Path, inp, traced: bool, tag: str) -> dict:
        """Run one stage in directory d, then check and digest its outputs."""
        d.mkdir(parents=True, exist_ok=True)
        spans = d / f"{stage.name}.spans.json.gz"
        if traced:
            argv = [sys.executable, str(HERE / "tracer.py"), str(spans), tag, "--"]
        else:
            argv = [sys.executable, "-m", "mixedsynth.cli"]
        argv += stage.argv
        log = d / f"{stage.name}.log"
        budget = max(1.0, self.deadline - time.monotonic())
        with log.open("wb") as fh:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=d, env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=fh, stderr=subprocess.STDOUT)
            killer = threading.Timer(budget, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        rec = {
            "stage": stage.name,
            "argv": stage.argv,
            "exit_code": proc.returncode,
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "maxrss_mb": usage.ru_maxrss / 1024.0,
            "traced": traced,
        }
        problems, quality = [], {}
        if proc.returncode != 0:
            tail = log.read_text(errors="replace").strip().splitlines()[-5:]
            problems.append(f"exit code {proc.returncode}: " + " | ".join(tail))
        else:
            problems, quality = workloads.check_stage(d, stage, inp)
        rec["problems"] = problems
        rec["quality"] = quality
        rec["digests"] = digest_tree(d, stage.outputs)
        if traced and spans.is_file():
            rec["trace"] = layers.load_trace(spans)
            keep = HERE / "results" / "spans"
            keep.mkdir(parents=True, exist_ok=True)
            rec["spans_file"] = str(shutil.move(spans, keep / f"{tag}-{os.getpid()}-{stage.name}.json.gz"))
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"[{tag}] {stage.name} failed: {problems[0]}", file=sys.stderr)
        return rec


def run(args) -> dict:
    scale = args.scale
    wl = workloads.WORKLOADS[args.workload](scale)
    run_tag = f"{args.workload}-s{args.seed}-t{args.trace}-{scale}"
    work = HERE / ".work" / f"{run_tag}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    t_begin = time.monotonic()
    r = Runner(t_begin + RUN_DEADLINE_S)
    try:
        return _run(args, wl, r, work, run_tag, t_begin)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, wl, r: Runner, work: Path, run_tag: str, t_begin: float) -> dict:
    # -- set-up, repeated so setup_s is a median: inputs from the seed, then
    #    a cold import of the program in a child, so the timed part never
    #    pays for a cold file cache
    setups = []
    for k in range(1 if args.trace else SETUP_REPEATS):
        t0 = time.perf_counter()
        inp = wl.make_inputs(work, args.seed)
        imp = subprocess.run([sys.executable, "-c", "import mixedsynth.cli"],
                             env=r.env, cwd=work, capture_output=True,
                             timeout=max(1.0, r.deadline - time.monotonic()))
        if imp.returncode != 0:
            raise RuntimeError("mixedsynth does not import: "
                               + imp.stderr.decode(errors="replace")[-500:])
        setups.append({"seconds": time.perf_counter() - t0,
                       "input_digests": digest_tree(work, ["inputs"])})
    input_digests = setups[0]["input_digests"]

    # -- closed loop: the next iteration starts when the previous returns;
    #    no iteration starts that would be expected to end past --seconds
    iterations = []
    t_loop = time.monotonic()
    while True:
        i = len(iterations)
        d = work / f"it{i}"
        t0 = time.perf_counter()
        stages = [r.stage(s, d, inp, bool(args.trace), f"{run_tag}-it{i}")
                  for s in wl.stages(inp, args.seed)]
        iterations.append({"wall_s": time.perf_counter() - t0, "stages": stages})
        shutil.rmtree(d, ignore_errors=True)
        typical = statistics.median(it["wall_s"] for it in iterations)
        if time.monotonic() - t_loop + typical > args.seconds:
            break
        if time.monotonic() + typical > r.deadline:
            break

    flags = _digest_flags(setups, iterations)
    quality = {}
    for it in iterations:
        for st in it["stages"]:
            quality.update(st["quality"])

    if args.trace:
        metrics = layers.per_layer_metrics(iterations, quality)
    else:
        metrics = {
            "setup_s": statistics.median(s["seconds"] for s in setups),
            "wall_s": statistics.median(it["wall_s"] for it in iterations),
            "peak_rss_mb": statistics.median(
                max(st["maxrss_mb"] for st in it["stages"]) for it in iterations),
        }

    result = {
        "workload": args.workload,
        "why": wl.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "env": environment(args.seed),
        "input_digests": input_digests,
        "setups": setups,
        "iterations": iterations,
        "quality": quality,
        "digest_flags": flags,
        "metrics": metrics,
        "attempted": r.attempted,
    }
    flags += _compare_earlier(result)
    result["failed"] = r.failed + len(flags)
    result["run_s"] = time.monotonic() - t_begin
    return result


def _digest_flags(setups: list, iterations: list) -> list:
    """Outputs of one seed must be byte-identical across repeats in a run."""
    flags = []

    def compare(label, runs):
        ref = None
        for i, digests in enumerate(runs):
            if ref is None:
                ref = digests
            elif digests != ref:
                diff = sorted(k for k in set(ref) | set(digests)
                              if ref.get(k) != digests.get(k))
                flags.append(f"{label} {i} differs from {label} 0 in {diff}")

    compare("inputs of set-up repeat", [s["input_digests"] for s in setups])
    for si in range(len(iterations[0]["stages"])):
        compare(f"stage {iterations[0]['stages'][si]['stage']}, iteration",
                [it["stages"][si]["digests"] for it in iterations])
    return flags


def _compare_earlier(result: dict) -> list:
    """Flag digests that differ from an earlier run of the same source and
    the same command lines (the byte-reproducibility property)."""
    def key(doc):
        stages = (doc.get("iterations") or [{}])[0].get("stages", [])
        return (doc.get("workload"), doc.get("seed"), doc.get("scale"),
                doc.get("env", {}).get("source_sha256"),
                [st.get("argv") for st in stages])
    outputs = {}
    for st in result["iterations"][0]["stages"]:
        outputs.update({f"{st['stage']}:{k}": v for k, v in st["digests"].items()})
    result["output_digests"] = outputs
    flags = []
    for path in sorted((HERE / "results").glob(f"{result['workload']}-*.json")):
        try:
            old = json.loads(path.read_text())
        except (OSError, ValueError):
            continue
        if key(old) != key(result):
            continue
        for kind in ("input_digests", "output_digests"):
            mine, theirs = result[kind], old.get(kind, {})
            diff = sorted(k for k in mine if k in theirs and theirs[k] != mine[k])
            if diff:
                flags.append(f"{kind} differ from {path.name} in {diff}")
    return flags


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=sorted(workloads.SIZES), default="full",
                   help="'toy' shrinks every input for the harness self-check")
    args = p.parse_args(argv)

    if not (SRC / "mixedsynth" / "cli.py").is_file():
        print(f"error: no mixedsynth sources under {SRC}", file=sys.stderr)
        return 2
    units = _declared_metrics()[args.trace]

    result = run(args)
    missing = sorted(set(units) - set(result["metrics"]))
    if missing:
        raise RuntimeError(f"metrics declared but not measured: {missing}")
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = out_dir / f"{args.workload}-s{args.seed}-t{args.trace}-{args.scale}-{stamp}-{os.getpid()}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")

    for name, unit in units.items():
        print(f"{args.workload:9s} {name:34s} {result['metrics'][name]:14.6g} {unit}")
    for flag in result["digest_flags"]:
        print(f"digest flag: {flag}", file=sys.stderr)
    print(f"results: {path.relative_to(ROOT)}", file=sys.stderr)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: {"value": result["metrics"][n], "unit": u}
                    for n, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
