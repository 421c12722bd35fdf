"""Workload definitions: inputs, the CLI stages a user runs, output checks.

Each workload is a fixed pipeline of ``mixedsynth`` commands run one after
the other (a closed loop with one client).  Paths handed to the program are
relative to the pass directory, so reports and manifests, and hence their
digests, do not depend on where the benchmark runs.

Why these two:

* ``release``: what a data steward runs on a wide mixed table (n = 5000,
  p* = 28, k = 14): fit the factor model, synthesize, score utility and
  risk.  The wide shape is where per-element truncated-normal cost
  dominates a Gibbs sweep.  No BART and no simulation study.
* ``narrow``: the n = 1000 tables.  The paper's two-column benchmark study
  at the desk preset (p* <= 6, 3000 sweeps per fit), where per-call
  overhead sets sweep time, then a count response fitted by a 200-tree
  BART and synthesized; the only workload where ``bart``,
  ``target_regression`` and ``simulation`` run.  No utility or risk.

Two workloads, not more, so each run can measure for long enough that the
shared machine's drifting speed averages out within it.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import inputs

ARCHIVE_MAGIC = b"MXSYNTH1\n"


@dataclass
class Stage:
    """One CLI invocation; ``outputs`` are checked and digested afterwards."""

    name: str
    argv: list
    check: str  # key into CHECKS
    outputs: list = field(default_factory=list)


@dataclass
class Inputs:
    """Paths relative to a pass directory, plus what checks need."""

    data: str
    schema: str
    support: dict  # column -> ("levels", set) | ("ints", set) | ("range", lo, hi)
    columns: list  # schema column docs
    n: int = 0  # confidential rows


# Sizes per scale.  "full" is what the benchmark measures; "toy" runs every
# workload through the same code path in seconds, for the self-check.
SIZES = {
    "full": {
        "wide_n": 5000, "wide_iters": 80, "wide_burn": 40, "wide_thin": 8,
        "release_m": 3, "release_n_out": 1000, "utility_iters": 1000,
        "risk_reps": 5,
        "study_reps": None,  # the preset's own replicate count
        "targeted_n": 1000, "target_iters": 260, "target_burn": 100,
        "target_trees": 200, "targeted_copula_iters": 200, "targeted_m": 5,
    },
    "toy": {
        "wide_n": 300, "wide_iters": 20, "wide_burn": 10, "wide_thin": 2,
        "release_m": 3, "release_n_out": 200, "utility_iters": 200,
        "risk_reps": 2,
        "study_reps": 2,
        "targeted_n": 200, "target_iters": 20, "target_burn": 10,
        "target_trees": 20, "targeted_copula_iters": 20, "targeted_m": 2,
    },
}


def _support(data: Path, columns: list):
    """Observed support of every column of the confidential CSV, and its
    row count."""
    with data.open(newline="", encoding="utf-8") as fh:
        body = list(csv.reader(fh))[1:]
    out = {}
    for j, col in enumerate(columns):
        cells = [r[j] for r in body]
        if col["kind"] == "categorical":
            out[col["name"]] = ("levels", set(col["levels"]))
        elif col["kind"] == "continuous":
            vals = [float(v) for v in cells]
            out[col["name"]] = ("range", min(vals), max(vals))
        else:
            out[col["name"]] = ("ints", {int(v) for v in cells})
    return out, len(body)


def _inputs(data: Path, schema: Path, root: Path) -> Inputs:
    columns = json.loads(schema.read_text())["columns"]
    rel = Path("..") / data.relative_to(root)
    rel_schema = Path("..") / schema.relative_to(root)
    support, n = _support(data, columns)
    return Inputs(str(rel), str(rel_schema), support, columns, n)


class Workload:
    name = ""
    why = ""

    def __init__(self, scale: str):
        self.size = SIZES[scale]

    def make_inputs(self, root: Path, seed: int) -> Inputs:
        raise NotImplementedError

    def stages(self, inp: Inputs, seed: int) -> list:
        raise NotImplementedError


class Release(Workload):
    name = "release"
    why = "fit, synth, utility and risk on a wide mixed table (n=5000, p*=28); no BART or simulation study"

    def make_inputs(self, root, seed):
        data, schema = inputs.wide_table(root / "inputs", seed, self.size["wide_n"])
        return _inputs(data, schema, root)

    def stages(self, inp, seed):
        s = self.size
        m = s["release_m"]
        return [
            Stage("fit", ["fit", "--data", inp.data, "--schema", inp.schema,
                          "--out", "model.mxs", "--seed", str(seed),
                          "--iters", str(s["wide_iters"]),
                          "--burn-in", str(s["wide_burn"]),
                          "--thin", str(s["wide_thin"])],
                  "archive", ["model.mxs"]),
            Stage("synth", ["synth", "--model", "model.mxs", "--out-dir", "syn",
                            "--m", str(m), "--n-out", str(s["release_n_out"]),
                            "--seed", str(seed + 1)],
                  "release", ["syn"]),
            Stage("utility", ["utility", "--conf", inp.data, "--schema", inp.schema,
                              "--syn-dir", "syn", "--response", "c1",
                              "--predictors", "g1,o1,x1,c2",
                              "--iters", str(s["utility_iters"]),
                              "--burn-in", str(s["utility_iters"] // 2),
                              "--out", "utility.json", "--seed", str(seed + 2)],
                  "utility", ["utility.json"]),
            Stage("risk", ["risk", "--conf", inp.data, "--schema", inp.schema,
                           "--pool-dir", "syn", "--known", "g1,g2,o1",
                           "--target", "c1",
                           "--m", ",".join(str(i) for i in range(1, m + 1)),
                           "--eps", "0,1,2", "--reps", str(s["risk_reps"]),
                           "--out", "risk.json", "--seed", str(seed + 3)],
                  "risk", ["risk.json"]),
        ]


class Narrow(Workload):
    name = "narrow"
    why = "n=1000 tables: desk benchmark study (p*<=6, 3000 sweeps per fit), then a 200-tree BART targeted fit and synth"

    def make_inputs(self, root, seed):
        data, schema = inputs.targeted_table(root / "inputs", seed, self.size["targeted_n"])
        return _inputs(data, schema, root)

    def stages(self, inp, seed):
        s = self.size
        study = ["simulate", "--preset", "desk", "--studies", "rpl,rl",
                 "--out", "study.json", "--seed", str(seed)]
        if s["study_reps"] is not None:
            study += ["--reps", str(s["study_reps"])]
        it = s["targeted_copula_iters"]
        return [
            Stage("simulate", study, "study", ["study.json"]),
            Stage("fit", ["fit", "--data", inp.data, "--schema", inp.schema,
                          "--out", "model.mxs", "--seed", str(seed),
                          "--targets", "r", "--target-trees", str(s["target_trees"]),
                          "--target-iters", str(s["target_iters"]),
                          "--target-burn-in", str(s["target_burn"]),
                          "--iters", str(it), "--burn-in", str(it // 2),
                          "--thin", "5"],
                  "archive", ["model.mxs"]),
            Stage("synth", ["synth", "--model", "model.mxs", "--out-dir", "syn",
                            "--m", str(s["targeted_m"]), "--seed", str(seed + 1)],
                  "release", ["syn"]),
        ]


WORKLOADS = {w.name: w for w in (Release, Narrow)}


# ---------------------------------------------------------------- checks
#
# Each check returns (problems, quality): a list of strings naming what is
# wrong, and the deterministic quality numbers the output carries.


def _check_archive(d: Path, stage: Stage, inp: Inputs):
    path = d / stage.outputs[0]
    if not path.is_file():
        return [f"{path.name} missing"], {}
    with path.open("rb") as fh:
        head = fh.read(len(ARCHIVE_MAGIC))
    problems = [] if head == ARCHIVE_MAGIC else [f"{path.name}: bad magic"]
    return problems, {"archive_mb": path.stat().st_size / 1e6}


def _check_csv(path: Path, inp: Inputs, n_rows: int) -> list:
    """Reload one synthetic CSV against the schema and the observed support."""
    with path.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    names = [c["name"] for c in inp.columns]
    if not rows or rows[0] != names:
        return [f"{path.name}: header {rows[0] if rows else None} != schema {names}"]
    body = rows[1:]
    if len(body) != n_rows:
        return [f"{path.name}: {len(body)} rows, expected {n_rows}"]
    problems = []
    for j, name in enumerate(names):
        kind, *sup = inp.support[name]
        try:
            cells = [r[j] for r in body]
            if kind == "levels":
                bad = [v for v in cells if v not in sup[0]]
            elif kind == "range":
                vals = [float(v) for v in cells]
                bad = [v for v in vals
                       if not (math.isfinite(v) and sup[0] <= v <= sup[1])]
            else:
                bad = [v for v in cells if int(v) not in sup[0]]
        except (ValueError, IndexError) as exc:
            bad = [str(exc)]
        if bad:
            problems.append(f"{path.name}: column {name} has {len(bad)} cells "
                            f"outside the observed support, e.g. {bad[0]!r}")
    return problems


def _check_release(d: Path, stage: Stage, inp: Inputs):
    out_dir = d / stage.outputs[0]
    argv = stage.argv
    m = int(argv[argv.index("--m") + 1])
    n_rows = int(argv[argv.index("--n-out") + 1]) if "--n-out" in argv else inp.n
    manifest = out_dir / "manifest.json"
    if not manifest.is_file():
        return ["manifest.json missing"], {}
    files = json.loads(manifest.read_text()).get("files", [])
    problems = []
    if len(files) != m:
        problems.append(f"manifest lists {len(files)} files, expected {m}")
    for name in files:
        path = out_dir / name
        if not path.is_file():
            problems.append(f"{name} listed in manifest but missing")
            continue
        problems += _check_csv(path, inp, n_rows)
    return problems, {}


def _load_json(path: Path):
    try:
        return json.loads(path.read_text()), []
    except (OSError, ValueError) as exc:
        return None, [f"{path.name}: {exc}"]


def _check_utility(d: Path, stage: Stage, inp: Inputs):
    doc, problems = _load_json(d / stage.outputs[0])
    if doc is None:
        return problems, {}
    u = doc.get("U")
    if not isinstance(u, (int, float)) or not math.isfinite(u):
        return [f"U is not a finite number: {u!r}"], {}
    return [], {"utility_u": float(u)}


def _check_risk(d: Path, stage: Stage, inp: Inputs):
    doc, problems = _load_json(d / stage.outputs[0])
    if doc is None:
        return problems, {}
    cells = doc.get("cells") or []
    if not cells:
        problems.append("risk report has no cells")
    for c in cells:
        for key in ("cmap_syn", "cmap_base", "cmap_syn_uniques", "cmap_base_uniques"):
            v = c.get(key)
            if not isinstance(v, (int, float)) or not 0.0 <= v <= 1.0:
                problems.append(f"cell m={c.get('m')} eps={c.get('epsilon')}: "
                                f"{key}={v!r} outside [0, 1]")
    return problems, {}


def _check_study(d: Path, stage: Stage, inp: Inputs):
    doc, problems = _load_json(d / stage.outputs[0])
    if doc is None:
        return problems, {}
    orderings = doc.get("orderings") or {}
    expected = ("rl_mse_greater", "rpl_multi_rate_zero", "rl_multi_rate_over_5pct")
    for key in expected:
        if orderings.get(key) is not True:
            problems.append(f"study ordering {key} does not hold")
    mse = doc.get("studies", {}).get("rpl", {}).get("avg_mse")
    if not isinstance(mse, (int, float)) or not math.isfinite(mse):
        return problems + [f"rpl avg_mse not finite: {mse!r}"], {}
    return problems, {"study_rpl_mse": float(mse)}


CHECKS = {
    "archive": _check_archive,
    "release": _check_release,
    "utility": _check_utility,
    "risk": _check_risk,
    "study": _check_study,
}


def check_stage(d: Path, stage: Stage, inp: Inputs):
    return CHECKS[stage.check](d, stage, inp)
