"""Seeded input tables for the benchmark workloads.

Everything here is plain numpy plus the csv module: the program under test
only ever sees the CSV and schema files written below, never this code.
The same (table, seed, n) always writes the same bytes.
"""
from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

WIDE_CATS = (("g1", 5), ("g2", 5), ("g3", 4))
WIDE_ORDINALS = ("o1", "o2", "o3", "o4", "o5")
WIDE_COUNTS = ("c1", "c2", "c3", "c4", "c5", "c6")
WIDE_CONTINUOUS = ("x1", "x2", "x3")


def _levels(name: str, k: int) -> list:
    return [f"{name}{chr(ord('a') + i)}" for i in range(k)]


def _write(out_dir: Path, stem: str, columns: list, rows: dict):
    """Write <stem>.csv and <stem>.schema.json; return both paths."""
    out_dir.mkdir(parents=True, exist_ok=True)
    data = out_dir / f"{stem}.csv"
    schema = out_dir / f"{stem}.schema.json"
    schema.write_text(json.dumps({"columns": columns}, indent=1) + "\n")
    names = [c["name"] for c in columns]
    with data.open("w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(names)
        cells = []
        for c in columns:
            vals = rows[c["name"]]
            if c["kind"] == "categorical":
                cells.append(np.asarray(c["levels"])[vals].tolist())
            elif c["kind"] == "continuous":
                cells.append([repr(float(v)) for v in vals])
            else:
                cells.append([str(int(v)) for v in vals])
        w.writerows(zip(*cells))
    return data, schema


def wide_table(out_dir: Path, seed: int, n: int = 5000):
    """n records, p* = 28: three categoricals (5, 5, 4 levels) and 14 rank
    columns (five ordinals with >= 10 levels, six counts, three continuous)
    driven by three shared Gaussian factors, so the copula has structure."""
    rng = np.random.default_rng([seed, 1])
    n_rank = len(WIDE_ORDINALS) + len(WIDE_COUNTS) + len(WIDE_CONTINUOUS)
    n_cat = len(WIDE_CATS)
    load = rng.uniform(-0.8, 0.8, size=(n_rank + n_cat, 3))
    f = rng.standard_normal((n, 3))
    z = f @ load.T + 0.6 * rng.standard_normal((n, n_rank + n_cat))
    columns, rows = [], {}
    for q, (name, k) in enumerate(WIDE_CATS):
        # level shifts tied to a factor keep every level populated
        score = z[:, n_rank + q]
        cuts = np.quantile(score, np.linspace(0, 1, k + 1)[1:-1])
        codes = np.searchsorted(cuts, score)
        mix = rng.random(n) < 0.15
        codes[mix] = rng.integers(0, k, int(mix.sum()))
        columns.append({"name": name, "kind": "categorical", "levels": _levels(name, k)})
        rows[name] = codes
    j = 0
    for name in WIDE_ORDINALS:
        vals = np.clip(np.round(2.2 * z[:, j] + 6.0), 0, 12).astype(np.int64)
        columns.append({"name": name, "kind": "ordinal"})
        rows[name] = vals
        j += 1
    for name in WIDE_COUNTS:
        rows[name] = rng.poisson(np.exp(1.2 + 0.5 * z[:, j]))
        columns.append({"name": name, "kind": "count"})
        j += 1
    for name in WIDE_CONTINUOUS:
        rows[name] = np.round(np.exp(0.4 * z[:, j]) * 10.0, 4)
        columns.append({"name": name, "kind": "continuous"})
        j += 1
    return _write(out_dir, "wide", columns, rows)


def targeted_table(out_dir: Path, seed: int, n: int = 1000):
    """n records with a count response r that is nonlinear in the continuous
    covariate x and the categorical g; the copula part has p* = 7."""
    rng = np.random.default_rng([seed, 2])
    g = rng.integers(0, 3, n)
    x = rng.uniform(-2.0, 2.0, n)
    c = rng.poisson(3.0 + g)
    o = np.clip(np.round(x + rng.normal(0, 1.5, n) + 5), 0, 11).astype(np.int64)
    w = np.round(rng.normal(0.5 * g + 0.3 * x, 1.0), 4)
    shift = np.array([0.0, 1.0, -0.5])[g]
    r = rng.poisson(np.exp(1.0 + np.sin(2.0 * x) + shift + 0.3 * (x > 1)))
    columns = [
        {"name": "g", "kind": "categorical", "levels": _levels("g", 3)},
        {"name": "x", "kind": "continuous"},
        {"name": "c", "kind": "count"},
        {"name": "o", "kind": "ordinal"},
        {"name": "w", "kind": "continuous"},
        {"name": "r", "kind": "count"},
    ]
    rows = {"g": g, "x": np.round(x, 4), "c": c, "o": o, "w": w, "r": r}
    return _write(out_dir, "targeted", columns, rows)
