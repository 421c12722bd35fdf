"""Per-layer metrics from the spans tracer.py records.

A layer is a module under src/mixedsynth/; a span's layer is the part of
its name before the first dot.  ``_ms`` metrics are totals over the timed
part of one workload iteration unless the name says "per" something (then
see SPEC).  Layers a workload never calls read 0.
"""
from __future__ import annotations

import gzip
import json
import statistics
from collections import defaultdict

LAYERS = ("schema", "marginals", "truncated", "factor_model", "synthesizer",
          "bart", "target_regression", "utility", "risk", "archive",
          "simulation", "cli")

COMMANDS = ("fit", "synth", "utility", "risk", "simulate")

# (name, unit, better, meaning); BENCHMARK.json's per_layer list mirrors it
SPEC = [
    ("factor_model.sweep_ms", "ms", "lower", "ms per gibbs_sweep"),
    ("factor_model.sweeps", "count", "higher", "gibbs_sweep calls"),
    ("factor_model.latent_ms", "ms", "lower", "update_latent ms per sweep"),
    ("factor_model.loadings_ms", "ms", "lower", "update_loadings ms per sweep"),
    ("factor_model.factors_ms", "ms", "lower", "update_factors ms per sweep"),
    ("factor_model.idio_ms", "ms", "lower", "update_idio_var ms per sweep"),
    ("factor_model.shrink_ms", "ms", "lower", "local plus global shrinkage ms per sweep"),
    ("factor_model.intercepts_ms", "ms", "lower", "update_intercepts ms per sweep"),
    ("factor_model.wall_share", "ratio", "higher", "run_chain time / traced iteration wall"),
    ("truncated.fit_calls", "count", "lower", "truncnorm_sample calls from factor_model"),
    ("truncated.fit_cells", "count", "higher", "cells drawn by those calls"),
    ("truncated.fit_ns_per_cell", "ns", "lower", "their time per cell"),
    ("truncated.synth_calls", "count", "lower", "truncnorm_sample calls from synthesizer"),
    ("truncated.synth_cells", "count", "higher", "cells drawn by those calls"),
    ("truncated.synth_ns_per_cell", "ns", "lower", "their time per cell"),
    ("synthesizer.records", "count", "higher", "records returned by synthesize_datasets"),
    ("synthesizer.records_per_s", "1/s", "higher", "records / synthesize_datasets time"),
    ("synthesizer.orthant_share", "ratio", "lower", "synth-side truncnorm time / synthesize_datasets time"),
    ("marginals.cdf_ms", "ms", "lower", "ContinuousMarginal.cdf total"),
    ("marginals.inverse_ms", "ms", "lower", "marginal inverse total, cdf excluded"),
    ("bart.sweep_ms", "ms", "lower", "ms per BartSampler.sweep"),
    ("bart.moves", "count", "higher", "structure_step calls"),
    ("bart.accept_rate", "ratio", "higher", "accepted / attempted structure_step"),
    ("bart.snapshot_ms", "ms", "lower", "BartSampler.snapshot total"),
    ("bart.predict_ms", "ms", "lower", "ensemble_predict total"),
    ("bart.fit_share", "ratio", "higher", "fit_target_model time / traced fit-stage wall"),
    ("target_regression.latent_ms", "ms", "lower", "update_rank_column total, called from target_regression"),
    ("utility.horseshoe_ms", "ms", "lower", "ms per fit_bayes_lm"),
    ("utility.horseshoe_fits", "count", "higher", "fit_bayes_lm calls"),
    ("utility.pmse_ms", "ms", "lower", "ms per pmse"),
    ("utility.u", "index", "higher", "combined U of the utility report"),
    ("risk.scenarios", "count", "higher", "cmap_mean calls"),
    ("risk.ms_per_scenario", "ms", "lower", "ms per cmap_mean"),
    ("archive.save_ms", "ms", "lower", "save_archive total"),
    ("archive.load_ms", "ms", "lower", "load_archive total"),
    ("archive.size_mb", "MB", "lower", "size of the .mxs archive handed over"),
    ("schema.load_ms", "ms", "lower", "load_dataset total"),
    ("schema.write_ms", "ms", "lower", "write_csv total"),
    ("simulation.fit_ms", "ms", "lower", "fit_copula_model total, called from simulation"),
    ("simulation.synth_ms", "ms", "lower", "synthesize_datasets total, called from simulation"),
    ("simulation.rpl_mse", "sq_count", "lower", "gate-1 group-mean MSE of the categorical treatment"),
    ("cli.import_ms", "ms", "lower", "import of the traced modules, median per command"),
] + [
    (f"cli.{c}_s", "s", "lower", f"wall time of the '{c}' command, traced")
    for c in COMMANDS
] + [
    (f"{layer}.self_ms", "ms", "lower", f"{layer} self time: spans minus their children")
    for layer in LAYERS
]


def load_trace(path) -> dict:
    """The per-name totals, counts and import time of one traced command."""
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        doc = json.load(fh)
    return {k: doc[k] for k in ("summary", "counts", "import_ns")}


def _merge(stages: list):
    agg = defaultdict(lambda: {"calls": 0, "total_ns": 0, "self_ns": 0})
    counts = defaultdict(int)
    for st in stages:
        tr = st.get("trace")
        if tr is None:
            raise RuntimeError(f"traced stage {st['stage']} wrote no spans")
        for name, s in tr["summary"].items():
            for k in ("calls", "total_ns", "self_ns"):
                agg[name][k] += s[k]
        for k, v in tr["counts"].items():
            counts[k] += v
    return agg, counts


def _ratio(a, b):
    return a / b if b else 0.0


def iteration_metrics(it: dict) -> dict:
    agg, counts = _merge(it["stages"])

    def calls(name):
        return agg[name]["calls"] if name in agg else 0

    def ms(*names, field="total_ns"):
        return sum(agg[n][field] for n in names if n in agg) / 1e6

    m = {}
    sweeps = calls("factor_model.gibbs_sweep")
    m["factor_model.sweeps"] = sweeps
    m["factor_model.sweep_ms"] = _ratio(ms("factor_model.gibbs_sweep"), sweeps)
    for key, names in (
        ("latent", ["update_latent"]), ("loadings", ["update_loadings"]),
        ("factors", ["update_factors"]), ("idio", ["update_idio_var"]),
        ("shrink", ["update_local_shrink", "update_global_shrink"]),
        ("intercepts", ["update_intercepts"]),
    ):
        m[f"factor_model.{key}_ms"] = _ratio(
            ms(*(f"factor_model.{n}" for n in names)), sweeps)
    m["factor_model.wall_share"] = _ratio(
        ms("factor_model.run_chain") / 1e3, it["wall_s"])

    for side, site in (("fit", "factor_model"), ("synth", "synthesizer")):
        name = f"truncated.truncnorm_sample@{site}"
        cells = counts.get(f"truncated.{side}_cells", 0)
        m[f"truncated.{side}_calls"] = calls(name)
        m[f"truncated.{side}_cells"] = cells
        m[f"truncated.{side}_ns_per_cell"] = _ratio(ms(name) * 1e6, cells)

    synth = ("synthesizer.synthesize_datasets",
             "synthesizer.synthesize_datasets@simulation")
    records = counts.get("synthesizer.records", 0)
    m["synthesizer.records"] = records
    m["synthesizer.records_per_s"] = _ratio(records, ms(*synth) / 1e3)
    m["synthesizer.orthant_share"] = _ratio(
        ms("truncated.truncnorm_sample@synthesizer"), ms(*synth))

    m["marginals.cdf_ms"] = ms("marginals.cdf")
    m["marginals.inverse_ms"] = ms("marginals.inverse", field="self_ns")

    moves = calls("bart.structure_step")
    m["bart.sweep_ms"] = _ratio(ms("bart.sweep"), calls("bart.sweep"))
    m["bart.moves"] = moves
    m["bart.accept_rate"] = _ratio(counts.get("bart.accepted", 0), moves)
    m["bart.snapshot_ms"] = ms("bart.snapshot")
    m["bart.predict_ms"] = ms("bart.ensemble_predict")
    fit_wall = sum(st["wall_s"] for st in it["stages"] if st["stage"] == "fit")
    m["bart.fit_share"] = _ratio(
        ms("target_regression.fit_target_model") / 1e3, fit_wall)
    m["target_regression.latent_ms"] = ms(
        "factor_model.update_rank_column@target_regression")

    fits = calls("utility.fit_bayes_lm")
    m["utility.horseshoe_ms"] = _ratio(ms("utility.fit_bayes_lm"), fits)
    m["utility.horseshoe_fits"] = fits
    m["utility.pmse_ms"] = _ratio(ms("utility.pmse"), calls("utility.pmse"))

    scen = calls("risk.cmap_mean")
    m["risk.scenarios"] = scen
    m["risk.ms_per_scenario"] = _ratio(ms("risk.cmap_mean"), scen)

    m["archive.save_ms"] = ms("archive.save_archive")
    m["archive.load_ms"] = ms("archive.load_archive")
    m["schema.load_ms"] = ms("schema.load_dataset")
    m["schema.write_ms"] = ms("schema.write_csv")
    m["simulation.fit_ms"] = ms("synthesizer.fit_copula_model@simulation")
    m["simulation.synth_ms"] = ms("synthesizer.synthesize_datasets@simulation")
    m["cli.import_ms"] = statistics.median(
        st["trace"]["import_ns"] / 1e6 for st in it["stages"])

    layer_self = defaultdict(int)
    for name, s in agg.items():
        layer_self[name.split(".", 1)[0]] += s["self_ns"]
    for layer in LAYERS:
        m[f"{layer}.self_ms"] = layer_self.get(layer, 0) / 1e6
    return m


def per_layer_metrics(iterations: list, quality: dict) -> dict:
    """Medians over traced iterations, plus command times and output quality."""
    per_it = [iteration_metrics(it) for it in iterations]
    m = {k: statistics.median(d[k] for d in per_it) for k in per_it[0]}
    for c in COMMANDS:
        times = [st["wall_s"] for it in iterations for st in it["stages"]
                 if st["stage"] == c]
        m[f"cli.{c}_s"] = statistics.median(times) if times else 0.0
    m["utility.u"] = quality.get("utility_u", 0.0)
    m["simulation.rpl_mse"] = quality.get("study_rpl_mse", 0.0)
    m["archive.size_mb"] = quality.get("archive_mb", 0.0)
    return m
