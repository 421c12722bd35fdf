"""Command-line front end: fit, synth, utility, risk, simulate.

Configuration precedence is CLI flag > ``--config`` JSON file > preset >
built-in default.  Every report embeds the effective seed and a hash of the
effective configuration (output paths excluded and input files keyed by their
SHA-256, so the hash does not depend on where the files live);
dataset-producing commands write a ``manifest.json`` sidecar carrying the
same pair and the model archive's SHA-256.  Exit codes: 0 success, 1
configuration problems, 2 failures inside a pipeline stage.  Logs go to
stderr only.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import logging
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from . import _lazy

if TYPE_CHECKING:
    from .archive import ModelArchive, load_archive, save_archive
    from .errors import SchemaError
    from .factor_model import ChainConfig
    from .risk import RiskPlan, risk_study
    from .schema import MixedDataset, load_dataset, load_schema, write_csv
    from .simulation import STUDIES, preset, run_studies
    from .streams import substream
    from .synthesizer import SynthesisPlan, fit_copula_model, synthesize_datasets
    from .target_regression import TargetConfig, fit_target_model, synthesize_response
    from .utility import HorseshoeConfig, RegressionSpec, evaluate_utility

__all__ = ["main", "ConfigError"]

log = logging.getLogger("mixedsynth.cli")

# The names the commands use, by the module that defines them.  Each command
# imports its own modules when it runs (``_import``), so that no command pays
# for another's, while every name stays an attribute of this module: a
# test's stub or a tracer's wrapper bound here is what the command calls.
_MODULE_NAMES = {
    "archive": ("ModelArchive", "load_archive", "save_archive"),
    "errors": ("SchemaError",),
    "factor_model": ("ChainConfig",),
    "risk": ("RiskPlan", "risk_study"),
    "schema": ("MixedDataset", "load_dataset", "load_schema", "write_csv"),
    "simulation": ("STUDIES", "preset", "run_studies"),
    "streams": ("substream",),
    "synthesizer": ("SynthesisPlan", "fit_copula_model", "synthesize_datasets"),
    "target_regression": ("TargetConfig", "fit_target_model", "synthesize_response"),
    "utility": ("HorseshoeConfig", "RegressionSpec", "evaluate_utility"),
}
__getattr__ = _lazy(globals(), _MODULE_NAMES)


def _import(*modules: str) -> None:
    """Bind the names of ``modules`` that are not bound here yet."""
    for mod in modules:
        for name in _MODULE_NAMES[mod]:
            if name not in globals():
                __getattr__(name)


class ConfigError(Exception):
    """Bad or missing configuration; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad arguments; we reserve 2 for stage failures
    def error(self, message):
        raise ConfigError(message)


# output paths and logging leave the outputs unchanged, so the hash skips them
_UNHASHED_KEYS = {"out", "out_dir", "keep_datasets", "config", "verbose"}

_PRESETS = {
    # fit's copula chain length / targeted-regression settings; simulate
    # takes the same names, with its settings in simulation.preset
    "paper": {"iters": 50000, "burn_in": 25000, "thin": 25,
              "target_iters": 1100, "target_burn_in": 100},
    "desk": {"iters": 3000, "burn_in": 1500, "thin": 5,
             "target_iters": 600, "target_burn_in": 100},
}


# input paths are keyed by what they hold, not by how they are spelled
_INPUT_FILES = {"data", "schema", "model", "conf"}
_INPUT_LISTS = {"syn", "pool"}
_INPUT_DIRS = {"syn_dir", "pool_dir"}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _content_key(value):
    """Digest of an input file, or name -> digest over a directory's CSVs;
    the value itself when there is nothing to read."""
    path = Path(value)
    if path.is_dir():
        return {p.name: _sha256(p) for p in sorted(path.glob("*.csv"))}
    if path.is_file():
        return _sha256(path)
    return value


def _config_hash(cfg: dict) -> str:
    doc = {}
    for k, v in cfg.items():
        if k in _UNHASHED_KEYS:
            continue
        if k in _INPUT_FILES or k in _INPUT_DIRS:
            v = _content_key(v)
        elif k in _INPUT_LISTS:
            v = [_content_key(p) for p in _csv_list(v)]
        doc[k] = v
    blob = json.dumps(doc, sort_keys=True, default=str).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


def _csv_list(value):
    return [part.strip() for part in str(value or "").split(",") if part.strip()]


def _int_list(value):
    try:
        return [int(v) for v in _csv_list(value)]
    except ValueError as exc:
        raise ConfigError(f"expected a comma-separated integer list: {exc}")


def _merge_config(args: argparse.Namespace, defaults: dict) -> dict:
    given = {k: v for k, v in vars(args).items() if v is not None}
    from_file, path = {}, given.get("config")
    if path:
        try:
            from_file = json.loads(Path(path).read_text(encoding="utf-8-sig"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file '{path}': {exc}")
        if not isinstance(from_file, dict):
            raise ConfigError(f"config file '{path}' must hold a JSON object")
        from_file = _file_settings(args.subcommand, from_file, path)
    cfg = dict(defaults)
    # a preset named here has passed its flag's choices
    preset_name = given.get("preset", from_file.get("preset"))
    if preset_name is not None and args.subcommand == "fit":
        cfg.update(_PRESETS[preset_name])
    cfg.update(from_file)
    cfg.update(given)
    missing = [k for k in _REQUIRED[args.subcommand] if cfg.get(k) in (None, "")]
    if missing:
        flags = ", ".join("--" + k.replace("_", "-") for k in missing)
        raise ConfigError(f"missing required settings for '{args.subcommand}': {flags}")
    return cfg


def _file_settings(command: str, doc: dict, path) -> dict:
    """``--config`` settings read as the command's flags read them: each key
    must be a flag's name, and its value, as the text the flag would take (a
    list comma-joined), passes the flag's type and choices; a null value
    leaves the setting unset, as an absent flag does."""
    actions = {a.dest: a for a in _build_parser().commands[command]._actions}
    for key, value in doc.items():
        action = actions.get(key)
        if action is None or key == "help":
            raise ConfigError(f"'{key}' in config file '{path}' is not a flag of "
                              f"'{command}'")
        if value is None:
            continue
        convert = action.type or str
        try:
            doc[key] = value = convert(
                ",".join(map(str, value)) if isinstance(value, list) else str(value))
        except ValueError:
            raise ConfigError(f"invalid {convert.__name__} value {value!r} for "
                              f"{action.option_strings[0]} in config file "
                              f"'{path}'") from None
        if action.choices and value not in action.choices:
            raise ConfigError(f"unknown {key} {value!r} in config file '{path}'; "
                              f"choose from {sorted(action.choices)}")
    return {k: v for k, v in doc.items() if v is not None}


def _checked(make, *args, **settings):
    """``make(*args, **settings)``; a value that a config class rejects is a
    configuration error."""
    try:
        return make(*args, **settings)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _json_out(path, doc: dict) -> None:
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _load_pool(cfg: dict, key: str, schema) -> tuple[list, list]:
    """Synthetic datasets from explicit paths and/or a directory of CSVs."""
    paths = [Path(p) for p in _csv_list(cfg.get(key))]
    if cfg.get(key + "_dir"):
        paths.extend(sorted(Path(cfg[key + "_dir"]).glob("*.csv")))
    if not paths:
        raise ConfigError(f"no synthetic datasets given (--{key} / --{key}-dir)")
    return [load_dataset(p, schema) for p in paths], paths


# ---------------------------------------------------------------- fit


def _cmd_fit(cfg: dict) -> None:
    _import("schema", "errors", "factor_model", "synthesizer", "target_regression",
            "archive")
    seed = cfg["seed"]
    chain = _checked(
        ChainConfig,
        iters=cfg["iters"],
        burn_in=cfg["burn_in"],
        thin=cfg["thin"],
        n_factors=cfg.get("factors"),
        seed=seed,
    )
    target_cfg = _checked(
        TargetConfig,
        iters=cfg["target_iters"],
        burn_in=cfg["target_burn_in"],
        trees=cfg["target_trees"],
        seed=seed,
    )
    schema = load_schema(cfg["schema"])
    targets = set(_csv_list(cfg.get("targets")))
    unknown = targets - {c.name for c in schema}
    if unknown:
        raise ConfigError(f"--targets names unknown columns: {sorted(unknown)}")
    try:
        schema = tuple(
            dataclasses.replace(c, role="response") if c.name in targets else c
            for c in schema
        )
    except SchemaError as exc:  # a kind that cannot be a response
        raise ConfigError(f"--targets: {exc}") from None
    targets = [c.name for c in schema if c.role == "response"]
    if len(targets) == len(schema):
        raise ConfigError("--targets: every column is a response; the copula "
                          "model needs at least one copula-role column")
    ds = load_dataset(cfg["data"], schema)

    log.info("fitting copula model on %d records, %d columns",
             ds.n, len(ds.copula_columns))
    model = fit_copula_model(ds, chain)

    summaries = {}
    for name in targets:
        log.info("fitting targeted regression for response '%s'", name)
        summaries[name] = fit_target_model(ds, name, target_cfg)

    out = cfg["out"]
    save_archive(out, ModelArchive(model, summaries, schema, seed,
                                   {"config_hash": _config_hash(cfg)}))
    log.info("archive written to %s", out)


# ---------------------------------------------------------------- synth


def _cmd_synth(cfg: dict) -> None:
    _import("archive", "synthesizer", "target_regression", "streams", "schema")
    seed = cfg["seed"]
    # the settings are checked before the archive is read
    plan = _checked(SynthesisPlan, m=cfg["m"], n_out=cfg.get("n_out"), seed=seed)
    ar = load_archive(cfg["model"])
    orthant = []
    sets = synthesize_datasets(ar.model, plan, diagnostics=orthant)
    log.info(
        "orthant draws per dataset (tilted proposals/rejection rounds): %s",
        ", ".join(f"{o.proposed}/{o.rounds}" for o in orthant),
    )

    out_dir = Path(cfg["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = cfg["stem"]
    files, digests = [], {}
    for i, s in enumerate(sets):
        cols = dict(s.columns)
        for name, summary in ar.targets.items():
            cols[name] = synthesize_response(
                summary, s, substream(seed, "target-synth", i, name))
        full = MixedDataset(ar.full_schema, cols)
        path = out_dir / f"{stem}_syn_{i}.csv"
        write_csv(full, path)
        files.append(path.name)
        digests[path.name] = _sha256(path)
    _json_out(out_dir / "manifest.json", {
        "config_hash": _config_hash(cfg),
        "seed": seed,
        "model": _sha256(Path(cfg["model"])),
        "model_schema_hash": ar.schema_hash,
        "files": files,
        "sha256": digests,
        "orthant": [dataclasses.asdict(o) for o in orthant],
    })
    log.info("wrote %d synthetic datasets to %s", len(files), out_dir)


# ---------------------------------------------------------------- utility


def _cmd_utility(cfg: dict) -> None:
    _import("schema", "utility")
    spec = _checked(
        RegressionSpec,
        response=cfg["response"],
        predictors=tuple(_csv_list(cfg["predictors"])),
        interactions=tuple(
            tuple(pair.split(":")) for pair in _csv_list(cfg.get("interactions"))
        ),
    )
    hc = _checked(
        HorseshoeConfig,
        iters=cfg["iters"],
        burn_in=cfg["burn_in"],
        seed=cfg.get("seed") or 0,
    )
    schema = load_schema(cfg["schema"])
    conf = load_dataset(cfg["conf"], schema)
    syn, _ = _load_pool(cfg, "syn", schema)
    report = evaluate_utility(conf, syn, spec, hc)
    _json_out(cfg["out"], {
        "config_hash": _config_hash(cfg),
        "seed": hc.seed,
        "m": len(syn),
        **dataclasses.asdict(report),
    })
    log.info("utility report written to %s (U=%.4f)", cfg["out"], report.U)


# ---------------------------------------------------------------- risk


def _cmd_risk(cfg: dict) -> None:
    _import("schema", "risk")
    # the settings are checked before any file is read
    plan = _checked(
        RiskPlan,
        known=_csv_list(cfg["known"]),
        target=cfg["target"],
        m_grid=_int_list(cfg["m"]),
        eps_grid=_int_list(cfg["eps"]),
        reps=cfg["reps"],
        seed=cfg.get("seed") or 0,
    )
    schema = load_schema(cfg["schema"])
    conf = load_dataset(cfg["conf"], schema)
    pool, _ = _load_pool(cfg, "pool", schema)
    cells = risk_study(conf, pool, plan)
    _json_out(cfg["out"], {
        "config_hash": _config_hash(cfg),
        "seed": plan.seed,
        "known": list(plan.known),
        "target": plan.target,
        "cells": [dataclasses.asdict(c) for c in cells],
    })
    log.info("risk report written to %s (%d cells)", cfg["out"], len(cells))


# ---------------------------------------------------------------- simulate


def _cmd_simulate(cfg: dict) -> None:
    _import("simulation", "schema")
    seed = cfg["seed"]
    design, chain = preset(cfg["preset"], seed=seed)
    if cfg.get("reps") is not None:
        design = _checked(dataclasses.replace, design, n_reps=cfg["reps"])
    names = _csv_list(cfg.get("studies")) or list(STUDIES)
    bad = [s for s in names if s not in STUDIES]
    if bad:
        raise ConfigError(f"unknown studies {bad}; choose from {sorted(STUDIES)}")

    keep_dir = Path(cfg["keep_datasets"]) if cfg.get("keep_datasets") else None
    log.info("running %s studies (n=%d, reps=%d)",
             ", ".join(names), design.n, design.n_reps)
    results = run_studies(names, design, chain, keep_data=keep_dir is not None)
    studies = {name: res.to_doc() for name, res in results.items()}
    if keep_dir is not None:
        for name, res in results.items():
            sub = keep_dir / name
            sub.mkdir(parents=True, exist_ok=True)
            for i, s in enumerate(res.datasets):
                write_csv(s, sub / f"{name}_syn_{i}.csv")
    doc = {
        "config_hash": _config_hash(cfg),
        "seed": seed,
        "preset": cfg["preset"],
        "design": dataclasses.asdict(design),
        "studies": studies,
    }
    if {"rpl", "rl"} <= studies.keys():
        doc["orderings"] = {
            "rl_mse_greater": studies["rl"]["avg_mse"] > studies["rpl"]["avg_mse"],
            "rpl_multi_rate_zero": studies["rpl"]["multi_rate"] == 0.0,
            "rl_multi_rate_over_5pct": studies["rl"]["multi_rate"] > 0.05,
        }
    _json_out(cfg["out"], doc)
    log.info("simulation summary written to %s", cfg["out"])


# ---------------------------------------------------------------- wiring


_REQUIRED = {
    "fit": ("data", "schema", "out", "seed"),
    "synth": ("model", "out_dir", "seed"),
    "utility": ("conf", "schema", "out", "response", "predictors"),
    "risk": ("conf", "schema", "out", "known", "target"),
    "simulate": ("out", "seed"),
}

def _defaults(command: str) -> dict:
    """Built-in defaults.  fit, synth, utility and risk read theirs from the
    config classes, imported only when that command runs."""
    if command == "fit":
        _import("factor_model", "target_regression")
        return {"iters": ChainConfig.iters, "burn_in": ChainConfig.burn_in,
                "thin": ChainConfig.thin, "target_iters": TargetConfig.iters,
                "target_burn_in": TargetConfig.burn_in,
                "target_trees": TargetConfig.trees}
    if command == "synth":
        _import("synthesizer")
        return {"m": SynthesisPlan.m, "stem": "data"}
    if command == "utility":
        _import("utility")
        return {"iters": HorseshoeConfig.iters, "burn_in": HorseshoeConfig.burn_in}
    if command == "risk":
        _import("risk")
        return {"m": ",".join(map(str, RiskPlan.m_grid)),
                "eps": ",".join(map(str, RiskPlan.eps_grid)), "reps": RiskPlan.reps}
    return {"preset": "desk"}


_HANDLERS = {
    "fit": _cmd_fit,
    "synth": _cmd_synth,
    "utility": _cmd_utility,
    "risk": _cmd_risk,
    "simulate": _cmd_simulate,
}


def _build_parser() -> _Parser:
    top = _Parser(prog="mixedsynth",
                  description="Synthetic mixed-data generation and evaluation")
    top.add_argument("-v", "--verbose", action="store_true")
    sub = top.add_subparsers(dest="subcommand", required=True,
                             parser_class=_Parser)
    top.commands = sub.choices  # command name -> its parser

    def common(p):
        p.add_argument("--config", help="JSON file with defaults for this command")
        p.add_argument("--seed", type=int)

    p = sub.add_parser("fit", help="fit the copula model (and targeted regressions)")
    common(p)
    p.add_argument("--data", help="confidential CSV")
    p.add_argument("--schema", help="schema JSON")
    p.add_argument("--out", help="model archive path")
    p.add_argument("--preset", choices=sorted(_PRESETS))
    p.add_argument("--iters", type=int)
    p.add_argument("--burn-in", dest="burn_in", type=int)
    p.add_argument("--thin", type=int)
    p.add_argument("--factors", type=int, help="latent factors (default: p*/2 rule)")
    p.add_argument("--targets", help="comma-separated response columns")
    p.add_argument("--target-iters", dest="target_iters", type=int)
    p.add_argument("--target-burn-in", dest="target_burn_in", type=int)
    p.add_argument("--target-trees", dest="target_trees", type=int)

    p = sub.add_parser("synth", help="generate synthetic datasets from an archive")
    common(p)
    p.add_argument("--model", help="model archive from 'fit'")
    p.add_argument("--out-dir", dest="out_dir")
    p.add_argument("--m", type=int, help="number of synthetic datasets")
    p.add_argument("--n-out", dest="n_out", type=int,
                   help="records per dataset (default: fitted size)")
    p.add_argument("--stem", help="output file stem")

    p = sub.add_parser("utility", help="score analytic utility of a release")
    common(p)
    p.add_argument("--conf", help="confidential CSV")
    p.add_argument("--schema")
    p.add_argument("--syn", help="comma-separated synthetic CSVs")
    p.add_argument("--syn-dir", dest="syn_dir", help="directory of synthetic CSVs")
    p.add_argument("--response")
    p.add_argument("--predictors", help="comma-separated predictor columns")
    p.add_argument("--interactions", help="comma-separated a:b pairs")
    p.add_argument("--iters", type=int)
    p.add_argument("--burn-in", dest="burn_in", type=int)
    p.add_argument("--out", help="JSON report path")

    p = sub.add_parser("risk", help="attribute-disclosure risk study")
    common(p)
    p.add_argument("--conf")
    p.add_argument("--schema")
    p.add_argument("--pool", help="comma-separated synthetic CSVs")
    p.add_argument("--pool-dir", dest="pool_dir")
    p.add_argument("--known", help="comma-separated known columns")
    p.add_argument("--target")
    p.add_argument("--m", help="comma-separated release sizes")
    p.add_argument("--eps", help="comma-separated integer slacks")
    p.add_argument("--reps", type=int)
    p.add_argument("--out")

    p = sub.add_parser("simulate", help="two-column benchmark study")
    common(p)
    p.add_argument("--preset", choices=("paper", "desk"))
    p.add_argument("--reps", type=int, help="override replicate count")
    p.add_argument("--studies",
                   help="comma-separated subset of the benchmark studies (default: all)")
    p.add_argument("--keep-datasets", dest="keep_datasets",
                   help="directory to dump per-study synthetic CSVs")
    p.add_argument("--out")

    return top


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    command = args.subcommand
    try:
        cfg = _merge_config(args, _defaults(command))
        _HANDLERS[command](cfg)
    except ConfigError as exc:
        log.error("configuration error: %s", exc)
        return 1
    except Exception as exc:  # any stage/module failure
        log.error("%s failed: %s", command, exc)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
