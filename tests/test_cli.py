"""Command-line behavior: exit codes, precedence, manifests, reproducibility."""
import hashlib
import json
import multiprocessing
import subprocess
import sys
import time
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from mixedsynth import cli, simulation
from mixedsynth.cli import (
    ConfigError,
    _build_parser,
    _config_hash,
    _csv_list,
    _defaults,
    _int_list,
    _merge_config,
    main,
)
from mixedsynth.errors import NumericalOverflowError
from mixedsynth.factor_model import ChainConfig
from mixedsynth.schema import ColumnSchema, Kind, MixedDataset, load_dataset, write_csv
from mixedsynth.simulation import (
    SimDesign,
    preset,
    run_study,
)

_SCHEMA_DOC = {
    "columns": [
        {"name": "g", "kind": "categorical", "levels": ["a", "b", "c"]},
        {"name": "y", "kind": "count"},
        {"name": "w", "kind": "continuous"},
        {"name": "r", "kind": "count", "role": "response"},
    ]
}


def _make_inputs(root):
    rng = np.random.default_rng(0)
    n = 200
    g = rng.integers(0, 3, n)
    ds = MixedDataset(
        tuple(
            ColumnSchema(d["name"], Kind(d["kind"]),
                         tuple(d["levels"]) if "levels" in d else None,
                         d.get("role", "copula"))
            for d in _SCHEMA_DOC["columns"]
        ),
        {
            "g": g,
            "y": rng.poisson(4.0 + 2.0 * g).astype(np.int64),
            "w": rng.normal(0.5 * g, 1.0),
            "r": rng.poisson(np.exp(0.3 * g) + 1.0).astype(np.int64),
        },
    )
    data = root / "conf.csv"
    write_csv(ds, data)
    schema = root / "schema.json"
    schema.write_text(json.dumps(_SCHEMA_DOC))
    return data, schema


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    data, schema = _make_inputs(root)
    archive = root / "model.mxs"
    rc = main([
        "fit", "--data", str(data), "--schema", str(schema),
        "--out", str(archive), "--seed", "3",
        "--iters", "300", "--burn-in", "150", "--thin", "5",
        "--target-iters", "60", "--target-burn-in", "10", "--target-trees", "6",
    ])
    assert rc == 0 and archive.exists()

    syn_dir = root / "syn"
    rc = main([
        "synth", "--model", str(archive), "--out-dir", str(syn_dir),
        "--m", "3", "--seed", "11",
    ])
    assert rc == 0
    return {"root": root, "data": data, "schema": schema,
            "archive": archive, "syn_dir": syn_dir}


def test_synth_outputs_and_manifest(workspace):
    syn_dir = workspace["syn_dir"]
    manifest = json.loads((syn_dir / "manifest.json").read_text())
    assert manifest["seed"] == 11
    assert len(manifest["config_hash"]) == 16
    assert manifest["files"] == [f"data_syn_{i}.csv" for i in range(3)]
    assert sorted(manifest["sha256"]) == manifest["files"]
    for name, digest in manifest["sha256"].items():
        assert digest == hashlib.sha256((syn_dir / name).read_bytes()).hexdigest()
    from mixedsynth.schema import load_schema

    schema = load_schema(workspace["schema"])
    for name in manifest["files"]:
        ds = load_dataset(syn_dir / name, schema)
        assert ds.n == 200
        assert [c.name for c in ds.schema] == ["g", "y", "w", "r"]


def test_synth_byte_reproducible(workspace, tmp_path):
    args = ["synth", "--model", str(workspace["archive"]), "--m", "2",
            "--seed", "11"]
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out-dir", str(a_dir)]) == 0
    assert main(args + ["--out-dir", str(b_dir)]) == 0
    for i in range(2):
        fa = (a_dir / f"data_syn_{i}.csv").read_bytes()
        fb = (b_dir / f"data_syn_{i}.csv").read_bytes()
        assert fa == fb
    # same knobs, different out dir: identical manifests (paths are unhashed)
    ma = json.loads((a_dir / "manifest.json").read_text())
    mb = json.loads((b_dir / "manifest.json").read_text())
    assert ma == mb

    c_dir = tmp_path / "c"
    assert main(["synth", "--model", str(workspace["archive"]), "--m", "2",
                 "--seed", "12", "--out-dir", str(c_dir)]) == 0
    fc = (c_dir / "data_syn_0.csv").read_bytes()
    assert fc != (a_dir / "data_syn_0.csv").read_bytes()


def test_synth_manifest_independent_of_archive_location(workspace, tmp_path):
    """One archive copied into two directories and synthesized at one seed
    gives byte-identical manifests that name the archive by its SHA-256."""
    manifests = []
    for sub in ("first", "second/nested"):
        root = tmp_path / sub
        root.mkdir(parents=True)
        archive = root / "model.mxs"
        archive.write_bytes(workspace["archive"].read_bytes())
        assert main(["synth", "--model", str(archive), "--m", "1", "--n-out", "50",
                     "--seed", "4", "--out-dir", str(root / "syn")]) == 0
        manifests.append((root / "syn" / "manifest.json").read_bytes())
    assert manifests[0] == manifests[1]
    digest = hashlib.sha256(workspace["archive"].read_bytes()).hexdigest()
    assert json.loads(manifests[0])["model"] == digest


def test_utility_command(workspace, tmp_path):
    out = tmp_path / "utility.json"
    rc = main([
        "utility", "--conf", str(workspace["data"]),
        "--schema", str(workspace["schema"]),
        "--syn-dir", str(workspace["syn_dir"]),
        "--response", "w", "--predictors", "g,y",
        "--iters", "400", "--burn-in", "200", "--seed", "0",
        "--out", str(out),
    ])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["m"] == 3
    assert 0.0 <= doc["U"] <= 1.0
    assert doc["pmse"] >= 0.0
    assert "per_coefficient" in doc and len(doc["config_hash"]) == 16


def test_risk_command(workspace, tmp_path):
    out = tmp_path / "risk.json"
    rc = main([
        "risk", "--conf", str(workspace["data"]),
        "--schema", str(workspace["schema"]),
        "--pool-dir", str(workspace["syn_dir"]),
        "--known", "g,y", "--target", "r",
        "--m", "2,3", "--eps", "0,1", "--reps", "2", "--seed", "4",
        "--out", str(out),
    ])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["known"] == ["g", "y"]
    got = {(c["m"], c["epsilon"]) for c in doc["cells"]}
    assert {(2, 0), (2, 1), (3, 0), (3, 1)} <= got
    for c in doc["cells"]:
        assert 0.0 <= c["cmap_syn"] <= 1.0


def _risk_inputs(root):
    """Confidential table plus a four-dataset pool drawn straight from numpy,
    so a risk or utility report depends on its scoring code alone, not on
    fit or synth."""
    data, schema = _make_inputs(root)
    rng = np.random.default_rng(5)
    cols = [
        ColumnSchema(d["name"], Kind(d["kind"]),
                     tuple(d["levels"]) if "levels" in d else None)
        for d in _SCHEMA_DOC["columns"]
    ]
    pool = root / "pool"
    pool.mkdir()
    for i in range(4):
        n = 150
        g = rng.integers(0, 3, n)
        write_csv(MixedDataset(tuple(cols), {
            "g": g,
            "y": rng.poisson(4.0 + 2.0 * g).astype(np.int64),
            "w": rng.normal(0.0, 1.0, n),
            "r": rng.poisson(np.exp(0.3 * g) + 1.0).astype(np.int64),
        }), pool / f"pool_{i}.csv")
    return data, schema, pool


def test_risk_report_digest(tmp_path):
    """A small risk report is pinned byte for byte: key indexing, the
    median pass and the averaging over reps may be rewritten, not moved."""
    data, schema, pool = _risk_inputs(tmp_path)
    out = tmp_path / "risk.json"
    assert main([
        "risk", "--conf", str(data), "--schema", str(schema),
        "--pool-dir", str(pool), "--known", "g,y", "--target", "r",
        "--m", "1,2,3", "--eps", "0,1,2", "--reps", "4", "--seed", "9",
        "--out", str(out),
    ]) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == "660eeda02cf9ef586d4dfa2656660ea066c53610535fc67eec120023a1aad127"


def test_utility_report_digest(tmp_path):
    """A small utility report is pinned byte for byte: the horseshoe fits,
    pooling, pMSE and the report's JSON form may be rewritten, not moved."""
    data, schema, pool = _risk_inputs(tmp_path)
    out = tmp_path / "utility.json"
    assert main([
        "utility", "--conf", str(data), "--schema", str(schema),
        "--syn-dir", str(pool), "--response", "w", "--predictors", "g,y",
        "--interactions", "g:y", "--iters", "120", "--burn-in", "60",
        "--seed", "7", "--out", str(out),
    ]) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == "45d4feefef954b6dddfb74d82ce0ddda6b83b57cbd754f9336bb51f866626d2f"


@pytest.mark.parametrize("command, flags", [
    ("risk", ["--target", "c1"]),
    ("risk", ["--known", "g1,c1", "--target", "c1"]),
    ("risk", ["--known", "g1", "--target", "c1", "--eps", "0,zap"]),
    ("utility", ["--predictors", "g"]),
    ("utility", ["--response", "y", "--predictors", "y,w"]),
    ("utility", ["--response", "r", "--predictors", "w,w"]),
])
def test_settings_checked_before_files_are_read(tmp_path, caplog, command, flags):
    """Missing or contradictory settings are configuration errors (exit 1),
    found before the confidential CSV or the pool is read."""
    pool = "--pool-dir" if command == "risk" else "--syn-dir"
    rc = main([command, "--conf", str(tmp_path / "nope.csv"),
               "--schema", str(tmp_path / "nope.json"), pool, str(tmp_path),
               "--out", str(tmp_path / "out.json")] + flags)
    assert rc == 1
    assert "configuration error" in caplog.text
    assert "No such file" not in caplog.text


@pytest.mark.parametrize("argv, message", [
    (["fit", "--data", "{tmp}/nope.csv", "--schema", "{tmp}/nope.json",
      "--seed", "0", "--thin", "0"], "thin must be >= 1"),
    (["fit", "--data", "{tmp}/nope.csv", "--schema", "{tmp}/nope.json",
      "--seed", "0", "--burn-in", "20", "--iters", "10"], "burn_in must be smaller"),
    (["synth", "--model", "{tmp}/nope.mxs", "--out-dir", "{tmp}/syn",
      "--seed", "0", "--m", "0"], "m must be >= 1"),
    (["synth", "--model", "{tmp}/nope.mxs", "--out-dir", "{tmp}/syn",
      "--seed", "0", "--n-out", "0"], "n_out must be >= 1"),
    (["utility", "--conf", "{tmp}/nope.csv", "--schema", "{tmp}/nope.json",
      "--syn-dir", "{tmp}", "--response", "r", "--predictors", "g",
      "--iters", "10", "--burn-in", "20"], "need 0 <= burn_in < iters"),
    (["simulate", "--seed", "0", "--reps", "0"], "n and n_reps must be positive"),
    (["fit", "--data", "{tmp}/nope.csv", "--schema", "{tmp}/nope.json",
      "--seed", "0", "--factors", "0"], "n_factors must be >= 1"),
    (["fit", "--data", "{tmp}/nope.csv", "--schema", "{tmp}/nope.json",
      "--seed", "0", "--factors", "-2"], "n_factors must be >= 1"),
    (["fit", "--data", "{tmp}/nope.csv", "--schema", "{tmp}/nope.json",
      "--seed", "0", "--burn-in", "-5"], "burn_in must be >= 0"),
    (["fit", "--data", "{tmp}/nope.csv", "--schema", "{tmp}/nope.json",
      "--seed", "0", "--targets", "r", "--target-trees", "-1"], "trees must be >= 0"),
    # target settings are checked even when no response is targeted
    (["fit", "--data", "{tmp}/nope.csv", "--schema", "{tmp}/nope.json",
      "--seed", "0", "--target-iters", "20", "--target-burn-in", "20"],
     "need 0 <= burn_in < iters"),
    (["utility", "--conf", "{tmp}/nope.csv", "--schema", "{tmp}/nope.json",
      "--syn-dir", "{tmp}", "--response", "r", "--predictors", "x,y",
      "--interactions", "x:z"], "interaction (x,z) references undeclared predictors"),
    (["utility", "--conf", "{tmp}/nope.csv", "--schema", "{tmp}/nope.json",
      "--syn-dir", "{tmp}", "--response", "r", "--predictors", "x,y",
      "--interactions", "x"], "interaction 'x' must name two predictors as a:b"),
    (["utility", "--conf", "{tmp}/nope.csv", "--schema", "{tmp}/nope.json",
      "--syn-dir", "{tmp}", "--response", "r", "--predictors", "x,y",
      "--interactions", "x:y:w"], "interaction 'x:y:w' must name two predictors"),
    (["utility", "--conf", "{tmp}/nope.csv", "--schema", "{tmp}/nope.json",
      "--syn-dir", "{tmp}", "--response", "r", "--predictors", ","],
     "the regression needs at least one predictor"),
    (["utility", "--conf", "{tmp}/nope.csv", "--schema", "{tmp}/nope.json",
      "--syn-dir", "{tmp}", "--response", "r", "--predictors", "g,y",
      "--interactions", "g:y,y:g"], "interactions named more than once: ['g:y']"),
    (["risk", "--conf", "{tmp}/nope.csv", "--schema", "{tmp}/nope.json",
      "--pool-dir", "{tmp}", "--known", "g,g", "--target", "t"],
     "known names a column more than once: ('g', 'g')"),
])
def test_config_class_settings_checked_before_files_are_read(
        tmp_path, caplog, argv, message):
    """Values a config class rejects are configuration errors (exit 1), found
    before any input file is read and before anything is run or written."""
    out = tmp_path / "out.json"
    rc = main([a.replace("{tmp}", str(tmp_path)) for a in argv]
              + ["--out", str(out)] * (argv[0] != "synth"))
    assert rc == 1
    assert f"configuration error: {message}" in caplog.text
    assert "No such file" not in caplog.text
    assert not out.exists() and not (tmp_path / "syn").exists()


@pytest.mark.parametrize("doc, message", [
    ({"iterz": 5}, "'iterz' in config file '{cfg}' is not a flag of 'fit'"),
    ({"iters": "abc"}, "invalid int value 'abc' for --iters in config file '{cfg}'"),
    ({"iters": 5.5}, "invalid int value 5.5 for --iters in config file '{cfg}'"),
    ({"verbose": True}, "'verbose' in config file '{cfg}' is not a flag of 'fit'"),
])
def test_config_file_settings_follow_the_flag_rules(tmp_path, caplog, doc, message):
    """Each --config key must be a flag of the command, and its value passes
    that flag's type: otherwise a configuration error (exit 1), found before
    any input file is read."""
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(doc))
    out = tmp_path / "out.json"
    rc = main(["fit", "--data", str(tmp_path / "nope.csv"),
               "--schema", str(tmp_path / "nope.json"), "--seed", "0",
               "--config", str(cfg_file), "--out", str(out)])
    assert rc == 1
    assert f"configuration error: {message.format(cfg=cfg_file)}" in caplog.text
    assert "No such file" not in caplog.text
    assert not out.exists()


def test_config_file_values_read_as_flags(tmp_path):
    """A --config value goes through its flag's type and choices as the text
    the flag would take, so a string and a number configure the same run as
    the flag does, and hash alike; a null value leaves the setting to the
    preset or default."""
    argv = ["fit", "--data", "d.csv", "--schema", "s.json", "--out", "m.mxs",
            "--seed", "1"]
    hashes = []
    for doc in ({"iters": 50, "preset": "desk"},
                {"iters": "50", "preset": "desk", "thin": None}):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(doc))
        cfg, digest = _hashed([*argv, "--config", str(cfg_file)])
        assert (cfg["iters"], cfg["burn_in"], cfg["thin"]) == (50, 1500, 5)
        hashes.append(digest)
    assert hashes[0] == hashes[1]
    # a flag without a type reads text, and a list as its comma-joined form
    argv = ["utility", "--conf", "c.csv", "--schema", "s.json", "--out", "u.json",
            "--response", "r", "--syn", "a.csv,b.csv"]
    cfg_file.write_text(json.dumps({"predictors": ["g", "y"]}))
    cfg, digest = _hashed([*argv, "--config", str(cfg_file)])
    assert cfg["predictors"] == "g,y"
    assert digest == _hashed([*argv, "--predictors", "g,y"])[1]
    cfg_file.write_text(json.dumps({"stem": 5}))
    argv = ["synth", "--model", "m.mxs", "--out-dir", "o", "--seed", "1"]
    cfg, digest = _hashed([*argv, "--config", str(cfg_file)])
    assert cfg["stem"] == "5" and digest == _hashed([*argv, "--stem", "5"])[1]


@pytest.mark.parametrize("flag, value", [
    ("--m", "0"), ("--m", "2,-1"), ("--m", ""), ("--reps", "0"), ("--eps", "-1"),
    ("--known", ","), ("--target", "g"),
])
def test_risk_settings_out_of_range(tmp_path, caplog, flag, value):
    """Release sizes and rep counts below 1, negative slacks, an empty grid or
    known list and a known target are configuration errors that name the
    RiskPlan field, found before any file is read."""
    field = {"--m": "m_grid", "--eps": "eps_grid", "--reps": "reps",
             "--known": "known", "--target": "target"}[flag]
    rc = main(["risk", "--conf", str(tmp_path / "nope.csv"),
               "--schema", str(tmp_path / "nope.json"), "--pool-dir", str(tmp_path),
               "--known", "g", "--target", "r", flag, value,
               "--out", str(tmp_path / "out.json")])
    assert rc == 1
    assert f"configuration error: {field}" in caplog.text
    assert "No such file" not in caplog.text


def test_missing_seed_is_config_error(workspace, tmp_path, caplog):
    rc = main(["synth", "--model", str(workspace["archive"]),
               "--out-dir", str(tmp_path / "x")])
    assert rc == 1
    assert "missing required settings for 'synth': --seed" in caplog.text


def test_missing_required_path_is_config_error():
    assert main(["fit", "--seed", "0"]) == 1


def test_unknown_flag_and_subcommand():
    assert main(["fit", "--does-not-exist", "1"]) == 1
    assert main(["transmogrify"]) == 1
    assert main([]) == 1


def test_bad_archive_is_stage_failure(tmp_path):
    junk = tmp_path / "junk.mxs"
    junk.write_bytes(b"not an archive")
    rc = main(["synth", "--model", str(junk), "--out-dir", str(tmp_path / "o"),
               "--seed", "0"])
    assert rc == 2
    rc = main(["synth", "--model", str(tmp_path / "missing.mxs"),
               "--out-dir", str(tmp_path / "o"), "--seed", "0"])
    assert rc == 2


def test_categorical_target_rejected(tmp_path, caplog):
    """A categorical or binary --targets column is a configuration error
    (exit 1), found once the schema is read and before the data is."""
    doc = {"columns": _SCHEMA_DOC["columns"] + [{"name": "b", "kind": "binary"}]}
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps(doc))
    for name, kind in (("g", "categorical"), ("b", "binary")):
        caplog.clear()
        rc = main([
            "fit", "--data", str(tmp_path / "nope.csv"), "--schema", str(schema),
            "--out", str(tmp_path / "m.mxs"), "--seed", "0", "--targets", name,
        ])
        assert rc == 1
        assert (f"configuration error: --targets: column '{name}': response "
                f"columns must be ordinal, count, or continuous, not {kind}"
                in caplog.text)
        assert "No such file" not in caplog.text
    assert not (tmp_path / "m.mxs").exists()


def test_targets_must_leave_a_copula_column(tmp_path, caplog):
    """Naming every column in --targets, or a schema whose columns are all
    responses, is a configuration error (exit 1) naming --targets, found once
    the schema is read and before the data is."""
    numeric = [d for d in _SCHEMA_DOC["columns"] if d["kind"] != "categorical"]
    cases = [
        ({"columns": numeric}, ["--targets", "y,w,r"]),
        ({"columns": [dict(d, role="response") for d in numeric]}, []),
    ]
    for doc, flags in cases:
        caplog.clear()
        schema = tmp_path / "schema.json"
        schema.write_text(json.dumps(doc))
        rc = main(["fit", "--data", str(tmp_path / "nope.csv"), "--schema",
                   str(schema), "--out", str(tmp_path / "m.mxs"), "--seed", "0",
                   *flags])
        assert rc == 1
        assert ("configuration error: --targets: every column is a response"
                in caplog.text)
        assert "No such file" not in caplog.text
    assert not (tmp_path / "m.mxs").exists()


def test_unknown_target_rejected(workspace, tmp_path):
    rc = main([
        "fit", "--data", str(workspace["data"]),
        "--schema", str(workspace["schema"]),
        "--out", str(tmp_path / "m.mxs"), "--seed", "0",
        "--targets", "nope",
    ])
    assert rc == 1


def test_every_config_field_has_a_cli_caller(tmp_path, monkeypatch):
    """fit (with --targets), synth, utility and risk give every config class
    they build a value for each of its fields, so no field is one that no
    caller sets."""
    config_classes = ("ChainConfig", "TargetConfig", "HorseshoeConfig", "SynthesisPlan",
                      "RiskPlan")
    unset = {}  # class name -> the fields its construction left to defaults
    checked = cli._checked

    def recording(make, *args, **settings):
        if getattr(make, "__name__", None) in config_classes:
            names = [f.name for f in fields(make)]
            unset[make.__name__] = set(names[len(args):]) - set(settings)
        return checked(make, *args, **settings)

    monkeypatch.setattr(cli, "_checked", recording)
    data, schema = _make_inputs(tmp_path)
    archive, syn_dir = tmp_path / "m.mxs", tmp_path / "syn"
    assert main(["fit", "--data", str(data), "--schema", str(schema),
                 "--out", str(archive), "--seed", "1", "--targets", "r",
                 "--iters", "20", "--burn-in", "10", "--thin", "5",
                 "--target-iters", "20", "--target-burn-in", "10",
                 "--target-trees", "2"]) == 0
    assert main(["synth", "--model", str(archive), "--out-dir", str(syn_dir),
                 "--m", "2", "--seed", "2"]) == 0
    assert main(["utility", "--conf", str(data), "--schema", str(schema),
                 "--syn-dir", str(syn_dir), "--response", "w", "--predictors", "g",
                 "--iters", "20", "--burn-in", "10", "--out",
                 str(tmp_path / "u.json")]) == 0
    assert main(["risk", "--conf", str(data), "--schema", str(schema),
                 "--pool-dir", str(syn_dir), "--known", "g", "--target", "y",
                 "--m", "1,2", "--eps", "0,1", "--reps", "2", "--seed", "3",
                 "--out", str(tmp_path / "r.json")]) == 0
    assert unset == {name: set() for name in config_classes}


def test_fit_logs_bart_diagnostics(workspace, tmp_path, caplog):
    caplog.set_level("INFO", logger="mixedsynth")
    rc = main([
        "fit", "--data", str(workspace["data"]),
        "--schema", str(workspace["schema"]),
        "--out", str(tmp_path / "m.mxs"), "--seed", "3",
        "--iters", "40", "--burn-in", "20", "--thin", "5",
        "--target-iters", "30", "--target-burn-in", "10", "--target-trees", "5",
    ])
    assert rc == 0
    lines = [r.getMessage() for r in caplog.records if "BART acceptance" in r.getMessage()]
    assert len(lines) == 1 and lines[0].startswith("response 'r'")
    for move in ("grow", "prune", "change", "mean depth", "mean leaves"):
        assert move in lines[0]


def test_synth_reports_orthant_diagnostics(workspace, tmp_path, caplog):
    """Per dataset, the manifest and one INFO line give the tilted proposals
    made and the rejection rounds run."""
    caplog.set_level("INFO", logger="mixedsynth")
    out_dir = tmp_path / "syn"
    assert main(["synth", "--model", str(workspace["archive"]),
                 "--out-dir", str(out_dir), "--m", "3", "--n-out", "120",
                 "--seed", "11"]) == 0
    orthant = json.loads((out_dir / "manifest.json").read_text())["orthant"]
    assert len(orthant) == 3
    for doc in orthant:
        assert sorted(doc) == ["proposed", "rounds"]
        assert doc["proposed"] >= 120
        assert doc["rounds"] >= 1
    lines = [r.getMessage() for r in caplog.records
             if r.getMessage().startswith("orthant draws")]
    assert len(lines) == 1
    assert lines[0].endswith(", ".join(
        f"{d['proposed']}/{d['rounds']}" for d in orthant))


def test_synth_builds_the_response_grid_once(workspace, tmp_path, monkeypatch):
    """A continuous response's inverse-CDF grid is built once, by fit, and
    stored; synth only reads it back."""
    import mixedsynth.marginals as marginals

    builds = []
    kernel_cdf = marginals._kernel_cdf

    def counting_kernel_cdf(sample, h, x):
        builds.append(x.size)
        return kernel_cdf(sample, h, x)

    monkeypatch.setattr(marginals, "_kernel_cdf", counting_kernel_cdf)
    model = tmp_path / "m.mxs"
    assert main([
        "fit", "--data", str(workspace["data"]),
        "--schema", str(workspace["schema"]),
        "--out", str(model), "--seed", "3", "--targets", "w",
        "--iters", "40", "--burn-in", "20", "--thin", "5",
        "--target-iters", "20", "--target-burn-in", "5", "--target-trees", "3",
    ]) == 0
    # w is the only continuous column, and it is a response here
    assert builds == [marginals._GRID_POINTS]
    builds.clear()
    assert main(["synth", "--model", str(model), "--out-dir", str(tmp_path / "syn"),
                 "--m", "3", "--seed", "1"]) == 0
    assert builds == []


def test_config_file_and_flag_precedence(workspace, tmp_path):
    cfg_file = tmp_path / "synth.json"
    cfg_file.write_text(json.dumps({"m": 4, "seed": 11}))
    out_dir = tmp_path / "from_file"
    rc = main(["synth", "--model", str(workspace["archive"]),
               "--config", str(cfg_file), "--out-dir", str(out_dir)])
    assert rc == 0
    assert len(list(out_dir.glob("*_syn_*.csv"))) == 4

    out_dir2 = tmp_path / "flag_wins"
    rc = main(["synth", "--model", str(workspace["archive"]),
               "--config", str(cfg_file), "--out-dir", str(out_dir2),
               "--m", "1"])
    assert rc == 0
    assert len(list(out_dir2.glob("*_syn_*.csv"))) == 1


def test_preset_merging_order():
    parser = _build_parser()
    args = parser.parse_args([
        "fit", "--preset", "desk", "--iters", "77",
        "--data", "d.csv", "--schema", "s.json", "--out", "m.mxs", "--seed", "1",
    ])
    cfg = _merge_config(args, {"iters": 15000, "burn_in": 9000, "thin": 10,
                               "target_iters": 1100, "target_burn_in": 100,
                               "target_trees": 200})
    assert cfg["iters"] == 77          # explicit flag beats the preset
    assert cfg["burn_in"] == 1500      # preset beats the default
    assert cfg["thin"] == 5
    assert cfg["target_trees"] == 200  # untouched default survives


@pytest.mark.parametrize("command", ["fit", "simulate"])
def test_unknown_preset_in_config_file(workspace, tmp_path, caplog, command):
    """A preset named only in --config is checked like the --preset flag:
    configuration error, exit 1, nothing run."""
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"preset": "dsek"}))
    out = tmp_path / "out"
    args = {
        "fit": ["--data", str(workspace["data"]), "--schema",
                str(workspace["schema"])],
        "simulate": [],
    }[command]
    rc = main([command, "--config", str(cfg_file), "--seed", "0",
               "--out", str(out)] + args)
    assert rc == 1
    assert "configuration error: unknown preset 'dsek'" in caplog.text
    assert not out.exists()


def test_bad_config_file(workspace, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2, 3]")
    rc = main(["synth", "--model", str(workspace["archive"]),
               "--out-dir", str(tmp_path / "o"), "--seed", "0",
               "--config", str(bad)])
    assert rc == 1
    rc = main(["synth", "--model", str(workspace["archive"]),
               "--out-dir", str(tmp_path / "o"), "--seed", "0",
               "--config", str(tmp_path / "missing.json")])
    assert rc == 1


def test_config_file_with_byte_order_mark(tmp_path):
    """A --config file saved with a UTF-8 byte-order mark reads as the plain
    file does."""
    plain, marked = tmp_path / "plain.json", tmp_path / "marked.json"
    plain.write_text('{"m": 3, "stem": "rel"}', encoding="utf-8")
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    argv = ["synth", "--model", "m.mxs", "--out-dir", "o", "--seed", "1", "--config"]
    cfg, digest = _hashed(argv + [str(plain)])
    assert cfg["m"] == 3 and cfg["stem"] == "rel"
    # the hash covers every setting but the config file's path
    assert _hashed(argv + [str(marked)])[1] == digest


def test_config_hash_ignores_output_paths():
    base = {"m": 3, "seed": 1, "out_dir": "/a", "model": "m.mxs"}
    moved = dict(base, out_dir="/somewhere/else", config="x.json")
    assert _config_hash(base) == _config_hash(moved)
    assert _config_hash(dict(base, m=4)) != _config_hash(base)
    assert len(_config_hash(base)) == 16


def _hashed(argv):
    args = _build_parser().parse_args(argv)
    cfg = _merge_config(args, _defaults(args.subcommand))
    return cfg, _config_hash(cfg)


def test_config_hash_ignores_logging_flag():
    """-v changes only what goes to stderr, so it leaves the hash (and hence
    archive and manifest bytes) unchanged."""
    argv = ["synth", "--model", "m", "--out-dir", "o", "--seed", "1"]
    assert _hashed(argv)[1] == _hashed(["-v", *argv])[1]


def test_chain_presets_merge_into_fit_only():
    """fit's chain presets configure fit alone: simulate's settings come from
    simulation.preset, so naming its default preset leaves the hash as it
    is, and no fit chain length enters a simulate config."""
    base = ["simulate", "--seed", "1", "--out", "s.json"]
    assert _hashed(base)[1] == _hashed([*base, "--preset", "desk"])[1]
    cfg, _ = _hashed([*base, "--preset", "paper"])
    assert not {"iters", "burn_in", "thin", "target_iters"} & cfg.keys()
    fit, _ = _hashed(["fit", "--preset", "paper", "--data", "d.csv",
                      "--schema", "s.json", "--out", "m.mxs", "--seed", "1"])
    assert (fit["iters"], fit["burn_in"], fit["thin"]) == (50000, 25000, 25)


def test_fit_archive_independent_of_input_location(tmp_path):
    """Byte-identical inputs fitted from two directories give byte-identical
    archives: the config hash keys inputs by content, not by path."""
    digests = []
    for sub in ("first", "second/nested"):
        root = tmp_path / sub
        root.mkdir(parents=True)
        data, schema = _make_inputs(root)
        out = root / "model.mxs"
        assert main(["fit", "--data", str(data), "--schema", str(schema),
                     "--out", str(out), "--seed", "2", "--iters", "40",
                     "--burn-in", "20", "--thin", "5", "--target-iters", "10",
                     "--target-burn-in", "2", "--target-trees", "3"]) == 0
        digests.append(hashlib.sha256(out.read_bytes()).hexdigest())
    assert digests[0] == digests[1]


def test_config_hash_follows_input_content(tmp_path):
    data, schema = _make_inputs(tmp_path)
    cfg = {"data": str(data), "schema": str(schema), "seed": 1}
    before = _config_hash(cfg)
    lines = data.read_text().splitlines()
    lines[1] = lines[1].rsplit(",", 1)[0] + ",99"  # one cell of the last column
    data.write_text("\n".join(lines) + "\n")
    assert _config_hash(cfg) != before


def test_list_parsing():
    assert _csv_list("a, b ,c") == ["a", "b", "c"]
    assert _csv_list(None) == []
    assert _int_list("1, 2,3") == [1, 2, 3]
    with pytest.raises(ConfigError):
        _int_list("1,zap")


def test_simulate_command_smoke(tmp_path):
    out = tmp_path / "sim.json"
    keep = tmp_path / "kept"
    rc = main([
        "simulate", "--preset", "desk", "--reps", "2", "--studies", "rpl",
        "--seed", "1", "--keep-datasets", str(keep), "--out", str(out),
    ])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["preset"] == "desk"
    assert doc["design"]["n"] == 1000
    assert doc["design"]["n_reps"] == 2
    assert set(doc["studies"]) == {"rpl"}
    assert doc["studies"]["rpl"]["multi_rate"] == 0.0
    assert "orderings" not in doc  # needs both rpl and rl
    assert len(list((keep / "rpl").glob("rpl_syn_*.csv"))) == 2


def test_simulate_studies_match_in_process_runs(tmp_path):
    """The fanned-out studies report and keep exactly what the same studies
    give when run one after the other in this process."""
    out = tmp_path / "sim.json"
    keep = tmp_path / "kept"
    rc = main([
        "simulate", "--preset", "desk", "--reps", "2", "--studies", "rpl,rl",
        "--seed", "1", "--keep-datasets", str(keep), "--out", str(out),
    ])
    assert rc == 0
    doc = json.loads(out.read_text())
    design, chain = preset("desk", seed=1)
    design = replace(design, n_reps=2)
    ref = tmp_path / "ref.csv"
    for name in ("rpl", "rl"):
        res = run_study(name, design, chain, keep_data=True)
        assert doc["studies"][name] == json.loads(json.dumps(res.to_doc()))
        assert len(list((keep / name).glob("*.csv"))) == len(res.datasets) == 2
        for i, s in enumerate(res.datasets):
            write_csv(s, ref)
            kept = keep / name / f"{name}_syn_{i}.csv"
            assert kept.read_bytes() == ref.read_bytes()


def test_simulate_study_failure_is_stage_failure(tmp_path, monkeypatch, caplog):
    def overflow(data, n_levels):
        raise NumericalOverflowError("latent matrix non-finite at iteration 7")

    monkeypatch.setitem(simulation.STUDIES, "rl", overflow)
    # a short chain keeps the study that succeeds quick
    monkeypatch.setattr(cli, "preset", lambda name, seed: (
        SimDesign(n=100, n_reps=2, seed=seed),
        ChainConfig(iters=20, burn_in=10, thin=2, seed=seed),
    ))
    out = tmp_path / "s.json"
    rc = main(["simulate", "--studies", "rpl,rl", "--seed", "0", "--out", str(out)])
    assert rc == 2
    assert "latent matrix non-finite at iteration 7" in caplog.text
    assert multiprocessing.active_children() == []
    assert not out.exists()


def _children(pid):
    kids = set()
    for task in Path(f"/proc/{pid}/task").glob("*/children"):
        try:
            kids.update(int(c) for c in task.read_text().split())
        except OSError:  # the thread exited
            pass
    return kids


def _running(pid):
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"  # a zombie has exited


def test_simulate_workers_die_with_killed_parent(tmp_path, src_env):
    """SIGKILL of `simulate` (a harness deadline, say) takes its study
    workers with it instead of leaving them computing, then blocked."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "mixedsynth.cli", "simulate", "--preset", "desk",
         "--studies", "rpl,rl", "--seed", "0", "--out", str(tmp_path / "s.json")],
        stderr=subprocess.DEVNULL, env=src_env,
    )
    try:
        deadline = time.monotonic() + 60
        workers = set()
        while len(workers) < 2 and proc.poll() is None and time.monotonic() < deadline:
            time.sleep(0.05)
            workers = _children(proc.pid)
        assert len(workers) == 2
    finally:
        proc.kill()
        proc.wait()
    deadline = time.monotonic() + 10
    while any(map(_running, workers)) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not any(map(_running, workers))


def test_simulate_rejects_unknown_study(tmp_path):
    rc = main(["simulate", "--studies", "rpl,bogus", "--seed", "0",
               "--out", str(tmp_path / "s.json")])
    assert rc == 1


def test_release_commands_in_fresh_processes(workspace, tmp_path, src_env):
    """fit with a target, synth and utility, each in a new interpreter as a
    release runs them.  In-process tests share the names already bound in
    ``cli``, so a module missing from a command's imports shows only here."""
    def run(*argv):
        proc = subprocess.run([sys.executable, "-m", "mixedsynth.cli", *argv],
                              capture_output=True, text=True, env=src_env)
        assert proc.returncode == 0, proc.stderr

    archive, syn_dir, report = tmp_path / "m.mxs", tmp_path / "syn", tmp_path / "u.json"
    run("fit", "--data", str(workspace["data"]), "--schema", str(workspace["schema"]),
        "--out", str(archive), "--seed", "3", "--targets", "r",
        "--iters", "40", "--burn-in", "20", "--thin", "5",
        "--target-iters", "30", "--target-burn-in", "10", "--target-trees", "5")
    run("synth", "--model", str(archive), "--out-dir", str(syn_dir),
        "--m", "2", "--seed", "11")
    run("utility", "--conf", str(workspace["data"]), "--schema", str(workspace["schema"]),
        "--syn-dir", str(syn_dir), "--response", "r", "--predictors", "g,y",
        "--iters", "200", "--burn-in", "100", "--seed", "0", "--out", str(report))
    assert json.loads(report.read_text())["m"] == 2


def test_console_entry_point_help(src_env):
    proc = subprocess.run(
        [sys.executable, "-m", "mixedsynth.cli", "--help"],
        capture_output=True, text=True, env=src_env,
    )
    assert proc.returncode == 0
    assert "fit" in proc.stdout and "simulate" in proc.stdout
