"""Single-file model container: round-trip fidelity, what it holds, and
failure modes."""
import dataclasses
import io
import json

import numpy as np
import pytest

import mixedsynth.archive as archive_mod
from mixedsynth.archive import ModelArchive, load_archive, save_archive
from mixedsynth.bart import NUMCUT
from mixedsynth.errors import ArchiveError, ConstantColumnWarning
from mixedsynth.factor_model import ChainConfig
from mixedsynth.marginals import fit_marginal
from mixedsynth.schema import ColumnSchema, Kind, MixedDataset, schema_hash, schema_to_doc
from mixedsynth.synthesizer import SynthesisPlan, fit_copula_model, synthesize_datasets
from mixedsynth.target_regression import TargetConfig, fit_target_model, synthesize_response


@pytest.fixture(scope="module")
def fitted():
    rng = np.random.default_rng(0)
    n = 250
    g = rng.integers(0, 3, n)
    y = rng.poisson(3.0 + 2.0 * g).astype(np.int64)
    w = rng.normal(g * 0.5, 1.0)
    r = rng.poisson(np.exp(0.4 * g) + 1.0).astype(np.int64)
    ds = MixedDataset(
        (
            ColumnSchema("g", Kind.CATEGORICAL, levels=("a", "b", "c")),
            ColumnSchema("y", Kind.COUNT),
            ColumnSchema("w", Kind.CONTINUOUS),
            ColumnSchema("r", Kind.COUNT, role="response"),
        ),
        {"g": g, "y": y, "w": w, "r": r},
    )
    model = fit_copula_model(ds, ChainConfig(iters=250, burn_in=120, thin=5, seed=1))
    target = fit_target_model(
        ds, "r", TargetConfig(iters=60, burn_in=10, trees=8, seed=2)
    )
    return ds, model, target


def _archive(fitted) -> ModelArchive:
    ds, model, target = fitted
    return ModelArchive(model, (target,), ds.schema, 7, {"config_hash": "abc123"})


def _save(fitted, path):
    save_archive(path, _archive(fitted))
    return load_archive(path)


def _same(a, b) -> bool:
    """Field-for-field equality; arrays compared by dtype and np.array_equal."""
    if isinstance(a, np.ndarray):
        return (isinstance(b, np.ndarray) and a.dtype == b.dtype
                and np.array_equal(a, b))
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(
            _same(getattr(a, f.name), getattr(b, f.name))
            for f in dataclasses.fields(a))
    if isinstance(a, dict):
        return (isinstance(b, dict) and list(a) == list(b)
                and all(_same(a[k], b[k]) for k in a))
    if isinstance(a, (tuple, list)):
        return (type(a) is type(b) and len(a) == len(b)
                and all(_same(x, y) for x, y in zip(a, b)))
    return a == b


def _stored(put, obj):
    """An object's stored form: its JSON doc in meta and its arrays."""
    arrays = {}
    doc = put(arrays, "x", obj)
    return json.loads(json.dumps(doc)), arrays


def _same_stored(put, a, b) -> bool:
    (doc_a, arr_a), (doc_b, arr_b) = _stored(put, a), _stored(put, b)
    return doc_a == doc_b and arr_a.keys() == arr_b.keys() and all(
        arr_a[k].dtype == arr_b[k].dtype and np.array_equal(arr_a[k], arr_b[k])
        for k in arr_a)


def _entries(path) -> dict:
    with open(path, "rb") as fh:
        fh.read(len(archive_mod.MAGIC))
        with np.load(io.BytesIO(fh.read())) as npz:
            return dict(npz)


def _meta(path) -> dict:
    """The stored JSON entry."""
    return json.loads(bytes(_entries(path)["meta"]).decode("utf-8"))


def test_arrays_and_metadata_round_trip(fitted, tmp_path):
    """load_archive gives back each field of the saved ModelArchive."""
    ds, _, _ = fitted
    saved = _archive(fitted)
    save_archive(tmp_path / "m.mxs", saved)
    loaded = load_archive(tmp_path / "m.mxs")
    for f in dataclasses.fields(ModelArchive):
        assert _same(getattr(loaded, f.name), getattr(saved, f.name)), f.name
    assert (loaded.full_schema, loaded.seed, loaded.extra) == (
        ds.schema, 7, {"config_hash": "abc123"})
    assert loaded.schema_hash == saved.schema_hash == schema_hash(ds.schema)


def test_saving_a_loaded_archive_writes_the_same_bytes(fitted, tmp_path):
    ar = _save(fitted, tmp_path / "a.mxs")
    save_archive(tmp_path / "b.mxs", ar)
    assert (tmp_path / "a.mxs").read_bytes() == (tmp_path / "b.mxs").read_bytes()


def test_marginals_and_cat_table_round_trip(fitted, tmp_path):
    ds, model, _ = fitted
    ar = _save(fitted, tmp_path / "m.mxs")
    # one marginal per non-categorical column, in schema order: y, then w
    fresh = [fit_marginal(ds.columns[c], ds.col_schema(c).kind) for c in ("y", "w")]
    assert len(ar.model.marginals) == len(model.marginals) == 2
    for a, b, c in zip(ar.model.marginals, model.marginals, fresh, strict=True):
        assert _same_stored(archive_mod._put_marginal, a, b)
        assert _same_stored(archive_mod._put_marginal, b, c)
    t0, t1 = model.cat_table, ar.model.cat_table
    assert np.array_equal(t1.cells, t0.cells)
    assert np.array_equal(t1.cell_probs, t0.cell_probs)


def test_targets_round_trip_and_predict_identically(fitted, tmp_path):
    ds, _, target = fitted
    ar = _save(fitted, tmp_path / "m.mxs")
    (loaded,) = ar.targets
    assert _same_stored(archive_mod._put_target, loaded, target)
    assert loaded.response == target.response == ds.col_schema("r")
    assert loaded.covariates == target.covariates == ds.schema[:3]

    records = ds.subset(["g", "y", "w"])
    a = synthesize_response(target, records, np.random.default_rng(5))
    b = synthesize_response(loaded, records, np.random.default_rng(5))
    assert np.array_equal(a, b)


def test_synthesis_identical_before_and_after_save(fitted, tmp_path):
    _, model, _ = fitted
    ar = _save(fitted, tmp_path / "m.mxs")
    got = synthesize_datasets(ar.model, SynthesisPlan(m=2, seed=11))
    want = synthesize_datasets(model, SynthesisPlan(m=2, seed=11))
    for da, db in zip(want, got):
        assert da.schema == db.schema
        for name in da.columns:
            assert np.array_equal(da.columns[name], db.columns[name])


def test_archive_without_targets_round_trip(fitted, tmp_path):
    """A copula model alone, its full schema the copula schema."""
    _, model, _ = fitted
    path = tmp_path / "bare.mxs"
    save_archive(path, ModelArchive(model, (), model.schema, 0, {}))
    ar = load_archive(path)
    assert ar.targets == ()
    assert ar.full_schema == model.schema
    assert ar.seed == 0
    assert ar.extra == {}
    assert _same(ar.model, model)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.mxs"
    path.write_bytes(b"NOTANARCHIVE" + b"\x00" * 64)
    with pytest.raises(ArchiveError, match="not a model archive"):
        load_archive(path)


def test_corrupt_body_rejected(tmp_path):
    path = tmp_path / "corrupt.mxs"
    path.write_bytes(archive_mod.MAGIC + b"this is not an npz payload")
    with pytest.raises(ArchiveError, match="corrupt"):
        load_archive(path)


def test_truncated_file_rejected(tmp_path):
    path = tmp_path / "trunc.mxs"
    path.write_bytes(archive_mod.MAGIC)
    with pytest.raises(ArchiveError, match="corrupt"):
        load_archive(path)


def test_unsupported_format_version(fitted, tmp_path, monkeypatch):
    _, model, _ = fitted
    for version in (99, 1, 2, 3, 4):
        path = tmp_path / f"v{version}.mxs"
        monkeypatch.setattr(archive_mod, "_FORMAT_VERSION", version)
        save_archive(path, ModelArchive(model, (), model.schema, 0, {}))
        monkeypatch.undo()
        with pytest.raises(ArchiveError, match=f"version {version} unsupported"):
            load_archive(path)


def test_version_1_layout_gets_the_version_error(tmp_path):
    """A file in the first layout (everything but the draws in JSON, each
    marginal keyed by column name) is refused by version, not as corrupt."""
    meta = {
        "format_version": 1,
        "schema": [{"name": "w", "kind": "continuous", "levels": None}],
        "marginals": {"w": {"type": "continuous", "sample": [0.1, 0.5, 0.9],
                            "bandwidth": 0.2}},
        "cat_table": None,
        "targets": {},
    }
    payload = io.BytesIO()
    np.savez_compressed(
        payload,
        meta=np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8),
        corr=np.eye(1)[None], alpha=np.zeros((1, 1)),
    )
    path = tmp_path / "v1.mxs"
    path.write_bytes(archive_mod.MAGIC + payload.getvalue())
    with pytest.raises(ArchiveError,
                       match=r"archive format version 1 unsupported \(expected 5\)"):
        load_archive(path)


def test_version_3_layout_gets_the_version_error(fitted, tmp_path):
    """A file in the format-3 layout (the copula schema, schema hash, latent
    and cell-table names stored beside the full schema, each marginal as a
    [name, doc] pair) is refused by version."""
    _, model, _ = fitted
    doc = [{"name": "y", "kind": "count", "levels": None, "role": "copula"}]
    meta = {
        "format_version": 3, "schema": doc, "full_schema": doc,
        "schema_hash": "0" * 64, "seed": 0, "n_fit": 10, "n_factors": 1,
        "latent_names": ["y"], "marginals": [["y", {"type": "discrete"}]],
        "cat_names": None, "targets": [], "extra": {},
    }
    payload = io.BytesIO()
    np.savez_compressed(
        payload,
        meta=np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8),
        corr=np.eye(1)[None], alpha=np.zeros((1, 1)),
        **{"marginal0.values": np.array([1, 2]), "marginal0.counts": np.array([4, 6])},
    )
    path = tmp_path / "v3.mxs"
    path.write_bytes(archive_mod.MAGIC + payload.getvalue())
    with pytest.raises(ArchiveError,
                       match=r"archive format version 3 unsupported \(expected 5\)"):
        load_archive(path)


def test_version_4_layout_gets_the_version_error(fitted, tmp_path):
    """A file in the format-4 layout (each target's kept-ensemble count and
    mean sigma^2 in meta, no sigma^2 entry) is refused by version."""
    _save(fitted, tmp_path / "m.mxs")
    arrays = _entries(tmp_path / "m.mxs")
    meta = json.loads(bytes(arrays.pop("meta")).decode("utf-8"))
    sigma2 = arrays.pop("target0.sigma2")
    meta["format_version"] = 4
    meta["targets"][0].update(kept=int(sigma2.size), sigma2=float(sigma2.mean()))
    payload = io.BytesIO()
    np.savez_compressed(
        payload,
        meta=np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8),
        **arrays,
    )
    path = tmp_path / "v4.mxs"
    path.write_bytes(archive_mod.MAGIC + payload.getvalue())
    with pytest.raises(ArchiveError,
                       match=r"archive format version 4 unsupported \(expected 5\)"):
        load_archive(path)


def test_meta_holds_one_schema_and_derives_the_rest(fitted, tmp_path):
    """Format 4 describes each column once: meta has one schema document,
    the full schema; the copula schema, schema hash, marginal and cell-table
    column names come from it, and a target names its response and
    covariates."""
    ds, model, _ = fitted
    ar = _save(fitted, tmp_path / "m.mxs")
    meta = _meta(tmp_path / "m.mxs")
    assert meta.keys() == {"format_version", "full_schema", "seed", "n_fit",
                           "n_factors", "marginals", "targets", "extra"}
    assert meta["format_version"] == 5
    assert meta["full_schema"] == schema_to_doc(ds.schema)
    assert [m["type"] for m in meta["marginals"]] == ["discrete", "continuous"]
    (target,) = meta["targets"]
    assert target.keys() == {"response", "covariates", "marginal"}
    assert (target["response"], target["covariates"]) == ("r", ["g", "y", "w"])
    assert ar.model.schema == model.schema == ds.schema[:3]
    assert ar.full_schema == ds.schema
    assert ar.schema_hash == schema_hash(ds.schema)


def test_save_refuses_a_copula_schema_not_taken_from_full_schema(fitted, tmp_path):
    """The ModelArchive constructor refuses it, so there is nothing to save."""
    ds, model, target = fitted
    g, y, w, r = ds.schema
    for full in ((y, g, w, r),  # reordered
                 (g, y, r),  # w missing
                 (g, y, w, dataclasses.replace(r, role="copula"))):  # extra copula column
        with pytest.raises(ValueError, match="copula-role columns of full_schema"):
            save_archive(tmp_path / "m.mxs",
                         ModelArchive(model, (target,), full, 0, {}))
    assert not (tmp_path / "m.mxs").exists()


def test_save_refuses_a_target_column_not_in_full_schema(fitted, tmp_path):
    ds, model, target = fitted
    g, y, w = target.covariates
    responses = "target responses are not the response-role columns of full_schema"
    bad = [
        (target, model.schema, responses),  # no 'r'
        (dataclasses.replace(target, covariates=(
            dataclasses.replace(g, levels=("a", "b", "z")), y, w)), ds.schema,
         r"target 'r': covariates \['g'\] are not columns of the copula schema"),
        (dataclasses.replace(target, covariates=(
            g, ColumnSchema("y", Kind.ORDINAL), w)), ds.schema,
         r"target 'r': covariates \['y'\] are not columns"),
        (dataclasses.replace(target, covariates=(
            g, y, w, ColumnSchema("q", Kind.COUNT))), ds.schema,
         r"target 'r': covariates \['q'\] are not columns"),
    ]
    for summary, full, message in bad:
        with pytest.raises(ValueError, match=message):
            save_archive(tmp_path / "m.mxs",
                         ModelArchive(model, (summary,), full, 0, {}))
    assert not (tmp_path / "m.mxs").exists()


def test_archive_refuses_a_response_column_without_a_target(fitted):
    """The full schema declares 'r' a response, so 'r' needs a target model;
    without one, synthesis would write no 'r' column."""
    ds, model, _ = fitted
    with pytest.raises(ValueError, match="target responses are not the "
                                         "response-role columns of full_schema"):
        ModelArchive(model, (), ds.schema, 0, {})


def test_archive_refuses_targets_out_of_full_schema_order(fitted):
    """Targets follow the response-role columns of full_schema, in order."""
    ds, model, target = fitted
    q = ColumnSchema("q", Kind.COUNT, role="response")
    other = dataclasses.replace(target, response=q)
    full = (*ds.schema, q)
    ModelArchive(model, (target, other), full, 0, {})
    with pytest.raises(ValueError, match="target responses are not the "
                                         "response-role columns of full_schema, "
                                         "in order"):
        ModelArchive(model, (other, target), full, 0, {})


def test_archive_refuses_a_target_whose_response_is_a_copula_column(fitted):
    """A target on a copula-role column would overwrite the copula model's
    values for it; a response must match its full_schema column, role
    included, or the archive would load back with another role."""
    ds, model, target = fitted
    g, y, w, r = ds.schema
    on_y = dataclasses.replace(target, response=y, covariates=(g, w))
    as_copula = dataclasses.replace(target, response=dataclasses.replace(r, role="copula"))
    for targets in ((target, on_y), (as_copula,)):
        with pytest.raises(ValueError, match="target responses are not the "
                                             "response-role columns"):
            ModelArchive(model, targets, ds.schema, 0, {})


def test_archive_refuses_a_covariate_that_is_a_response_column(fitted):
    """Responses are synthesized after the copula columns, from them alone,
    so no target may take another response as a covariate."""
    ds, model, target = fitted
    q = ColumnSchema("q", Kind.COUNT, role="response")
    on_q = dataclasses.replace(target, covariates=(*target.covariates, q))
    other = dataclasses.replace(target, response=q)
    with pytest.raises(ValueError, match=r"target 'r': covariates \['q'\] are "
                                         "not columns of the copula schema"):
        ModelArchive(model, (on_q, other), (*ds.schema, q), 0, {})


def test_archive_refuses_a_wrong_marginal_count(fitted):
    """One marginal per non-categorical copula column (y and w here)."""
    ds, model, target = fitted
    y_marginal, w_marginal = model.marginals
    for marginals in ((y_marginal,), (y_marginal, w_marginal, w_marginal)):
        bad = dataclasses.replace(model, marginals=marginals)
        with pytest.raises(ValueError, match=f"model has {len(marginals)} marginals "
                                             "for 2 non-categorical copula columns"):
            ModelArchive(bad, (target,), ds.schema, 0, {})


def test_constant_continuous_column_round_trip(tmp_path):
    """A constant continuous column is stored as a one-value discrete
    marginal and, after loading, synthesizes as that constant in float64."""
    rng = np.random.default_rng(6)
    n = 80
    ds = MixedDataset(
        (
            ColumnSchema("y", Kind.COUNT),
            ColumnSchema("c", Kind.CONTINUOUS),
        ),
        {"y": rng.poisson(3.0, n), "c": np.full(n, 2.75)},
    )
    with pytest.warns(ConstantColumnWarning):
        model = fit_copula_model(ds, ChainConfig(iters=40, burn_in=20, thin=2, seed=1))
    path = tmp_path / "m.mxs"
    save_archive(path, ModelArchive(model, (), ds.schema, 0, {}))
    ar = load_archive(path)
    assert _meta(path)["marginals"][1] == {"type": "discrete"}
    assert _same_stored(archive_mod._put_marginal, ar.model.marginals[1],
                        model.marginals[1])
    for plan_model in (model, ar.model):
        (out,) = synthesize_datasets(plan_model, SynthesisPlan(n_out=50, seed=3))
        assert out.columns["c"].dtype == np.float64
        assert np.array_equal(out.columns["c"], np.full(50, 2.75))


def test_continuous_values_stay_out_of_the_archive(tmp_path):
    """No value of a continuous column is written except its minimum and
    maximum (which synthesis clamps to anyway): not of a copula column, not
    of a targeted response, not of a tree covariate.  A tree's numeric split
    cut is a point of its covariate's cut grid, which its minimum and
    maximum fix."""
    rng = np.random.default_rng(3)
    n = 200
    g = rng.integers(0, 3, n)
    w = rng.normal(g * 0.5, 1.0)
    v = np.exp(rng.normal(0.3 * g + 0.4 * w, 0.5))
    ds = MixedDataset(
        (
            ColumnSchema("g", Kind.CATEGORICAL, levels=("a", "b", "c")),
            ColumnSchema("w", Kind.CONTINUOUS),
            ColumnSchema("v", Kind.CONTINUOUS, role="response"),
        ),
        {"g": g, "w": w, "v": v},
    )
    model = fit_copula_model(ds, ChainConfig(iters=60, burn_in=30, thin=3, seed=1))
    target = fit_target_model(
        ds, "v", TargetConfig(iters=30, burn_in=10, trees=4, seed=2))
    path = tmp_path / "m.mxs"
    save_archive(path, ModelArchive(model, (target,), ds.schema, 0, {}))

    def numbers(doc):
        if isinstance(doc, dict):
            return [x for value in doc.values() for x in numbers(value)]
        if isinstance(doc, list):
            return [x for value in doc for x in numbers(value)]
        if isinstance(doc, (int, float)) and not isinstance(doc, bool):
            return [float(doc)]
        return []

    stored = {
        name: np.asarray(numbers(json.loads(bytes(entry).decode("utf-8"))))
        if name == "meta" else entry.astype(np.float64).ravel()
        for name, entry in _entries(path).items()
    }
    everything = np.concatenate(list(stored.values()))
    for col in (w, v):
        assert np.isin([col.min(), col.max()], everything).all()

    def holding(col):
        inner = np.sort(col)[1:-1]
        return {name for name, values in stored.items() if np.isin(values, inner).any()}

    assert holding(v) == set()
    assert holding(w) == set()

    entries = _entries(path)
    on_w = entries["target0.forest.feature"] == [cs.name for cs in target.covariates].index("w")
    grid = np.linspace(w.min(), w.max(), NUMCUT + 2)[1:-1]
    assert on_w.any() and np.isin(entries["target0.forest.cut"][on_w], grid).all()

    # a continuous marginal stores its grid ends as scalars and the CDF
    # values as its only array; the grid points are rebuilt on load
    for key in ("marginal0", "target0.marginal"):
        assert {k for k in stored if k.startswith(key + ".")} == {key + ".grid_u"}
    assert _meta(path)["marginals"][0] == {"type": "continuous", "lo": w.min(), "hi": w.max()}
