"""Single-file model container: round-trip fidelity and failure modes."""
import numpy as np
import pytest

import mixedsynth.archive as archive_mod
from mixedsynth.archive import load_archive, save_archive
from mixedsynth.errors import ArchiveError
from mixedsynth.factor_model import ChainConfig
from mixedsynth.marginals import marginal_to_dict
from mixedsynth.schema import ColumnSchema, Kind, MixedDataset, schema_hash
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
        ds, "r", TargetConfig(iters=60, burn_in=10, trees=8, keep_every=5, seed=2)
    )
    return ds, model, target


def _save(fitted, path, **kw):
    ds, model, target = fitted
    save_archive(
        path,
        model,
        targets={"r": target},
        seed=7,
        full_schema=ds.schema,
        extra_meta={"config_hash": "abc123"},
        **kw,
    )
    return load_archive(path)


def test_arrays_and_metadata_round_trip(fitted, tmp_path):
    ds, model, _ = fitted
    ar = _save(fitted, tmp_path / "m.mxs")
    assert np.array_equal(ar.model.draws.corr, model.draws.corr)
    assert np.array_equal(ar.model.draws.alpha, model.draws.alpha)
    assert ar.model.draws.latent_names == model.draws.latent_names
    assert ar.model.draws.n_factors == model.draws.n_factors
    assert ar.model.schema == model.schema
    assert ar.model.n_fit == model.n_fit
    assert ar.full_schema == ds.schema
    assert ar.seed == 7
    assert ar.schema_hash == schema_hash(ds.schema)
    assert ar.meta["extra"]["config_hash"] == "abc123"


def test_marginals_and_cat_table_round_trip(fitted, tmp_path):
    _, model, _ = fitted
    ar = _save(fitted, tmp_path / "m.mxs")
    assert set(ar.model.marginals) == set(model.marginals)
    for name, m in model.marginals.items():
        assert marginal_to_dict(ar.model.marginals[name]) == marginal_to_dict(m)
    t0, t1 = model.cat_table, ar.model.cat_table
    assert t1.var_names == t0.var_names
    assert np.array_equal(t1.cells, t0.cells)
    assert np.array_equal(t1.cell_probs, t0.cell_probs)
    for a, b in zip(t1.marginals, t0.marginals):
        assert np.array_equal(a, b)


def test_targets_round_trip_and_predict_identically(fitted, tmp_path):
    ds, _, target = fitted
    ar = _save(fitted, tmp_path / "m.mxs")
    assert set(ar.targets) == {"r"}
    assert ar.targets["r"].to_doc() == target.to_doc()

    records = ds.subset(["g", "y", "w"])
    a = synthesize_response(target, [records], [np.random.default_rng(5)])[0]
    b = synthesize_response(ar.targets["r"], [records], [np.random.default_rng(5)])[0]
    assert np.array_equal(a, b)


def test_synthesis_identical_before_and_after_save(fitted, tmp_path):
    _, model, _ = fitted
    ar = _save(fitted, tmp_path / "m.mxs")
    got = synthesize_datasets(SynthesisPlan(ar.model, m=2, seed=11))
    want = synthesize_datasets(SynthesisPlan(model, m=2, seed=11))
    for da, db in zip(want, got):
        assert da.schema == db.schema
        for name in da.columns:
            assert np.array_equal(da.columns[name], db.columns[name])


def test_minimal_save_defaults(fitted, tmp_path):
    _, model, _ = fitted
    path = tmp_path / "bare.mxs"
    save_archive(path, model)
    ar = load_archive(path)
    assert ar.targets == {}
    assert ar.full_schema == model.schema
    assert ar.seed == 0
    assert ar.meta["extra"] == {}


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
    path = tmp_path / "future.mxs"
    monkeypatch.setattr(archive_mod, "_FORMAT_VERSION", 99)
    save_archive(path, model)
    monkeypatch.undo()
    with pytest.raises(ArchiveError, match="version 99"):
        load_archive(path)
