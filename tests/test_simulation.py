"""Benchmark-study plumbing: data generation, scoring, and the study variants."""
import concurrent.futures.process
from dataclasses import replace

import numpy as np
import pytest

from mixedsynth import simulation
from mixedsynth.factor_model import ChainConfig
from mixedsynth.schema import Kind, expand_layout
from mixedsynth.simulation import (
    STUDIES,
    SimDesign,
    generate_sim_data,
    preset,
    run_studies,
    run_study,
)
from mixedsynth.simulation import _group_means, _score
from mixedsynth.synthesizer import fit_copula_model


_TINY = SimDesign(
    n=400,
    p_levels=(0.3, 0.4, 0.3),
    rates=(20.0, 24.0, 28.0),
    n_reps=4,
    seed=0,
)
_TINY_CFG = ChainConfig(iters=250, burn_in=120, thin=5, seed=0)


def test_design_validation():
    with pytest.raises(ValueError):
        SimDesign(p_levels=(0.5, 0.5), rates=(1.0, 2.0, 3.0))
    with pytest.raises(ValueError):
        SimDesign(p_levels=(0.6, 0.6), rates=(1.0, 2.0))
    with pytest.raises(ValueError):
        SimDesign(rates=(342.0, -1.0, 346.0, 348.0, 352.0))
    with pytest.raises(ValueError):
        SimDesign(n=0)
    with pytest.raises(ValueError):
        SimDesign(n_reps=0)


def test_generate_sim_data_shape_and_distribution():
    design = SimDesign(n=20000, seed=3)
    ds = generate_sim_data(design)
    assert ds.n == design.n
    x1, x2 = ds.columns["x1"], ds.columns["x2"]
    assert ds.col_schema("x1").kind is Kind.CATEGORICAL
    assert ds.col_schema("x1").levels == ("a", "b", "c", "d", "e")
    assert ds.col_schema("x2").kind is Kind.COUNT

    # level frequencies within 4 binomial SDs, per-level count means near rates
    for l, p in enumerate(design.p_levels):
        freq = (x1 == l).mean()
        se = np.sqrt(p * (1 - p) / design.n)
        assert abs(freq - p) < 4 * se
        lam = design.rates[l]
        se_mean = np.sqrt(lam / (x1 == l).sum())
        assert abs(x2[x1 == l].mean() - lam) < 4 * se_mean


def test_generate_sim_data_deterministic():
    a = generate_sim_data(SimDesign(n=500, seed=9))
    b = generate_sim_data(SimDesign(n=500, seed=9))
    c = generate_sim_data(SimDesign(n=500, seed=10))
    assert np.array_equal(a.columns["x1"], b.columns["x1"])
    assert np.array_equal(a.columns["x2"], b.columns["x2"])
    assert not np.array_equal(a.columns["x2"], c.columns["x2"])


def test_group_means_marks_missing_levels_nan():
    x1 = np.array([0, 0, 2])
    x2 = np.array([10.0, 14.0, 6.0])
    got = _group_means(x1, x2, 3)
    assert got[0] == 12.0
    assert np.isnan(got[1])
    assert got[2] == 6.0


def test_score_matches_hand_mse():
    obs = np.array([10.0, 20.0])
    reps = [np.array([11.0, 18.0]), np.array([np.nan, 21.0])]
    res = _score(obs, reps, [0.0, 1.0], False, [])
    # rep 1: ((1)^2 + (2)^2)/2 = 2.5; rep 2: only level 2 -> (1)^2 = 1
    assert np.allclose(res.per_rep_mse, [2.5, 1.0])
    assert res.avg_mse == pytest.approx(1.75)
    assert res.sd_mse == pytest.approx(np.std([2.5, 1.0], ddof=1))
    assert res.multi_rate == 0.5
    doc = res.to_doc()
    assert doc["avg_mse"] == res.avg_mse
    assert doc["group_means"][1][0] is None or np.isnan(doc["group_means"][1][0])


def test_score_single_rep_has_no_spread():
    res = _score(np.array([1.0]), [np.array([2.0])], [0.0], False, [])
    assert res.sd_mse is None


def test_indicator_dataset_encoding():
    ds = generate_sim_data(SimDesign(n=200, seed=4))
    ind, _ = STUDIES["rl"](ds, 5)
    names = [c.name for c in ind.schema]
    assert names == ["d1", "d2", "d3", "d4", "x2"]
    assert all(ind.col_schema(f"d{l}").kind is Kind.BINARY for l in range(1, 5))
    x1 = ds.columns["x1"]
    for l in range(1, 5):
        assert np.array_equal(ind.columns[f"d{l}"], (x1 == l).astype(np.int64))
    # base level rows have all indicators off
    base = x1 == 0
    stacked = np.column_stack([ind.columns[f"d{l}"] for l in range(1, 5)])
    assert np.all(stacked[base].sum(axis=1) == 0)
    assert np.all(stacked[~base].sum(axis=1) == 1)


def test_encodings_fit_the_expanded_width():
    # p* at five levels: k + 1 for the categorical block and x2, k - 1
    # indicators and x2, and two rank columns
    data = generate_sim_data(SimDesign(n=200, seed=4))
    widths = {name: expand_layout(enc(data, 5)[0]).p_star for name, enc in STUDIES.items()}
    assert widths == {"rpl": 6, "rl": 5, "ordinal": 2}


def test_default_chain_is_seeded_by_the_design(monkeypatch):
    seen = []

    class Stop(Exception):
        pass

    def stop(ds, config):
        seen.append(config)
        raise Stop

    monkeypatch.setattr(simulation, "fit_copula_model", stop)
    with pytest.raises(Stop):
        run_study("rl", replace(_TINY, seed=7))
    assert seen == [ChainConfig(seed=7, n_factors=_TINY.n_levels)]


@pytest.fixture(scope="module")
def rpl():
    return run_study("rpl", _TINY, _TINY_CFG, keep_data=True)


class TestTinyStudies:
    """End-to-end study runs at toy scale; scores recomputed independently."""

    def test_rpl_never_multiply_classifies(self, rpl):
        assert rpl.multi_rate == 0.0

    def test_rpl_shapes(self, rpl):
        assert rpl.group_means.shape == (_TINY.n_reps, _TINY.n_levels)
        assert rpl.per_rep_mse.shape == (_TINY.n_reps,)
        assert len(rpl.datasets) == _TINY.n_reps

    def test_rpl_mse_recomputes_from_kept_datasets(self, rpl):
        obs = _group_means(
            generate_sim_data(_TINY).columns["x1"],
            generate_sim_data(_TINY).columns["x2"],
            _TINY.n_levels,
        )
        assert np.allclose(obs, rpl.obs_means, equal_nan=True)
        for i, s in enumerate(rpl.datasets):
            gm = _group_means(s.columns["x1"], s.columns["x2"], _TINY.n_levels)
            assert np.allclose(gm, rpl.group_means[i], equal_nan=True)
            assert rpl.per_rep_mse[i] == pytest.approx(
                np.nanmean((gm - rpl.obs_means) ** 2), rel=1e-12
            )
        assert rpl.avg_mse == pytest.approx(rpl.per_rep_mse.mean(), rel=1e-12)

    def test_rpl_reproducible(self, rpl):
        again = run_study("rpl", _TINY, _TINY_CFG)
        assert np.array_equal(again.group_means, rpl.group_means, equal_nan=True)
        assert again.avg_mse == rpl.avg_mse
        assert again.datasets == [] and again.model is None  # keep_data defaults off

    def test_rl_decode_and_discard_accounting(self):
        res = run_study("rl", replace(_TINY, n_reps=3), _TINY_CFG, keep_data=True)
        assert res.group_means.shape == (3, _TINY.n_levels)
        assert 0.0 <= res.multi_rate <= 1.0
        # recompute one replicate's decode by hand
        s = res.datasets[0]
        stacked = np.column_stack([s.columns[f"d{l}"] for l in range(1, 3)])
        active = stacked.sum(axis=1)
        level = np.where(active == 0, 0, np.argmax(stacked, axis=1) + 1)
        keep = active < 2
        gm = _group_means(level[keep], s.columns["x2"][keep], _TINY.n_levels)
        assert np.allclose(gm, res.group_means[0], equal_nan=True)

    def test_ordinal_variant_runs_and_scores(self):
        res = run_study("ordinal", replace(_TINY, n_reps=2), _TINY_CFG)
        assert res.group_means.shape == (2, _TINY.n_levels)
        assert res.multi_rate == 0.0
        assert np.isfinite(res.avg_mse)

    def test_rep_count_override(self, rpl):
        res = run_study("rpl", replace(_TINY, n_reps=2), _TINY_CFG)
        assert res.group_means.shape == (2, _TINY.n_levels)
        assert np.array_equal(res.group_means, rpl.group_means[:2], equal_nan=True)


def test_run_studies_independent_of_worker_count(monkeypatch):
    design = replace(_TINY, n_reps=2)
    pooled = run_studies(["rl", "rpl", "rl"], design, _TINY_CFG, keep_data=True)
    assert list(pooled) == ["rl", "rpl"]  # first-seen order, run once each
    monkeypatch.setattr(simulation.os, "sched_getaffinity", lambda pid: {0})
    serial = run_studies(["rl", "rpl"], design, _TINY_CFG, keep_data=True)
    for name, res in serial.items():
        other = pooled[name]
        assert res.to_doc() == other.to_doc()
        assert len(res.datasets) == len(other.datasets) == 2
        for a, b in zip(res.datasets, other.datasets):
            assert a.schema == b.schema
            assert all(np.array_equal(a.columns[k], b.columns[k]) for k in a.columns)


def test_kept_fit_is_the_refit():
    # acceptance gate 3 reads the rpl study's fit from a worker instead of
    # refitting the same data with the same chain config in the parent
    kept = run_studies(["rpl"], replace(_TINY, n_reps=1), _TINY_CFG, keep_data=True)
    model = kept["rpl"].model
    refit = fit_copula_model(
        generate_sim_data(_TINY), replace(_TINY_CFG, n_factors=_TINY.n_levels + 1)
    )
    assert np.array_equal(model.draws.corr, refit.draws.corr)
    assert np.array_equal(model.draws.alpha, refit.draws.alpha)
    assert model.schema == refit.schema
    assert np.array_equal(model.cat_table.cell_probs, refit.cat_table.cell_probs)


def test_run_studies_rejects_unknown_names():
    with pytest.raises(ValueError, match="unknown studies"):
        run_studies(["rpl", "bogus"], _TINY, _TINY_CFG)


def test_run_studies_of_no_names_starts_no_pool(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(concurrent.futures.process, "ProcessPoolExecutor", no_pool)
    assert run_studies([], _TINY, _TINY_CFG) == {}


def test_presets():
    design, config = preset("paper", seed=5)
    assert (design.n, design.n_reps, design.seed) == (5000, 500, 5)
    assert (config.iters, config.burn_in, config.thin) == (15000, 9000, 10)
    assert config.n_factors is None  # studies pick the expanded width

    design, config = preset("desk")
    assert (design.n, design.n_reps) == (1000, 50)
    assert config.iters == 3000

    with pytest.raises(ValueError, match="unknown preset"):
        preset("warp")
