"""Posterior-predictive synthesis: exact conditionals, orthant sampling,
support closure, and reproducibility."""
import numpy as np
import pytest
from scipy import stats

from mixedsynth import synthesizer
from mixedsynth.errors import OrthantResampleWarning, OrthantUnderflowError
from mixedsynth.factor_model import ChainConfig
from mixedsynth.schema import ColumnSchema, Kind, MixedDataset, expand_layout
from mixedsynth.synthesizer import (
    SynthesisPlan,
    _select_draws,
    conditional_moments,
    fit_copula_model,
    sample_truncated_block,
    synthesize_datasets,
    synthesize_record,
)


def _random_corr(rng, d):
    a = rng.standard_normal((d, d + 2))
    omega = a @ a.T + np.diag(rng.uniform(0.5, 1.5, d))
    s = np.sqrt(np.diag(omega))
    c = omega / np.outer(s, s)
    np.fill_diagonal(c, 1.0)
    return c


@pytest.mark.parametrize("dim", range(2, 13))
@pytest.mark.parametrize("seed", [0, 1])
def test_conditional_moments_match_direct_inverse(dim, seed):
    rng = np.random.default_rng(1000 * dim + seed)
    corr = _random_corr(rng, dim)
    alpha = rng.normal(0.0, 1.0, dim)
    n_cat = int(rng.integers(1, dim))
    cat_idx = np.sort(rng.choice(dim, n_cat, replace=False))
    rest_idx = np.setdiff1d(np.arange(dim), cat_idx)
    z_cat = rng.normal(0.0, 1.0, n_cat)

    cg = conditional_moments(corr, alpha, z_cat, cat_idx)

    inv = np.linalg.inv(corr[np.ix_(cat_idx, cat_idx)])
    c_rc = corr[np.ix_(rest_idx, cat_idx)]
    mean = alpha[rest_idx] + c_rc @ inv @ (z_cat - alpha[cat_idx])
    cov = corr[np.ix_(rest_idx, rest_idx)] - c_rc @ inv @ c_rc.T
    assert np.allclose(cg.alpha_star, mean, atol=1e-10)
    assert np.allclose(cg.c_star, cov, atol=1e-10)


def test_conditional_moments_all_categorical():
    rng = np.random.default_rng(5)
    corr = _random_corr(rng, 4)
    cg = conditional_moments(corr, np.zeros(4), rng.normal(size=4), np.arange(4))
    assert cg.alpha_star.size == 0
    assert cg.c_star.shape == (0, 0)


def _cat_only_layout(k=3):
    ds = MixedDataset(
        (ColumnSchema("g", Kind.CATEGORICAL, levels=tuple("abc"[:k])),),
        {"g": np.arange(k, dtype=np.int64)},
    )
    return expand_layout(ds)


def test_orthant_block_moments_match_rejection():
    """One 3-level block: the Gibbs draw targets N(alpha, C) restricted to
    {z_lvl > 0, others < 0}; rejection sampling gives the exact reference."""
    rng = np.random.default_rng(21)
    corr = np.array([[1.0, 0.3, 0.2], [0.3, 1.0, 0.4], [0.2, 0.4, 1.0]])
    alpha = np.array([-0.3, 0.2, -0.5])
    layout = _cat_only_layout()
    level = 1

    root = np.linalg.cholesky(corr)
    cand = alpha + rng.standard_normal((400000, 3)) @ root.T
    keep = (cand[:, 0] < 0) & (cand[:, 1] > 0) & (cand[:, 2] < 0)
    oracle = cand[keep]

    n_draws = 600
    draws = np.empty((n_draws, 3))
    for r in range(n_draws):
        draws[r] = sample_truncated_block(
            corr, alpha, np.array([level]), layout, rng, sweeps=60
        )
    assert np.all(draws[:, level] > 0)
    assert np.all(np.delete(draws, level, axis=1) < 0)
    for j in range(3):
        se = np.sqrt(
            oracle[:, j].var() / oracle.shape[0] + draws[:, j].var() / n_draws
        )
        assert abs(draws[:, j].mean() - oracle[:, j].mean()) < 3 * se + 0.02
        assert abs(draws[:, j].std() - oracle[:, j].std()) < 0.05


def test_orthant_block_independent_case_exact():
    """With identity correlation every coordinate is an independent univariate
    truncated normal (each sweep is an exact draw), so the means are known in
    closed form."""
    rng = np.random.default_rng(9)
    alpha = np.array([0.4, -0.3, 0.1])
    layout = _cat_only_layout()
    level = 0
    n_draws = 4000
    draws = np.array([
        sample_truncated_block(np.eye(3), alpha, np.array([level]), layout, rng,
                               sweeps=2)
        for _ in range(n_draws)
    ])
    for j in range(3):
        lo, hi = (0.0, np.inf) if j == level else (-np.inf, 0.0)
        exact = stats.truncnorm(lo - alpha[j], hi - alpha[j], loc=alpha[j])
        se = exact.std() / np.sqrt(n_draws)
        assert abs(draws[:, j].mean() - exact.mean()) < 4 * se


def _mixed_fit(n=400, seed=0, iters=400, burn_in=200):
    rng = np.random.default_rng(seed)
    g = rng.integers(0, 3, n)
    y = rng.poisson(3.0 + 2.0 * g)
    w = rng.normal(g * 0.5, 1.0)
    ds = MixedDataset(
        (
            ColumnSchema("g", Kind.CATEGORICAL, levels=("a", "b", "c")),
            ColumnSchema("y", Kind.COUNT),
            ColumnSchema("w", Kind.CONTINUOUS),
        ),
        {"g": g, "y": y, "w": w},
    )
    model = fit_copula_model(ds, ChainConfig(iters=iters, burn_in=burn_in,
                                             thin=5, seed=seed))
    return ds, model


def test_synthetic_support_closure():
    ds, model = _mixed_fit()
    out = synthesize_datasets(SynthesisPlan(model, m=3, n_out=500, seed=4))
    y_support = set(np.unique(ds.columns["y"]).tolist())
    w_lo, w_hi = ds.columns["w"].min(), ds.columns["w"].max()
    for s in out:
        assert s.n == 500
        assert set(np.unique(s.columns["g"]).tolist()) <= {0, 1, 2}
        assert set(np.unique(s.columns["y"]).tolist()) <= y_support
        assert s.columns["y"].dtype == np.int64
        assert s.columns["w"].dtype == np.float64
        # kernel-smoothed inverse clamps to the observed hull
        assert s.columns["w"].min() >= w_lo - 1e-9
        assert s.columns["w"].max() <= w_hi + 1e-9


def test_synthesis_reproducible_and_distinct_across_indices():
    _, model = _mixed_fit(n=200, iters=200, burn_in=100)
    plan = SynthesisPlan(model, m=3, n_out=150, seed=9)
    a = synthesize_datasets(plan)
    b = synthesize_datasets(plan)
    for s1, s2 in zip(a, b):
        for name in s1.columns:
            assert np.array_equal(s1.columns[name], s2.columns[name])
    # different datasets in one release use different substreams
    assert any(
        not np.array_equal(a[0].columns[n], a[1].columns[n]) for n in a[0].columns
    )
    # and a different seed changes the output
    c = synthesize_datasets(SynthesisPlan(model, m=1, n_out=150, seed=10))
    assert any(
        not np.array_equal(a[0].columns[n], c[0].columns[n]) for n in a[0].columns
    )


def test_orthant_underflow_resamples_then_gives_up(monkeypatch):
    _, model = _mixed_fit(n=150, iters=100, burn_in=50)
    real = synthesizer._batched_orthant_gibbs
    batches = []

    def flaky(*args):
        z = real(*args)
        batches.append(z.shape[0])
        z[: 2 if len(batches) == 1 else 0] = np.nan  # first pass: two rows fail
        return z

    monkeypatch.setattr(synthesizer, "_batched_orthant_gibbs", flaky)
    plan = SynthesisPlan(model, m=1, n_out=40, seed=1)
    with pytest.warns(OrthantResampleWarning, match="resampling 2 "):
        (out,) = synthesize_datasets(plan)
    assert batches == [40, 2]
    assert set(np.unique(out.columns["g"]).tolist()) <= {0, 1, 2}

    def always_nan(*args):
        batches.append(args[4].shape[0])
        return np.full(args[4].shape, np.nan)

    batches.clear()
    monkeypatch.setattr(synthesizer, "_batched_orthant_gibbs", always_nan)
    with pytest.warns(OrthantResampleWarning):
        with pytest.raises(OrthantUnderflowError, match="40 records"):
            synthesize_datasets(plan)
    assert batches == [40] * 21  # one draw plus 20 resamples


def test_draw_selection_schemes():
    _, model = _mixed_fit(n=150, iters=200, burn_in=100)
    n_draws = model.draws.n_draws
    plan = SynthesisPlan(model, m=1, seed=0)
    idx = _select_draws(plan, 10, np.random.default_rng(0))
    assert np.array_equal(idx, np.arange(10) % n_draws)
    plan = SynthesisPlan(model, m=1, seed=0, draw_selection="random")
    idx = _select_draws(plan, 500, np.random.default_rng(0))
    assert idx.min() >= 0 and idx.max() < n_draws
    with pytest.raises(ValueError):
        SynthesisPlan(model, draw_selection="bogus")


def test_no_categorical_dataset_roundtrip():
    rng = np.random.default_rng(3)
    n = 300
    ds = MixedDataset(
        (
            ColumnSchema("y", Kind.COUNT),
            ColumnSchema("w", Kind.CONTINUOUS),
            ColumnSchema("b", Kind.BINARY),
        ),
        {
            "y": rng.poisson(5.0, n),
            "w": rng.normal(0, 1, n),
            "b": rng.integers(0, 2, n),
        },
    )
    model = fit_copula_model(ds, ChainConfig(iters=200, burn_in=100, thin=5, seed=1))
    assert model.cat_table is None
    out = synthesize_datasets(SynthesisPlan(model, m=2, seed=2))
    for s in out:
        assert s.n == n
        assert set(np.unique(s.columns["b"]).tolist()) <= {0, 1}
    rec = synthesize_record(model, np.random.default_rng(0))
    assert rec.n == 1


def test_default_output_size_matches_fit():
    ds, model = _mixed_fit(n=230, iters=200, burn_in=100)
    out = synthesize_datasets(SynthesisPlan(model, m=1, seed=0))
    assert out[0].n == ds.n == 230
