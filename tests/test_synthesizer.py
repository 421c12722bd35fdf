"""Posterior-predictive synthesis: exact conditionals, orthant sampling,
support closure, and reproducibility."""
import warnings

import numpy as np
import pytest
from scipy import stats

from mixedsynth import synthesizer
from mixedsynth.errors import OrthantUnderflowError, SingularBlockError
from mixedsynth.factor_model import ChainConfig, PosteriorDraws, _level_signs
from mixedsynth.marginals import fit_marginal
from mixedsynth.schema import ColumnSchema, Kind, MixedDataset
from mixedsynth.streams import substream
from mixedsynth.synthesizer import (
    FittedCopula,
    OrthantStats,
    SynthesisPlan,
    _prep_draw,
    _tilt_setup,
    _tilted_orthant,
    _tilted_proposal,
    _tilting_point,
    fit_copula_model,
    synthesize_datasets,
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

    # synthesis draws z_rest = a_rest + b (z_cat - a_cat) + l_star eps
    _, b, l_star, a_cat, a_rest = _prep_draw(corr, alpha, cat_idx, rest_idx)

    inv = np.linalg.inv(corr[np.ix_(cat_idx, cat_idx)])
    c_rc = corr[np.ix_(rest_idx, cat_idx)]
    mean = alpha[rest_idx] + c_rc @ inv @ (z_cat - alpha[cat_idx])
    cov = corr[np.ix_(rest_idx, rest_idx)] - c_rc @ inv @ c_rc.T
    assert np.allclose(a_rest + b @ (z_cat - a_cat), mean, atol=1e-10)
    assert np.allclose(l_star @ l_star.T, cov, atol=1e-10)


def test_conditional_moments_all_categorical():
    rng = np.random.default_rng(5)
    corr = _random_corr(rng, 4)
    _, b, l_star, a_cat, a_rest = _prep_draw(
        corr, np.zeros(4), np.arange(4), np.empty(0, int)
    )
    assert (a_rest + b @ (rng.normal(size=4) - a_cat)).size == 0
    assert l_star.shape == (0, 0)


def test_singular_blocks_are_jittered_once():
    """A block with no Cholesky factor gets 1e-8 added to its diagonal once:
    the categorical block's factor and solves use the jittered matrix, and a
    conditional variance of 0 becomes 1e-8."""
    corr = np.array([[1.0, 1.0, 0.5], [1.0, 1.0, 0.5], [0.5, 0.5, 1.0]])
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(corr[:2, :2])
    low, b, _, _, _ = _prep_draw(corr, np.zeros(3), np.arange(2), np.array([2]))
    bumped = corr[:2, :2] + 1e-8 * np.eye(2)
    assert np.array_equal(low, np.linalg.cholesky(bumped))
    # the unjittered block is singular, so no solve against it gives a b
    assert np.allclose(b, np.linalg.solve(bumped, corr[:2, 2:]).T, rtol=1e-12)

    _, _, l_star, _, _ = _prep_draw(np.ones((2, 2)), np.zeros(2),
                                    np.array([0]), np.array([1]))
    assert np.array_equal(l_star, [[1e-4]])


@pytest.mark.parametrize("corr, block", [
    (np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]]), "categorical"),
    (np.array([[1.0, 0.9, 0.9], [0.9, 1.0, 0.0], [0.9, 0.0, 1.0]]), "conditional"),
], ids=["categorical", "conditional"])
def test_indefinite_block_raises_naming_it(corr, block):
    cat_idx = np.arange(2) if block == "categorical" else np.array([0])
    rest_idx = np.setdiff1d(np.arange(3), cat_idx)
    with pytest.raises(SingularBlockError, match=block):
        _prep_draw(corr, np.zeros(3), cat_idx, rest_idx)


def _tilted_draws(corr, alpha, sign, rng, n):
    """n draws of one orthant block as _synthesize_batch draws them: the
    tilting point, then tilted rejection, mapped back to z."""
    low, _, _, a_cat, _ = _prep_draw(corr, alpha, np.arange(sign.size),
                                     np.empty(0, int))
    h, ltri = _tilt_setup(low, a_cat)
    mu, psi = _tilting_point(h, ltri, sign[None])
    stats = OrthantStats()
    eps = _tilted_orthant(rng, h, ltri, np.tile(sign, (n, 1)), np.tile(mu, (n, 1)),
                          np.repeat(psi, n), stats)
    assert stats.proposed >= n
    return a_cat + eps @ low.T


def test_orthant_block_moments_match_rejection():
    """One 3-level block: the tilted draw targets N(alpha, C) restricted to
    {z_lvl > 0, others < 0}; plain rejection gives the exact reference."""
    rng = np.random.default_rng(21)
    corr = np.array([[1.0, 0.3, 0.2], [0.3, 1.0, 0.4], [0.2, 0.4, 1.0]])
    alpha = np.array([-0.3, 0.2, -0.5])
    level = 1
    sign = _level_signs(np.array([[level]]), (3,))[0]

    root = np.linalg.cholesky(corr)
    cand = alpha + rng.standard_normal((400000, 3)) @ root.T
    keep = (cand[:, 0] < 0) & (cand[:, 1] > 0) & (cand[:, 2] < 0)
    oracle = cand[keep]

    n_draws = 600
    draws = _tilted_draws(corr, alpha, sign, rng, n_draws)
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
    truncated normal, so the tilted proposal is the target itself: every
    proposal is accepted, and the means are known in closed form."""
    rng = np.random.default_rng(9)
    alpha = np.array([0.4, -0.3, 0.1])
    level = 0
    sign = _level_signs(np.array([[level]]), (3,))[0]
    n_draws = 4000
    h, ltri = _tilt_setup(np.eye(3), alpha)
    mu, psi = _tilting_point(h, ltri, sign[None])
    counts = OrthantStats()
    draws = alpha + _tilted_orthant(
        rng, h, ltri, np.tile(sign, (n_draws, 1)), np.tile(mu, (n_draws, 1)),
        np.repeat(psi, n_draws), counts,
    )
    assert counts == OrthantStats(rounds=1, proposed=n_draws)
    for j in range(3):
        lo, hi = (0.0, np.inf) if j == level else (-np.inf, 0.0)
        exact = stats.truncnorm(lo - alpha[j], hi - alpha[j], loc=alpha[j])
        se = exact.std() / np.sqrt(n_draws)
        assert abs(draws[:, j].mean() - exact.mean()) < 4 * se


def _two_block_orthant():
    """Blocks g (3 levels) and h (2 levels) at assignment (g=2, h=1): the
    orthant {z0, z1, z3 < 0; z2, z4 > 0} holds about 1.9% of the mass."""
    corr = np.array([
        [1.0, -0.314, -0.109, -0.207, -0.066],
        [-0.314, 1.0, -0.303, 0.347, -0.098],
        [-0.109, -0.303, 1.0, -0.413, 0.413],
        [-0.207, 0.347, -0.413, 1.0, -0.49],
        [-0.066, -0.098, 0.413, -0.49, 1.0],
    ])
    alpha = np.array([0.4, 0.1, -0.7, 0.3, -0.4])
    return corr, alpha, _level_signs(np.array([[2, 1]]), (3, 2))[0]


def test_rejection_draws_match_brute_force_oracle():
    """Tilted draws on a low-mass orthant over two categorical blocks
    against plain rejection from the untruncated Gaussian: every draw lies
    strictly inside the orthant, and first and second moments agree."""
    corr, alpha, sign = _two_block_orthant()
    assert np.array_equal(sign, [-1.0, -1.0, 1.0, -1.0, 1.0])
    rng = np.random.default_rng(8)
    cand = alpha + rng.standard_normal((2_000_000, 5)) @ np.linalg.cholesky(corr).T
    oracle = cand[np.all(cand * sign > 0, axis=1)]
    assert oracle.shape[0] / cand.shape[0] <= 0.05

    z = _tilted_draws(corr, alpha, sign, rng, 4000)
    assert np.all(z * sign > 0)
    pairs = [(i, j) for i in range(5) for j in range(i, 5)]
    for f in [lambda x, j=j: x[:, j] for j in range(5)] + [
        lambda x, i=i, j=j: x[:, i] * x[:, j] for i, j in pairs
    ]:
        a, b = f(z), f(oracle)
        se = np.sqrt(a.var() / a.size + b.var() / b.size)
        assert abs(a.mean() - b.mean()) < 4 * se


def _wide_orthant():
    """Three categorical blocks of 5, 5 and 4 levels (d_cat = 14) at
    assignment (2, 1, 1), under a fixed random correlation: the orthant
    holds about 1.8e-3 of the mass."""
    rng = np.random.default_rng(3)
    corr = _random_corr(rng, 14)
    alpha = rng.normal(-0.8, 0.5, 14)
    return corr, alpha, _level_signs(np.array([[2, 1, 1]]), (5, 5, 4))[0]


def _wide_tilt():
    corr, alpha, sign = _wide_orthant()
    low, _, _, a_cat, _ = _prep_draw(corr, alpha, np.arange(14), np.empty(0, int))
    h, ltri = _tilt_setup(low, a_cat)
    mu, psi = _tilting_point(h, ltri, sign[None])
    return h, ltri, sign, mu[0], psi[0]


def test_tilted_draws_match_brute_force_oracle_wide():
    """At d_cat = 14 on an orthant of mass <= 2e-3, every coordinate's mean
    and variance agree with plain rejection within 3 SE, and no step warns."""
    corr, alpha, sign = _wide_orthant()
    rng = np.random.default_rng(17)
    root = np.linalg.cholesky(corr)
    kept, total = [], 0
    for _ in range(20):
        cand = alpha + rng.standard_normal((200_000, 14)) @ root.T
        kept.append(cand[np.all(cand * sign > 0, axis=1)])
        total += cand.shape[0]
    oracle = np.concatenate(kept)
    assert oracle.shape[0] / total <= 2e-3

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        z = _tilted_draws(corr, alpha, sign, rng, 8000)
    assert np.all(z * sign > 0)
    se = np.sqrt(z.var(0) / len(z) + oracle.var(0) / len(oracle))
    assert np.all(np.abs(z.mean(0) - oracle.mean(0)) < 3 * se)
    sq_z, sq_o = (z - z.mean(0)) ** 2, (oracle - oracle.mean(0)) ** 2
    se = np.sqrt(sq_z.var(0) / len(z) + sq_o.var(0) / len(oracle))
    assert np.all(np.abs(sq_z.mean(0) - sq_o.mean(0)) < 3 * se)


def test_tilted_log_weight_never_exceeds_psi_star():
    """psi(., mu*) peaks at x*, so no proposal's log weight exceeds psi*:
    the acceptance test Exp(1) > psi* - log w is exact."""
    h, ltri, sign, mu, psi = _wide_tilt()
    n = 40_000
    eps, log_w = _tilted_proposal(
        np.random.default_rng(5), h, ltri, np.tile(sign, (n, 1)), np.tile(mu, (n, 1)))
    assert np.all(np.isfinite(log_w))
    assert np.max(log_w) <= psi


def test_tilting_points_batched_equal_one_at_a_time(monkeypatch):
    """Each row stops on its own gradient, so a batch of orthants of one
    correlation gives, bitwise, the tilting points solved alone; a solve
    that runs out of Newton steps raises instead of falling back."""
    corr, alpha, _ = _wide_orthant()
    low, _, _, a_cat, _ = _prep_draw(corr, alpha, np.arange(14), np.empty(0, int))
    h, ltri = _tilt_setup(low, a_cat)
    cells = np.array([[c0, c1, c2] for c0 in range(5) for c1 in (0, 3)
                      for c2 in range(4)])
    sign = _level_signs(cells, (5, 5, 4))
    n = cells.shape[0]
    mu, psi = _tilting_point(h, ltri, sign)
    for i in range(n):
        mu_i, psi_i = _tilting_point(h, ltri, sign[i : i + 1])
        assert np.array_equal(mu_i[0], mu[i]) and psi_i[0] == psi[i]
    assert np.all(mu[:, -1] == 0.0)

    monkeypatch.setattr(synthesizer, "_NEWTON_ITERS", 2)
    with pytest.raises(OrthantUnderflowError, match="unsolved for 40 "):
        _tilting_point(h, ltri, sign)


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
    out = synthesize_datasets(model, SynthesisPlan(m=3, n_out=500, seed=4))
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
    plan = SynthesisPlan(m=3, n_out=150, seed=9)
    a = synthesize_datasets(model, plan)
    b = synthesize_datasets(model, plan)
    for s1, s2 in zip(a, b):
        for name in s1.columns:
            assert np.array_equal(s1.columns[name], s2.columns[name])
    # different datasets in one release use different substreams
    assert any(
        not np.array_equal(a[0].columns[n], a[1].columns[n]) for n in a[0].columns
    )
    # and a different seed changes the output
    c = synthesize_datasets(model, SynthesisPlan(m=1, n_out=150, seed=10))
    assert any(
        not np.array_equal(a[0].columns[n], c[0].columns[n]) for n in a[0].columns
    )


def test_chunked_synthesis_deterministic_across_chunk_boundary(monkeypatch):
    """Records go through in chunks on one stream: output repeats exactly,
    its first chunk is what a one-chunk run of that size gives, and a run
    that fits in one chunk is the same whatever the chunk size."""
    _, model = _mixed_fit(n=200, iters=200, burn_in=100)
    plan = SynthesisPlan(m=2, n_out=150, seed=9)
    whole = synthesize_datasets(model, plan)
    monkeypatch.setattr(synthesizer, "SYNTH_CHUNK", 150)
    for a, b in zip(whole, synthesize_datasets(model, plan)):
        for name in a.columns:
            assert np.array_equal(a.columns[name], b.columns[name])

    monkeypatch.setattr(synthesizer, "SYNTH_CHUNK", 64)
    stats = []
    chunked = synthesize_datasets(model, plan, stats)
    again = synthesize_datasets(model, plan)
    head = synthesize_datasets(model, SynthesisPlan(m=2, n_out=64, seed=9))
    for c, r, h in zip(chunked, again, head):
        assert c.n == 150
        for name in c.columns:
            assert np.array_equal(c.columns[name], r.columns[name])
            assert np.array_equal(c.columns[name][:64], h.columns[name])
    assert len(stats) == 2
    assert all(st.proposed >= 150 and st.rounds >= 3 for st in stats)
    # chunks draw from one stream in turn, so they are not copies of each other
    assert not np.array_equal(chunked[0].columns["w"][64:128],
                              chunked[0].columns["w"][:64])


def test_draw_selection_schemes(monkeypatch):
    """Dataset i's posterior draw is the first number of substream
    (seed, "synth", i), and all of its record chunks come from that draw."""
    _, model = _mixed_fit(n=150, iters=200, burn_in=100)
    n_draws = model.draws.n_draws
    draws, tables, chunks = [], [], []
    real_table, real_batch = synthesizer._draw_table, synthesizer._synthesize_batch

    def table_spy(model, d):
        draws.append(d)
        tables.append(real_table(model, d))
        return tables[-1]

    def batch_spy(model, t, n, rng, stats):
        chunks.append((len(tables) - 1, t is tables[-1], n))
        return real_batch(model, t, n, rng, stats)

    monkeypatch.setattr(synthesizer, "_draw_table", table_spy)
    monkeypatch.setattr(synthesizer, "_synthesize_batch", batch_spy)
    monkeypatch.setattr(synthesizer, "SYNTH_CHUNK", 7)
    synthesize_datasets(model, SynthesisPlan(m=4, n_out=10, seed=3))
    assert draws == [
        substream(3, "synth", i).integers(n_draws) for i in range(4)
    ]
    assert chunks == [(i, True, n) for i in range(4) for n in (7, 3)]


def test_each_dataset_comes_from_one_posterior_draw():
    """Two continuous columns whose two posterior draws correlate them at
    +0.9 and -0.9: a dataset from one draw keeps that draw's strong
    correlation, where records mixing the draws would cancel it out."""
    rng = np.random.default_rng(4)
    schema = (ColumnSchema("u", Kind.CONTINUOUS), ColumnSchema("v", Kind.CONTINUOUS))
    corr = np.array([[[1.0, r], [r, 1.0]] for r in (0.9, -0.9)])
    model = FittedCopula(
        PosteriorDraws(corr, np.zeros((2, 2)), 1), schema,
        {c.name: fit_marginal(rng.normal(0, 1, 500), Kind.CONTINUOUS) for c in schema},
        None, 500,
    )
    out = synthesize_datasets(model, SynthesisPlan(m=8, n_out=400, seed=0))
    signs = set()
    for s in out:
        r = np.corrcoef(s.columns["u"], s.columns["v"])[0, 1]
        assert abs(r) > 0.7, r
        signs.add(np.sign(r))
    assert signs == {-1.0, 1.0}


def test_no_categorical_dataset_roundtrip(monkeypatch):
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
    stats = []
    out = synthesize_datasets(model, SynthesisPlan(m=2, seed=2), stats)
    assert stats == [OrthantStats()] * 2
    for s in out:
        assert s.n == n
        assert set(np.unique(s.columns["b"]).tolist()) <= {0, 1}
    (rec,) = synthesize_datasets(model, SynthesisPlan(n_out=1))
    assert rec.n == 1
    # with no orthant block the stream is one normal per latent cell, so
    # chunking leaves the output unchanged
    monkeypatch.setattr(synthesizer, "SYNTH_CHUNK", 7)
    for a, b in zip(out, synthesize_datasets(model, SynthesisPlan(m=2, seed=2))):
        for name in a.columns:
            assert np.array_equal(a.columns[name], b.columns[name])


def test_default_output_size_matches_fit():
    ds, model = _mixed_fit(n=230, iters=200, burn_in=100)
    out = synthesize_datasets(model, SynthesisPlan(m=1, seed=0))
    assert out[0].n == ds.n == 230
