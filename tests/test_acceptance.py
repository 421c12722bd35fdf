"""Release gates, one test per advertised guarantee, at full scale.

Each test prints one PASS/FAIL line.  The benchmark fixtures run the
two-column study at its production size (n=5000, 15,000 iterations, 120
synthetic replicates), so this module dominates suite runtime; everything
else in tests/ runs the same checks at unit scale.
"""
import json
import subprocess
import sys
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from mixedsynth import target_regression
from mixedsynth.cli import main
from mixedsynth.errors import SeparationWarning
from mixedsynth.factor_model import (
    ChainConfig,
    FactorState,
    _level_signs,
    update_loadings,
)
from mixedsynth.risk import RiskPlan, _Prefix, cmap_mean, risk_study
from mixedsynth.schema import ColumnSchema, Kind, MixedDataset, expand_layout, write_csv
from mixedsynth.simulation import (
    STUDIES,
    SimDesign,
    generate_sim_data,
    preset,
    run_studies,
)
from mixedsynth.synthesizer import (
    OrthantStats,
    _prep_draw,
    _tilt_setup,
    _tilted_orthant,
    _tilting_point,
)
from mixedsynth.target_regression import TargetConfig, fit_target_model
from mixedsynth.utility import (
    CoefficientSummary,
    aggregated_utility,
    cio,
    coef_mse,
    pmse,
    pool_synthetic,
)

pytestmark = pytest.mark.acceptance

DESIGN = SimDesign(n=5000, n_reps=120, seed=0)
CHAIN = ChainConfig(iters=15000, burn_in=9000, thin=10, seed=0)

_T0 = time.monotonic()


def _gate(num, label, ok, detail=""):
    print(f"[gate {num}] {'PASS' if ok else 'FAIL'}: {label}{detail}")
    assert ok, f"gate {num} ({label}){detail}"


@pytest.fixture(scope="module")
def full_studies():
    # the fan-out `simulate` runs, one worker per study
    return run_studies(STUDIES, DESIGN, CHAIN, keep_data=True)


@pytest.fixture(scope="module")
def rpl_full(full_studies):
    return full_studies["rpl"]


@pytest.fixture(scope="module")
def rl_full(full_studies):
    return full_studies["rl"]


@pytest.fixture(scope="module")
def ordinal_full(full_studies):
    return full_studies["ordinal"]


@pytest.fixture(scope="module")
def copula_fit(rpl_full):
    # the rpl study's own fit: bitwise the draws that run_study("rpl", ...)
    # gets from generate_sim_data(DESIGN) with CHAIN at n_factors = p* = 6
    return generate_sim_data(DESIGN), rpl_full.model


# --------------------------------------------------------------- gate 1


def test_criterion_1_benchmark_group_mean_fidelity(rpl_full, rl_full):
    full_elapsed = time.monotonic() - _T0
    ok = (
        rpl_full.avg_mse <= 1.0
        and rpl_full.multi_rate == 0.0
        and rl_full.avg_mse > rpl_full.avg_mse
        and rl_full.multi_rate > 0.05
        and full_elapsed <= 7200
    )
    detail = (
        f" (rpl mse {rpl_full.avg_mse:.3f} +/- {rpl_full.sd_mse:.3f}, "
        f"rl mse {rl_full.avg_mse:.3f}, rl multi rate {rl_full.multi_rate:.3f}, "
        f"{full_elapsed:.0f}s)"
    )

    # the reduced preset must show the same orderings inside ten minutes
    t0 = time.monotonic()
    ddesign, dchain = preset("desk", seed=0)
    desk = run_studies(("rpl", "rl"), ddesign, dchain)
    drpl, drl = desk["rpl"], desk["rl"]
    desk_elapsed = time.monotonic() - t0
    ok = ok and (
        drl.avg_mse > drpl.avg_mse
        and drpl.multi_rate == 0.0
        and drl.multi_rate > 0.05
        and desk_elapsed <= 600
    )
    detail += (
        f" (desk: rpl {drpl.avg_mse:.3f} vs rl {drl.avg_mse:.3f}, "
        f"rl multi {drl.multi_rate:.3f}, {desk_elapsed:.0f}s)"
    )
    _gate(1, "benchmark group-mean fidelity and orderings", ok, detail)


# --------------------------------------------------------------- gate 2


def test_criterion_2_group_mean_band_coverage(rpl_full, ordinal_full):
    lo, hi = np.nanpercentile(rpl_full.group_means, [2.5, 97.5], axis=0)
    covered = (lo <= rpl_full.obs_means) & (rpl_full.obs_means <= hi)

    olo, ohi = np.nanpercentile(ordinal_full.group_means, [2.5, 97.5], axis=0)
    excluded = (ordinal_full.obs_means < olo) | (ordinal_full.obs_means > ohi)

    ok = covered.all() and excluded.any()
    detail = (
        f" (categorical bands cover {int(covered.sum())}/5 levels, "
        f"ordinal recode misses {int(excluded.sum())})"
    )
    _gate(2, "per-level band coverage under the two encodings", ok, detail)


# --------------------------------------------------------------- gate 3


def test_criterion_3_orthant_mass_readback(copula_fit):
    """Activation orthant masses at the posterior mean vs observed level
    frequencies, tolerance 0.03 per level.

    The latent update constrains z_ih > 0 exactly when y_i = h and carries no
    normalizing constant over the single-activation orthants, so every kept
    latent matrix has a share of positive cells in column h equal to the
    frequency of level h.  The fitted activation mass P(z_h > 0) reads that
    share back.  The single-activation masses P(z_h > 0, z_{-h} < 0) are not
    level probabilities: the fitted Gaussian also puts mass on "no level
    positive" and "two or more positive", so they sum to S < 1, and
    renormalizing them by S is not the model's level probability either.
    They are checked only for ranking the levels in the frequency order and
    are otherwise reported, with S and their largest gap, as information.
    """
    data, model = copula_fit
    names = expand_layout(model.schema).latent_names()
    block = [i for i, nm in enumerate(names) if nm.startswith("x1=")]
    alpha = model.draws.alpha.mean(axis=0)[block]
    corr = model.draws.corr.mean(axis=0)[np.ix_(block, block)]

    rng = np.random.default_rng(2024)
    root = np.linalg.cholesky(corr)
    z = alpha + rng.standard_normal((400000, len(block))) @ root.T
    pos = z > 0
    active = pos.mean(axis=0)
    single = (pos & (pos.sum(axis=1) == 1)[:, None]).mean(axis=0)
    freqs = np.bincount(data.columns["x1"], minlength=5) / data.n

    errs = np.abs(active - freqs)
    levels = np.array(data.schema[0].levels)
    freq_order = levels[np.argsort(freqs, kind="stable")]
    single_order = levels[np.argsort(single, kind="stable")]
    same_order = bool((freq_order == single_order).all())
    ok = bool((errs <= 0.03).all()) and same_order
    detail = (
        f" (activation max |error| {errs.max():.4f}, per-level {np.round(errs, 4)}; "
        f"order by frequency {' '.join(freq_order)}, by single-activation mass "
        f"{' '.join(single_order)}; single-activation masses {np.round(single, 4)}, "
        f"S {single.sum():.3f}, max gap {np.abs(single - freqs).max():.4f})"
    )
    _gate(3, "activation orthant {z_h > 0} mass readback and single-activation "
          "ordering at the posterior mean", ok, detail)


# --------------------------------------------------------------- gate 4


def _random_corr(rng, d):
    a = rng.standard_normal((d, d + 2))
    omega = a @ a.T + np.diag(rng.uniform(0.5, 1.5, d))
    s = np.sqrt(np.diag(omega))
    c = omega / np.outer(s, s)
    np.fill_diagonal(c, 1.0)
    return c


def _tilted_draws(corr, alpha, sign, rng, n):
    """n draws of one orthant block as synthesis draws them: the tilting
    point, then tilted rejection, mapped back to z."""
    low, _, _, a_cat, _ = _prep_draw(corr, alpha, np.arange(sign.size),
                                     np.empty(0, int))
    h, ltri = _tilt_setup(low, a_cat)
    mu, psi = _tilting_point(h, ltri, sign[None])
    eps = _tilted_orthant(rng, h, ltri, np.tile(sign, (n, 1)), np.tile(mu, (n, 1)),
                          np.repeat(psi, n), OrthantStats())
    return a_cat + eps @ low.T


def _copy_state(state: FactorState) -> FactorState:
    """An independent copy of every array; the generator is shared."""
    return FactorState(
        state.z.copy(), state.lam.copy(), state.eta.copy(), state.sigma2.copy(),
        state.phi.copy(), state.delta.copy(), state.alpha.copy(), state.rng,
    )


def test_criterion_4_sampler_unit_oracles():
    # (a) synthesis's conditional moments vs direct matrix inverse, dims 2..12
    moments_ok = True
    for dim in range(2, 13):
        rng = np.random.default_rng(1000 + dim)
        corr = _random_corr(rng, dim)
        alpha = rng.normal(0.0, 1.0, dim)
        cat_idx = np.sort(rng.choice(dim, int(rng.integers(1, dim)), replace=False))
        rest_idx = np.setdiff1d(np.arange(dim), cat_idx)
        z_cat = rng.normal(0.0, 1.0, cat_idx.size)
        _, b, l_star, a_cat, a_rest = _prep_draw(corr, alpha, cat_idx, rest_idx)
        inv = np.linalg.inv(corr[np.ix_(cat_idx, cat_idx)])
        c_rc = corr[np.ix_(rest_idx, cat_idx)]
        mean = alpha[rest_idx] + c_rc @ inv @ (z_cat - alpha[cat_idx])
        cov = corr[np.ix_(rest_idx, rest_idx)] - c_rc @ inv @ c_rc.T
        moments_ok &= bool(
            np.allclose(a_rest + b @ (z_cat - a_cat), mean, atol=1e-10)
            and np.allclose(l_star @ l_star.T, cov, atol=1e-10)
        )

    # (b) truncated-MVN block draws vs a rejection oracle, 3 MC SEs
    rng = np.random.default_rng(21)
    corr3 = np.array([[1.0, 0.3, 0.2], [0.3, 1.0, 0.4], [0.2, 0.4, 1.0]])
    alpha3 = np.array([-0.3, 0.2, -0.5])
    sign = _level_signs(np.array([[1]]), (3,))[0]
    root = np.linalg.cholesky(corr3)
    cand = alpha3 + rng.standard_normal((400000, 3)) @ root.T
    oracle = cand[(cand[:, 0] < 0) & (cand[:, 1] > 0) & (cand[:, 2] < 0)]
    n_draws = 800
    draws = _tilted_draws(corr3, alpha3, sign, rng, n_draws)
    tmvn_ok = bool(np.all(draws[:, 1] > 0) and np.all(draws[:, [0, 2]] < 0))
    worst = 0.0
    for j in range(3):
        se = np.sqrt(oracle[:, j].var() / oracle.shape[0]
                     + draws[:, j].var() / n_draws)
        pull = abs(draws[:, j].mean() - oracle[:, j].mean()) / se
        worst = max(worst, pull)
        tmvn_ok &= pull < 3.0

    # (c) a Gibbs full conditional vs a grid-integrated density (KS p > 0.01)
    rng = np.random.default_rng(0)
    n, p_star, k = 25, 3, 1
    state = FactorState(
        z=rng.standard_normal((n, p_star)),
        lam=rng.uniform(-0.8, 0.8, (p_star, k)),
        eta=rng.standard_normal((n, k)),
        sigma2=rng.uniform(0.4, 1.2, p_star),
        phi=rng.gamma(2.0, 0.5, (p_star, k)),
        delta=rng.uniform(0.8, 2.0, k),
        alpha=rng.uniform(-0.5, 0.5, p_star),
        rng=rng,
    )
    j = 1
    reps = 1500
    draws_l = np.empty(reps)
    for r in range(reps):
        s = _copy_state(state)
        update_loadings(s)
        draws_l[r] = s.lam[j, 0]
    tau = float(state.tau[0])
    phi = float(state.phi[j, 0])
    eta = state.eta[:, 0]
    resid = state.z[:, j] - state.alpha[j]
    s2 = float(state.sigma2[j])
    xs = np.linspace(draws_l.min() - 3 * draws_l.std(),
                     draws_l.max() + 3 * draws_l.std(), 20001)
    lp = (-0.5 * phi * tau * xs**2
          - 0.5 * ((resid[None, :] - xs[:, None] * eta[None, :]) ** 2).sum(1) / s2)
    pdf = np.exp(lp - lp.max())
    cdf = np.concatenate(([0.0], np.cumsum(0.5 * (pdf[1:] + pdf[:-1]) * np.diff(xs))))
    cdf /= cdf[-1]
    p_ks = stats.ks_1samp(draws_l, lambda q: np.interp(q, xs, cdf)).pvalue
    ks_ok = p_ks > 0.01

    ok = moments_ok and tmvn_ok and ks_ok
    detail = (f" (moments 1e-10 {'ok' if moments_ok else 'FAIL'}, "
              f"tmvn worst pull {worst:.2f} SE, conditional KS p {p_ks:.3f})")
    _gate(4, "sampler unit oracles", ok, detail)


# --------------------------------------------------------------- gate 5


def test_criterion_5_marginal_fidelity(rpl_full):
    conf = generate_sim_data(DESIGN)
    cx1, cx2 = conf.columns["x1"], conf.columns["x2"]
    support = np.unique(cx2)
    p_conf = np.bincount(cx1, minlength=5) / conf.n

    closure_ok = True
    ks_pass = 0
    for s in rpl_full.datasets:
        sx1, sx2 = s.columns["x1"], s.columns["x2"]
        closure_ok &= bool(np.isin(sx2, support).all())
        closure_ok &= bool(((sx1 >= 0) & (sx1 < 5)).all())
        ks_x2 = stats.ks_2samp(cx2, sx2).statistic
        p_syn = np.bincount(sx1, minlength=5) / s.n
        ks_x1 = np.abs(np.cumsum(p_conf - p_syn)).max()
        ks_pass += (ks_x2 <= 0.05) and (ks_x1 <= 0.05)

    frac = ks_pass / len(rpl_full.datasets)
    ok = closure_ok and frac >= 0.95
    detail = (f" ({frac:.1%} of {len(rpl_full.datasets)} replicates within "
              f"KS 0.05, support closure {'ok' if closure_ok else 'FAIL'})")
    _gate(5, "synthetic marginal fidelity and support closure", ok, detail)


# --------------------------------------------------------------- gate 6


def test_criterion_6_utility_metric_exactness():
    tol = 1e-12
    exact_ok = (
        abs(cio((0.0, 1.0), (0.0, 1.0)) - 1.0) <= tol
        and abs(cio((0.0, 2.0), (1.0, 3.0)) - 0.5) <= tol
        and abs(cio((1.0, 3.0), (0.0, 2.0)) - 0.5) <= tol
        and abs(cio((0.0, 1.0), (2.0, 3.0)) - (-1.0)) <= tol
        and abs(cio((0.0, 4.0), (1.0, 3.0)) - 0.75) <= tol
    )
    obs = CoefficientSummary("b", 1.0, 0.5, 0.02, 1.98)
    exact_ok &= abs(coef_mse(obs, 2.0) - 4.0) <= tol

    ests = [
        [CoefficientSummary("b", float(i), 1.0, i - 1.96, i + 1.96)]
        for i in range(1, 6)
    ]
    pooled = pool_synthetic(ests)[0]
    half = 1.96 * np.sqrt(1.5)
    exact_ok &= (
        abs(pooled.point - 3.0) <= tol
        and abs(pooled.sd - np.sqrt(1.5)) <= tol
        and abs(pooled.lower - (3.0 - half)) <= tol
        and abs(pooled.upper - (3.0 + half)) <= tol
    )
    exact_ok &= abs(aggregated_utility(1.0, 0.0, 0.0) - 1.0) <= tol
    exact_ok &= abs(aggregated_utility(0.5, 0.5, 0.125) - 0.5) <= tol

    rng = np.random.default_rng(8)
    n = 5000
    schema = (ColumnSchema("x", Kind.CONTINUOUS), ColumnSchema("y", Kind.COUNT))
    x = rng.normal(0, 1, n)
    y = rng.poisson(5.0, n).astype(np.int64)
    conf = MixedDataset(schema, {"x": x, "y": y})
    perm = rng.permutation(n)
    shuffled = MixedDataset(schema, {"x": x[perm], "y": y[perm]})
    p_same = pmse(conf, shuffled)
    shifted = MixedDataset(schema, {"x": x + 10.0 * x.std(), "y": y})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SeparationWarning)
        p_far = pmse(conf, shifted)
    pmse_ok = (p_same < 0.002) and (p_far > 0.2)

    ok = exact_ok and pmse_ok
    detail = (f" (hand examples to 1e-12 {'ok' if exact_ok else 'FAIL'}; "
              f"pmse shuffled {p_same:.2e}, shifted {p_far:.3f})")
    _gate(6, "utility metric exactness", ok, detail)


# --------------------------------------------------------------- gate 7


def _risk_ds(rng, n):
    return MixedDataset(
        (
            ColumnSchema("g", Kind.CATEGORICAL, levels=("a", "b", "c")),
            ColumnSchema("h", Kind.BINARY),
            ColumnSchema("t", Kind.COUNT),
        ),
        {
            "g": rng.integers(0, 3, n),
            "h": rng.integers(0, 2, n),
            "t": rng.poisson(5.0, n).astype(np.int64),
        },
    )


def _brute_force(conf, release, known, target, eps):
    hits = np.zeros(conf.n, dtype=int)
    for i in range(conf.n):
        key = tuple(conf.columns[k][i] for k in known)
        vals = sorted(
            float(s.columns[target][r])
            for s in release
            for r in range(s.n)
            if tuple(s.columns[k][r] for k in known) == key
        )
        if vals:
            med = vals[(len(vals) - 1) // 2]
            hits[i] = abs(med - float(conf.columns[target][i])) <= eps
    return hits


def test_criterion_7_risk_oracle_equivalence():
    equal_ok = True
    for seed in (0, 1):
        for eps in (0, 1, 2):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(10, 51))
            conf = _risk_ds(rng, n)
            release = [_risk_ds(rng, int(rng.integers(5, 40))) for _ in range(3)]
            hits = _brute_force(conf, release, ("g", "h"), "t", eps)
            got, _ = _Prefix(conf, release, ("g", "h"), "t",
                             [eps]).attack(range(len(release)))
            for i in range(conf.n):
                equal_ok &= got[0, i] == hits[i]
            rep = cmap_mean(conf, release, ("g", "h"), "t", epsilon=eps)
            equal_ok &= abs(rep.cmap_syn - hits.mean()) <= 1e-15

    rng = np.random.default_rng(7)
    conf = _risk_ds(rng, 40)
    release = [_risk_ds(rng, 30) for _ in range(4)]
    last = -1.0
    mono_ok = True
    for eps in (0, 1, 2, 5):
        cur = cmap_mean(conf, release, ("g", "h"), "t", epsilon=eps)
        mono_ok &= cur.cmap_syn >= last
        last = cur.cmap_syn

    pool = [_risk_ds(rng, 30) for _ in range(5)]
    cells = risk_study(conf, pool, RiskPlan(("g", "h"), "t", m_grid=(2, 4),
                                            eps_grid=(0, 1), reps=3, seed=0))
    by_eps = {}
    base_ok = True
    for c in cells:
        key = (c.n_known, c.epsilon)
        if key in by_eps:
            base_ok &= by_eps[key] == c.cmap_base
        by_eps[key] = c.cmap_base

    ok = equal_ok and mono_ok and base_ok
    detail = (f" (brute-force equality {'ok' if equal_ok else 'FAIL'}, "
              f"eps-monotone {'ok' if mono_ok else 'FAIL'}, "
              f"baseline m-invariant {'ok' if base_ok else 'FAIL'})")
    _gate(7, "attribution-risk oracle equivalence", ok, detail)


# --------------------------------------------------------------- gate 8


def test_criterion_8_targeted_regression(monkeypatch):
    rng = np.random.default_rng(0)
    n = 300
    x = rng.integers(0, 3, n)
    z_true = np.asarray([-1.0, 0.0, 1.0])[x] + 0.5 * rng.normal(0, 1, n)
    y = z_true**3
    ds = MixedDataset(
        (
            ColumnSchema("x", Kind.CATEGORICAL, levels=("a", "b", "c")),
            ColumnSchema("y", Kind.CONTINUOUS, role="response"),
        ),
        {"x": x.astype(np.int64), "y": y},
    )

    order = np.argsort(y, kind="stable")
    sv = y[order]
    starts = np.flatnonzero(np.concatenate(([True], sv[1:] != sv[:-1])))
    bounds = np.append(starts, n)
    rank_ok = [True]
    calls = []
    refresh = target_regression.update_rank_column

    def checked(rng, z, *args):  # each iteration's latent refresh
        refresh(rng, z, *args)
        zo = z[order]
        mins = np.minimum.reduceat(zo, starts)
        maxs = np.maximum.reduceat(zo, bounds[:-1])
        rank_ok[0] &= bool(np.all(maxs[:-1] < mins[1:]))
        calls.append(len(calls))

    monkeypatch.setattr(target_regression, "update_rank_column", checked)
    cfg = TargetConfig(iters=400, burn_in=150, trees=40, seed=3)
    summary = fit_target_model(ds, "y", cfg)

    from mixedsynth.bart import ensemble_predict

    f_hat = ensemble_predict(summary.forest, [ds.columns["x"]]) / summary.sigma2.size
    ranks = np.argsort(np.argsort(y)) + 1.0
    target = stats.norm.ppf(ranks / (n + 1.0))
    errs = [f_hat[x == c].mean() - target[x == c].mean() for c in range(3)]
    rmse = float(np.sqrt(np.mean(np.square(errs))))

    ok = rmse <= 0.15 and rank_ok[0] and len(calls) == cfg.iters
    detail = (f" (binned latent RMSE {rmse:.3f}, rank invariant "
              f"{'held' if rank_ok[0] else 'VIOLATED'} over {len(calls)} iters)")
    _gate(8, "targeted response synthesis", ok, detail)


# --------------------------------------------------------------- gate 9


_SCHEMA_DOC = {
    "columns": [
        {"name": "g", "kind": "categorical", "levels": ["a", "b", "c"]},
        {"name": "y", "kind": "count"},
        {"name": "w", "kind": "continuous"},
        {"name": "r", "kind": "count", "role": "response"},
    ]
}


def _tiny_inputs(root):
    rng = np.random.default_rng(0)
    n = 150
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


def test_criterion_9_byte_reproducibility(tmp_path, src_env):
    data, schema = _tiny_inputs(tmp_path)

    # fit twice in separate processes with different BLAS worker counts
    archives = []
    for tag, threads in (("one", "1"), ("four", "4")):
        out = tmp_path / f"model_{tag}.mxs"
        env = dict(src_env, OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-m", "mixedsynth.cli", "fit",
             "--data", str(data), "--schema", str(schema),
             "--out", str(out), "--seed", "3",
             "--iters", "200", "--burn-in", "100", "--thin", "4",
             "--target-iters", "40", "--target-burn-in", "5",
             "--target-trees", "4"],
            env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        archives.append(out.read_bytes())
    fit_ok = archives[0] == archives[1]

    model = tmp_path / "model_one.mxs"
    dirs = [tmp_path / "syn_a", tmp_path / "syn_b"]
    for d in dirs:
        assert main(["synth", "--model", str(model), "--out-dir", str(d),
                     "--m", "2", "--seed", "5"]) == 0
    synth_ok = all(
        (dirs[0] / f).read_bytes() == (dirs[1] / f).read_bytes()
        for f in ["data_syn_0.csv", "data_syn_1.csv", "manifest.json"]
    )

    udocs, rdocs, sdocs = [], [], []
    for tag in ("a", "b"):
        upath = tmp_path / f"u_{tag}.json"
        assert main(["utility", "--conf", str(data), "--schema", str(schema),
                     "--syn-dir", str(dirs[0]), "--response", "w",
                     "--predictors", "g,y", "--iters", "300",
                     "--burn-in", "100", "--seed", "0",
                     "--out", str(upath)]) == 0
        udocs.append(upath.read_bytes())

        rpath = tmp_path / f"r_{tag}.json"
        assert main(["risk", "--conf", str(data), "--schema", str(schema),
                     "--pool-dir", str(dirs[0]), "--known", "g,y",
                     "--target", "r", "--m", "2", "--eps", "0,1",
                     "--reps", "2", "--seed", "4", "--out", str(rpath)]) == 0
        rdocs.append(rpath.read_bytes())

        spath = tmp_path / f"s_{tag}.json"
        assert main(["simulate", "--preset", "desk", "--reps", "1",
                     "--studies", "ordinal", "--seed", "1",
                     "--out", str(spath)]) == 0
        sdocs.append(spath.read_bytes())
    utility_ok = udocs[0] == udocs[1]
    risk_ok = rdocs[0] == rdocs[1]
    sim_ok = sdocs[0] == sdocs[1]

    ok = fit_ok and synth_ok and utility_ok and risk_ok and sim_ok
    detail = (f" (fit across worker counts {'ok' if fit_ok else 'FAIL'}, "
              f"synth {'ok' if synth_ok else 'FAIL'}, "
              f"utility {'ok' if utility_ok else 'FAIL'}, "
              f"risk {'ok' if risk_ok else 'FAIL'}, "
              f"benchmark {'ok' if sim_ok else 'FAIL'})")
    _gate(9, "byte-level reproducibility of every stage", ok, detail)
