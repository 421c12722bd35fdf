"""Attribute-disclosure metrics against a literal double-loop matcher."""
import numpy as np
import pytest

from mixedsynth.errors import InsufficientPoolError, SchemaError, UnknownColumnError
import mixedsynth.risk as risk
from mixedsynth.risk import (
    RiskPlan,
    _group_medians,
    _key_index,
    _Prefix,
    cmap_mean,
    risk_study,
)
from mixedsynth.schema import ColumnSchema, Kind, MixedDataset
from mixedsynth.streams import substream


def _ds(g, h, t):
    return MixedDataset(
        (
            ColumnSchema("g", Kind.CATEGORICAL, levels=("a", "b", "c")),
            ColumnSchema("h", Kind.BINARY),
            ColumnSchema("t", Kind.COUNT),
        ),
        {
            "g": np.asarray(g, dtype=np.int64),
            "h": np.asarray(h, dtype=np.int64),
            "t": np.asarray(t, dtype=np.int64),
        },
    )


def _random_instance(rng, n_conf, n_syn, m):
    conf = _ds(rng.integers(0, 3, n_conf), rng.integers(0, 2, n_conf),
               rng.poisson(5.0, n_conf))
    release = [
        _ds(rng.integers(0, 3, n_syn), rng.integers(0, 2, n_syn),
            rng.poisson(5.0, n_syn))
        for _ in range(m)
    ]
    return conf, release


# ---------------------------------------------------------- hand examples


def _one_record_cap(match_values, truth, eps):
    """cmap_syn of one confidential record whose match set is match_values;
    a decoy row with another key carries the true value and must not count."""
    k = len(match_values)
    conf = _ds([0], [1], [truth])
    rel = [_ds([0] * k + [1], [1] * k + [1], list(match_values) + [truth])]
    return cmap_mean(conf, rel, ("g", "h"), "t", eps).cmap_syn


def test_cmap_record_hand_examples():
    assert _one_record_cap([340, 342, 350], 342, 0) == 1.0
    # even count: the lower-middle order statistic is the median
    assert _one_record_cap([340, 344], 342, 1) == 0.0
    assert _one_record_cap([340, 344], 342, 2) == 1.0
    assert _one_record_cap([], 342, 5) == 0.0
    assert _one_record_cap([344, 340], 342, 2) == 1.0  # order-insensitive


def test_match_set_contents():
    conf = _ds([0, 1], [1, 0], [10, 20])
    rel = [
        _ds([0, 0, 1], [1, 1, 0], [3, 4, 5]),
        _ds([0, 2], [1, 0], [6, 7]),
    ]
    rec_key, syn_keys, n_keys = _key_index(conf, rel, ("g", "h"))
    keys = np.concatenate(syn_keys)
    vals = np.concatenate([s.columns["t"] for s in rel]).astype(np.float64)
    assert np.array_equal(np.sort(vals[keys == rec_key[0]]), [3, 4, 6])
    assert np.array_equal(np.sort(vals[keys == rec_key[1]]), [5])
    assert keys[-1] == -1  # (c, 0) never occurs in the confidential data
    assert np.array_equal(_group_medians(keys, vals, n_keys)[rec_key], [4, 5])


# ------------------------------------------------------ oracle equivalence


def _brute_force(conf, release, known, target, eps):
    """Literal nested loops over confidential records and released rows."""
    n = conf.n
    hits_syn = np.zeros(n, dtype=int)
    hits_base = np.zeros(n, dtype=int)
    matched = np.zeros(n, dtype=bool)
    for i in range(n):
        key = tuple(conf.columns[k][i] for k in known)
        vals = []
        for s in release:
            for r in range(s.n):
                if tuple(s.columns[k][r] for k in known) == key:
                    vals.append(float(s.columns[target][r]))
        if vals:
            matched[i] = True
            vals.sort()
            med = vals[(len(vals) - 1) // 2]
            hits_syn[i] = abs(med - float(conf.columns[target][i])) <= eps
        base_vals = sorted(
            float(conf.columns[target][r])
            for r in range(n)
            if tuple(conf.columns[k][r] for k in known) == key
        )
        med = base_vals[(len(base_vals) - 1) // 2]
        hits_base[i] = abs(med - float(conf.columns[target][i])) <= eps
    keys = [tuple(conf.columns[k][i] for k in known) for i in range(n)]
    uniq = np.array([keys.count(k) == 1 for k in keys])
    return hits_syn, hits_base, matched, uniq


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("eps", [0, 1, 2])
def test_pipeline_equals_brute_force_record_for_record(seed, eps):
    rng = np.random.default_rng(seed)
    n_conf = int(rng.integers(5, 51))
    n_syn = int(rng.integers(3, 40))
    conf, release = _random_instance(rng, n_conf, n_syn, m=3)
    known = ("g", "h")

    hits_syn, hits_base, matched, uniq = _brute_force(conf, release, known, "t", eps)

    # record-level: the kernel's per-record hit vectors agree with the double loop
    prefix = _Prefix(conf, release, known, "t", [eps])
    hits, kernel_matched = prefix.attack(range(len(release)))
    for i in range(conf.n):
        assert hits[0, i] == hits_syn[i], f"record {i}"
        assert kernel_matched[i] == matched[i], f"record {i}"
        assert prefix.base[0, i] == hits_base[i], f"record {i}"

    rep = cmap_mean(conf, release, known, "t", eps)
    assert rep.cmap_syn == pytest.approx(hits_syn.mean(), abs=1e-15)
    assert rep.cmap_base == pytest.approx(hits_base.mean(), abs=1e-15)
    assert rep.n_matched == int(matched.sum())
    assert rep.n_unmatched == int((~matched).sum())
    assert rep.n_uniques == int(uniq.sum())
    if uniq.any():
        assert rep.cmap_syn_uniques == pytest.approx(hits_syn[uniq].mean(), abs=1e-15)
        assert rep.cmap_base_uniques == pytest.approx(hits_base[uniq].mean(), abs=1e-15)


def test_single_column_key_matches_brute_force():
    rng = np.random.default_rng(99)
    conf, release = _random_instance(rng, 30, 25, m=2)
    hits_syn, hits_base, matched, _ = _brute_force(conf, release, ("g",), "t", 1)
    rep = cmap_mean(conf, release, ("g",), "t", epsilon=1)
    assert rep.cmap_syn == pytest.approx(hits_syn.mean(), abs=1e-15)
    assert rep.cmap_base == pytest.approx(hits_base.mean(), abs=1e-15)


# ------------------------------------------------------------- properties


def test_epsilon_monotonicity():
    rng = np.random.default_rng(17)
    conf, release = _random_instance(rng, 40, 35, m=4)
    prev_syn, prev_base = -1.0, -1.0
    for eps in (0, 1, 2, 5, 50):
        rep = cmap_mean(conf, release, ("g", "h"), "t", eps)
        assert rep.cmap_syn >= prev_syn
        assert rep.cmap_base >= prev_base
        prev_syn, prev_base = rep.cmap_syn, rep.cmap_base


def test_huge_epsilon_hits_every_matched_record():
    rng = np.random.default_rng(23)
    conf, release = _random_instance(rng, 35, 20, m=2)
    rep = cmap_mean(conf, release, ("g", "h"), "t", 10**9)
    assert rep.cmap_syn == pytest.approx(rep.n_matched / conf.n, abs=1e-15)
    assert rep.cmap_base == 1.0  # baseline always matches itself


def test_baseline_uniques_hit_at_zero_slack():
    # a key unique in the confidential data matches only itself
    conf = _ds([0, 1, 2, 0], [1, 0, 1, 1], [5, 6, 7, 5])
    rel = [_ds([0], [0], [9])]
    rep = cmap_mean(conf, rel, ("g", "h"), "t")
    assert rep.n_uniques == 2
    assert rep.cmap_base_uniques == 1.0


def test_scenario_validation():
    """The adversary knows at least one column, each once (a repeat would
    count twice in n_known), never the target, and scores hits within
    nonnegative integer slacks."""
    with pytest.raises(ValueError, match="known"):
        RiskPlan((), "t")
    for known in (("g", "g"), ("g", "h", "g")):
        with pytest.raises(ValueError, match="^known names a column more than once"):
            RiskPlan(known, "t")
    with pytest.raises(ValueError, match="target 't'"):
        RiskPlan(("t", "g"), "t")
    for eps in (-1, 0.5):
        with pytest.raises(ValueError, match="eps_grid"):
            RiskPlan(("g",), "t", eps_grid=(0, eps))
    with pytest.raises(ValueError, match="known"):
        cmap_mean(_ds([0], [1], [2]), [_ds([0], [1], [2])], [], "t")
    plan = RiskPlan(["g"], "t", m_grid=[2], eps_grid=range(2))
    assert (plan.known, plan.m_grid, plan.eps_grid) == (("g",), (2,), (0, 1))


def test_unknown_and_continuous_columns_rejected():
    conf = _ds([0, 1], [0, 1], [1, 2])
    rel = [conf]
    with pytest.raises(UnknownColumnError):
        cmap_mean(conf, rel, ("nope",), "t")
    cont = MixedDataset(
        (ColumnSchema("x", Kind.CONTINUOUS), ColumnSchema("t", Kind.COUNT)),
        {"x": np.array([0.1, 0.2]), "t": np.array([1, 2])},
    )
    with pytest.raises(SchemaError):
        cmap_mean(cont, [cont], ("x",), "t")


# --------------------------------------------------------------- studies


def _study_pool(seed=31, n=40, size=6):
    rng = np.random.default_rng(seed)
    conf, pool = _random_instance(rng, n, n, m=size)
    return conf, pool


def test_risk_study_base_independent_of_m():
    conf, pool = _study_pool()
    cells = risk_study(conf, pool, RiskPlan(("g", "h"), "t", m_grid=(2, 4),
                                            eps_grid=(0, 1), reps=5, seed=3))
    by_eps = {}
    for c in cells:
        by_eps.setdefault(c.epsilon, set()).add(c.cmap_base)
    for eps, bases in by_eps.items():
        assert len(bases) == 1, f"baseline varies with m at eps={eps}"


def test_risk_study_monotone_in_epsilon_within_release():
    conf, pool = _study_pool(seed=5)
    cells = risk_study(conf, pool, RiskPlan(("g", "h"), "t", m_grid=(3,),
                                            eps_grid=(0, 1, 2), reps=4, seed=0))
    by_eps = {c.epsilon: c.cmap_syn for c in cells}
    assert by_eps[0] <= by_eps[1] <= by_eps[2]


def test_risk_study_prefix_grid():
    """A grid of known-column prefixes is one call per prefix; every cell of
    a call counts the whole known list it was given."""
    conf, pool = _study_pool(seed=6)
    for k in (1, 2):
        cells = risk_study(conf, pool, RiskPlan(("g", "h")[:k], "t", m_grid=(2,),
                                                eps_grid=(0,), reps=3, seed=1))
        assert {c.n_known for c in cells} == {k}
    with pytest.raises(ValueError):
        RiskPlan((), "t", m_grid=(2,), reps=1)


def test_risk_study_pool_too_small():
    conf, pool = _study_pool(size=3)
    with pytest.raises(InsufficientPoolError):
        risk_study(conf, pool, RiskPlan(("g",), "t", m_grid=(5,), reps=1))


@pytest.mark.parametrize("setting, grid", [
    ("m_grid", {"m_grid": (0,)}),
    ("m_grid", {"m_grid": (2, -1)}),
    ("m_grid", {"m_grid": ()}),
    ("reps", {"reps": 0}),
    ("eps_grid", {"eps_grid": ()}),
])
def test_risk_study_rejects_empty_releases(setting, grid):
    with pytest.raises(ValueError, match=setting):
        RiskPlan(("g",), "t", **{"m_grid": (2,), "reps": 1, **grid})


def test_risk_study_exhaustive_release_is_deterministic():
    conf, pool = _study_pool(size=3)
    cells = risk_study(conf, pool, RiskPlan(("g", "h"), "t", m_grid=(3,),
                                            eps_grid=(1,), reps=1, seed=42))
    direct = cmap_mean(conf, pool, ("g", "h"), "t", 1)
    assert cells[0].cmap_syn == direct.cmap_syn
    assert cells[0].cmap_base == direct.cmap_base


@pytest.mark.parametrize("seed", range(8))
def test_cmap_mean_scores_the_release_in_any_order(seed):
    """cmap_mean's one draw is a permutation of the release; the medians, and
    so every field of the report, are those of the release as listed."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 6))
    conf, release = _random_instance(rng, int(rng.integers(5, 51)),
                                     int(rng.integers(3, 40)), m)
    eps = seed % 3
    listed = _Prefix(conf, release, ("g", "h"), "t", (eps,)).reports(m, [range(m)])
    assert cmap_mean(conf, release, ("g", "h"), "t", eps) == listed[0]
    assert cmap_mean(conf, release[::-1], ("g", "h"), "t", eps) == listed[0]


def test_risk_study_reproducible():
    conf, pool = _study_pool(seed=8)
    plan = RiskPlan(("g",), "t", m_grid=(2,), eps_grid=(0, 1), reps=6, seed=11)
    assert risk_study(conf, pool, plan) == risk_study(conf, pool, plan)


def test_substream_isolated_by_key():
    a = substream(0, "risk", 2, 0).integers(0, 1000, 5)
    b = substream(0, "risk", 2, 1).integers(0, 1000, 5)
    c = substream(0, "risk", 2, 0).integers(0, 1000, 5)
    assert not np.array_equal(a, b)
    assert np.array_equal(a, c)


def test_risk_study_equals_mean_of_cmap_mean():
    """Every cell, for each known-column prefix, equals exactly the average of
    cmap_mean over the same releases re-drawn from
    substream(seed, "risk", m, rep)."""
    conf, pool = _study_pool(seed=12, size=5)
    m_grid, k_grid, eps_grid, reps, seed = (1, 3, 5), (1, 2), (0, 1, 2), 7, 4
    cells = []
    for k in k_grid:
        part = risk_study(conf, pool, RiskPlan(("g", "h")[:k], "t", m_grid,
                                               eps_grid, reps, seed))
        assert [(c.m, c.n_known, c.epsilon) for c in part] == [
            (m, k, e) for m in m_grid for e in eps_grid
        ]
        cells += part
    assert len(cells) == 18
    for c in cells:
        direct = []
        for rep in range(reps):
            rng = substream(seed, "risk", c.m, rep)
            release = [pool[i] for i in rng.choice(len(pool), size=c.m, replace=False)]
            direct.append(
                cmap_mean(conf, release, ("g", "h")[: c.n_known], "t", c.epsilon))
        syn = float(np.mean([r.cmap_syn for r in direct]))
        base = direct[0].cmap_base
        assert {r.cmap_base for r in direct} == {base}
        assert c.cmap_syn == syn
        assert c.cmap_base == base
        assert c.cmap_syn_uniques == float(
            np.mean([r.cmap_syn_uniques for r in direct]))
        assert c.cmap_base_uniques == direct[0].cmap_base_uniques
        assert c.risk_reduction == base - syn
        assert c.n_matched == int(round(np.mean([r.n_matched for r in direct])))
        assert c.n_unmatched == int(
            round(np.mean([r.n_unmatched for r in direct])))
        assert c.n_uniques == direct[0].n_uniques


def test_risk_study_keys_each_prefix_once(monkeypatch):
    """Per risk_study call: one key index and one baseline pass for its known
    list, then one median pass per release that scores every epsilon."""
    keyed, passes = [], []
    key_index, group_medians = risk._key_index, risk._group_medians

    def counting_key_index(conf, pool, known):
        keyed.append(known)
        return key_index(conf, pool, known)

    def counting_group_medians(keys, values, n_keys):
        passes.append(keys.size)
        return group_medians(keys, values, n_keys)

    monkeypatch.setattr(risk, "_key_index", counting_key_index)
    monkeypatch.setattr(risk, "_group_medians", counting_group_medians)
    conf, pool = _study_pool(seed=9)
    for k in (1, 2):
        risk_study(conf, pool, RiskPlan(("g", "h")[:k], "t", m_grid=(2, 3, 4),
                                        eps_grid=(0, 1, 2), reps=5, seed=2))
    assert keyed == [("g",), ("g", "h")]
    assert len(passes) == 2 + 3 * 5 * 2
