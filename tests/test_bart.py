"""Tree-ensemble sampler checks.

The main test enumerates every reachable tree structure on a tiny covariate
space, scores each with prior x marginal likelihood (the likelihood computed
independently as a multivariate-normal density with an intraclass covariance
per leaf), and compares chain visit frequencies to the exact posterior.
"""
import hashlib
import itertools
import json
from dataclasses import fields

import numpy as np
import pytest
from scipy import stats

from mixedsynth import bart
from mixedsynth.bart import (
    MOVES,
    BartSampler,
    CovariateMatrix,
    Forest,
    ensemble_predict,
    forest_shapes,
)

# The oracle form of a tree is a nested doc: {"f": covariate, "cut": value}
# or {"f": covariate, "in": [levels]} with children "l" and "r" at a split,
# {"v": value} at a leaf.


def forest_docs(forest: Forest) -> list:
    """Each tree of a flat forest as a nested doc."""
    ptr = np.concatenate(([0], np.cumsum(forest.n_levels)))

    def doc(start, i):
        j = start + i
        if forest.feature[j] < 0:
            return {"v": float(forest.value[j])}
        out = {"f": int(forest.feature[j])}
        if forest.n_levels[j]:
            out["in"] = [int(v) for v in forest.levels[ptr[j]:ptr[j + 1]]]
        else:
            out["cut"] = float(forest.cut[j])
        out["l"] = doc(start, int(forest.left[j]))
        out["r"] = doc(start, int(forest.right[j]))
        return out

    starts = np.concatenate(([0], np.cumsum(forest.size)[:-1]))
    return [doc(int(s), 0) for s in starts[:forest.size.size]]


def docs_forest(docs: list) -> Forest:
    """Nested docs as one flat forest, each tree's nodes in pre-order."""
    a = {f.name: [] for f in fields(Forest)}
    for tree in docs:
        rows = []

        def visit(d):
            k = len(rows)
            rows.append(None)
            if "v" in d:
                rows[k] = (-1, -1, -1, 0.0, d["v"], [])
            else:
                left, right = visit(d["l"]), visit(d["r"])
                rows[k] = (d["f"], left, right, d.get("cut", 0.0), 0.0, d.get("in", []))
            return k

        visit(tree)
        a["size"].append(len(rows))
        for f, left, right, cut, value, levels in rows:
            a["feature"].append(f)
            a["left"].append(left)
            a["right"].append(right)
            a["cut"].append(cut)
            a["value"].append(value)
            a["n_levels"].append(len(levels))
            a["levels"].extend(levels)
    return Forest(**{
        k: np.asarray(v, dtype=np.float64 if k in ("cut", "value") else np.int64)
        for k, v in a.items()
    })


def doc_shape(doc: dict) -> tuple:
    """(depth, leaf count) of a tree doc."""
    if "v" in doc:
        return 0, 1
    dl, nl = doc_shape(doc["l"])
    dr, nr = doc_shape(doc["r"])
    return 1 + max(dl, dr), nl + nr


def structure_signature(doc: dict) -> str:
    """Canonical string for a tree's split structure, leaf values ignored."""
    if "v" in doc:
        return "L"
    rule = f"{doc['f']}:" + (
        ",".join(map(str, sorted(doc["in"]))) if "in" in doc else f"{doc['cut']:.10g}"
    )
    return f"({rule} {structure_signature(doc['l'])} {structure_signature(doc['r'])})"


def predict_doc(doc: dict, columns: list, rows=None, out=None) -> np.ndarray:
    """Reference predictor: recursive routing of row subsets, one tree doc."""
    n = len(columns[0])
    if rows is None:
        rows = np.arange(n)
    if out is None:
        out = np.zeros(n)
    if "v" in doc:
        out[rows] += doc["v"]
        return out
    vals = columns[doc["f"]][rows]
    left = np.isin(vals, doc["in"]) if "in" in doc else vals <= doc["cut"]
    predict_doc(doc["l"], columns, rows[left], out)
    predict_doc(doc["r"], columns, rows[~left], out)
    return out


def predict_oracle(ensembles: list, columns: list) -> np.ndarray:
    """Reference sum of f over the ensembles: every tree routed into one
    total, in order."""
    total = np.zeros(len(columns[0]))
    for trees in ensembles:
        for doc in trees:
            predict_doc(doc, columns, out=total)
    return total


# ------------------------------------------------------- exact enumeration


def _grid_cuts(column, vals):
    """The grid cuts that split these values of a numeric column: each
    value's first grid point at or above it, the top one excepted (it sends
    every value left)."""
    grid = np.linspace(column.min(), column.max(), bart.NUMCUT + 2)[1:-1]
    firsts = {float(grid[grid >= v].min()) if (grid >= v).any() else np.inf
              for v in vals}
    return sorted(firsts)[:-1]


def _rules(xmat, idx):
    """Every split rule available in a cell, with its draw probability."""
    choices = {}  # covariate -> its rules in this cell: cuts or level sets
    for j in range(xmat.q):
        vals = xmat.columns[j][idx]
        if xmat.is_cat[j]:
            uniq = np.unique(vals)
            rules = [np.asarray(levels) for r in range(1, uniq.size)
                     for levels in itertools.combinations(uniq, r)]
        else:
            rules = _grid_cuts(xmat.columns[j], vals)
        if rules:
            choices[j] = rules
    return [
        (j, None if xmat.is_cat[j] else rule, rule if xmat.is_cat[j] else None,
         1.0 / (len(choices) * len(rules)))
        for j, rules in choices.items() for rule in rules
    ]


def _enumerate(xmat, idx, depth, p_split):
    """All subtree structures rooted on this cell.

    Yields (signature, prior_weight, leaf_cells); the prior weight carries the
    depth penalties and the uniform rule probabilities the sampler's moves
    cancel against.
    """
    p = p_split(depth)
    results = [("L", 1.0 - p, [idx])]
    for j, cut, levels, q in _rules(xmat, idx):
        vals = xmat.columns[j][idx]
        mask = np.isin(vals, levels) if levels is not None else vals <= cut
        left, right = idx[mask], idx[~mask]
        rule = f"{j}:" + (
            ",".join(map(str, sorted(levels))) if levels is not None else f"{cut:.10g}"
        )
        for lsig, lw, lleaves in _enumerate(xmat, left, depth + 1, p_split):
            for rsig, rw, rleaves in _enumerate(xmat, right, depth + 1, p_split):
                results.append(
                    (f"({rule} {lsig} {rsig})", p * q * lw * rw, lleaves + rleaves)
                )
    return results


def _exact_posterior(xmat, y, sigma2, sigma_mu):
    """Normalized structure probabilities with MVN-density leaf likelihoods
    (one tree, residual variance fixed at sigma2)."""
    def p_split(d):
        return bart.A_SPLIT / (1.0 + d) ** bart.B_SPLIT

    idx = np.arange(xmat.n)
    sigs, logs = [], []
    for sig, w, leaves in _enumerate(xmat, idx, 0, p_split):
        ll = 0.0
        for cell in leaves:
            r = y[cell]
            cov = sigma2 * np.eye(r.size) + sigma_mu**2
            ll += stats.multivariate_normal.logpdf(r, mean=np.zeros(r.size), cov=cov)
        sigs.append(sig)
        logs.append(np.log(w) + ll)
    logs = np.asarray(logs)
    probs = np.exp(logs - logs.max())
    probs /= probs.sum()
    return dict(zip(sigs, probs))


def _chain_frequencies(xmat, y, sigma2, sweeps, burn, seed, batches=40):
    sampler = BartSampler(xmat, y, 1, np.random.default_rng(seed))
    seen = []
    for it in range(sweeps + burn):
        # the enumeration conditions on sigma^2: reset the sweep's own draw
        sampler.sigma2 = sigma2
        sampler.sweep()
        if it >= burn:
            seen.append(structure_signature(forest_docs(sampler.snapshot())[0]))
    freq = {}
    batch_hits = {}
    per_batch = len(seen) // batches
    for sig in set(seen):
        hits = np.asarray([s == sig for s in seen], dtype=float)
        freq[sig] = hits.mean()
        bm = hits[: per_batch * batches].reshape(batches, per_batch).mean(axis=1)
        batch_hits[sig] = bm.std(ddof=1) / np.sqrt(batches)
    return freq, batch_hits, sampler


def _numeric_case():
    x = np.repeat([0.0, 1.0, 2.0], 8)
    rng = np.random.default_rng(0)
    y = np.repeat([0.0, 0.45, 0.9], 8) + rng.normal(0, 0.05, x.size)
    y -= y.mean()
    xmat = CovariateMatrix([x], [False])
    return xmat, y, 0.25


def _categorical_case():
    x = np.repeat([0, 1, 2], 8)
    rng = np.random.default_rng(1)
    y = np.repeat([0.0, 0.5, 1.0], 8) + rng.normal(0, 0.05, x.size)
    y -= y.mean()
    xmat = CovariateMatrix([x], [True])
    return xmat, y, 0.3


def _two_covariate_case():
    """x splits every cell holding two of its values; g varies only where
    x = 2, so cells without x = 2 can split on x alone."""
    x = np.repeat([0.0, 1.0, 2.0, 2.0], 6)
    g = np.repeat([0, 0, 0, 1], 6)
    rng = np.random.default_rng(2)
    y = np.repeat([0.0, 0.45, 0.9, 0.3], 6) + rng.normal(0, 0.05, x.size)
    y -= y.mean()
    xmat = CovariateMatrix([x, g], [False, True])
    return xmat, y, 0.25


@pytest.mark.parametrize("case", [_numeric_case, _categorical_case, _two_covariate_case],
                         ids=["numeric-splits", "subset-splits", "two-covariates"])
def test_structure_chain_matches_enumerated_posterior(case):
    xmat, y, sigma2 = case()
    sigma_mu = BartSampler(xmat, y, 1, np.random.default_rng(0)).sigma_mu
    exact = _exact_posterior(xmat, y, sigma2, sigma_mu)
    assert abs(sum(exact.values()) - 1.0) < 1e-12

    freq, ses, _ = _chain_frequencies(xmat, y, sigma2, sweeps=40000, burn=2000, seed=3)
    # the chain must never leave the enumerated support
    assert set(freq) <= set(exact)
    for sig, p in exact.items():
        f = freq.get(sig, 0.0)
        se = ses.get(sig, 0.0)
        assert abs(f - p) < 3 * se + 0.01, f"{sig}: exact {p:.4f} vs chain {f:.4f}"


def test_mirror_structures_equally_likely():
    """Splitting {0}|{1,2} then {1}|{2} and splitting {0,1}|{2} then {0}|{1}
    carve identical partitions; their enumerated masses must coincide."""
    xmat, y, sigma2 = _numeric_case()
    sigma_mu = BartSampler(xmat, y, 1, np.random.default_rng(0)).sigma_mu
    exact = _exact_posterior(xmat, y, sigma2, sigma_mu)
    # the grid cuts above 0 and above 1
    low, high = (f"0:{c:.10g}" for c in _grid_cuts(xmat.columns[0], [0.0, 1.0, 2.0]))
    a = exact[f"({low} L ({high} L L))"]
    b = exact[f"({high} ({low} L L) L)"]
    assert a == pytest.approx(b, rel=1e-9)


# ------------------------------------------------------- backfitting state


def _random_training(n=150, seed=4):
    rng = np.random.default_rng(seed)
    x1 = rng.normal(0, 1, n)
    x2 = rng.integers(0, 4, n)
    y = np.sin(x1) + 0.5 * (x2 == 2) + rng.normal(0, 0.3, n)
    return CovariateMatrix([x1, x2], [False, True]), y


def _recompute_fit(sampler) -> np.ndarray:
    """Fitted values recomputed from scratch, leaf by leaf."""
    out = np.zeros(sampler.x.n)
    for tree in sampler.trees:
        for i in tree.leaves:
            out[tree.rows(i)] += tree.value[i]
    return out


def _row_order(tree) -> np.ndarray:
    """A tree's fitted values (kept in its row permutation) in row order."""
    out = np.empty(tree.perm.size)
    out[tree.perm] = tree.pred
    return out


def test_fit_total_matches_recompute_after_sweeps():
    xmat, y = _random_training()
    sampler = BartSampler(xmat, y, 12, np.random.default_rng(5))
    for _ in range(60):
        sampler.sweep()
    assert np.allclose(sampler.fit_total, _recompute_fit(sampler), atol=1e-9)
    # per-tree cached predictions agree with walking the stored trees
    docs = forest_docs(sampler.snapshot())
    for tree, doc in zip(sampler.trees, docs):
        assert np.allclose(predict_doc(doc, xmat.columns), _row_order(tree), atol=1e-12)


def test_leaf_ranges_tile_the_row_permutation():
    """Leaves own adjacent, nonempty ranges of one row permutation, in
    pre-order (which rows they hold is checked by the per-tree fit above)."""
    xmat, y = _random_training()
    sampler = BartSampler(xmat, y, 12, np.random.default_rng(8))
    for _ in range(60):
        sampler.sweep()
    grown = 0
    for tree in sampler.trees:
        assert np.array_equal(np.sort(tree.perm), np.arange(xmat.n))
        ranges = [(tree.lo[i], tree.hi[i]) for i in tree.leaves]
        assert ranges[0][0] == 0 and ranges[-1][1] == xmat.n
        assert all(a[1] == b[0] for a, b in zip(ranges, ranges[1:]))
        assert all(lo < hi for lo, hi in ranges)
        grown += len(ranges) > 1
    assert grown >= 6


def test_zero_trees_is_the_null_model():
    xmat, y = _random_training(n=60)
    sampler = BartSampler(xmat, y, 0, np.random.default_rng(0))
    for _ in range(10):
        sampler.sweep()
    assert np.all(sampler.fit_total == 0.0)
    assert sampler.sigma2 > 0


def test_sampler_reproducible():
    xmat, y = _random_training(n=90)
    runs = []
    for _ in range(2):
        s = BartSampler(xmat, y, 6, np.random.default_rng(7))
        for _ in range(30):
            s.sweep()
        runs.append((forest_docs(s.snapshot()), s.sigma2, s.fit_total.copy()))
    assert runs[0][0] == runs[1][0]
    assert runs[0][1] == runs[1][1]
    assert np.array_equal(runs[0][2], runs[1][2])


def test_sampler_trajectory_pinned():
    """The draws of a fixed-seed chain, pinned by digest: any change to the
    random stream, the move order or the leaf-sum arithmetic shows here."""
    rng = np.random.default_rng(3)
    n = 200
    x1 = np.round(rng.normal(0, 1, n), 1)  # ties
    x2 = rng.integers(0, 4, n)
    y = np.sin(2 * x1) + 0.7 * (x2 == 1) + rng.normal(0, 0.3, n)
    sampler = BartSampler(CovariateMatrix([x1, x2], [False, True]), y,
                          20, np.random.default_rng(3))
    for _ in range(40):
        sampler.sweep()
    docs = forest_docs(sampler.snapshot())
    digest = hashlib.sha256(json.dumps(docs).encode()).hexdigest()
    assert digest == "88bca61039692ebc3058593e16e6b4df7dfd2cf4fd6b2966aad7d31d1edb4482"
    assert repr(float(sampler.sigma2)) == "0.09285535757219351"


def test_move_counts():
    xmat, y = _random_training(n=90)
    sampler = BartSampler(xmat, y, 6, np.random.default_rng(1))
    for _ in range(30):
        sampler.sweep()
    assert len(MOVES) == len(sampler.proposed) == 3
    assert sum(sampler.proposed) == 30 * 6
    assert all(0 <= a <= p for a, p in zip(sampler.accepted, sampler.proposed))
    assert sampler.accepted[0] > 0  # trees start as stumps, so some grow


# ------------------------------------------------------------ serialization


def test_docs_are_json_safe_and_signature_ignores_values():
    doc_a = {"f": 0, "cut": 1.5, "l": {"v": 0.2}, "r": {"v": -0.1}}
    doc_b = {"f": 0, "cut": 1.5, "l": {"v": 9.9}, "r": {"v": 3.3}}
    assert structure_signature(doc_a) == structure_signature(doc_b)
    assert json.loads(json.dumps(doc_a)) == doc_a


def test_tree_shape():
    doc = {"f": 0, "cut": 1.0, "l": {"v": 0.0},
           "r": {"f": 1, "in": [2], "l": {"v": 1.0}, "r": {"v": 2.0}}}
    assert doc_shape(doc) == (2, 3)
    assert doc_shape({"v": 0.5}) == (0, 1)
    assert forest_shapes(docs_forest([doc, {"v": 0.5}])) == [(2, 3), (0, 1)]
    # and on a real chain's trees
    xmat, y = _random_training()
    sampler = BartSampler(xmat, y, 12, np.random.default_rng(8))
    for _ in range(60):
        sampler.sweep()
    forest = sampler.snapshot()
    assert forest_shapes(forest) == [doc_shape(d) for d in forest_docs(forest)]


def test_snapshot_is_the_pre_order_of_each_tree():
    """The flat forest is exactly the pre-order of the nested trees: both
    converters invert each other on a real chain's snapshot."""
    xmat, y = _random_training()
    sampler = BartSampler(xmat, y, 12, np.random.default_rng(8))
    for _ in range(60):
        sampler.sweep()
    forest = sampler.snapshot()
    back = docs_forest(forest_docs(forest))
    for f in fields(Forest):
        a, b = getattr(forest, f.name), getattr(back, f.name)
        assert a.dtype == b.dtype and np.array_equal(a, b), f.name
    assert forest.n_levels.any() and (forest.feature >= 0).any()
    assert forest.size.size == 12 and forest.size.sum() == forest.feature.size


def test_predict_doc_routes_subset_and_threshold():
    cols = [np.array([0.5, 1.5, 2.0, 2.5, 2.5]), np.array([0, 1, 1, 1, 2])]
    doc = {
        "f": 1,
        "in": [0, 2],
        "l": {"v": 10.0},
        "r": {"f": 0, "cut": 2.0, "l": {"v": 1.0}, "r": {"v": 2.0}},
    }
    forest = docs_forest([doc])
    # a value equal to the cut goes left
    got = ensemble_predict(forest, cols)
    assert np.array_equal(got, [10.0, 1.0, 1.0, 2.0, 10.0])
    # unseen categorical levels fall to the right branch
    got = ensemble_predict(forest, [np.array([3.0, 1.0]), np.array([7, -1])])
    assert np.array_equal(got, [2.0, 1.0])


def test_ensemble_predict_matches_recursive_oracle():
    """Bitwise equal to routing row subsets tree by tree, on snapshots of a
    real chain; the rows include every training value (so every cut) and
    categorical levels no tree has seen."""
    xmat, y = _random_training(n=150)
    x1 = np.round(xmat.columns[0], 1)  # ties, so cuts repeat across rows
    xmat = CovariateMatrix([x1, xmat.columns[1]], [False, True])
    sampler = BartSampler(xmat, y, 15, np.random.default_rng(6))
    ensembles = []
    for it in range(80):
        sampler.sweep()
        if it >= 20 and it % 5 == 0:
            ensembles.append(sampler.snapshot())
    rng = np.random.default_rng(0)
    cols = [
        np.concatenate([x1, rng.normal(0, 1.5, 100)]),
        np.concatenate([xmat.columns[1], rng.integers(-1, 7, 100)]),
    ]
    forest = Forest.join(ensembles)
    docs = [forest_docs(e) for e in ensembles]
    assert np.array_equal(ensemble_predict(forest, cols), predict_oracle(docs, cols))
    for k in (0, 3, len(docs) - 1):  # one kept ensemble's 15 trees
        got = ensemble_predict(forest, cols, slice(15 * k, 15 * (k + 1)))
        assert np.array_equal(got, predict_oracle([docs[k]], cols))
    assert any("in" in json.dumps(d) for d in docs)
    # the training rows reproduce the chain's own per-tree fit
    last = ensemble_predict(sampler.snapshot(), xmat.columns)
    assert np.array_equal(
        last, predict_oracle([forest_docs(sampler.snapshot())], xmat.columns))
    assert np.allclose(last, sampler.fit_total, atol=1e-9)


def test_ensemble_predict_sums_the_chosen_trees():
    e1 = docs_forest([{"v": 1.0}, {"v": 2.0}])  # two stump trees sum to 3
    e2 = docs_forest([{"v": 5.0}, {"v": 1.0}])  # sum 6
    forest, cols = Forest.join([e1, e2]), [np.zeros(4)]
    assert np.array_equal(ensemble_predict(forest, cols), np.full(4, 9.0))
    assert np.array_equal(ensemble_predict(forest, cols, slice(0, 2)), np.full(4, 3.0))
    assert np.array_equal(ensemble_predict(forest, cols, slice(2, 4)), np.full(4, 6.0))


def test_grid_codes_at_the_edges():
    """A numeric column's codes count the grid points below each value, so
    ``code <= k`` and ``x <= cut k`` agree on ties, on values exactly at grid
    points and at the extremes; prediction sends a value equal to a cut
    left, and values beyond the training range to the outermost leaves."""
    grid = np.linspace(-1.0, 3.0, bart.NUMCUT + 2)  # minimum, the cuts, maximum
    rng = np.random.default_rng(9)
    x = np.concatenate([grid, grid[5:9], np.round(rng.uniform(-1, 3, 60), 1)])
    y = np.sin(2 * x) + rng.normal(0, 0.1, x.size)
    xmat = CovariateMatrix([x], [False])
    assert np.array_equal(xmat.values[0], grid[1:-1])
    for k in range(bart.NUMCUT):
        assert np.array_equal(xmat.codes[:, 0] <= k, x <= xmat.values[0][k]), k

    cut = xmat.values[0][7]
    doc = {"f": 0, "cut": cut, "l": {"v": 1.0}, "r": {"v": 2.0}}
    got = ensemble_predict(docs_forest([doc]), [np.array([cut, np.nextafter(cut, 9.0)])])
    assert got.tolist() == [1.0, 2.0]

    sampler = BartSampler(xmat, y, 10, np.random.default_rng(4))
    for _ in range(30):
        sampler.sweep()
    docs = forest_docs(sampler.snapshot())
    assert any("cut" in d for d in docs)

    def outermost(d, side):
        while "v" not in d:
            d = d[side]
        return d["v"]

    got = ensemble_predict(sampler.snapshot(), [np.array([-1.5, 3.5])])
    assert got.tolist() == [sum(outermost(d, side) for d in docs) for side in "lr"]


def test_covariate_matrix_validation():
    with pytest.raises(ValueError):
        CovariateMatrix([np.zeros(3)], [False, True])
    with pytest.raises(ValueError):
        CovariateMatrix([np.zeros(3), np.zeros(4)], [False, True])
