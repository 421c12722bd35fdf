"""Bayesian sum-of-trees regression via backfitting MCMC.

Each sweep cycles the trees: one Metropolis-Hastings structure move
(grow / prune / change, proposed 0.4/0.4/0.2) scored with leaf means
integrated out, then conjugate Gaussian redraws of that tree's leaf values,
and finally a conjugate inverse-gamma residual-variance draw.  Split rules
are drawn uniformly over the splits available at a node (threshold splits
for numeric covariates, level-subset splits for categorical ones), which is
also the tree prior's rule distribution, so rule probabilities cancel in
the acceptance ratios.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import stats

__all__ = [
    "BartConfig",
    "CovariateMatrix",
    "BartSampler",
    "tree_to_doc",
    "predict_doc",
    "ensemble_predict",
    "structure_signature",
]

_GROW, _PRUNE, _CHANGE = 0, 1, 2
_MOVE_P = np.array([0.4, 0.4, 0.2])


@dataclass(frozen=True)
class BartConfig:
    trees: int = 200
    nu: float = 3.0
    sigma_quantile: float = 0.90
    a_split: float = 0.95
    b_split: float = 2.0
    fix_sigma2: float | None = None

    def __post_init__(self):
        if self.trees < 0:
            raise ValueError("trees must be >= 0")


class CovariateMatrix:
    """Training covariates: numeric columns split on thresholds, categorical
    columns on level subsets."""

    def __init__(self, columns: list, is_cat: list):
        self.columns = [np.asarray(c) for c in columns]
        self.is_cat = list(is_cat)
        if len(self.columns) != len(self.is_cat):
            raise ValueError("columns and is_cat must align")
        self.n = len(self.columns[0]) if self.columns else 0
        for c in self.columns:
            if len(c) != self.n:
                raise ValueError("covariate columns must share a length")

    @property
    def q(self):
        return len(self.columns)


class _Node:
    __slots__ = ("feature", "cut", "levels", "left", "right", "value", "idx")

    def __init__(self, idx, value=0.0):
        self.feature = None
        self.cut = None
        self.levels = None
        self.left = None
        self.right = None
        self.value = value
        self.idx = idx

    def is_leaf(self):
        return self.feature is None


def _walk(node, depth=0):
    yield node, depth
    if not node.is_leaf():
        yield from _walk(node.left, depth + 1)
        yield from _walk(node.right, depth + 1)


def _leaves(root):
    return [(nd, d) for nd, d in _walk(root) if nd.is_leaf()]


def _prunable(root):
    return [
        (nd, d)
        for nd, d in _walk(root)
        if not nd.is_leaf() and nd.left.is_leaf() and nd.right.is_leaf()
    ]


def _available_features(xmat: CovariateMatrix, idx: np.ndarray):
    out = []
    for j in range(xmat.q):
        vals = xmat.columns[j][idx]
        if vals.size and vals.min() != vals.max():  # >= 2 distinct values
            out.append(j)
    return out


class BartSampler:
    """Stateful backfitting sampler; `sweep()` advances one full iteration."""

    def __init__(self, xmat: CovariateMatrix, y: np.ndarray, config: BartConfig,
                 rng: np.random.Generator):
        self.x = xmat
        self.y = np.asarray(y, dtype=np.float64)
        self.cfg = config
        self.rng = rng
        n = xmat.n
        if len(self.y) != n:
            raise ValueError("response length must match covariates")

        spread = np.percentile(self.y, 97.5) - np.percentile(self.y, 2.5)
        t_eff = max(config.trees, 1)
        self.sigma_mu = max(spread, 1e-6) / (6.0 * np.sqrt(t_eff))
        var0 = max(float(self.y.var()), 1e-12)
        # inverse-gamma rate matched so P(sigma^2 < var(y)) = sigma_quantile
        self.lam = var0 * stats.chi2.ppf(1 - config.sigma_quantile, config.nu) / config.nu
        self.sigma2 = config.fix_sigma2 if config.fix_sigma2 is not None else var0

        all_idx = np.arange(n)
        self.trees = [_Node(all_idx.copy()) for _ in range(config.trees)]
        self.tree_pred = np.zeros((config.trees, n))
        self.fit_total = np.zeros(n)

    # -- priors and marginal likelihood -------------------------------------

    def _p_split(self, depth):
        return self.cfg.a_split / (1.0 + depth) ** self.cfg.b_split

    def _log_ml(self, resid_sum, count):
        v = self.sigma2 + count * self.sigma_mu**2
        return 0.5 * np.log(self.sigma2 / v) + (
            self.sigma_mu**2 * resid_sum**2 / (2.0 * self.sigma2 * v)
        )

    # -- split-rule proposal (also the prior's rule distribution) ------------

    def _draw_rule(self, idx):
        feats = _available_features(self.x, idx)
        if not feats:
            return None
        j = feats[self.rng.integers(len(feats))]
        vals = self.x.columns[j][idx]
        uniq = np.unique(vals)
        if self.x.is_cat[j]:
            # uniform nonempty proper subset of the levels present here
            while True:
                bits = self.rng.integers(0, 2, uniq.size).astype(bool)
                if bits.any() and not bits.all():
                    break
            return j, None, uniq[bits]
        cut = uniq[self.rng.integers(uniq.size - 1)]
        return j, float(cut), None

    def _split_mask(self, idx, feature, cut, levels):
        vals = self.x.columns[feature][idx]
        return np.isin(vals, levels) if levels is not None else vals <= cut

    # -- MH structure moves ---------------------------------------------------

    def _n_growable(self, root):
        return sum(
            1 for nd, _ in _leaves(root) if _available_features(self.x, nd.idx)
        )

    def _move_grow(self, root, partial):
        cand = [
            (nd, d) for nd, d in _leaves(root) if _available_features(self.x, nd.idx)
        ]
        if not cand:
            return False
        nd, depth = cand[self.rng.integers(len(cand))]
        rule = self._draw_rule(nd.idx)
        j, cut, levels = rule
        mask = self._split_mask(nd.idx, j, cut, levels)
        li, ri = nd.idx[mask], nd.idx[~mask]

        p_d, p_c = self._p_split(depth), self._p_split(depth + 1)
        log_prior = np.log(p_d) + 2 * np.log1p(-p_c) - np.log1p(-p_d)
        sl, sr = partial[li].sum(), partial[ri].sum()
        log_lik = (
            self._log_ml(sl, li.size)
            + self._log_ml(sr, ri.size)
            - self._log_ml(sl + sr, nd.idx.size)
        )
        n_grow = len(cand)
        # count prunable nodes of the would-be tree: current ones whose
        # children do not include nd, plus the new split itself
        n_prune_new = len(_prunable(root)) + 1 - sum(
            1 for p, _ in _prunable(root) if nd in (p.left, p.right)
        )
        log_prop = (
            np.log(_MOVE_P[_PRUNE]) - np.log(n_prune_new)
            - np.log(_MOVE_P[_GROW]) + np.log(n_grow)
        )
        if np.log(self.rng.uniform()) < log_prior + log_lik + log_prop:
            nd.feature, nd.cut, nd.levels = j, cut, levels
            nd.left, nd.right = _Node(li), _Node(ri)
            nd.idx = None
            return True
        return False

    def _move_prune(self, root, partial):
        cand = _prunable(root)
        if not cand:
            return False
        nd, depth = cand[self.rng.integers(len(cand))]
        li, ri = nd.left.idx, nd.right.idx
        merged = np.concatenate([li, ri])

        p_d, p_c = self._p_split(depth), self._p_split(depth + 1)
        log_prior = -(np.log(p_d) + 2 * np.log1p(-p_c) - np.log1p(-p_d))
        sl, sr = partial[li].sum(), partial[ri].sum()
        log_lik = (
            self._log_ml(sl + sr, merged.size)
            - self._log_ml(sl, li.size)
            - self._log_ml(sr, ri.size)
        )
        # growable leaves after the prune: survivors plus the merged leaf
        n_grow_new = (
            self._n_growable(root)
            - sum(1 for c in (nd.left, nd.right) if _available_features(self.x, c.idx))
            + 1
        )
        log_prop = (
            np.log(_MOVE_P[_GROW]) - np.log(n_grow_new)
            - np.log(_MOVE_P[_PRUNE]) + np.log(len(cand))
        )
        if np.log(self.rng.uniform()) < log_prior + log_lik + log_prop:
            nd.feature = None
            nd.cut = None
            nd.levels = None
            nd.idx = merged
            nd.left = None
            nd.right = None
            return True
        return False

    def _move_change(self, root, partial):
        cand = _prunable(root)  # internal nodes with two leaf children
        if not cand:
            return False
        nd, _ = cand[self.rng.integers(len(cand))]
        li, ri = nd.left.idx, nd.right.idx
        merged = np.concatenate([li, ri])
        rule = self._draw_rule(merged)
        if rule is None:
            return False
        j, cut, levels = rule
        mask = self._split_mask(merged, j, cut, levels)
        nli, nri = merged[mask], merged[~mask]

        sl_old, sr_old = partial[li].sum(), partial[ri].sum()
        sl_new, sr_new = partial[nli].sum(), partial[nri].sum()
        log_lik = (
            self._log_ml(sl_new, nli.size)
            + self._log_ml(sr_new, nri.size)
            - self._log_ml(sl_old, li.size)
            - self._log_ml(sr_old, ri.size)
        )
        if np.log(self.rng.uniform()) < log_lik:
            nd.feature, nd.cut, nd.levels = j, cut, levels
            nd.left.idx, nd.right.idx = nli, nri
            return True
        return False

    def structure_step(self, t: int, partial: np.ndarray) -> bool:
        """One MH move on tree t against the given partial residuals."""
        move = self.rng.choice(3, p=_MOVE_P)
        root = self.trees[t]
        if move == _GROW:
            return self._move_grow(root, partial)
        if move == _PRUNE:
            return self._move_prune(root, partial)
        return self._move_change(root, partial)

    def _redraw_leaves(self, t: int, partial: np.ndarray):
        pred = self.tree_pred[t]
        for nd, _ in _leaves(self.trees[t]):
            n_l = nd.idx.size
            prec = 1.0 / self.sigma_mu**2 + n_l / self.sigma2
            mean = partial[nd.idx].sum() / self.sigma2 / prec
            nd.value = mean + self.rng.standard_normal() / np.sqrt(prec)
            pred[nd.idx] = nd.value

    def sweep(self):
        for t in range(self.cfg.trees):
            partial = self.y - self.fit_total + self.tree_pred[t]
            self.structure_step(t, partial)
            old = self.tree_pred[t].copy()
            self._redraw_leaves(t, partial)
            self.fit_total += self.tree_pred[t] - old
        if self.cfg.fix_sigma2 is None:
            resid = self.y - self.fit_total
            shape = 0.5 * (self.cfg.nu + self.x.n)
            rate = 0.5 * (self.cfg.nu * self.lam + resid @ resid)
            self.sigma2 = rate / self.rng.gamma(shape)

    def set_response(self, y: np.ndarray):
        """Swap the regression response (latent two-block schemes)."""
        self.y = np.asarray(y, dtype=np.float64)

    def recompute_fit(self) -> np.ndarray:
        """Fitted values recomputed from scratch (invariant checking)."""
        out = np.zeros(self.x.n)
        for root in self.trees:
            for nd, _ in _leaves(root):
                out[nd.idx] += nd.value
        return out

    def snapshot(self) -> list:
        return [tree_to_doc(root) for root in self.trees]


# -- serialization and prediction on new covariates ---------------------------


def tree_to_doc(node: _Node) -> dict:
    if node.is_leaf():
        return {"v": float(node.value)}
    doc = {"f": int(node.feature)}
    if node.levels is not None:
        doc["in"] = [int(v) for v in node.levels]
    else:
        doc["cut"] = float(node.cut)
    doc["l"] = tree_to_doc(node.left)
    doc["r"] = tree_to_doc(node.right)
    return doc


def predict_doc(doc: dict, columns: list, rows: np.ndarray | None = None,
                out: np.ndarray | None = None) -> np.ndarray:
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


def ensemble_predict(ensembles: list, columns: list) -> np.ndarray:
    """Average prediction over kept tree ensembles (the posterior-mean f)."""
    n = len(columns[0])
    total = np.zeros(n)
    for trees in ensembles:
        for doc in trees:
            predict_doc(doc, columns, out=total)
    return total / len(ensembles)


def structure_signature(doc: dict) -> str:
    """Canonical string for a tree's split structure, leaf values ignored."""
    if "v" in doc:
        return "L"
    rule = f"{doc['f']}:" + (
        ",".join(map(str, sorted(doc["in"]))) if "in" in doc else f"{doc['cut']:.10g}"
    )
    return f"({rule} {structure_signature(doc['l'])} {structure_signature(doc['r'])})"
