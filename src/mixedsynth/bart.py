"""Bayesian sum-of-trees regression via backfitting MCMC.

Each sweep cycles the trees: one Metropolis-Hastings structure move
(grow / prune / change, proposed 0.4/0.4/0.2) scored with leaf means
integrated out, then conjugate Gaussian redraws of that tree's leaf values,
and finally a conjugate inverse-gamma residual-variance draw.  Split rules
are drawn uniformly over the splits available at a node (threshold splits
for numeric covariates, level-subset splits for categorical ones), which is
also the tree prior's rule distribution, so rule probabilities cancel in
the acceptance ratios.

Layout.  A tree is a set of flat per-node lists (feature, cut or level set,
children, leaf value, depth, parent) plus one row permutation in which every
node owns the contiguous range ``perm[lo:hi]`` and its children own the two
halves of it, left first (He, Yalov & Hahn 2019).  A grow or change stably
partitions the node's range, so each side keeps the order it had; a prune
merges the two adjacent child ranges back into the parent's.  A leaf's rows
therefore appear in exactly the order a tree of per-node index arrays would
hold them (``idx[mask]`` on a split, ``concatenate([left, right])`` on a
prune), and every ``partial[rows].sum()`` adds the same numbers in the same
order.  A node's row set never changes while the node exists, so the
covariates that can still split it are computed once, when it is created.
The leaf, growable-leaf and prunable-node lists are kept in pre-order and
re-derived only after an accepted move.

A `Forest` is the one stored form of trees: `BartSampler.snapshot` copies
every tree's nodes, in pre-order, into flat arrays (split covariate, cut,
children, leaf value, and categorical level sets as per-node sizes plus
the sets end to end), and kept snapshots are joined into one forest in
kept order.  Prediction evaluates
each internal node's rule on every row of a block and selects the
children's values with ``np.where``, bottom-up; each tree's values are added
into one vector in tree order, so every row's sum runs in the order of
routing rows tree by tree.  The cost is a few array operations per node, so
callers predict many rows in one call.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np
from scipy.special import gammaincinv

__all__ = [
    "CovariateMatrix",
    "BartSampler",
    "Forest",
    "MOVES",
    "forest_shapes",
    "ensemble_predict",
]

_GROW, _PRUNE, _CHANGE = 0, 1, 2
MOVES = ("grow", "prune", "change")
_MOVE_P = np.array([0.4, 0.4, 0.2])
# inverse-CDF draw of the move type: the same stream as rng.choice(3, p=_MOVE_P)
_MOVE_CDF = _MOVE_P.cumsum() / _MOVE_P.cumsum()[-1]
_LOG_P_GROW = np.log(_MOVE_P[_GROW])
_LOG_P_PRUNE = np.log(_MOVE_P[_PRUNE])
# rows per prediction pass: enough to amortize per-call overhead over many
# rows, few enough to keep each temporary near half a megabyte
_PREDICT_BLOCK = 1 << 16

# The standard BART priors: a node at depth d splits with probability
# A_SPLIT / (1 + d) ** B_SPLIT, and sigma^2 is scaled inverse chi-square with
# NU degrees of freedom (its scale is set in BartSampler from SIGMA_QUANTILE).
A_SPLIT = 0.95
B_SPLIT = 2.0
NU = 3.0
SIGMA_QUANTILE = 0.90


class CovariateMatrix:
    """Training covariates: numeric columns split on thresholds, categorical
    columns on level subsets.

    ``values[j]`` holds column j's sorted distinct values and ``codes[:, j]``
    each row's index into them.  The coding preserves order and ties, so
    thresholds and level sets act on codes exactly as on values.
    """

    def __init__(self, columns: list, is_cat: list):
        self.columns = [np.asarray(c) for c in columns]
        self.is_cat = list(is_cat)
        if len(self.columns) != len(self.is_cat):
            raise ValueError("columns and is_cat must align")
        self.n = len(self.columns[0]) if self.columns else 0
        for c in self.columns:
            if len(c) != self.n:
                raise ValueError("covariate columns must share a length")
        self.values = []
        self.codes = np.empty((self.n, self.q), dtype=np.intp)
        for j, c in enumerate(self.columns):
            uniq, self.codes[:, j] = np.unique(c, return_inverse=True)
            self.values.append(uniq)

    @property
    def q(self):
        return len(self.columns)

    def splittable(self, rows: np.ndarray) -> list:
        """Covariates with at least two distinct values on these rows."""
        c = self.codes[rows]
        return (c.min(axis=0) != c.max(axis=0)).nonzero()[0].tolist()


class _Tree:
    """One tree: flat per-node lists and a row permutation (module docstring).

    Node 0 is the root; a leaf has ``feature == -1``.  ``rule`` holds a
    numeric split's cut or a categorical split's level array.
    """

    def __init__(self, n: int, root_feats: list):
        self.perm = np.arange(n)
        self.feature, self.rule, self.left, self.right = [-1], [None], [-1], [-1]
        self.value, self.lo, self.hi = [0.0], [0], [n]
        self.depth, self.parent, self.feats = [0], [-1], [root_feats]
        self.order = [0]  # every node, pre-order
        self.free = []  # ids of pruned nodes, reused by later grows
        self._relist()

    def rows(self, i: int) -> np.ndarray:
        return self.perm[self.lo[i]:self.hi[i]]

    def _relist(self):
        f, left, right = self.feature, self.left, self.right
        self.leaves = [i for i in self.order if f[i] < 0]
        self.growable = [i for i in self.leaves if self.feats[i]]
        self.prunable = [
            i for i in self.order if f[i] >= 0 and f[left[i]] < 0 and f[right[i]] < 0
        ]

    def _new_leaf(self, parent: int) -> int:
        fields = (self.feature, self.rule, self.left, self.right, self.value,
                  self.lo, self.hi, self.depth, self.parent, self.feats)
        init = (-1, None, -1, -1, 0.0, 0, 0, self.depth[parent] + 1, parent, None)
        if self.free:
            i = self.free.pop()
            for lst, v in zip(fields, init):
                lst[i] = v
        else:
            i = len(self.feature)
            for lst, v in zip(fields, init):
                lst.append(v)
        return i

    def _split(self, i, feature, rule, li, ri, feats_l, feats_r):
        """Stable partition of node i's range: li then ri."""
        lo, hi = self.lo[i], self.hi[i]
        mid = lo + li.size
        self.perm[lo:mid], self.perm[mid:hi] = li, ri
        self.feature[i], self.rule[i] = feature, rule
        left, right = self.left[i], self.right[i]
        self.lo[left], self.hi[left], self.feats[left] = lo, mid, feats_l
        self.lo[right], self.hi[right], self.feats[right] = mid, hi, feats_r

    def grow(self, i, feature, rule, li, ri, feats_l, feats_r):
        self.left[i], self.right[i] = self._new_leaf(i), self._new_leaf(i)
        self._split(i, feature, rule, li, ri, feats_l, feats_r)
        k = self.order.index(i)
        self.order[k + 1:k + 1] = [self.left[i], self.right[i]]
        self._relist()

    def change(self, i, feature, rule, li, ri, feats_l, feats_r):
        self._split(i, feature, rule, li, ri, feats_l, feats_r)
        self._relist()

    def prune(self, i):
        """Node i's leaf children go; their adjacent ranges are already i's."""
        self.free += [self.left[i], self.right[i]]
        self.feature[i], self.rule[i] = -1, None
        self.left[i] = self.right[i] = -1
        k = self.order.index(i)
        del self.order[k + 1:k + 3]
        self._relist()


class BartSampler:
    """Stateful backfitting sampler; `sweep()` advances one full iteration.

    ``proposed`` and ``accepted`` count structure moves by type, in
    ``MOVES`` order.  ``fix_sigma2`` pins the residual variance instead of
    drawing it.
    """

    def __init__(self, xmat: CovariateMatrix, y: np.ndarray, trees: int,
                 rng: np.random.Generator, fix_sigma2: float | None = None):
        self.x = xmat
        self.y = np.asarray(y, dtype=np.float64)
        self.n_trees = trees
        self.fix_sigma2 = fix_sigma2
        self.rng = rng
        n = xmat.n
        if len(self.y) != n:
            raise ValueError("response length must match covariates")

        spread = np.percentile(self.y, 97.5) - np.percentile(self.y, 2.5)
        t_eff = max(trees, 1)
        self.sigma_mu = float(max(spread, 1e-6) / (6.0 * np.sqrt(t_eff)))
        var0 = max(float(self.y.var()), 1e-12)
        # inverse-gamma rate matched so P(sigma^2 < var(y)) = SIGMA_QUANTILE;
        # 2 * gammaincinv(nu / 2, p) is the chi-square(nu) quantile exactly as
        # scipy.stats computes it, without the cost of importing scipy.stats
        chi2_q = 2 * gammaincinv(NU / 2, 1 - SIGMA_QUANTILE)
        self.lam = var0 * chi2_q / NU
        self.sigma2 = fix_sigma2 if fix_sigma2 is not None else var0

        root_feats = xmat.splittable(np.arange(n))
        self.trees = [_Tree(n, list(root_feats)) for _ in range(trees)]
        self.tree_pred = np.zeros((trees, n))
        self.fit_total = np.zeros(n)
        self.proposed = [0, 0, 0]
        self.accepted = [0, 0, 0]
        self._split_prior = []

    # -- priors and marginal likelihood -------------------------------------

    def _p_split(self, depth):
        return A_SPLIT / (1.0 + depth) ** B_SPLIT

    def _log_split_prior(self, depth):
        """Log prior ratio of splitting a leaf at this depth (memoized)."""
        while len(self._split_prior) <= depth:
            d = len(self._split_prior)
            p_d, p_c = self._p_split(d), self._p_split(d + 1)
            self._split_prior.append(np.log(p_d) + 2 * np.log1p(-p_c) - np.log1p(-p_d))
        return self._split_prior[depth]

    def _log_ml(self, resid_sum, count):
        v = self.sigma2 + count * self.sigma_mu**2
        return 0.5 * np.log(self.sigma2 / v) + (
            self.sigma_mu**2 * resid_sum**2 / (2.0 * self.sigma2 * v)
        )

    # -- split-rule proposal (also the prior's rule distribution) ------------

    def _draw_rule(self, feats, rows):
        """Uniform rule over the splits of these rows; returns (feature, cut
        or level array, left mask)."""
        j = feats[self.rng.integers(len(feats))]
        codes = self.x.codes[rows, j]
        present = np.bincount(codes).nonzero()[0]  # codes of the distinct values
        uniq = self.x.values[j]
        if self.x.is_cat[j]:
            # uniform nonempty proper subset of the levels present here
            while True:
                bits = self.rng.integers(0, 2, present.size).astype(bool)
                if bits.any() and not bits.all():
                    break
            keep = np.zeros(uniq.size, dtype=bool)
            keep[present[bits]] = True
            return j, uniq[present[bits]], keep[codes]
        k = present[self.rng.integers(present.size - 1)]
        return j, float(uniq[k]), codes <= k

    # -- MH structure moves ---------------------------------------------------

    def _move_grow(self, tree, partial):
        cand = tree.growable
        if not cand:
            return False
        nd = cand[self.rng.integers(len(cand))]
        rows = tree.rows(nd)
        j, rule, mask = self._draw_rule(tree.feats[nd], rows)
        li, ri = rows[mask], rows[~mask]

        log_prior = self._log_split_prior(tree.depth[nd])
        sl, sr = float(partial[li].sum()), float(partial[ri].sum())
        log_lik = (
            self._log_ml(sl, li.size)
            + self._log_ml(sr, ri.size)
            - self._log_ml(sl + sr, rows.size)
        )
        n_grow = len(cand)
        # prunable nodes of the would-be tree: nd joins them, and its parent
        # leaves them if it was one
        n_prune_new = len(tree.prunable) + 1 - (tree.parent[nd] in tree.prunable)
        log_prop = (
            _LOG_P_PRUNE - np.log(n_prune_new)
            - _LOG_P_GROW + np.log(n_grow)
        )
        if np.log(self.rng.uniform()) < log_prior + log_lik + log_prop:
            tree.grow(nd, j, rule, li, ri, self.x.splittable(li), self.x.splittable(ri))
            return True
        return False

    def _move_prune(self, tree, partial):
        cand = tree.prunable
        if not cand:
            return False
        nd = cand[self.rng.integers(len(cand))]
        left, right = tree.left[nd], tree.right[nd]
        li, ri = tree.rows(left), tree.rows(right)

        log_prior = -self._log_split_prior(tree.depth[nd])
        sl, sr = float(partial[li].sum()), float(partial[ri].sum())
        log_lik = (
            self._log_ml(sl + sr, li.size + ri.size)
            - self._log_ml(sl, li.size)
            - self._log_ml(sr, ri.size)
        )
        # growable leaves after the prune: survivors plus the merged leaf
        n_grow_new = (
            len(tree.growable) - bool(tree.feats[left]) - bool(tree.feats[right]) + 1
        )
        log_prop = (
            _LOG_P_GROW - np.log(n_grow_new)
            - _LOG_P_PRUNE + np.log(len(cand))
        )
        if np.log(self.rng.uniform()) < log_prior + log_lik + log_prop:
            tree.prune(nd)
            return True
        return False

    def _move_change(self, tree, partial):
        cand = tree.prunable  # internal nodes with two leaf children
        if not cand:
            return False
        nd = cand[self.rng.integers(len(cand))]
        li, ri = tree.rows(tree.left[nd]), tree.rows(tree.right[nd])
        rows = tree.rows(nd)
        # nd was grown, so its splittable covariates are never empty
        j, rule, mask = self._draw_rule(tree.feats[nd], rows)
        nli, nri = rows[mask], rows[~mask]

        sl_old, sr_old = float(partial[li].sum()), float(partial[ri].sum())
        sl_new, sr_new = float(partial[nli].sum()), float(partial[nri].sum())
        log_lik = (
            self._log_ml(sl_new, nli.size)
            + self._log_ml(sr_new, nri.size)
            - self._log_ml(sl_old, li.size)
            - self._log_ml(sr_old, ri.size)
        )
        if np.log(self.rng.uniform()) < log_lik:
            tree.change(nd, j, rule, nli, nri,
                        self.x.splittable(nli), self.x.splittable(nri))
            return True
        return False

    def structure_step(self, t: int, partial: np.ndarray) -> bool:
        """One MH move on tree t against the given partial residuals."""
        move = int(_MOVE_CDF.searchsorted(self.rng.random(), side="right"))
        tree = self.trees[t]
        if move == _GROW:
            accepted = self._move_grow(tree, partial)
        elif move == _PRUNE:
            accepted = self._move_prune(tree, partial)
        else:
            accepted = self._move_change(tree, partial)
        self.proposed[move] += 1
        self.accepted[move] += bool(accepted)
        return accepted

    def _redraw_leaves(self, t: int, partial: np.ndarray):
        tree = self.trees[t]
        pred = self.tree_pred[t]
        for i in tree.leaves:
            rows = tree.rows(i)
            prec = 1.0 / self.sigma_mu**2 + rows.size / self.sigma2
            mean = float(partial[rows].sum()) / self.sigma2 / prec
            tree.value[i] = mean + self.rng.standard_normal() / math.sqrt(prec)
            pred[rows] = tree.value[i]

    def sweep(self):
        for t in range(self.n_trees):
            partial = self.y - self.fit_total + self.tree_pred[t]
            self.structure_step(t, partial)
            old = self.tree_pred[t].copy()
            self._redraw_leaves(t, partial)
            self.fit_total += self.tree_pred[t] - old
        if self.fix_sigma2 is None:
            resid = self.y - self.fit_total
            shape = 0.5 * (NU + self.x.n)
            rate = 0.5 * (NU * self.lam + resid @ resid)
            self.sigma2 = float(rate / self.rng.gamma(shape))

    def snapshot(self) -> "Forest":
        """The current trees, nodes in pre-order, as one `Forest`."""
        a = {f.name: [] for f in fields(Forest)}
        for tree in self.trees:
            pos = {i: k for k, i in enumerate(tree.order)}
            a["size"].append(len(pos))
            for i in tree.order:
                f, rule = tree.feature[i], tree.rule[i]
                is_set = isinstance(rule, np.ndarray)
                a["feature"].append(f)
                a["left"].append(pos[tree.left[i]] if f >= 0 else -1)
                a["right"].append(pos[tree.right[i]] if f >= 0 else -1)
                a["cut"].append(rule if f >= 0 and not is_set else 0.0)
                a["value"].append(tree.value[i] if f < 0 else 0.0)
                a["n_levels"].append(rule.size if is_set else 0)
                a["levels"].extend(rule.tolist() if is_set else [])
        return Forest(**{
            k: np.asarray(v, dtype=np.float64 if k in ("cut", "value") else np.int64)
            for k, v in a.items()
        })


# -- the stored form of trees, and prediction on new covariates ---------------


@dataclass
class Forest:
    """Trees as flat per-node arrays, each tree's nodes in pre-order.

    ``size`` holds each tree's node count, in tree order.  Per node:
    ``feature`` is the split covariate (-1 at a leaf), ``left``/``right`` the
    children's positions within the tree, ``cut`` a numeric split's
    threshold (rows with values <= cut go left), ``value`` a leaf's value,
    and ``n_levels`` the size of a categorical split's level set; the sets
    themselves lie end to end in ``levels`` (rows with one of these levels go
    left, so levels a tree never saw go right).  Unused slots hold 0.
    """

    size: np.ndarray
    feature: np.ndarray
    left: np.ndarray
    right: np.ndarray
    cut: np.ndarray
    value: np.ndarray
    n_levels: np.ndarray
    levels: np.ndarray

    @classmethod
    def join(cls, forests: list) -> "Forest":
        """All trees of the given forests, in order."""
        return cls(*(np.concatenate([getattr(f, a.name) for f in forests])
                     for a in fields(cls)))


def forest_shapes(forest: Forest) -> list:
    """(depth, leaf count) of each tree, in tree order."""
    feature, left, right = (a.tolist() for a in (forest.feature, forest.left, forest.right))
    depth = [0] * len(feature)
    shapes, start = [], 0
    for size in forest.size.tolist():
        for i in range(start, start + size):  # parents come before children
            if feature[i] >= 0:
                depth[start + left[i]] = depth[start + right[i]] = depth[i] + 1
        leaves = [depth[i] for i in range(start, start + size) if feature[i] < 0]
        shapes.append((max(leaves), len(leaves)))
        start += size
    return shapes


def ensemble_predict(forest: Forest, kept: int, columns: list) -> np.ndarray:
    """Average prediction over ``kept`` ensembles joined in one forest (the
    posterior-mean f).

    Rows go through in blocks of ``_PREDICT_BLOCK``, so temporaries stay
    bounded however many rows are predicted at once.
    """
    columns = [np.asarray(c) for c in columns]
    feature, left, right, cut, value = (
        a.tolist() for a in (forest.feature, forest.left, forest.right, forest.cut,
                             forest.value)
    )
    ptr = np.concatenate(([0], np.cumsum(forest.n_levels))).tolist()
    levels = forest.levels.tolist()
    starts = np.concatenate(([0], np.cumsum(forest.size)[:-1])).tolist()
    total = np.zeros(len(columns[0]))
    for lo in range(0, total.size, _PREDICT_BLOCK):
        block = [c[lo:lo + _PREDICT_BLOCK] for c in columns]
        part = total[lo:lo + _PREDICT_BLOCK]
        for start, size in zip(starts, forest.size.tolist()):
            vals = {}
            # each row's leaf value, bottom-up: children follow their parent
            for i in range(start + size - 1, start - 1, -1):
                f = feature[i]
                if f < 0:
                    vals[i] = value[i]
                    continue
                x = block[f]
                if ptr[i + 1] > ptr[i]:  # a level set
                    first, *rest = levels[ptr[i]:ptr[i + 1]]
                    go_left = x == first
                    for level in rest:
                        go_left |= x == level
                else:
                    go_left = x <= cut[i]
                vals[i] = np.where(go_left, vals.pop(start + left[i]),
                                   vals.pop(start + right[i]))
            part += vals[start]
    return total / kept
