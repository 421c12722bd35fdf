"""Bayesian sum-of-trees regression via backfitting MCMC.

Each sweep cycles the trees: one Metropolis-Hastings structure move
(grow / prune / change, proposed 0.4/0.4/0.2) scored with leaf means
integrated out, then conjugate Gaussian redraws of that tree's leaf values,
and finally a conjugate inverse-gamma residual-variance draw.  A split rule
is drawn uniformly over the splits available at a node, which is also the
tree prior's rule distribution, so rule probabilities cancel in the
acceptance ratios: a covariate uniformly among those not constant on the
node (drawn again while constant), then a cut uniformly among the node's
present codes but the largest, or a uniform nonempty proper subset of its
present levels.  Numeric covariates are cut on a fixed grid of NUMCUT points
between their training extremes (the ``numcut`` of Chipman, George &
McCulloch 2010), so a stored cut is a grid point, not an observed value.

Layout.  A tree is a set of flat per-node lists (feature, cut or level set,
children, leaf value, depth, parent) plus one row permutation in which every
node owns the contiguous range ``perm[lo:hi]`` and its children own the two
halves of it, left first (He, Yalov & Hahn 2019).  A grow or change stably
partitions the node's range; a prune merges the two child ranges back.  A
tree step gathers the residuals into the tree's row order once, with the
tree's own fitted values (kept in that order) added, so every leaf and node
sum is a sum over a slice; an accepted split reorders the slice with the
rows, and one scatter returns the residuals.  Whether a node can split (its
rows hold two distinct rows of codes) is decided when it is created; the
leaf, growable-leaf and prunable-node lists are re-derived, in pre-order,
only after an accepted move.

A `Forest` is the one stored form of trees: `BartSampler.snapshot` copies
every tree's nodes, in pre-order, into flat arrays (split covariate, cut,
children, leaf value, and categorical level sets as per-node sizes plus the
sets end to end), and kept snapshots are joined into one forest in kept
order.  Prediction evaluates each internal node's rule on every row of a
block and selects the children's values with ``np.where``, bottom-up; each
tree's values are added into one vector in tree order, so every row's sum
runs in the order of routing rows tree by tree.  The cost is a few array
operations per node, so callers predict many rows in one call.
"""
from __future__ import annotations

import bisect
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

_GROW, _PRUNE = 0, 1
MOVES = ("grow", "prune", "change")
_MOVE_P = (0.4, 0.4, 0.2)
# inverse-CDF draw of the move type by bisection
_MOVE_CDF = [0.4, 0.8, 1.0]
_LOG_P_GROW = math.log(_MOVE_P[_GROW])
_LOG_P_PRUNE = math.log(_MOVE_P[_PRUNE])
# rows per prediction pass: enough to amortize per-call overhead over many
# rows, few enough to keep each temporary near half a megabyte
_PREDICT_BLOCK = 1 << 16
_sum = np.add.reduce  # ndarray.sum without its Python wrapper

# The standard BART priors: a node at depth d splits with probability
# A_SPLIT / (1 + d) ** B_SPLIT, and sigma^2 is scaled inverse chi-square with
# NU degrees of freedom (its scale is set in BartSampler from SIGMA_QUANTILE).
# A numeric covariate's cuts are the NUMCUT interior points of an even grid
# from its minimum to its maximum.
A_SPLIT = 0.95
B_SPLIT = 2.0
NU = 3.0
SIGMA_QUANTILE = 0.90
NUMCUT = 100


class CovariateMatrix:
    """Training covariates: numeric columns split on thresholds, categorical
    columns on level subsets.

    A categorical column's ``values[j]`` holds its sorted distinct levels and
    ``codes[:, j]`` each row's index into them.  A numeric column's
    ``values[j]`` is its cut grid and ``codes[:, j]`` counts the grid points
    below each row's value, so ``code <= k`` exactly when the value is
    ``<= values[j][k]``.  ``key`` numbers the distinct rows of ``codes``,
    and ``most_ties`` is the size of the largest group of equal ones.
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
        codes = np.empty((self.q, self.n), dtype=np.intp)
        for j, c in enumerate(self.columns):
            if self.is_cat[j]:
                uniq, codes[j] = np.unique(c, return_inverse=True)
            else:
                uniq = np.linspace(c.min(), c.max(), NUMCUT + 2)[1:-1]
                codes[j] = np.searchsorted(uniq, c, side="left")
            self.values.append(uniq)
        self.codes, self.code_cols = codes.T, list(codes)  # columns contiguous
        self.key = np.unique(self.codes, axis=0, return_inverse=True)[1].ravel()
        self.most_ties = int(np.bincount(self.key, minlength=1).max())

    @property
    def q(self):
        return len(self.columns)

    def can_split(self, rows: np.ndarray) -> bool:
        """Whether these rows hold two distinct code rows, as they must when
        they outnumber the largest group of equal ones."""
        if rows.size > self.most_ties:
            return True
        k = self.key[rows]
        return bool(np.minimum.reduce(k) != np.maximum.reduce(k))


class _Tree:
    """One tree: flat per-node lists and a row permutation (module docstring).

    Node 0 is the root; a leaf has ``feature == -1``.  ``rule`` holds a
    numeric split's cut or a categorical split's level array, and ``sum`` a
    leaf's partial-residual sum in the current step.  ``pred`` holds the
    tree's fitted values in ``perm`` order.
    """

    def __init__(self, n: int, root_splits: bool):
        self.perm, self.pred = np.arange(n), np.zeros(n)
        self.feature, self.rule, self.left, self.right = [-1], [None], [-1], [-1]
        self.value, self.sum, self.lo, self.hi = [0.0], [0.0], [0], [n]
        self.depth, self.parent, self.splits = [0], [-1], [root_splits]
        self.order = [0]  # every node, pre-order
        self.free = []  # ids of pruned nodes, reused by later grows
        self._relist()

    def _relist(self):
        f, left, right = self.feature, self.left, self.right
        self.leaves = [i for i in self.order if f[i] < 0]
        self.starts = np.array([self.lo[i] for i in self.leaves])
        self.growable = [i for i in self.leaves if self.splits[i]]
        self.prunable = [i for i in self.order
                         if f[i] >= 0 and f[left[i]] < 0 and f[right[i]] < 0]

    def _new_leaf(self, parent: int) -> int:
        fields = (self.feature, self.rule, self.left, self.right, self.value, self.sum,
                  self.lo, self.hi, self.depth, self.parent, self.splits)
        init = (-1, None, -1, -1, 0.0, 0.0, 0, 0, self.depth[parent] + 1, parent, False)
        if self.free:
            i = self.free.pop()
            for lst, v in zip(fields, init):
                lst[i] = v
        else:
            i = len(self.feature)
            for lst, v in zip(fields, init):
                lst.append(v)
        return i

    def split(self, i, feature, rule, go_left, n_left, part, xmat):
        """Give node i a new rule: a leaf grows two leaf children, and a node
        with two leaf children re-partitions them.  Node i's range, and the
        same slice of ``part``, is stably partitioned, the n_left rows with
        go_left first."""
        if self.feature[i] < 0:
            self.left[i], self.right[i] = self._new_leaf(i), self._new_leaf(i)
            k = self.order.index(i)
            self.order[k + 1:k + 1] = [self.left[i], self.right[i]]
        lo, hi = self.lo[i], self.hi[i]
        order = (~go_left).argsort(kind="stable")
        self.perm[lo:hi] = self.perm[lo:hi][order]
        part[lo:hi] = part[lo:hi][order]
        self.feature[i], self.rule[i] = feature, rule
        mid = lo + n_left
        for child, a, b in ((self.left[i], lo, mid), (self.right[i], mid, hi)):
            self.lo[child], self.hi[child] = a, b
            self.splits[child] = xmat.can_split(self.perm[a:b])
        self._relist()

    def prune(self, i):
        """Node i's leaf children go; their adjacent ranges are already i's."""
        self.free += [self.left[i], self.right[i]]
        self.feature[i], self.rule[i] = -1, None
        self.left[i] = self.right[i] = -1
        k = self.order.index(i)
        del self.order[k + 1:k + 3]
        self._relist()
        return True


class BartSampler:
    """Stateful backfitting sampler; `sweep()` advances one full iteration.

    ``proposed`` and ``accepted`` count structure moves by type, in
    ``MOVES`` order.  ``fit_total`` is ``y`` less the residuals of the last
    sweep.
    """

    def __init__(self, xmat: CovariateMatrix, y: np.ndarray, trees: int,
                 rng: np.random.Generator):
        self.x = xmat
        self.y = np.asarray(y, dtype=np.float64)
        self.rng = rng
        n = xmat.n
        if len(self.y) != n:
            raise ValueError("response length must match covariates")

        spread = np.percentile(self.y, 97.5) - np.percentile(self.y, 2.5)
        t_eff = max(trees, 1)
        self.sigma_mu = float(max(spread, 1e-6) / (6.0 * np.sqrt(t_eff)))
        self._mu2 = self.sigma_mu**2
        var0 = max(float(self.y.var()), 1e-12)
        # inverse-gamma rate matched so P(sigma^2 < var(y)) = SIGMA_QUANTILE;
        # 2 * gammaincinv(nu / 2, p) is the chi-square(nu) quantile exactly as
        # scipy.stats computes it, without the cost of importing scipy.stats
        chi2_q = 2 * gammaincinv(NU / 2, 1 - SIGMA_QUANTILE)
        self.lam = float(var0 * chi2_q / NU)
        self.sigma2 = var0

        self.trees = [_Tree(n, xmat.can_split(np.arange(n))) for _ in range(trees)]
        self.fit_total = np.zeros(n)
        self.proposed = [0, 0, 0]
        self.accepted = [0, 0, 0]
        self._split_prior = []

    # -- priors and marginal likelihood -------------------------------------

    def _log_split_prior(self, depth):
        """Log prior ratio of splitting a leaf at this depth (memoized)."""
        while len(self._split_prior) <= depth:
            d = len(self._split_prior)
            p_d, p_c = A_SPLIT / (1.0 + d) ** B_SPLIT, A_SPLIT / (2.0 + d) ** B_SPLIT
            self._split_prior.append(math.log(p_d) + 2 * math.log1p(-p_c) - math.log1p(-p_d))
        return self._split_prior[depth]

    def _accept(self, log_ratio):
        return self.rng.random() < math.exp(min(log_ratio, 0.0))

    def _pick(self, seq):  # a uniform element; one element costs no draw
        return seq[self.rng.integers(len(seq))] if len(seq) > 1 else seq[0]

    # -- split-rule proposal (also the prior's rule distribution) ------------

    def _draw_rule(self, tree, i, part):
        """A uniform rule over the splits of node i, scored from one weighted
        bincount.  Returns the left row count and residual sum, and the rule
        for `_apply`: the covariate, the node's codes of it, and the codes
        that go left (a slice or an index array)."""
        lo, hi = tree.lo[i], tree.hi[i]
        rows, present = tree.perm[lo:hi], ()
        while len(present) < 2:  # node i holds two distinct code rows
            j = self._pick(range(self.x.q))
            codes = self.x.code_cols[j][rows]
            counts = np.bincount(codes)
            present = counts.nonzero()[0]
        if self.x.is_cat[j]:
            # uniform nonempty proper subset of the levels present here
            bits = self.rng.random(present.size) < 0.5
            while not 0 < np.count_nonzero(bits) < present.size:
                bits = self.rng.random(present.size) < 0.5
            go = present[bits]
        else:
            go = slice(self._pick(present[:-1]) + 1)
        sums = np.bincount(codes, part[lo:hi])
        return int(_sum(counts[go])), float(_sum(sums[go])), (j, codes, go)

    def _apply(self, tree, i, rule, n_left, s_left, part):
        """Split node i on an accepted rule from `_draw_rule` (a grow at a
        leaf, a change otherwise) and record its children's residual sums."""
        j, codes, go = rule
        values = self.x.values[j]
        if self.x.is_cat[j]:
            left = np.zeros(values.size, dtype=bool)
            left[go] = True
            rule, go_left = values[go], left[codes]
        else:
            rule, go_left = float(values[go.stop - 1]), codes < go.stop
        tree.split(i, j, rule, go_left, n_left, part, self.x)
        tree.sum[tree.left[i]], tree.sum[tree.right[i]] = s_left, tree.sum[i] - s_left
        return True

    # -- MH structure moves ---------------------------------------------------

    def _gain(self, s_left, n_left, total, n):
        """Log marginal-likelihood ratio, leaf means integrated out, of
        splitting n rows with residual sum ``total`` so that n_left rows
        summing to s_left go left."""
        s2, mu2, s_right = self.sigma2, self._mu2, total - s_left
        v_left, v_right, v = s2 + n_left * mu2, s2 + (n - n_left) * mu2, s2 + n * mu2
        return 0.5 * math.log(s2 * v / (v_left * v_right)) + mu2 / (2.0 * s2) * (
            s_left * s_left / v_left + s_right * s_right / v_right - total * total / v)

    def _move_grow(self, tree, part):
        cand = tree.growable
        if not cand:
            return False
        nd = self._pick(cand)
        nl, sl, rule = self._draw_rule(tree, nd, part)
        # prunable nodes of the would-be tree: nd joins them, and its parent
        # leaves them if it was one
        n_prune_new = len(tree.prunable) + 1 - (tree.parent[nd] in tree.prunable)
        log_ratio = (
            self._log_split_prior(tree.depth[nd])
            + self._gain(sl, nl, tree.sum[nd], tree.hi[nd] - tree.lo[nd])
            + _LOG_P_PRUNE - math.log(n_prune_new) - _LOG_P_GROW + math.log(len(cand))
        )
        return self._accept(log_ratio) and self._apply(tree, nd, rule, nl, sl, part)

    def _move_prune(self, tree, part):
        cand = tree.prunable
        if not cand:
            return False
        nd = self._pick(cand)
        left, right = tree.left[nd], tree.right[nd]
        tree.sum[nd] = tree.sum[left] + tree.sum[right]
        # growable leaves after the prune: survivors plus the merged leaf
        n_grow_new = len(tree.growable) - tree.splits[left] - tree.splits[right] + 1
        log_ratio = (
            -self._log_split_prior(tree.depth[nd])
            - self._gain(tree.sum[left], tree.hi[left] - tree.lo[nd], tree.sum[nd],
                         tree.hi[nd] - tree.lo[nd])
            + _LOG_P_GROW - math.log(n_grow_new) - _LOG_P_PRUNE + math.log(len(cand))
        )
        return self._accept(log_ratio) and tree.prune(nd)

    def _move_change(self, tree, part):
        cand = tree.prunable  # internal nodes with two leaf children
        if not cand:
            return False
        nd = self._pick(cand)
        left, n = tree.left[nd], tree.hi[nd] - tree.lo[nd]
        tree.sum[nd] = total = tree.sum[left] + tree.sum[tree.right[nd]]
        nl, sl, rule = self._draw_rule(tree, nd, part)
        log_ratio = (self._gain(sl, nl, total, n)
                     - self._gain(tree.sum[left], tree.hi[left] - tree.lo[nd], total, n))
        return self._accept(log_ratio) and self._apply(tree, nd, rule, nl, sl, part)

    def structure_step(self, t: int, part: np.ndarray) -> bool:
        """One MH move on tree t against its partial residuals ``part``, in
        the tree's row order; an accepted split reorders them with the rows."""
        move = bisect.bisect_right(_MOVE_CDF, self.rng.random())
        moves = (self._move_grow, self._move_prune, self._move_change)
        accepted = moves[move](self.trees[t], part)
        self.proposed[move] += 1
        self.accepted[move] += accepted
        return accepted

    def sweep(self):
        resid = self.y - self.fit_total
        s2, prior_prec = self.sigma2, 1.0 / self._mu2
        for t, tree in enumerate(self.trees):
            perm, pred, total, lo, hi = tree.perm, tree.pred, tree.sum, tree.lo, tree.hi
            part = resid[perm]
            part += pred
            for i, s in zip(tree.leaves, np.add.reduceat(part, tree.starts).tolist()):
                total[i] = s
            self.structure_step(t, part)
            # conjugate leaf draws, filled into the tree's row order
            noise = self.rng.standard_normal(len(tree.leaves)).tolist()
            for i, e in zip(tree.leaves, noise):
                prec = prior_prec + (hi[i] - lo[i]) / s2
                tree.value[i] = v = total[i] / s2 / prec + e / math.sqrt(prec)
                pred[lo[i]:hi[i]] = v
            part -= pred
            resid[perm] = part
        np.subtract(self.y, resid, out=self.fit_total)
        shape = 0.5 * (NU + self.x.n)
        rate = 0.5 * (NU * self.lam + float(resid @ resid))
        self.sigma2 = rate / float(self.rng.gamma(shape))

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


def ensemble_predict(forest: Forest, columns: list, trees=slice(None)) -> np.ndarray:
    """Sum of the predictions of the forest's trees chosen by ``trees`` (a
    slice in tree order): one kept ensemble's f, or with every tree of
    ``kept`` joined ensembles, kept times the posterior-mean f.

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
    starts = np.concatenate(([0], np.cumsum(forest.size)[:-1]))
    chosen = list(zip(starts[trees].tolist(), forest.size[trees].tolist()))
    total = np.zeros(len(columns[0]))
    for lo in range(0, total.size, _PREDICT_BLOCK):
        block = [c[lo:lo + _PREDICT_BLOCK] for c in columns]
        part = total[lo:lo + _PREDICT_BLOCK]
        for start, size in chosen:
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
    return total
