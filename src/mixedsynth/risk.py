"""Attribute-disclosure risk via correct (median) attribution probabilities.

An adversary knows a subset of columns for every confidential record and
attacks a release of m synthetic datasets: pool every synthetic record that
matches the known values exactly, take the median of the pooled target
values, and score a hit when it lands within an integer slack of the truth.
The same machinery run against the confidential data itself gives the
no-synthesis baseline.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientPoolError, SchemaError, UnknownColumnError
from .schema import Kind, MixedDataset
from .streams import substream

__all__ = [
    "RiskPlan",
    "RiskReport",
    "cmap_mean",
    "risk_study",
]


@dataclass(frozen=True)
class RiskPlan:
    """Settings of a risk study: the adversary's known columns and target,
    the release sizes and integer slacks of the grid, and the number of
    releases drawn per size, each from substream (seed, "risk", m, rep)."""

    known: tuple
    target: str
    m_grid: tuple = (5, 10, 20)
    eps_grid: tuple = (0, 1, 2)
    reps: int = 100
    seed: int = 0

    def __post_init__(self):
        for name in ("known", "m_grid", "eps_grid"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        if not self.known:
            raise ValueError("known must name at least one column")
        if len(set(self.known)) < len(self.known):
            raise ValueError(f"known names a column more than once: {self.known}")
        if self.target in self.known:
            raise ValueError(f"target '{self.target}' cannot be a known column")
        if not self.m_grid or min(self.m_grid) < 1:
            raise ValueError(f"m_grid: release sizes must be >= 1, got {self.m_grid}")
        if not self.eps_grid or any(e < 0 or int(e) != e for e in self.eps_grid):
            raise ValueError("eps_grid: slacks must be nonnegative integers, got "
                             f"{self.eps_grid}")
        if self.reps < 1:
            raise ValueError(f"reps must be >= 1, got {self.reps}")


@dataclass(frozen=True)
class RiskReport:
    """One (m, epsilon) cell: a release of m datasets attacked through
    n_known known columns, with hits scored within slack epsilon."""

    m: int
    n_known: int
    epsilon: int
    cmap_syn: float
    cmap_base: float
    cmap_syn_uniques: float
    cmap_base_uniques: float
    risk_reduction: float
    n_matched: int
    n_unmatched: int
    n_uniques: int


def _check_columns(ds: MixedDataset, known: tuple, target: str):
    for name in known + (target,):
        if name not in ds.columns:
            raise UnknownColumnError(f"column '{name}' not in dataset")
    for name in known:
        if ds.col_schema(name).kind is Kind.CONTINUOUS:
            raise SchemaError(
                f"known column '{name}' is continuous; exact matching needs "
                "discrete columns"
            )


def _key_rows(ds: MixedDataset, known) -> np.ndarray:
    return np.column_stack([ds.columns[name] for name in known])


def _key_index(conf: MixedDataset, pool, known):
    """Integer key ids shared between confidential and pooled records.

    A confidential key's id is its rank among the confidential keys, so it
    does not depend on which pooled rows are keyed with it.  Returns
    (rec_key: per confidential record, syn_keys: one array per pool dataset
    with -1 where the key never occurs in conf, n_keys).
    """
    conf_rows = _key_rows(conf, known)
    stacked = [conf_rows] + [_key_rows(s, known) for s in pool]
    lengths = [r.shape[0] for r in stacked]
    _, inv = np.unique(np.concatenate(stacked), axis=0, return_inverse=True)
    inv = inv.astype(np.int64)
    bounds = np.cumsum([0] + lengths)
    conf_codes = inv[: bounds[1]]
    ucodes = np.unique(conf_codes)
    lut = np.full(int(inv.max()) + 1, -1, dtype=np.int64)
    lut[ucodes] = np.arange(ucodes.size)
    rec_key = lut[conf_codes]
    syn_keys = [lut[inv[bounds[i] : bounds[i + 1]]] for i in range(1, len(lengths))]
    return rec_key, syn_keys, ucodes.size


def _group_medians(keys: np.ndarray, values: np.ndarray, n_keys: int):
    """Lower-middle median of values per key; nan where a key has no rows.

    The lower-middle order statistic of an even-sized group keeps the median
    on the integer grid for count targets.
    """
    med = np.full(n_keys, np.nan)
    ok = keys >= 0
    keys, values = keys[ok], values[ok]
    if keys.size:
        order = np.lexsort((values, keys))
        keys, values = keys[order], values[order]
        starts = np.flatnonzero(np.r_[True, np.diff(keys) > 0])
        counts = np.diff(np.r_[starts, keys.size])
        med[keys[starts]] = values[starts + (counts - 1) // 2]
    return med


class _Prefix:
    """The attack for one known-column prefix, keyed once against a pool.

    One `_key_index` call keys the confidential records and every pool
    dataset; the confidential data attacks itself once, which scores the
    baseline for every epsilon.
    """

    def __init__(self, conf: MixedDataset, pool: list, known: tuple, target: str,
                 eps_grid):
        self.n_known = len(known)
        self.eps_grid = tuple(eps_grid)
        self.rec_key, self.keys, self.n_keys = _key_index(conf, pool, known)
        self.truth = conf.columns[target].astype(np.float64)
        self.targets = [s.columns[target].astype(np.float64) for s in pool]
        self.eps = np.asarray(eps_grid, dtype=np.float64)[:, None]
        # the baseline attack includes each record's match with itself
        self.base, _ = self._hits(self.rec_key, self.truth)
        self.uniq = np.bincount(self.rec_key)[self.rec_key] == 1

    def _hits(self, keys, values):
        med = _group_medians(keys, values, self.n_keys)[self.rec_key]
        matched = np.isfinite(med)
        return matched & (np.abs(med - self.truth) <= self.eps), matched

    def _uniq_rate(self, hits):
        # 0 when no confidential key is unique
        return hits[:, self.uniq].sum(axis=1) / max(self.uniq.sum(), 1)

    def attack(self, picks):
        """Per-record hits (one row per epsilon) and the matched mask for
        the release made of pool datasets `picks`: one median pass."""
        keys = np.concatenate([np.empty(0, np.int64)] + [self.keys[i] for i in picks])
        vals = np.concatenate([np.empty(0)] + [self.targets[i] for i in picks])
        return self._hits(keys, vals)

    def reports(self, m: int, releases) -> list:
        """One RiskReport per epsilon, averaged over releases (each a list of
        m pool indices).  The baseline fields do not depend on the release."""
        syn, syn_uniq = np.empty((2, self.eps.shape[0], len(releases)))
        matched = np.empty(len(releases), dtype=np.int64)
        for r, picks in enumerate(releases):
            hits, hit_any = self.attack(picks)
            syn[:, r] = hits.mean(axis=1)
            syn_uniq[:, r] = self._uniq_rate(hits)
            matched[r] = hit_any.sum()
        base = self.base.mean(axis=1)
        base_uniq = self._uniq_rate(self.base)
        n = self.truth.size
        reports = []
        for j, eps in enumerate(self.eps_grid):
            cmap_syn = float(np.mean(syn[j]))
            reports.append(RiskReport(
                m=m,
                n_known=self.n_known,
                epsilon=eps,
                cmap_syn=cmap_syn,
                cmap_base=float(base[j]),
                cmap_syn_uniques=float(np.mean(syn_uniq[j])),
                cmap_base_uniques=float(base_uniq[j]),
                risk_reduction=float(base[j]) - cmap_syn,
                n_matched=int(round(np.mean(matched))),
                n_unmatched=int(round(np.mean(n - matched))),
                n_uniques=int(self.uniq.sum()),
            ))
        return reports


def cmap_mean(
    conf: MixedDataset, release: list, known, target: str, epsilon: int = 0
) -> RiskReport:
    """Score one release and the confidential baseline at one slack: a risk
    study whose only draw is the whole release (the attack's medians do not
    depend on the order of the release's datasets)."""
    plan = RiskPlan(known, target, (len(release),), (epsilon,), reps=1)
    return risk_study(conf, release, plan)[0]


def risk_study(conf: MixedDataset, pool: list, plan: RiskPlan) -> list[RiskReport]:
    """Average the risk over bootstrap re-releases drawn from a pool.

    For each rep and pool size m, a release is drawn without replacement
    from substream (plan.seed, "risk", m, rep); every epsilon is scored on
    the same release so cells stay comparable.  The known list is keyed once
    against the whole pool, and one median pass per release scores every
    epsilon.  For a grid of known-column prefixes, call once per prefix.
    """
    if max(plan.m_grid) > len(pool):
        raise InsufficientPoolError(
            f"pool has {len(pool)} datasets; largest release asks for "
            f"{max(plan.m_grid)}"
        )
    for ds in [conf, *pool]:
        _check_columns(ds, plan.known, plan.target)

    prefix = _Prefix(conf, pool, plan.known, plan.target, plan.eps_grid)
    cells = []
    for m in plan.m_grid:
        releases = [
            substream(plan.seed, "risk", m, rep).choice(len(pool), size=m, replace=False)
            for rep in range(plan.reps)
        ]
        cells += prefix.reports(m, releases)
    return cells
