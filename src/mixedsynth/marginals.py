"""Marginal distribution estimation and inversion.

Ordinal/count/binary columns get rescaled empirical CDFs, and so does a
constant continuous column (a one-value point mass); other continuous columns
get a Gaussian-kernel-smoothed CDF with Silverman bandwidth, tabulated once,
at fit time, on a 4097-point even grid over the sample's range, by linear
binning and one convolution, at a cost that does not grow with n.  The grid's
ends and CDF values are all a continuous marginal keeps: synthesis inverts
the grid by linear interpolation, and no observed value survives in it
except the minimum and maximum.  All CDFs carry the n/(n+1) rescale so no
observed value maps to a 0/1 probability (and hence to an infinite latent
Gaussian value).  Categorical columns are summarized by the joint
cross-classification table over all categorical variables, which is what
synthesis draws from so that observed categorical dependence (and
structural zeros) survive.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr

from .errors import ConstantColumnWarning, EmptyColumnError, NoCategoricalColumnsError
from .schema import Kind, MixedDataset

__all__ = [
    "DiscreteMarginal",
    "ContinuousMarginal",
    "CategoricalProbTable",
    "fit_marginal",
    "fit_categorical_probs",
]

_GRID_POINTS = 4097


@dataclass
class DiscreteMarginal:
    """Step CDF over the sorted unique observed values, rescaled by n/(n+1)."""

    values: np.ndarray
    counts: np.ndarray
    n: int = field(init=False)
    cum: np.ndarray = field(init=False)

    def __post_init__(self):
        self.values = np.asarray(self.values)
        self.counts = np.asarray(self.counts, dtype=np.int64)
        self.n = int(self.counts.sum())
        self.cum = np.cumsum(self.counts) / (self.n + 1.0)

    def inverse(self, u):
        """Smallest support value v with F(v) >= u; u past the top clamps to max."""
        idx = np.searchsorted(self.cum, u, side="left")
        idx = np.minimum(idx, len(self.values) - 1)
        return self.values[idx]


@dataclass
class ContinuousMarginal:
    """Kernel CDF values ``grid_u`` at evenly spaced grid points ``grid_x``
    from the sample's minimum ``lo`` to its maximum ``hi``; the inverse
    therefore clamps to [lo, hi]."""

    lo: float
    hi: float
    grid_u: np.ndarray
    grid_x: np.ndarray = field(init=False)

    def __post_init__(self):
        self.grid_x = np.linspace(self.lo, self.hi, len(self.grid_u))

    def cdf(self, x):
        """The tabulated CDF, linear between grid points, flat outside."""
        return np.interp(x, self.grid_x, self.grid_u)

    def inverse(self, u):
        return np.interp(u, self.grid_u, self.grid_x)


def _silverman_bandwidth(x: np.ndarray) -> float:
    n = x.size
    sd = float(np.std(x, ddof=1)) if n > 1 else 0.0
    q75, q25 = np.percentile(x, [75, 25])
    iqr = float(q75 - q25)
    spread = min(sd, iqr / 1.34) if iqr > 0 else sd
    return 0.9 * spread * n ** (-0.2)


def _kernel_cdf(sample: np.ndarray, h: float, x: np.ndarray) -> np.ndarray:
    """Gaussian-kernel mixture CDF of the sample at the even grid x, rescaled
    by n/(n+1), by linear binning and one convolution (Wand 1994).

    Each sample value's unit mass is split between its two neighbouring grid
    points in proportion to proximity, and the weights are convolved with
    Phi(d delta / h) for every grid offset d.  Each value lies within
    0.0302 (delta / h)**2 of the full kernel sum: the linear-interpolation
    error of s -> Phi((x - s) / h) over one grid step, max|phi'| / 8.
    """
    n, size = sample.size, x.size
    delta = (x[-1] - x[0]) / (size - 1)
    pos = np.minimum((sample - x[0]) / delta, size - 1.0)
    left = np.minimum(pos.astype(np.int64), size - 2)
    frac = pos - left
    weights = np.bincount(left, 1.0 - frac, size) + np.bincount(left + 1, frac, size)
    kernel = ndtr(np.arange(1 - size, size) * (delta / h))
    return np.convolve(kernel, weights, mode="valid") / (n + 1.0)


def fit_marginal(column, kind: Kind):
    """Fit the marginal estimator appropriate to a (non-categorical) kind."""
    col = np.asarray(column)
    if col.size == 0:
        raise EmptyColumnError("cannot fit a marginal on an empty column")
    if kind is Kind.CATEGORICAL:
        raise ValueError("categorical columns use fit_categorical_probs")
    if kind is Kind.CONTINUOUS:
        col = col.astype(np.float64)
        h = _silverman_bandwidth(col)
        if h <= 0.0:
            warnings.warn(
                "constant continuous column: falling back to a point mass",
                ConstantColumnWarning,
                stacklevel=2,
            )
            return DiscreteMarginal(np.array([col[0]]), [col.size])
        lo, hi = float(col.min()), float(col.max())
        grid_x = np.linspace(lo, hi, _GRID_POINTS)
        return ContinuousMarginal(lo, hi, _kernel_cdf(col, h, grid_x))
    values, counts = np.unique(col.astype(np.int64), return_counts=True)
    return DiscreteMarginal(values, counts)


@dataclass
class CategoricalProbTable:
    """The joint cell table of the categorical columns (in schema order, one
    column of ``cells`` each), used for synthesis."""

    cells: np.ndarray  # (n_cells, q) level codes, lexicographically sorted
    cell_probs: np.ndarray

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw joint categorical assignments; returns (size,) row indices
        into ``cells``."""
        return rng.choice(self.cells.shape[0], size=size, p=self.cell_probs)


def fit_categorical_probs(ds: MixedDataset) -> CategoricalProbTable:
    """Tabulate the joint cross-classification of the categorical columns.

    Only observed joint cells carry mass, so combinations absent from the
    data (structural zeros) can never be synthesized.
    """
    cat_cols = [c for c in ds.schema if c.kind is Kind.CATEGORICAL]
    if not cat_cols:
        raise NoCategoricalColumnsError("dataset declares no categorical columns")
    codes = np.column_stack([ds.columns[c.name] for c in cat_cols])
    cells, counts = np.unique(codes, axis=0, return_counts=True)
    return CategoricalProbTable(cells, counts / ds.n)

