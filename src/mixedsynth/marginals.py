"""Marginal distribution estimation and inversion.

Ordinal/count/binary columns get rescaled empirical CDFs, and so does a
constant continuous column (a one-value point mass); other continuous columns
get a Gaussian-kernel-smoothed CDF with Silverman bandwidth, tabulated once,
at fit time, on a 4097-point even grid over the sample's range.  The grid's
ends and CDF values are all a continuous marginal keeps: synthesis inverts
the grid by linear interpolation, and no observed value survives in it
except the minimum and maximum.  All CDFs
carry the n/(n+1) rescale so no observed value maps to a 0/1 probability (and
hence to an infinite latent Gaussian value).  Categorical columns are
summarized by the joint cross-classification table over all categorical
variables, which is what synthesis draws from so that observed categorical
dependence (and structural zeros) survive.
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
# ndtr is exactly 1.0 from about 8.3 up and exactly 0.0 from about -38.5
# down; the margins keep round-off in (x - s) / h from flipping a term
_ONE_BELOW = 8.5
_ZERO_ABOVE = 39.0


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
    """Gaussian-kernel mixture CDF of the sorted sample at ascending x,
    rescaled by n/(n+1).

    A kernel term ndtr((x - s) / h) is exactly 1.0 for s <= x - _ONE_BELOW h
    and exactly 0.0 for s >= x + _ZERO_ABOVE h, so ndtr runs only on the
    band between; every row still sums all n terms in sample order.
    """
    n = sample.size
    out = np.empty(x.size)
    # blocks of about 2**16 kernel terms stay cache-sized; each row's sum
    # is reduced the same way whatever the block, so values do not move
    step = max(1, 2**16 // n)
    buf = np.empty((min(step, x.size), n))
    first = np.searchsorted(sample, x - _ONE_BELOW * h, side="right")
    stop = np.searchsorted(sample, x + _ZERO_ABOVE * h, side="left")
    # where rounding in x -/+ c h misplaced a band edge (values many ulps
    # wider than h), that row computes every term; the term just outside
    # each edge bounds all terms beyond it, since (x - s) / h is monotone.
    # At first == 0 or stop == n the index wraps and the row widens, a no-op.
    first[(x - sample[first - 1]) / h < _ONE_BELOW] = 0
    stop[(x - sample[stop % n]) / h > -_ZERO_ABOVE] = n
    for s in range(0, x.size, step):
        xs = x[s : s + step, None]
        rows = buf[: xs.shape[0]]
        # x ascends, so the block's first row has the fewest 1.0 terms and
        # its last row the fewest 0.0 terms
        j0, j1 = first[s], stop[s + xs.shape[0] - 1]
        rows[:, :j0] = 1.0
        rows[:, j1:] = 0.0
        band = rows[:, j0:j1]
        np.subtract(xs, sample[j0:j1], out=band)
        band /= h
        ndtr(band, out=band)
        out[s : s + step] = rows.sum(axis=1)
    out /= n + 1.0
    return out


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
        sample = np.sort(col)
        lo, hi = float(sample[0]), float(sample[-1])
        grid_x = np.linspace(lo, hi, _GRID_POINTS)
        return ContinuousMarginal(lo, hi, _kernel_cdf(sample, h, grid_x))
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

