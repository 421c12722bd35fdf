import json
import subprocess
import sys

import numpy as np
import pytest
from scipy import stats
from scipy.special import ndtr

from mixedsynth import archive
from mixedsynth.errors import EmptyColumnError, NoCategoricalColumnsError
from mixedsynth.marginals import (
    ContinuousMarginal,
    DiscreteMarginal,
    _kernel_cdf,
    _silverman_bandwidth,
    fit_categorical_probs,
    fit_marginal,
)
from mixedsynth.schema import ColumnSchema, Kind, MixedDataset


def ks_distance(a, b) -> float:
    """Two-sample Kolmogorov-Smirnov sup-distance between empirical CDFs."""
    a = np.sort(np.asarray(a, dtype=np.float64))
    b = np.sort(np.asarray(b, dtype=np.float64))
    grid = np.concatenate([a, b])
    fa = np.searchsorted(a, grid, side="right") / a.size
    fb = np.searchsorted(b, grid, side="right") / b.size
    return float(np.max(np.abs(fa - fb)))


def _discrete_cdf(m: DiscreteMarginal, x):
    """A discrete marginal's rescaled step CDF at x, read off its ``cum``."""
    return np.concatenate(([0.0], m.cum))[np.searchsorted(m.values, x, side="right")]


def test_discrete_cdf_hand_example():
    # four observations (1, 1, 2, 3): rescaled cdf steps are 2/5, 3/5, 4/5
    m = fit_marginal(np.array([1, 1, 2, 3]), Kind.COUNT)
    assert isinstance(m, DiscreteMarginal)
    np.testing.assert_allclose(_discrete_cdf(m, np.array([1, 2, 3])), [0.4, 0.6, 0.8])
    np.testing.assert_allclose(_discrete_cdf(m, np.array([0.5, 1.5, 99])),
                               [0.0, 0.4, 0.8])


def test_discrete_inverse_hand_example():
    m = fit_marginal(np.array([10, 20, 30]), Kind.COUNT)
    # cdf levels are 0.25, 0.5, 0.75; generalized inverse picks the smallest
    # support point whose cdf reaches u, topping out at the sample maximum
    got = m.inverse(np.array([0.1, 0.25, 0.3, 0.5, 0.74, 0.75, 0.9]))
    np.testing.assert_array_equal(got, [10, 10, 20, 20, 30, 30, 30])


def test_discrete_inverse_support_closure():
    rng = np.random.default_rng(3)
    vals = rng.poisson(7, 200)
    m = fit_marginal(vals, Kind.COUNT)
    u = rng.uniform(0, 1, 5000)
    out = m.inverse(u)
    assert set(np.unique(out)) <= set(np.unique(vals))


def test_discrete_round_trip_identity():
    # F^-(F(y)) == y on observed support (strictly increasing cdf levels)
    vals = np.array([3, 1, 4, 1, 5, 9, 2, 6])
    m = fit_marginal(vals, Kind.COUNT)
    support = np.unique(vals)
    np.testing.assert_array_equal(m.inverse(_discrete_cdf(m, support)), support)


def _binned_mixture(sample, h, lo, delta, size):
    """Reference for the binned table: each value's unit mass split between
    its two neighbouring grid points, then sum_i w_i Phi((j - i) delta / h)
    / (n + 1) term by term at every grid point j."""
    pos = (sample - lo) / delta
    left = np.minimum(np.floor(pos), size - 2).astype(int)
    weights = np.zeros(size)
    np.add.at(weights, left, 1.0 - (pos - left))
    np.add.at(weights, left + 1, pos - left)
    (at,) = np.nonzero(weights)
    grid = np.arange(size)
    out = np.array([
        np.sum(weights[at] * ndtr((j - at) * delta / h)) for j in grid
    ])
    return out / (sample.size + 1.0)


def _full_kernel_sum(sample, h, lo, delta, size):
    """The unbinned mixture at lo + j delta, as offsets (j delta - (s - lo))
    / h, so a grid that rounding collapses (values one ulp step apart) still
    has distinct points."""
    out = np.empty(size)
    for j in range(0, size, 64):
        offsets = np.arange(j, min(j + 64, size))[:, None] * delta
        out[j : j + 64] = ndtr((offsets - (sample - lo)[None, :]) / h).sum(axis=1)
    return out / (sample.size + 1.0)


def test_continuous_cdf_matches_kernel_mixture():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(40)
    m = fit_marginal(x, Kind.CONTINUOUS)
    assert isinstance(m, ContinuousMarginal)
    h = _silverman_bandwidth(x)

    def mixture(q):
        return np.array([stats.norm.cdf(v, loc=x, scale=h).sum() / (len(x) + 1) for v in q])

    # the grid spans the sample's range and holds the binned mixture at its
    # points
    assert m.grid_x.size == 4097
    assert m.grid_x[0] == x.min() and m.grid_x[-1] == x.max()
    delta = (x.max() - x.min()) / 4096
    np.testing.assert_allclose(
        m.grid_u, _binned_mixture(x, h, x.min(), delta, 4097), rtol=1e-12
    )
    # and interpolates the unbinned mixture closely in between
    q = np.array([-1.0, 0.0, 0.7])
    np.testing.assert_allclose(m.cdf(q), mixture(q), atol=1e-6)


_rng = np.random.default_rng(8)
_COLUMNS = {
    "skewed": _rng.lognormal(0.0, 1.0, 5000),
    "outlier": np.append(_rng.standard_normal(999), 1e4),
    "ties": np.round(_rng.standard_normal(3000), 1),
    "n2": np.array([0.3, 1.7]),
    "short-block": _rng.gamma(2.0, 1.0, 7001),
    # values 16 apart (one ulp at 1e17) with h near 0.1: the grid's points
    # round to the two ends, but the table is built from offsets
    "ulp-wide": 1e17 + np.repeat([0.0, 16.0], [4990, 10]),
    # heavy tails: the grid step is several bandwidths wide
    "cauchy": _rng.standard_cauchy(5000),
}


@pytest.mark.parametrize("column", _COLUMNS.values(), ids=_COLUMNS.keys())
def test_binned_kernel_cdf_near_full_sum(column):
    n, lo, hi = column.size, column.min(), column.max()
    h = _silverman_bandwidth(column)
    delta = (hi - lo) / 4096
    table = _kernel_cdf(column, h, np.linspace(lo, hi, 4097))
    np.testing.assert_allclose(
        table, _binned_mixture(column, h, lo, delta, 4097), rtol=1e-12
    )
    # binning moves each kernel term by at most max|phi'| / 8 (delta / h)**2,
    # the linear-interpolation error of s -> Phi((x - s) / h) over one step
    bound = 0.0302 * (delta / h) ** 2 * n / (n + 1)
    assert np.abs(table - _full_kernel_sum(column, h, lo, delta, 4097)).max() <= bound
    assert np.all(np.diff(table) >= 0)


_TABLE_BYTES = """
import hashlib
import numpy as np
from mixedsynth.marginals import _kernel_cdf, _silverman_bandwidth
x = np.random.default_rng(8).lognormal(0.0, 1.0, 5000)
grid = np.linspace(x.min(), x.max(), 4097)
print(hashlib.sha256(_kernel_cdf(x, _silverman_bandwidth(x), grid).tobytes()).hexdigest())
"""


def test_binned_kernel_cdf_same_bytes_at_any_blas_threads(src_env):
    # the convolution's dot products go through BLAS
    digests = {
        subprocess.run(
            [sys.executable, "-c", _TABLE_BYTES], capture_output=True, text=True,
            check=True, env={**src_env, "OPENBLAS_NUM_THREADS": threads},
        ).stdout
        for threads in ("1", "2")
    }
    assert len(digests) == 1


def test_continuous_cdf_monotone_and_bounded():
    rng = np.random.default_rng(1)
    x = rng.gamma(2.0, 1.5, 500)
    m = fit_marginal(x, Kind.CONTINUOUS)
    grid = np.linspace(x.min() - 3, x.max() + 3, 2001)
    f = m.cdf(grid)
    assert np.all(np.diff(f) >= 0)
    assert f[0] >= 0 and f[-1] <= 1


def test_continuous_inverse_is_quantile():
    rng = np.random.default_rng(2)
    x = rng.standard_normal(300)
    m = fit_marginal(x, Kind.CONTINUOUS)
    u = np.linspace(0.05, 0.95, 19)
    q = m.inverse(u)
    # inverse then cdf reproduces u to grid-interpolation accuracy
    np.testing.assert_allclose(m.cdf(q), u, atol=2e-4)
    assert np.all(np.diff(q) > 0)


def test_continuous_inverse_clamped_to_hull():
    x = np.array([0.0, 1.0, 2.0, 3.0])
    m = fit_marginal(x, Kind.CONTINUOUS)
    lo, hi = m.inverse(np.array([1e-9, 1 - 1e-9]))
    # extreme quantiles clamp to the sample's range
    assert lo == x.min() and hi == x.max()


def test_silverman_bandwidth_value():
    rng = np.random.default_rng(4)
    x = rng.standard_normal(1000)
    sd = x.std(ddof=1)
    iqr = np.subtract(*np.percentile(x, [75, 25]))
    expect = 0.9 * min(sd, iqr / 1.34) * 1000 ** (-0.2)
    assert _silverman_bandwidth(x) == pytest.approx(expect, rel=1e-12)


def test_constant_continuous_degenerates():
    """A constant continuous column is a one-value discrete marginal."""
    with pytest.warns(UserWarning, match="constant"):
        m = fit_marginal(np.full(10, 3.25), Kind.CONTINUOUS)
    assert isinstance(m, DiscreteMarginal)
    assert m.values.dtype == np.float64
    np.testing.assert_array_equal(m.values, [3.25])
    np.testing.assert_array_equal(m.counts, [10])
    np.testing.assert_array_equal(m.inverse(np.array([0.1, 0.9])), [3.25, 3.25])
    assert m.inverse(np.array([0.1, 0.9])).dtype == np.float64
    # same n/(n+1) rescaling as the non-degenerate estimators
    np.testing.assert_allclose(
        _discrete_cdf(m, np.array([3.0, 3.25, 4.0])), [0.0, 10 / 11, 10 / 11]
    )


def test_empty_column_rejected():
    with pytest.raises(EmptyColumnError):
        fit_marginal(np.array([]), Kind.COUNT)


def test_plug_in_sampling_recovers_marginal():
    # transform uniform draws through the inverse; ks distance to the source
    # sample should be small for a continuous column
    rng = np.random.default_rng(5)
    x = rng.gamma(3.0, 2.0, 2000)
    m = fit_marginal(x, Kind.CONTINUOUS)
    y = m.inverse(rng.uniform(0, 1, 4000))
    assert ks_distance(x, y) < 0.05


def test_ks_distance_hand_value():
    a = np.array([1.0, 2.0, 3.0, 4.0])
    b = np.array([3.0, 4.0, 5.0, 6.0])
    # at x=2: F_a = 0.5, F_b = 0.0
    assert ks_distance(a, b) == pytest.approx(0.5)
    assert ks_distance(a, a) == 0.0


def _nc_like_dataset():
    """Two categoricals with the cross-tab of a published 4x5 example."""
    joint = np.array(
        [
            [0.091, 0.086, 0.087, 0.005, 0.002],
            [0.172, 0.134, 0.032, 0.006, 0.002],
            [0.118, 0.078, 0.008, 0.003, 0.002],
            [0.126, 0.037, 0.004, 0.005, 0.001],
        ]
    )
    counts = np.round(joint * 1000).astype(int)
    edu, race = [], []
    for i in range(4):
        for j in range(5):
            edu += [i] * counts[i, j]
            race += [j] * counts[i, j]
    schema = (
        ColumnSchema("edu", Kind.CATEGORICAL, levels=("nohs", "hs", "srcoll", "ba")),
        ColumnSchema("race", Kind.CATEGORICAL, levels=("w", "b", "h", "a", "o")),
    )
    ds = MixedDataset(schema, {"edu": np.array(edu), "race": np.array(race)})
    return ds, counts


def test_categorical_cross_tab_matches_observed():
    ds, counts = _nc_like_dataset()
    table = fit_categorical_probs(ds)
    assert table.cells.shape[1] == 2  # edu, race: the categorical columns in order
    n = counts.sum()
    # exactly the nonzero cells, with empirical probabilities
    assert len(table.cells) == np.count_nonzero(counts)
    for cell, prob in zip(table.cells, table.cell_probs):
        assert prob == pytest.approx(counts[cell[0], cell[1]] / n)
    np.testing.assert_allclose(table.cell_probs.sum(), 1.0)


def test_categorical_marginals_match_observed():
    ds, counts = _nc_like_dataset()
    table = fit_categorical_probs(ds)
    n = counts.sum()
    for j, axis in ((0, 1), (1, 0)):
        per_level = np.bincount(table.cells[:, j], weights=table.cell_probs,
                                minlength=counts.shape[j])
        np.testing.assert_allclose(per_level, counts.sum(axis=axis) / n)


def test_categorical_draw_frequencies():
    ds, counts = _nc_like_dataset()
    table = fit_categorical_probs(ds)
    rng = np.random.default_rng(11)
    draws = table.cells[table.draw(rng, 200_000)]
    assert draws.shape == (200_000, 2)
    n = counts.sum()
    freq = np.zeros_like(counts, dtype=float)
    for i in range(4):
        for j in range(5):
            freq[i, j] = np.mean((draws[:, 0] == i) & (draws[:, 1] == j))
    np.testing.assert_allclose(freq, counts / n, atol=0.004)


def test_structural_zeros_never_drawn():
    schema = (
        ColumnSchema("a", Kind.CATEGORICAL, levels=("x", "y")),
        ColumnSchema("b", Kind.CATEGORICAL, levels=("u", "v")),
    )
    # cell (y, u) unobserved
    ds = MixedDataset(
        schema,
        {"a": np.array([0, 0, 1, 0]), "b": np.array([0, 1, 1, 0])},
    )
    table = fit_categorical_probs(ds)
    rng = np.random.default_rng(0)
    draws = table.cells[table.draw(rng, 5000)]
    assert not np.any((draws[:, 0] == 1) & (draws[:, 1] == 0))


def test_no_categoricals_raises():
    ds = MixedDataset(
        (ColumnSchema("x", Kind.COUNT),), {"x": np.array([1, 2, 3])}
    )
    with pytest.raises(NoCategoricalColumnsError):
        fit_categorical_probs(ds)


@pytest.mark.parametrize(
    "vals,kind",
    [
        (np.array([1, 1, 2, 3]), Kind.COUNT),
        (np.random.default_rng(6).standard_normal(50), Kind.CONTINUOUS),
        (np.full(5, 2.0), Kind.CONTINUOUS),
    ],
)
def test_marginal_dict_round_trip(vals, kind):
    if kind is Kind.CONTINUOUS and np.ptp(vals) == 0:
        with pytest.warns(UserWarning):
            m = fit_marginal(vals, kind)
    else:
        m = fit_marginal(vals, kind)
    # the archive's form: a JSON-safe doc plus arrays
    arrays = {}
    doc = json.loads(json.dumps(archive._put_marginal(arrays, "m", m)))
    assert all(isinstance(a, np.ndarray) for a in arrays.values())
    m2 = archive._get_marginal(arrays, "m", doc)
    assert type(m2) is type(m)
    u = np.linspace(0.01, 0.99, 37)
    np.testing.assert_allclose(m2.inverse(u), m.inverse(u))
