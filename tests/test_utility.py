"""Analytic utility metrics: hand-checked exactness plus estimator behavior."""
import dataclasses
import warnings

import numpy as np
import pytest

from mixedsynth import utility
from mixedsynth.errors import (
    DegenerateResponseError,
    MismatchedCoefficientSetsError,
    NonNumericResponseError,
    SchemaMismatchError,
    SeparationWarning,
    ZeroPosteriorSDError,
    ZeroWidthIntervalError,
)
from mixedsynth.schema import ColumnSchema, Kind, MixedDataset
from mixedsynth.utility import (
    CoefficientSummary,
    HorseshoeConfig,
    RegressionSpec,
    aggregated_utility,
    cio,
    coef_mse,
    design_matrix,
    evaluate_utility,
    fit_bayes_lm,
    pmse,
    pool_synthetic,
)

EXACT = 1e-12


# ---------------------------------------------------------------- cio


def test_cio_identical_intervals():
    assert cio((0.0, 1.0), (0.0, 1.0)) == pytest.approx(1.0, abs=EXACT)


@pytest.mark.parametrize("a,b", [((0.0, 1.0), (0.5, 1.5)), ((0.5, 1.5), (0.0, 1.0))])
def test_cio_half_overlap_symmetric(a, b):
    # overlap (0.5, 1.0) over unit widths in both directions
    assert cio(a, b) == pytest.approx(0.5, abs=EXACT)


def test_cio_disjoint_intervals():
    # overlap length -1 against two unit widths: 0.5*(-1 - 1) = -1
    assert cio((0.0, 1.0), (2.0, 3.0)) == pytest.approx(-1.0, abs=EXACT)


def test_cio_nested_intervals():
    # overlap = (0.25, 0.75): full half of the outer, all of the inner
    assert cio((0.0, 1.0), (0.25, 0.75)) == pytest.approx(0.75, abs=EXACT)


def test_cio_zero_width_interval_rejected():
    with pytest.raises(ZeroWidthIntervalError):
        cio((1.0, 1.0), (0.0, 1.0))
    with pytest.raises(ZeroWidthIntervalError):
        cio((0.0, 1.0), (2.0, 2.0))


# ---------------------------------------------------------------- pooling


def _cs(name, point, sd=1.0):
    return CoefficientSummary(name, point, sd, point - 1.96 * sd, point + 1.96 * sd)


def test_pool_synthetic_hand_example():
    # five single-coefficient fits with points 1..5 and unit within-variance
    ests = [[_cs("b", float(q))] for q in range(1, 6)]
    pooled = pool_synthetic(ests)[0]
    assert pooled.point == pytest.approx(3.0, abs=EXACT)
    t = 1.0 + 2.5 / 5.0  # u_bar + b_m/m with b_m = var(1..5, ddof=1) = 2.5
    assert pooled.sd == pytest.approx(np.sqrt(t), abs=EXACT)
    assert pooled.lower == pytest.approx(3.0 - 1.96 * np.sqrt(t), abs=EXACT)
    assert pooled.upper == pytest.approx(3.0 + 1.96 * np.sqrt(t), abs=EXACT)


def test_pool_synthetic_requires_two():
    with pytest.raises(ValueError):
        pool_synthetic([[_cs("b", 1.0)]])


def test_pool_synthetic_name_mismatch():
    with pytest.raises(MismatchedCoefficientSetsError):
        pool_synthetic([[_cs("b", 1.0)], [_cs("c", 2.0)]])


# ---------------------------------------------------------------- coef_mse


def test_coef_mse_two_sd_gap():
    obs = _cs("b", 1.0, sd=0.5)
    assert coef_mse(obs, 2.0) == pytest.approx(4.0, abs=EXACT)


def test_coef_mse_zero_sd_rejected():
    with pytest.raises(ZeroPosteriorSDError):
        coef_mse(_cs("b", 1.0, sd=0.0), 2.0)


# ---------------------------------------------------------------- U


def test_aggregated_utility_values():
    assert aggregated_utility(1.0, 0.0, 0.0) == pytest.approx(1.0, abs=EXACT)
    assert aggregated_utility(0.5, 0.5, 0.125) == pytest.approx(0.5, abs=EXACT)
    # linear in each argument
    assert aggregated_utility(0.7, 0.2, 0.05) == pytest.approx(
        (0.7 + 0.8 + 0.8) / 3.0, abs=EXACT
    )
    with pytest.raises(ValueError):
        aggregated_utility(np.nan, 0.0, 0.0)


# ---------------------------------------------------------------- design


def _toy_ds(n=200, seed=0):
    rng = np.random.default_rng(seed)
    g = rng.integers(0, 3, n)
    x = rng.normal(0, 2, n)
    b = rng.integers(0, 2, n)
    y = 1.0 + 0.8 * x + 1.5 * (g == 2) - 0.7 * b + rng.normal(0, 1, n)
    return MixedDataset(
        (
            ColumnSchema("g", Kind.CATEGORICAL, levels=("a", "b", "c")),
            ColumnSchema("x", Kind.CONTINUOUS),
            ColumnSchema("b", Kind.BINARY),
            ColumnSchema("y", Kind.CONTINUOUS),
        ),
        {"g": g, "x": x, "b": b, "y": y},
    )


def test_design_matrix_encoding():
    ds = _toy_ds()
    spec = RegressionSpec("y", ("g", "x", "b"), interactions=(("x", "b"),))
    x, names, y = design_matrix(ds, spec)
    assert names == ["(intercept)", "g=b", "g=c", "x", "b", "x:b"]
    assert np.allclose(x[:, 0], 1.0)
    assert set(np.unique(x[:, 1])) <= {0.0, 1.0}
    # numeric predictors standardized, binary passed through raw
    assert abs(x[:, 3].mean()) < 1e-12 and abs(x[:, 3].std(ddof=1) - 1.0) < 1e-12
    assert set(np.unique(x[:, 4])) <= {0.0, 1.0}
    assert np.allclose(x[:, 5], x[:, 3] * x[:, 4])


def test_design_matrix_interaction_must_be_declared():
    with pytest.raises(ValueError):
        RegressionSpec("y", ("x",), interactions=(("x", "b"),))


def test_regression_needs_a_predictor():
    with pytest.raises(ValueError, match="at least one predictor"):
        RegressionSpec("y", ())


def test_categorical_response_rejected():
    ds = _toy_ds()
    with pytest.raises(NonNumericResponseError):
        design_matrix(ds, RegressionSpec("g", ("x",)))


def test_constant_response_rejected():
    ds = _toy_ds(n=50)
    ds.columns["y"][:] = 3.0
    with pytest.raises(DegenerateResponseError):
        design_matrix(ds, RegressionSpec("y", ("x",)))


# ---------------------------------------------------------------- horseshoe


def test_horseshoe_signal_and_noise():
    rng = np.random.default_rng(7)
    n = 600
    x = rng.normal(0, 1, (n, 8))
    y = 5.0 * x[:, 0] + rng.normal(0, 1, n)
    cols = {f"x{j}": x[:, j] for j in range(8)}
    cols["y"] = y
    schema = tuple(
        [ColumnSchema(f"x{j}", Kind.CONTINUOUS) for j in range(8)]
        + [ColumnSchema("y", Kind.CONTINUOUS)]
    )
    ds = MixedDataset(schema, cols)
    spec = RegressionSpec("y", tuple(f"x{j}" for j in range(8)))
    fit = {c.name: c for c in fit_bayes_lm(ds, spec, HorseshoeConfig(2000, 1000, seed=1))}
    assert fit["x0"].lower > 0.0  # strong signal: interval excludes zero
    for j in range(1, 8):
        assert abs(fit[f"x{j}"].point) < 0.1  # noise shrunk toward zero
        assert fit[f"x{j}"].lower < 0.0 < fit[f"x{j}"].upper


def test_fixed_global_scale_reaches_ols_limit():
    ds = _toy_ds(n=300, seed=3)
    spec = RegressionSpec("y", ("x", "b"))
    x, names, y = design_matrix(ds, spec)
    ols = np.linalg.lstsq(x, y, rcond=None)[0]
    fit = fit_bayes_lm(
        ds, spec, HorseshoeConfig(4000, 2000, seed=2, fix_global_scale=1e4)
    )
    for j, c in enumerate(fit):
        assert c.point == pytest.approx(ols[j], abs=4 * c.sd / np.sqrt(2000) + 5e-3)


def test_fit_reproducible():
    ds = _toy_ds(n=120, seed=5)
    spec = RegressionSpec("y", ("x",))
    cfg = HorseshoeConfig(500, 250, seed=11)
    a = fit_bayes_lm(ds, spec, cfg)
    b = fit_bayes_lm(ds, spec, cfg)
    assert a == b


# ---------------------------------------------------------------- pMSE


def _pmse_pair(n=5000, shift=0.0, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(0, 1, n)
    y = rng.poisson(4.0, n)
    schema = (
        ColumnSchema("x", Kind.CONTINUOUS),
        ColumnSchema("y", Kind.COUNT),
    )
    conf = MixedDataset(schema, {"x": x, "y": y})
    perm = rng.permutation(n)
    syn = MixedDataset(schema, {"x": x[perm] + shift, "y": y[rng.permutation(n)]})
    return conf, syn


def test_pmse_shuffled_self_copy_is_tiny():
    conf, syn = _pmse_pair()
    assert pmse(conf, syn) < 0.002


def test_pmse_large_shift_detected():
    conf, syn = _pmse_pair(shift=10.0)
    with warnings.catch_warnings():
        # a 10-sd gap separates perfectly; the ridge refit is expected
        warnings.simplefilter("ignore", SeparationWarning)
        assert pmse(conf, syn) > 0.2


def test_pmse_row_permutation_invariant():
    conf, syn = _pmse_pair(n=800, seed=3)
    base = pmse(conf, syn)
    rng = np.random.default_rng(9)
    perm = rng.permutation(syn.n)
    syn_perm = MixedDataset(syn.schema, {k: v[perm] for k, v in syn.columns.items()})
    assert pmse(conf, syn_perm) == pytest.approx(base, abs=1e-12)


def test_pmse_identical_copy_degenerates_to_zero():
    conf, _ = _pmse_pair(n=600, seed=4)
    syn = MixedDataset(conf.schema, {k: v.copy() for k, v in conf.columns.items()})
    assert pmse(conf, syn) < 1e-6


def test_pmse_schema_mismatch():
    conf, _ = _pmse_pair(n=100)
    other = MixedDataset(
        (ColumnSchema("x", Kind.CONTINUOUS),), {"x": np.zeros(100)}
    )
    with pytest.raises(SchemaMismatchError):
        pmse(conf, other)


# ------------------------------------------------------------ end to end


def test_evaluate_utility_pools_and_aggregates():
    ds = _toy_ds(n=250, seed=8)
    rng = np.random.default_rng(12)
    syns = []
    for _ in range(3):
        perm = rng.permutation(ds.n)
        syns.append(
            MixedDataset(ds.schema, {k: v[perm] for k, v in ds.columns.items()})
        )
    spec = RegressionSpec("y", ("g", "x"))
    cfg = HorseshoeConfig(600, 300, seed=0)
    rep = evaluate_utility(ds, syns, spec, cfg)
    # row-shuffled copies carry the same joint distribution: near-perfect
    assert rep.U > 0.9
    assert rep.pmse < 0.01
    assert [c.name for c in rep.per_coefficient] == ["g=b", "g=c", "x"]
    doc = dataclasses.asdict(rep)
    assert doc["U"] == rep.U and len(doc["per_coefficient"]) == 3
    assert doc["per_coefficient"][2]["obs"]["name"] == "x"


def test_evaluate_utility_refuses_an_empty_release(monkeypatch):
    """An empty release is named as such before any horseshoe chain runs."""
    def no_chain(*args):
        raise AssertionError("a horseshoe chain ran")

    monkeypatch.setattr(utility, "fit_bayes_lm", no_chain)
    with pytest.raises(ValueError, match="release is empty"):
        evaluate_utility(_toy_ds(n=50), [], RegressionSpec("y", ("x",)))
