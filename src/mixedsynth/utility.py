"""Utility metrics comparing confidential data against synthetic releases.

The analysis-specific pieces (regression spec, horseshoe fits, combining
rules) feed the interval-overlap and coefficient-MSE metrics; the global
pMSE discriminator and the aggregated score U are analysis-free.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from ._lapack import cho_solve_lower, cholesky_lower, lapack, solve_lower_t
from .errors import (
    DegenerateResponseError,
    MismatchedCoefficientSetsError,
    NonNumericResponseError,
    RankDeficientError,
    SchemaMismatchError,
    SeparationWarning,
    UnknownColumnError,
    ZeroPosteriorSDError,
    ZeroWidthIntervalError,
)
from .schema import Kind, MixedDataset

__all__ = [
    "RegressionSpec",
    "CoefficientSummary",
    "HorseshoeConfig",
    "CoefficientUtility",
    "UtilityReport",
    "design_matrix",
    "fit_bayes_lm",
    "pool_synthetic",
    "cio",
    "coef_mse",
    "pmse",
    "aggregated_utility",
    "evaluate_utility",
]


@dataclass(frozen=True)
class RegressionSpec:
    """Which regression the utility comparison is based on."""

    response: str
    predictors: tuple
    interactions: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "predictors", tuple(self.predictors))
        if not self.predictors:
            raise ValueError("the regression needs at least one predictor")
        if self.response in self.predictors:
            raise ValueError(f"response '{self.response}' cannot be a predictor")
        twice = sorted({p for p in self.predictors if self.predictors.count(p) > 1})
        if twice:
            raise ValueError(f"predictors named more than once: {twice}")
        object.__setattr__(
            self, "interactions", tuple(tuple(pair) for pair in self.interactions)
        )
        for pair in self.interactions:
            if len(pair) != 2:
                raise ValueError(
                    f"interaction {':'.join(map(str, pair))!r} must name two "
                    "predictors as a:b"
                )
            a, b = pair
            if a not in self.predictors or b not in self.predictors:
                raise ValueError(
                    f"interaction ({a},{b}) references undeclared predictors"
                )
        keys = [tuple(sorted(pair)) for pair in self.interactions]
        twice = sorted({":".join(k) for k in keys if keys.count(k) > 1})
        if twice:
            raise ValueError(f"interactions named more than once: {twice}")


@dataclass(frozen=True)
class CoefficientSummary:
    name: str
    point: float
    sd: float
    lower: float
    upper: float


@dataclass(frozen=True)
class HorseshoeConfig:
    iters: int = 10000
    burn_in: int = 5000
    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.burn_in < self.iters:
            raise ValueError("need 0 <= burn_in < iters")


def _encoded_columns(ds: MixedDataset, name: str):
    """Design columns and names for one predictor."""
    cs = ds.col_schema(name)
    vals = ds.columns[name]
    if cs.kind is Kind.CATEGORICAL:
        cols = [
            (vals == code).astype(np.float64) for code in range(1, len(cs.levels))
        ]
        names = [f"{name}={lvl}" for lvl in cs.levels[1:]]
        return cols, names
    x = vals.astype(np.float64)
    if cs.kind is not Kind.BINARY:
        sd = x.std(ddof=1) if len(x) > 1 else 0.0
        x = (x - x.mean()) / sd if sd > 0 else x - x.mean()
    return [x], [name]


def design_matrix(ds: MixedDataset, spec: RegressionSpec):
    """Intercept + main effects + declared pairwise interactions.

    Categorical predictors enter as indicator sets with the first level
    dropped; binary predictors enter raw and other numeric predictors are
    standardized.
    Returns (X, coefficient names, response vector).
    """
    for name in (spec.response,) + spec.predictors:
        if name not in ds.columns:
            raise UnknownColumnError(f"column '{name}' not in dataset")
    rs = ds.col_schema(spec.response)
    if rs.kind is Kind.CATEGORICAL:
        raise NonNumericResponseError(
            f"response '{spec.response}' must be numeric, got categorical"
        )
    y = ds.columns[spec.response].astype(np.float64)
    if np.ptp(y) == 0:
        raise DegenerateResponseError(f"response '{spec.response}' is constant")

    cols = [np.ones(ds.n)]
    names = ["(intercept)"]
    encoded = {}
    for name in spec.predictors:
        c, nm = _encoded_columns(ds, name)
        encoded[name] = (c, nm)
        cols += c
        names += nm
    for a, b in spec.interactions:
        kind = ds.col_schema(a).kind
        if a == b and kind in (Kind.CATEGORICAL, Kind.BINARY):
            raise ValueError(f"interaction {a}:{b} squares the {kind.value} predictor "
                             f"'{a}', whose 0/1 columns are their own squares")
        for ca, na in zip(*encoded[a]):
            for cb, nb in zip(*encoded[b]):
                cols.append(ca * cb)
                names.append(f"{na}:{nb}")
    return np.column_stack(cols), names, y


def _beta_draw(rng, xtx, xty, prior_prec, sigma2):
    a = xtx / sigma2 + np.diag(prior_prec)
    try:
        low = cholesky_lower(a)
    except np.linalg.LinAlgError:
        try:
            low = cholesky_lower(a + 1e-8 * np.eye(a.shape[0]))
        except np.linalg.LinAlgError:
            raise RankDeficientError(
                "design matrix rank deficient even after ridge jitter"
            ) from None
    mean = cho_solve_lower(low, xty / sigma2)
    z = rng.standard_normal(a.shape[0])
    # solving L' u = z gives a draw with covariance A^{-1}
    return mean + solve_lower_t(low, z)


def fit_bayes_lm(
    ds: MixedDataset, spec: RegressionSpec, config: HorseshoeConfig = HorseshoeConfig()
) -> list[CoefficientSummary]:
    """Gaussian linear model with horseshoe shrinkage on the slopes.

    Uses the inverse-gamma auxiliary representation of the half-Cauchy
    scales, so every conditional is conjugate.  The intercept is left
    unshrunk.  Summaries use posterior means, sds, and equal-tailed 95%
    intervals over the retained draws.
    """
    x, names, y = design_matrix(ds, spec)
    n, p = x.shape
    rng = np.random.default_rng(config.seed)
    xtx = x.T @ x
    xty = x.T @ y

    shrunk = np.arange(1, p)  # everything but the intercept
    lam2 = np.ones(p - 1)
    nu_aux = np.ones(p - 1)
    tau2 = 1.0
    xi_aux = 1.0
    sigma2 = max(float(y.var()), 1e-12)
    beta = np.zeros(p)

    kept = np.empty((config.iters - config.burn_in, p))
    for it in range(config.iters):
        prior_prec = np.empty(p)
        prior_prec[0] = 1e-6 / sigma2
        prior_prec[shrunk] = 1.0 / (lam2 * tau2 * sigma2)
        beta = _beta_draw(rng, xtx, xty, prior_prec, sigma2)

        resid = y - x @ beta
        scaled = beta[shrunk] ** 2 / (lam2 * tau2)
        rate = 0.5 * (resid @ resid + scaled.sum() + 1e-6 * beta[0] ** 2)
        sigma2 = rate / rng.gamma(0.5 * (n + p))

        lam2 = (1.0 / nu_aux + beta[shrunk] ** 2 / (2 * tau2 * sigma2)) / rng.gamma(
            1.0, size=p - 1
        )
        nu_aux = (1.0 + 1.0 / lam2) / rng.gamma(1.0, size=p - 1)
        tau2 = (1.0 / xi_aux + (beta[shrunk] ** 2 / lam2).sum() / (2 * sigma2)) / (
            rng.gamma(0.5 * p)
        )
        xi_aux = (1.0 + 1.0 / tau2) / rng.gamma(1.0)
        if it >= config.burn_in:
            kept[it - config.burn_in] = beta

    lo, hi = np.percentile(kept, [2.5, 97.5], axis=0)
    return [
        CoefficientSummary(
            names[j],
            float(kept[:, j].mean()),
            float(kept[:, j].std(ddof=1)),
            float(lo[j]),
            float(hi[j]),
        )
        for j in range(p)
    ]


def pool_synthetic(estimates: list[list[CoefficientSummary]]) -> list[CoefficientSummary]:
    """Combine per-dataset fits: q_bar, T = u_bar + b_m/m, normal intervals."""
    m = len(estimates)
    if m < 2:
        raise ValueError("pooling requires estimates from at least 2 datasets")
    names = [c.name for c in estimates[0]]
    for est in estimates[1:]:
        if [c.name for c in est] != names:
            raise MismatchedCoefficientSetsError(
                "per-dataset fits disagree on the coefficient set"
            )
    out = []
    for j, name in enumerate(names):
        points = np.array([est[j].point for est in estimates])
        within = np.array([est[j].sd ** 2 for est in estimates])
        q_bar = points.mean()
        b_m = points.var(ddof=1)
        t_var = within.mean() + b_m / m
        half = 1.96 * np.sqrt(t_var)
        out.append(
            CoefficientSummary(
                name, float(q_bar), float(np.sqrt(t_var)), float(q_bar - half),
                float(q_bar + half),
            )
        )
    return out


def cio(obs: tuple, syn: tuple) -> float:
    """95% interval overlap; negative when the intervals are disjoint."""
    l_o, u_o = obs
    l_s, u_s = syn
    if not (u_o > l_o) or not (u_s > l_s):
        raise ZeroWidthIntervalError("interval endpoints must satisfy l < u")
    over = min(u_o, u_s) - max(l_o, l_s)
    return 0.5 * (over / (u_o - l_o) + over / (u_s - l_s))


def coef_mse(obs: CoefficientSummary, syn_point: float) -> float:
    """Squared point-estimate gap in units of the confidential posterior var."""
    if obs.sd <= 0:
        raise ZeroPosteriorSDError(f"coefficient '{obs.name}' has zero posterior sd")
    return float((obs.point - syn_point) ** 2 / obs.sd**2)


def _pmse_design(conf: MixedDataset, syn: MixedDataset):
    if syn.schema != conf.schema:
        raise SchemaMismatchError("synthetic schema differs from confidential schema")
    cols = [np.ones(conf.n + syn.n)]
    for cs in conf.schema:
        both = np.concatenate([conf.columns[cs.name], syn.columns[cs.name]])
        if cs.kind is Kind.CATEGORICAL:
            for code in range(1, len(cs.levels)):
                cols.append((both == code).astype(np.float64))
        else:
            x = both.astype(np.float64)
            sd = x.std(ddof=1)
            cols.append((x - x.mean()) / sd if sd > 0 else x * 0.0)
    x = np.column_stack(cols)
    # drop constant non-intercept columns so the IRLS normal matrix stays sane
    keep = np.concatenate([[True], np.ptp(x[:, 1:], axis=0) > 0])
    return x[:, keep]


def _irls(x, s, ridge):
    beta = np.zeros(x.shape[1])
    for _ in range(60):
        eta = np.clip(x @ beta, -30, 30)
        p_hat = expit(eta)
        w = np.maximum(p_hat * (1 - p_hat), 1e-10)
        z = eta + (s - p_hat) / w
        a = (x.T * w) @ x
        if ridge:
            a = a + ridge * np.eye(x.shape[1])
        new = np.linalg.solve(a, (x.T * w) @ z)
        step = np.max(np.abs(new - beta))
        beta = new
        if step < 1e-10:
            return beta, True
    return beta, False


def pmse(conf: MixedDataset, syn: MixedDataset) -> float:
    """Propensity-score MSE of a main-effects logistic discriminator.

    0 means the discriminator cannot tell synthetic rows from confidential
    ones; 0.25 is the perfect-separation ceiling at equal pool sizes.
    """
    x = _pmse_design(conf, syn)
    s = np.concatenate([np.zeros(conf.n), np.ones(syn.n)])
    c = syn.n / (conf.n + syn.n)
    beta, converged = _irls(x, s, ridge=0.0)
    p_hat = expit(np.clip(x @ beta, -30, 30))
    if not converged or np.any(p_hat < 1e-8) or np.any(p_hat > 1 - 1e-8):
        warnings.warn(
            "separation detected in the propensity fit; refitting with a "
            "ridge penalty of 1e-4",
            SeparationWarning,
            stacklevel=2,
        )
        beta, _ = _irls(x, s, ridge=1e-4)
        p_hat = expit(np.clip(x @ beta, -30, 30))
    return float(np.mean((p_hat - c) ** 2))


def aggregated_utility(cio_bar: float, mse_bar: float, pmse_value: float) -> float:
    """U = (CIO-bar + (1 - MSE-bar) + (1 - 4 pMSE)) / 3, maximum 1."""
    for v in (cio_bar, mse_bar, pmse_value):
        if not np.isfinite(v):
            raise ValueError("aggregated utility inputs must be finite")
    return (cio_bar + (1.0 - mse_bar) + (1.0 - 4.0 * pmse_value)) / 3.0


@dataclass(frozen=True)
class CoefficientUtility:
    """One slope: its interval overlap and scaled point gap, with the
    confidential (obs) and pooled synthetic (syn) summaries they compare."""

    name: str
    cio: float
    mse: float
    obs: CoefficientSummary
    syn: CoefficientSummary


@dataclass(frozen=True)
class UtilityReport:
    """A release's utility: CIO and MSE averaged over the slopes, pMSE
    averaged over the datasets, and their combination U."""

    cio_bar: float
    mse_bar: float
    pmse: float
    U: float
    per_coefficient: list


def evaluate_utility(
    conf: MixedDataset,
    syn_list: list[MixedDataset],
    spec: RegressionSpec,
    config: HorseshoeConfig = HorseshoeConfig(),
) -> UtilityReport:
    """Full report for a release: pooled inference metrics plus mean pMSE.

    The slopes (not the intercept) enter CIO-bar and MSE-bar, matching a
    comparison of substantive regression coefficients.
    """
    if not syn_list:
        raise ValueError("the release is empty: no synthetic dataset to evaluate")
    lapack()  # imported here, not inside the first fit's timed span
    obs = fit_bayes_lm(conf, spec, config)
    fits = [fit_bayes_lm(s, spec, config) for s in syn_list]
    pooled = pool_synthetic(fits) if len(fits) > 1 else fits[0]
    # design_matrix puts the intercept first
    per = [
        CoefficientUtility(o.name, cio((o.lower, o.upper), (s.lower, s.upper)),
                           coef_mse(o, s.point), o, s)
        for o, s in zip(obs[1:], pooled[1:])
    ]
    cio_bar = float(np.mean([c.cio for c in per]))
    mse_bar = float(np.mean([c.mse for c in per]))
    pmse_bar = float(np.mean([pmse(conf, s) for s in syn_list]))
    u = aggregated_utility(cio_bar, mse_bar, pmse_bar)
    return UtilityReport(cio_bar, mse_bar, pmse_bar, u, per)
