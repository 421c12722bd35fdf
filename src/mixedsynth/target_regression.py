"""Targeted synthesis of numeric response columns via a latent-scale
sum-of-trees regression.

The response enters through its ranks only: a latent normal-scores vector
z is constrained to the observed ordering while a tree ensemble models
z = f(covariates) + eps.  The fit alternates (1) group-blocked truncated
normal refreshes of z around the current fitted values and (2) standard
backfitting updates of the ensemble.  Synthesis pushes N(f_hat(x), sigma_hat^2)
draws on already-synthesized covariates through the response's inverse CDF.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .bart import BartConfig, BartSampler, CovariateMatrix, ensemble_predict
from .errors import (
    DegenerateResponseError,
    NonNumericResponseError,
    SchemaMismatchError,
)
from .factor_model import RankGroups, update_rank_column
from .marginals import fit_marginal, marginal_from_dict, marginal_to_dict
from .schema import Kind, MixedDataset
from .streams import substream

__all__ = [
    "TargetConfig",
    "TargetModelSummary",
    "fit_target_model",
    "synthesize_response",
]


@dataclass(frozen=True)
class TargetConfig:
    iters: int = 1100
    burn_in: int = 100
    trees: int = 200
    keep_every: int = 10
    seed: int = 0
    fix_sigma2: float | None = None

    def __post_init__(self):
        if not 0 <= self.burn_in < self.iters:
            raise ValueError("need 0 <= burn_in < iters")
        if self.keep_every < 1:
            raise ValueError("keep_every must be >= 1")


@dataclass
class TargetModelSummary:
    """Posterior-mean predictor: kept tree ensembles plus mean sigma^2."""

    response: str
    kind: str  # response column kind (count/ordinal/continuous)
    covariate_sig: tuple  # (name, kind value, levels) per covariate, in order
    ensembles: list
    sigma2: float
    marginal_doc: dict

    def to_doc(self) -> dict:
        return {
            "response": self.response,
            "kind": self.kind,
            "covariates": [list(c) for c in self.covariate_sig],
            "ensembles": self.ensembles,
            "sigma2": self.sigma2,
            "marginal": self.marginal_doc,
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "TargetModelSummary":
        sig = tuple(
            (c[0], c[1], tuple(c[2]) if c[2] is not None else None)
            for c in doc["covariates"]
        )
        return cls(
            doc["response"], doc["kind"], sig, doc["ensembles"],
            float(doc["sigma2"]), doc["marginal"],
        )


def _covariate_signature(ds: MixedDataset, response: str) -> tuple:
    sig = []
    for cs in ds.schema:
        if cs.name == response or cs.role == "response":
            continue
        sig.append((cs.name, cs.kind.value, cs.levels))
    return tuple(sig)


def _covariate_columns(ds: MixedDataset, sig: tuple):
    cols, is_cat = [], []
    for name, kind, _levels in sig:
        vals = ds.columns[name]
        if kind == Kind.CATEGORICAL.value:
            cols.append(vals.astype(np.int64))
            is_cat.append(True)
        else:
            cols.append(vals.astype(np.float64))
            is_cat.append(False)
    return cols, is_cat


def fit_target_model(
    ds: MixedDataset,
    response: str,
    config: TargetConfig = TargetConfig(),
    iteration_hook=None,
) -> TargetModelSummary:
    """Two-block sampler: latent rank refresh, then tree-ensemble backfitting.

    `iteration_hook(it, z)` is called after every iteration when supplied
    (used by invariant checks); it must not mutate z.
    """
    rs = ds.col_schema(response)
    if rs.kind is Kind.CATEGORICAL:
        raise NonNumericResponseError(
            f"target response '{response}' must be numeric, got categorical"
        )
    y = ds.columns[response]
    if np.ptp(y) == 0:
        raise DegenerateResponseError(f"target response '{response}' is constant")

    sig = _covariate_signature(ds, response)
    cols, is_cat = _covariate_columns(ds, sig)
    xmat = CovariateMatrix(cols, is_cat)
    rng = substream(config.seed, "target", response)

    groups = RankGroups.from_values(y)
    # normal scores of mid-ranks: feasible and close to the stationary scale
    z = groups.normal_scores()

    bart_cfg = BartConfig(trees=config.trees, fix_sigma2=config.fix_sigma2)
    sampler = BartSampler(xmat, z, bart_cfg, rng)

    ensembles = []
    sigmas = []
    for it in range(config.iters):
        update_rank_column(rng, z, sampler.fit_total, np.sqrt(sampler.sigma2), groups)
        sampler.set_response(z)
        sampler.sweep()
        if it >= config.burn_in and (it - config.burn_in) % config.keep_every == 0:
            ensembles.append(sampler.snapshot())
            sigmas.append(sampler.sigma2)
        if iteration_hook is not None:
            iteration_hook(it, z)

    marg = fit_marginal(y, rs.kind)
    return TargetModelSummary(
        response,
        rs.kind.value,
        sig,
        ensembles,
        float(np.mean(sigmas)),
        marginal_to_dict(marg),
    )


def synthesize_response(
    summary: TargetModelSummary, records: MixedDataset, rng: np.random.Generator
) -> np.ndarray:
    """Response values for already-synthesized covariate records."""
    present = {cs.name: cs for cs in records.schema}
    for name, kind, levels in summary.covariate_sig:
        cs = present.get(name)
        if cs is None or cs.kind.value != kind or cs.levels != levels:
            raise SchemaMismatchError(
                f"covariate '{name}' missing or mismatched in synthetic records"
            )
    cols, _ = _covariate_columns(records, summary.covariate_sig)
    f_hat = ensemble_predict(summary.ensembles, cols)
    z = f_hat + np.sqrt(summary.sigma2) * rng.standard_normal(records.n)
    vals = marginal_from_dict(summary.marginal_doc).inverse(ndtr(z))
    dtype = np.float64 if summary.kind == Kind.CONTINUOUS.value else np.int64
    return np.asarray(vals, dtype=dtype)
