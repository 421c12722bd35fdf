"""Targeted synthesis of numeric response columns via a latent-scale
sum-of-trees regression.

The response enters through its ranks only: a latent normal-scores vector
z is constrained to the observed ordering while a tree ensemble models
z = f(covariates) + eps.  The fit alternates (1) group-blocked truncated
normal refreshes of z around the current fitted values and (2) standard
backfitting updates of the ensemble.  Each kept ensemble is one posterior
draw (f, sigma^2).  Synthesis gives a record set one kept draw and pushes
N(f(x), sigma^2) draws on its already-synthesized covariates through the
response's inverse CDF.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .bart import (
    MOVES,
    BartSampler,
    CovariateMatrix,
    Forest,
    ensemble_predict,
    forest_shapes,
)
from .errors import (
    DegenerateResponseError,
    NonNumericResponseError,
    SchemaMismatchError,
)
from .factor_model import RankGroups, update_rank_column
from .marginals import fit_marginal
from .schema import ColumnSchema, Kind, MixedDataset
from .streams import substream

__all__ = [
    "TargetConfig",
    "TargetModelSummary",
    "fit_target_model",
    "synthesize_response",
]

log = logging.getLogger(__name__)

# after burn-in the chain keeps one ensemble every KEEP_EVERY iterations
KEEP_EVERY = 10


@dataclass(frozen=True)
class TargetConfig:
    iters: int = 1100
    burn_in: int = 100
    trees: int = 200
    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.burn_in < self.iters:
            raise ValueError(
                f"need 0 <= burn_in < iters, got burn_in={self.burn_in}, iters={self.iters}"
            )
        if self.trees < 0:
            raise ValueError(f"trees must be >= 0, got {self.trees}")


@dataclass
class TargetModelSummary:
    """The kept posterior draws: every kept ensemble's trees in one forest,
    in kept order, each kept ensemble's sigma^2 in the same order, and the
    response's marginal.  ``covariates`` are the fitted data's non-response
    columns, in order."""

    response: ColumnSchema
    covariates: tuple[ColumnSchema, ...]
    forest: Forest
    sigma2: np.ndarray  # (kept,)
    marginal: object


def _covariate_columns(ds: MixedDataset, covariates) -> list:
    """Level codes of categorical covariates as int64, the others as float64."""
    return [
        ds.columns[cs.name].astype(
            np.int64 if cs.kind is Kind.CATEGORICAL else np.float64)
        for cs in covariates
    ]


def fit_target_model(
    ds: MixedDataset,
    response: str,
    config: TargetConfig = TargetConfig(),
) -> TargetModelSummary:
    """Two-block sampler: latent rank refresh, then tree-ensemble backfitting."""
    rs = ds.col_schema(response)
    if rs.kind is Kind.CATEGORICAL:
        raise NonNumericResponseError(
            f"target response '{response}' must be numeric, got categorical"
        )
    y = ds.columns[response]
    if np.ptp(y) == 0:
        raise DegenerateResponseError(f"target response '{response}' is constant")

    covariates = tuple(
        cs for cs in ds.schema if cs.role != "response" and cs.name != response
    )
    if not covariates:
        raise ValueError(f"target response '{response}' has no covariate column")
    xmat = CovariateMatrix(_covariate_columns(ds, covariates),
                           [cs.kind is Kind.CATEGORICAL for cs in covariates])
    rng = substream(config.seed, "target", response)

    groups = RankGroups.from_values(y)
    # normal scores of mid-ranks: feasible and close to the stationary scale
    z = groups.normal_scores()

    # the sampler reads z as its response, and update_rank_column refreshes
    # z in place, so each sweep sees the latest latent values
    sampler = BartSampler(xmat, z, config.trees, rng)

    ensembles = []
    sigmas = []
    for it in range(config.iters):
        update_rank_column(rng, z, sampler.fit_total, np.sqrt(sampler.sigma2), groups)
        sampler.sweep()
        if it >= config.burn_in and (it - config.burn_in) % KEEP_EVERY == 0:
            ensembles.append(sampler.snapshot())
            sigmas.append(sampler.sigma2)
    _log_diagnostics(response, sampler, ensembles[-1])

    return TargetModelSummary(
        rs,
        covariates,
        Forest.join(ensembles),
        np.array(sigmas),
        fit_marginal(y, rs.kind),
    )


def _log_diagnostics(response: str, sampler: BartSampler, last: Forest) -> None:
    """Move acceptance by type over the whole chain, and the shape of the
    last kept ensemble."""
    rates = ", ".join(
        f"{name} {a / p if p else 0.0:.3f} ({a}/{p})"
        for name, a, p in zip(MOVES, sampler.accepted, sampler.proposed)
    )
    depth, leaves = np.mean(forest_shapes(last) or [(0, 0)], axis=0)
    log.info("response '%s': BART acceptance %s; last kept ensemble: mean depth "
             "%.3f, mean leaves %.3f", response, rates, depth, leaves)


def synthesize_response(
    summary: TargetModelSummary, records: MixedDataset, rng
) -> np.ndarray:
    """Response values for one set of already-synthesized covariate records.

    ``rng`` draws first the kept ensemble the set uses, then its noise with
    that ensemble's sigma^2.
    """
    present = {cs.name: cs for cs in records.schema}
    for want in summary.covariates:
        cs = present.get(want.name)
        if cs is None or (cs.kind, cs.levels) != (want.kind, want.levels):
            raise SchemaMismatchError(
                f"covariate '{want.name}' missing or mismatched in synthetic records"
            )
    size = summary.forest.size.size // summary.sigma2.size  # trees per ensemble
    k = int(rng.integers(summary.sigma2.size))
    f = ensemble_predict(summary.forest,
                         _covariate_columns(records, summary.covariates),
                         slice(k * size, (k + 1) * size))
    z = f + np.sqrt(summary.sigma2[k]) * rng.standard_normal(records.n)
    dtype = np.float64 if summary.response.kind is Kind.CONTINUOUS else np.int64
    return np.asarray(summary.marginal.inverse(ndtr(z)), dtype=dtype)
