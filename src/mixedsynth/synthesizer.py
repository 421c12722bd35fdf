"""Posterior-predictive synthesis from a fitted copula factor model.

Per synthetic record: draw a joint categorical assignment from the empirical
cell table, draw the categorical latent block from the matching diagonal
orthant of N(alpha_cat, C_cat,cat) by coordinate Gibbs, draw the remaining
latents from the exact Gaussian conditional, and push them through the
inverse marginal CDFs.  The orthant draw is the state after ORTHANT_SWEEPS
sweeps from a fixed start inside the orthant; earlier sweeps are discarded.
Records of one dataset are synthesized as one vectorized batch; posterior
draws cycle over records (round-robin) so parameter uncertainty enters every
dataset.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr

from .errors import (
    OrthantResampleWarning,
    OrthantUnderflowError,
    SingularBlockError,
)
from .factor_model import ChainConfig, Hyperparams, PosteriorDraws, run_chain
from .marginals import (
    CategoricalProbTable,
    fit_categorical_probs,
    fit_marginal,
)
from .schema import ExpandedLayout, Kind, MixedDataset, expand_layout
from .streams import substream
from .truncated import truncnorm_sample

__all__ = [
    "FittedCopula",
    "SynthesisPlan",
    "ConditionalGaussian",
    "fit_copula_model",
    "sample_truncated_block",
    "conditional_moments",
    "synthesize_record",
    "synthesize_datasets",
]

ORTHANT_SWEEPS = 100
_JITTER = 1e-8


@dataclass
class FittedCopula:
    """Everything synthesis needs: posterior draws plus marginal machinery."""

    draws: PosteriorDraws
    schema: tuple  # copula-role ColumnSchema, layout order
    layout: ExpandedLayout
    marginals: dict
    cat_table: CategoricalProbTable | None
    n_fit: int
    _cache: dict = field(default_factory=dict, repr=False)


@dataclass
class SynthesisPlan:
    model: FittedCopula
    m: int = 1
    n_out: int | None = None  # None: same size as the fitted data
    seed: int = 0
    draw_selection: str = "round_robin"

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if self.n_out is not None and self.n_out < 1:
            raise ValueError("n_out must be >= 1")
        if self.draw_selection not in ("round_robin", "random"):
            raise ValueError(f"unknown draw_selection '{self.draw_selection}'")


@dataclass
class ConditionalGaussian:
    """Moments of the non-categorical latents given the categorical block."""

    alpha_star: np.ndarray
    c_star: np.ndarray


def fit_copula_model(
    ds: MixedDataset,
    config: ChainConfig,
    hyper: Hyperparams = Hyperparams(),
) -> FittedCopula:
    """Fit the factor model on the copula-role columns and bundle marginals."""
    cop = ds.subset([c.name for c in ds.copula_columns])
    draws = run_chain(cop, config, hyper)
    layout = expand_layout(cop)
    margs = {
        c.name: fit_marginal(cop.columns[c.name], c.kind)
        for c in layout.rank_columns
    }
    table = fit_categorical_probs(cop) if layout.cat_columns else None
    return FittedCopula(draws, cop.schema, layout, margs, table, cop.n)


def _cat_chol_or_raise(c_cc: np.ndarray):
    """Cholesky of the categorical block, jittered once if needed.

    Returns the (possibly jittered) matrix actually factored plus its factor,
    so downstream solves stay consistent with the factor.
    """
    try:
        return c_cc, np.linalg.cholesky(c_cc)
    except np.linalg.LinAlgError:
        bumped = c_cc + _JITTER * np.eye(c_cc.shape[0])
        try:
            return bumped, np.linalg.cholesky(bumped)
        except np.linalg.LinAlgError:
            raise SingularBlockError(
                "categorical correlation block singular even after jitter"
            ) from None


def _prep_draw(corr, alpha, cat_idx, rest_idx):
    """Per-posterior-draw quantities for batched synthesis."""
    c_cc = corr[np.ix_(cat_idx, cat_idx)]
    c_rc = corr[np.ix_(rest_idx, cat_idx)]
    if cat_idx.size:
        c_cc, low = _cat_chol_or_raise(c_cc)
        inv_low = np.linalg.inv(low)
        prec = inv_low.T @ inv_low
        cond_sd = 1.0 / np.sqrt(np.diag(prec))
        weights = -prec / np.diag(prec)[:, None]
        np.fill_diagonal(weights, 0.0)
        b = np.linalg.solve(c_cc, c_rc.T).T  # C_rc C_cc^-1
    else:
        cond_sd = np.empty(0)
        weights = np.empty((0, 0))
        b = np.empty((rest_idx.size, 0))
    c_star = corr[np.ix_(rest_idx, rest_idx)] - b @ c_rc.T
    c_star = 0.5 * (c_star + c_star.T)
    if rest_idx.size:
        try:
            l_star = np.linalg.cholesky(c_star)
        except np.linalg.LinAlgError:
            l_star = np.linalg.cholesky(c_star + _JITTER * np.eye(rest_idx.size))
    else:
        l_star = np.empty((0, 0))
    return weights, cond_sd, b, l_star, alpha[cat_idx], alpha[rest_idx]


def _draw_tables(model: FittedCopula):
    """Stacked per-draw tensors, cached on the model."""
    if "tables" in model._cache:
        return model._cache["tables"]
    mask = model.layout.cat_latent_mask()
    cat_idx = np.flatnonzero(mask)
    rest_idx = np.flatnonzero(~mask)
    ws, sds, bs, ls, acs, ars = [], [], [], [], [], []
    for d in range(model.draws.n_draws):
        w, sd, b, l_star, ac, ar = _prep_draw(
            model.draws.corr[d], model.draws.alpha[d], cat_idx, rest_idx
        )
        ws.append(w)
        sds.append(sd)
        bs.append(b)
        ls.append(l_star)
        acs.append(ac)
        ars.append(ar)
    tables = {
        "cat_idx": cat_idx,
        "rest_idx": rest_idx,
        "w": np.asarray(ws),
        "sd": np.asarray(sds),
        "b": np.asarray(bs),
        "l": np.asarray(ls),
        "a_cat": np.asarray(acs),
        "a_rest": np.asarray(ars),
    }
    model._cache["tables"] = tables
    return tables


def conditional_moments(
    corr: np.ndarray, alpha: np.ndarray, z_cat: np.ndarray, cat_idx
) -> ConditionalGaussian:
    """Exact conditional of the non-categorical latents given z_cat.

    alpha_star = alpha_rest + C_rc C_cc^-1 (z_cat - alpha_cat); c_star is the
    Schur complement.  C_cc gets +1e-8 I if its Cholesky fails.
    """
    cat_idx = np.asarray(cat_idx, dtype=np.int64)
    p_star = corr.shape[0]
    rest_idx = np.setdiff1d(np.arange(p_star), cat_idx)
    w, sd, b, l_star, a_cat, a_rest = _prep_draw(corr, alpha, cat_idx, rest_idx)
    alpha_star = a_rest + b @ (np.asarray(z_cat, dtype=np.float64) - a_cat)
    c_star = l_star @ l_star.T if rest_idx.size else np.empty((0, 0))
    # report the exact Schur complement, not its jittered factor
    c_rc = corr[np.ix_(rest_idx, cat_idx)]
    c_exact = corr[np.ix_(rest_idx, rest_idx)] - b @ c_rc.T
    return ConditionalGaussian(alpha_star, 0.5 * (c_exact + c_exact.T))


def _orthant_box(layout: ExpandedLayout, assign: np.ndarray):
    """Sign-constraint box (lo, hi) per record over categorical latent columns."""
    widths = [c.k for c in layout.cat_columns]
    d_cat = sum(widths)
    n = assign.shape[0]
    lo = np.full((n, d_cat), -np.inf)
    hi = np.zeros((n, d_cat))
    pos = 0
    for q, k in enumerate(widths):
        rows = np.arange(n)
        lo[rows, pos + assign[:, q]] = 0.0
        hi[rows, pos + assign[:, q]] = np.inf
        pos += k
    return lo, hi


def _batched_orthant_gibbs(rng, a_cat, weights, cond_sd, lo, hi, sweeps):
    """Coordinate Gibbs across a batch of records, each with its own draw.

    Starts inside the orthant at +-0.5 and returns the state after `sweeps`
    full sweeps, visiting coordinates in ascending order.
    """
    n, d_cat = lo.shape
    z = np.where(np.isinf(hi), 0.5, -0.5)
    for _ in range(sweeps):
        centered = z - a_cat
        for j in range(d_cat):
            m = a_cat[:, j] + np.einsum("il,il->i", weights[:, j, :], centered)
            z[:, j] = truncnorm_sample(rng, m, cond_sd[:, j], lo[:, j], hi[:, j])
            centered[:, j] = z[:, j] - a_cat[:, j]
    return z


def sample_truncated_block(
    corr: np.ndarray,
    alpha: np.ndarray,
    assignment: np.ndarray,
    layout: ExpandedLayout,
    rng: np.random.Generator,
    sweeps: int = ORTHANT_SWEEPS,
) -> np.ndarray:
    """One z_cat draw honoring the orthant pattern of a single assignment."""
    mask = layout.cat_latent_mask()
    cat_idx = np.flatnonzero(mask)
    rest_idx = np.flatnonzero(~mask)
    w, sd, _, _, a_cat, _ = _prep_draw(corr, alpha, cat_idx, rest_idx)
    assign = np.atleast_2d(np.asarray(assignment, dtype=np.int64))
    lo, hi = _orthant_box(layout, assign)
    z = _batched_orthant_gibbs(
        rng, a_cat[None, :], w[None, :, :], sd[None, :], lo, hi, sweeps
    )
    if not np.all(np.isfinite(z)):
        raise OrthantUnderflowError("orthant sampler produced non-finite values")
    return z[0]


def _synthesize_batch(model: FittedCopula, draw_idx: np.ndarray, rng):
    """Columns (name -> array) for one batch of records."""
    t = _draw_tables(model)
    n = draw_idx.size
    d_cat = t["cat_idx"].size
    layout = model.layout
    if d_cat:
        # records whose draw underflowed get a fresh assignment and a redraw
        assign = np.empty((n, len(layout.cat_columns)), dtype=np.int64)
        z_cat = np.empty((n, d_cat))
        rows = np.arange(n)
        for tries in range(21):  # one draw plus up to 20 resamples
            if tries:
                warnings.warn(
                    f"resampling {rows.size} categorical assignments after "
                    "orthant underflow",
                    OrthantResampleWarning,
                    stacklevel=3,
                )
            assign[rows] = model.cat_table.draw(rng, rows.size)
            lo, hi = _orthant_box(layout, assign[rows])
            di = draw_idx[rows]
            z_cat[rows] = _batched_orthant_gibbs(
                rng, t["a_cat"][di], t["w"][di], t["sd"][di], lo, hi, ORTHANT_SWEEPS
            )
            rows = np.flatnonzero(~np.all(np.isfinite(z_cat), axis=1))
            if not rows.size:
                break
        else:
            raise OrthantUnderflowError(
                f"{rows.size} records kept underflowing their orthant"
            )
    else:
        assign = np.empty((n, 0), dtype=np.int64)
        z_cat = np.empty((n, 0))
    r = t["rest_idx"].size
    if r:
        eps = rng.standard_normal((n, r))
        mu = t["a_rest"][draw_idx] + np.einsum(
            "irc,ic->ir", t["b"][draw_idx], z_cat - t["a_cat"][draw_idx]
        )
        z_rest = mu + np.einsum("irs,is->ir", t["l"][draw_idx], eps)
    else:
        z_rest = np.empty((n, 0))
    cols: dict[str, np.ndarray] = {}
    qi = 0
    ri = 0
    for col in layout.columns:
        if col.kind is Kind.CATEGORICAL:
            cols[col.name] = assign[:, qi].astype(np.int64)
            qi += 1
        else:
            u = ndtr(z_rest[:, ri])
            vals = model.marginals[col.name].inverse(u)
            if col.kind is Kind.CONTINUOUS:
                cols[col.name] = np.asarray(vals, dtype=np.float64)
            else:
                cols[col.name] = np.asarray(vals, dtype=np.int64)
            ri += 1
    return cols


def synthesize_record(
    model: FittedCopula, rng: np.random.Generator, draw_index: int = 0
) -> MixedDataset:
    """One synthetic record from one posterior draw (mainly for tests/demos)."""
    cols = _synthesize_batch(model, np.asarray([draw_index]), rng)
    return MixedDataset(model.schema, cols)


def _select_draws(plan: SynthesisPlan, n: int, rng) -> np.ndarray:
    n_draws = plan.model.draws.n_draws
    if plan.draw_selection == "round_robin":
        return np.arange(n) % n_draws
    return rng.integers(0, n_draws, size=n)


def synthesize_datasets(plan: SynthesisPlan) -> list[MixedDataset]:
    """Generate plan.m synthetic datasets of plan.n_out records each.

    Dataset i is produced entirely from substream (seed, "synth", i), so the
    output bytes depend only on (plan, seed) and never on scheduling.
    """
    n_out = plan.n_out or plan.model.n_fit
    out = []
    for i in range(plan.m):
        rng = substream(plan.seed, "synth", i)
        draw_idx = _select_draws(plan, n_out, rng)
        cols = _synthesize_batch(plan.model, draw_idx, rng)
        out.append(MixedDataset(plan.model.schema, cols))
    return out
