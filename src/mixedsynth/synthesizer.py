"""Posterior-predictive synthesis from a fitted copula factor model.

Per synthetic record: draw a joint categorical assignment from the empirical
cell table, draw the categorical latent block from the matching diagonal
orthant of N(alpha_cat, C_cat,cat), draw the remaining latents from the exact
Gaussian conditional, and push them through the inverse marginal CDFs.
synthesize_datasets is the only entry point; there is no per-record API.
The orthant's sign pattern (+1 at each observed level, -1 elsewhere), its
truncation bounds and the Gibbs start 0.5 * sign come from the same helpers
the factor model's fit uses (factor_model._level_signs, _sign_bounds).

The orthant draw is rejection first: each round proposes alpha_cat + L eps
(L the Cholesky factor of C_cat,cat) for every record still pending and keeps
the proposals that land in the record's orthant, so every accepted draw is
exact.  Records still pending after ORTHANT_ROUNDS rounds, or once the rounds
have accepted too few records to beat Gibbs on cost, fall back to coordinate
Gibbs: the state after ORTHANT_SWEEPS sweeps from a fixed start inside the
orthant.  The fallback draw does not depend on the rejected proposals, so
each record targets the same distribution either way.

Records of one dataset go through in chunks of SYNTH_CHUNK, one vectorized
batch each, so per-record tensors stay bounded as n_out grows; posterior
draws cycle over records (round-robin) so parameter uncertainty enters every
dataset.  Per dataset, OrthantStats counts the records accepted by rejection,
the records that fell back and the rounds run.
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
from .factor_model import (
    ChainConfig,
    Hyperparams,
    PosteriorDraws,
    _level_signs,
    _sign_bounds,
    run_chain,
)
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
    "OrthantStats",
    "fit_copula_model",
    "synthesize_datasets",
]

ORTHANT_SWEEPS = 100
ORTHANT_ROUNDS = 200  # rejection rounds before a record falls back to Gibbs
SYNTH_CHUNK = 4096  # records per vectorized batch
# one Gibbs fallback costs about as much as this many rejection proposals
# (measured 375-380 at d_cat 5 and 14, 1000 records)
_GIBBS_COST = 4 * ORTHANT_SWEEPS
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

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if self.n_out is not None and self.n_out < 1:
            raise ValueError("n_out must be >= 1")


@dataclass
class OrthantStats:
    """How one dataset's categorical latent blocks were drawn."""

    accepted: int = 0  # records drawn exactly by rejection
    fallback: int = 0  # records handed to coordinate Gibbs
    rounds: int = 0  # rejection rounds run, summed over record chunks


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
        low = np.empty((0, 0))
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
    return weights, cond_sd, low, b, l_star, alpha[cat_idx], alpha[rest_idx]


def _draw_tables(model: FittedCopula):
    """Stacked per-draw tensors, cached on the model."""
    if "tables" in model._cache:
        return model._cache["tables"]
    mask = model.layout.cat_latent_mask()
    cat_idx = np.flatnonzero(mask)
    rest_idx = np.flatnonzero(~mask)
    ws, sds, cs, bs, ls, acs, ars = [], [], [], [], [], [], []
    for d in range(model.draws.n_draws):
        w, sd, low, b, l_star, ac, ar = _prep_draw(
            model.draws.corr[d], model.draws.alpha[d], cat_idx, rest_idx
        )
        ws.append(w)
        sds.append(sd)
        cs.append(low)
        bs.append(b)
        ls.append(l_star)
        acs.append(ac)
        ars.append(ar)
    tables = {
        "cat_idx": cat_idx,
        "rest_idx": rest_idx,
        "w": np.asarray(ws),
        "sd": np.asarray(sds),
        "chol": np.asarray(cs),
        "b": np.asarray(bs),
        "l": np.asarray(ls),
        "a_cat": np.asarray(acs),
        "a_rest": np.asarray(ars),
    }
    model._cache["tables"] = tables
    return tables


def _orthant_rejection(rng, a_cat, chol, sign, rounds):
    """Exact orthant draws by plain rejection from N(a_cat, chol chol').

    Each round proposes once for every pending record and accepts the
    proposals with sign(z) == sign; a record's first accepted proposal is an
    exact draw.  Rounds stop after `rounds`, or as soon as fewer than one
    record has been accepted per _GIBBS_COST proposals so far, when finishing
    the pending records by rejection would cost more than Gibbs.  The rule
    reads only hit counts, so accepted draws stay exact.  Returns the draws,
    the records still pending (their rows of z are unset) and the rounds run.
    """
    n, d_cat = a_cat.shape
    z = np.empty((n, d_cat))
    rows = np.arange(n)
    used = proposed = 0
    while rows.size and used < rounds:
        if proposed >= _GIBBS_COST and (n - rows.size) * _GIBBS_COST < proposed:
            break
        used += 1
        proposed += rows.size
        eps = rng.standard_normal((rows.size, d_cat))
        cand = a_cat + np.einsum("ijk,ik->ij", chol, eps)
        hit = np.all(cand * sign > 0, axis=1)
        z[rows[hit]] = cand[hit]
        miss = ~hit
        rows, a_cat, chol, sign = rows[miss], a_cat[miss], chol[miss], sign[miss]
    return z, rows, used


def _batched_orthant_gibbs(rng, a_cat, weights, cond_sd, sign, sweeps):
    """Coordinate Gibbs across a batch of records, each with its own draw.

    Starts inside the orthant at 0.5 * sign and returns the state after
    `sweeps` full sweeps, visiting coordinates in ascending order.
    """
    lo, hi = _sign_bounds(sign)
    z = 0.5 * sign
    d_cat = sign.shape[1]
    for _ in range(sweeps):
        centered = z - a_cat
        for j in range(d_cat):
            m = a_cat[:, j] + np.einsum("il,il->i", weights[:, j, :], centered)
            z[:, j] = truncnorm_sample(rng, m, cond_sd[:, j], lo[:, j], hi[:, j])
            centered[:, j] = z[:, j] - a_cat[:, j]
    return z


def _synthesize_batch(
    model: FittedCopula, draw_idx: np.ndarray, rng, stats: OrthantStats
):
    """Columns (name -> array) for one batch of records."""
    t = _draw_tables(model)
    n = draw_idx.size
    d_cat = t["cat_idx"].size
    layout = model.layout
    a_cat = t["a_cat"][draw_idx]
    if d_cat:
        widths = [c.k for c in layout.cat_columns]
        assign = model.cat_table.draw(rng, n)
        sign = _level_signs(assign, widths)
        z_cat, rows, used = _orthant_rejection(
            rng, a_cat, t["chol"][draw_idx], sign, ORTHANT_ROUNDS
        )
        stats.accepted += n - rows.size
        stats.fallback += rows.size
        stats.rounds += used
        # records rejection missed go to Gibbs; one whose Gibbs draw
        # underflowed gets a fresh assignment and a redraw
        for tries in range(21):  # one draw plus up to 20 resamples
            if not rows.size:
                break
            if tries:
                warnings.warn(
                    f"resampling {rows.size} categorical assignments after "
                    "orthant underflow",
                    OrthantResampleWarning,
                    stacklevel=3,
                )
                assign[rows] = model.cat_table.draw(rng, rows.size)
                sign[rows] = _level_signs(assign[rows], widths)
            di = draw_idx[rows]
            z_cat[rows] = _batched_orthant_gibbs(
                rng, a_cat[rows], t["w"][di], t["sd"][di], sign[rows],
                ORTHANT_SWEEPS,
            )
            rows = rows[~np.all(np.isfinite(z_cat[rows]), axis=1)]
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
            "irc,ic->ir", t["b"][draw_idx], z_cat - a_cat
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


def synthesize_datasets(
    plan: SynthesisPlan, diagnostics: list | None = None
) -> list[MixedDataset]:
    """Generate plan.m synthetic datasets of plan.n_out records each.

    Dataset i is produced entirely from substream (seed, "synth", i), so the
    output bytes depend only on (plan, seed) and never on scheduling.  Its
    records go through in chunks of SYNTH_CHUNK, one after another on that
    stream.  If `diagnostics` is a list, one OrthantStats per dataset is
    appended to it.
    """
    n_out = plan.n_out or plan.model.n_fit
    out = []
    for i in range(plan.m):
        rng = substream(plan.seed, "synth", i)
        draw_idx = np.arange(n_out) % plan.model.draws.n_draws
        stats = OrthantStats()
        parts = [
            _synthesize_batch(plan.model, draw_idx[s : s + SYNTH_CHUNK], rng, stats)
            for s in range(0, n_out, SYNTH_CHUNK)
        ]
        cols = {name: np.concatenate([p[name] for p in parts]) for name in parts[0]}
        out.append(MixedDataset(plan.model.schema, cols))
        if diagnostics is not None:
            diagnostics.append(stats)
    return out
