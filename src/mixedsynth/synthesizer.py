"""Posterior-predictive synthesis from a fitted copula factor model.

Per synthetic record: draw a joint categorical assignment from the empirical
cell table, draw the categorical latent block from the matching diagonal
orthant of N(alpha_cat, C_cat,cat), draw the remaining latents from the exact
Gaussian conditional, and push them through the inverse marginal CDFs.
synthesize_datasets is the only entry point; there is no per-record API.
The orthant's sign pattern (+1 at each observed level, -1 elsewhere) comes
from the helper the factor model's fit uses (factor_model._level_signs).

Every orthant draw is exact, by minimax-tilted rejection (Botev 2017, JRSS-B).
Write the block as alpha_cat + C eps with C the Cholesky factor, d = diag(C)
and L = C / d - I (strictly lower triangular).  The orthant then bounds each
eps_k given eps_{<k} to a half-line, [-a_k/d_k - (L eps)_k, inf) at the
record's level and (-inf, -a_k/d_k - (L eps)_k] elsewhere.  The proposal
draws eps_k = mu_k + a standard normal truncated to the shifted half-line,
coordinate by coordinate, and its log weight is

    psi(eps, mu) = sum_k log P_k + mu_k^2 / 2 - mu_k eps_k,

P_k the normal mass of coordinate k's interval.  The tilting point
(x*, mu*) solves grad psi = 0 (Newton, x_d = mu_d = 0); psi is concave in
its first argument, so psi(eps, mu*) <= psi* = psi(x*, mu*) for every
proposal, and accepting when Exp(1) > psi* - psi(eps, mu*) keeps exactly
the target.

Dataset i takes one posterior draw, the first number of its own substream
(seed, "synth", i), and every record of the dataset comes from that draw,
so parameter uncertainty enters the release between datasets, as in fully
synthetic data (Raghunathan, Reiter & Rubin 2003).  The draw's tilting
points are solved once per dataset, for every cell of the cell table.
Records then go through in chunks of SYNTH_CHUNK, one vectorized batch
each, so per-record tensors stay bounded as n_out grows.  Per dataset,
OrthantStats counts the tilted proposals made and the rejection rounds run.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import log_ndtr, ndtr

from .errors import OrthantUnderflowError, SingularBlockError
from .factor_model import (
    ChainConfig,
    PosteriorDraws,
    _level_signs,
    run_chain,
)
from .marginals import (
    CategoricalProbTable,
    fit_categorical_probs,
    fit_marginal,
)
from .schema import Kind, MixedDataset, expand_layout
from .streams import substream
from .truncated import truncnorm_sample

__all__ = [
    "FittedCopula",
    "SynthesisPlan",
    "OrthantStats",
    "fit_copula_model",
    "synthesize_datasets",
]

SYNTH_CHUNK = 4096  # records per vectorized batch
_TILT_CHUNK = 256  # tilting points per batched Newton solve
_JITTER = 1e-8
_NEWTON_TOL = 1e-10  # max |grad psi| at a solved tilting point
_NEWTON_ITERS = 100
_LOG_SQRT_2PI = 0.5 * np.log(2.0 * np.pi)


@dataclass
class FittedCopula:
    """Everything synthesis needs: posterior draws plus marginal machinery."""

    draws: PosteriorDraws
    schema: tuple  # copula-role ColumnSchema, layout order
    marginals: tuple  # one per non-categorical schema column, in order
    cat_table: CategoricalProbTable | None
    n_fit: int


@dataclass(frozen=True)
class SynthesisPlan:
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

    rounds: int = 0  # rejection rounds run, summed over record chunks
    proposed: int = 0  # tilted proposals made, one per record per round


def fit_copula_model(ds: MixedDataset, config: ChainConfig) -> FittedCopula:
    """Fit the factor model on the copula-role columns and bundle marginals."""
    cop = ds.subset([c.name for c in ds.copula_columns])
    draws = run_chain(cop, config)
    margs = tuple(
        fit_marginal(cop.columns[c.name], c.kind)
        for c in cop.schema if c.kind is not Kind.CATEGORICAL
    )
    has_cat = any(c.kind is Kind.CATEGORICAL for c in cop.schema)
    table = fit_categorical_probs(cop) if has_cat else None
    return FittedCopula(draws, cop.schema, margs, table, cop.n)


def _cholesky(a: np.ndarray, block: str) -> tuple[np.ndarray, np.ndarray]:
    """Cholesky of ``a``, jittered once if needed.

    Returns the (possibly jittered) matrix actually factored plus its factor,
    so downstream solves stay consistent with the factor.
    """
    try:
        return a, np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        bumped = a + _JITTER * np.eye(a.shape[0])
        try:
            return bumped, np.linalg.cholesky(bumped)
        except np.linalg.LinAlgError:
            raise SingularBlockError(
                f"{block} correlation block singular even after jitter"
            ) from None


def _prep_draw(corr, alpha, cat_idx, rest_idx):
    """Per-posterior-draw quantities for batched synthesis."""
    c_rc = corr[np.ix_(rest_idx, cat_idx)]
    c_cc, low = _cholesky(corr[np.ix_(cat_idx, cat_idx)], "categorical")
    b = np.linalg.solve(c_cc, c_rc.T).T  # C_rc C_cc^-1
    c_star = corr[np.ix_(rest_idx, rest_idx)] - b @ c_rc.T
    _, l_star = _cholesky(0.5 * (c_star + c_star.T), "conditional")
    return low, b, l_star, alpha[cat_idx], alpha[rest_idx]


def _tilt_setup(low, a_cat):
    """Botev's standardized form of N(a_cat, low low') on an orthant:
    h = a_cat / d and L = low / d - I, d = diag(low) (rows divided)."""
    d = np.diagonal(low)
    return a_cat / d, low / d[:, None] - np.eye(low.shape[0])


def _draw_table(model: FittedCopula, d: int) -> dict:
    """Posterior draw d's synthesis quantities, plus the sign pattern and
    tilting point (mu*, psi*) of every cell of the cell table."""
    layout = expand_layout(model.schema)
    mask = layout.cat_latent_mask()
    cat_idx = np.flatnonzero(mask)
    low, b, l_star, a_cat, a_rest = _prep_draw(
        model.draws.corr[d], model.draws.alpha[d], cat_idx, np.flatnonzero(~mask)
    )
    t = {"bc": b @ low, "l": l_star, "a_rest": a_rest}  # z_cat - a_cat = low eps
    if cat_idx.size:
        widths = [c.width for c in layout.columns if c.kind is Kind.CATEGORICAL]
        h, ltri = _tilt_setup(low, a_cat)
        sign = _level_signs(model.cat_table.cells, widths)
        # rows are solved independently, so blocks only bound the Newton tensors
        solved = [_tilting_point(h, ltri, sign[s : s + _TILT_CHUNK])
                  for s in range(0, len(sign), _TILT_CHUNK)]
        t.update(h=h, ltri=ltri, sign=sign,
                 mu=np.concatenate([mu for mu, _ in solved]),
                 psi=np.concatenate([psi for _, psi in solved]))
    return t


def _tilt_terms(s, h, sign):
    """At shifts s = mu + L x, per coordinate: log P_k, the mean m_k of the
    standard normal on coordinate k's shifted interval, and d m_k / d s_k.

    Multiplying by sign maps each interval onto a lower half-line [t, inf),
    so P_k = Phi(-t) comes from log_ndtr with no infinite bound in sight.
    """
    t = -sign * (h + s)
    log_p = log_ndtr(-t)
    r = np.exp(-0.5 * t * t - _LOG_SQRT_2PI - log_p)  # phi(t) / Phi(-t)
    return log_p, sign * r, r * (t - r)


def _tilting_point(h, ltri, sign):
    """Minimax tilting point of the orthant of each row of ``sign`` under
    one draw's (h, L): returns mu* (n, d) and psi* (n,).

    Batched Newton on grad psi(x, mu) = 0 over the first d - 1 coordinates of
    x and mu, from zero.  Each row stops once its own max |grad psi| is below
    _NEWTON_TOL, so a row's result does not depend on the rows solved with
    it.  A row still unsolved after _NEWTON_ITERS steps raises.
    """
    n, d = sign.shape
    m = d - 1
    eye = np.eye(m)
    lt = ltri[:, :m]
    y = np.zeros((n, 2 * m))  # (x, mu) without their last coordinates
    mu_out = np.zeros((n, d))
    psi_out = np.empty(n)
    rows = np.arange(n)
    for _ in range(_NEWTON_ITERS):
        x = np.pad(y[rows, :m], ((0, 0), (0, 1)))
        mu = np.pad(y[rows, m:], ((0, 0), (0, 1)))
        s = mu + (ltri @ x[:, :, None])[:, :, 0]
        log_p, mean, slope = _tilt_terms(s, h, sign[rows])
        grad = np.concatenate([
            (mean[:, None, :] @ lt)[:, 0] - mu[:, :m],  # L'm - mu
            mean[:, :m] + mu[:, :m] - x[:, :m],
        ], axis=1)
        done = np.max(np.abs(grad), axis=1) < _NEWTON_TOL
        fin = rows[done]
        mu_out[fin] = mu[done]
        psi_out[fin] = np.sum(
            log_p[done] + 0.5 * mu[done] ** 2 - x[done] * mu[done], axis=1
        )
        keep = ~done
        rows = rows[keep]
        if not rows.size:
            return mu_out, psi_out
        slope = slope[keep]
        dl = slope[:, :, None] * lt  # diag(slope) L
        jac = np.empty((rows.size, 2 * m, 2 * m))
        jac[:, :m, :m] = lt.T @ dl
        jac[:, m:, :m] = dl[:, :m] - eye
        jac[:, :m, m:] = np.swapaxes(jac[:, m:, :m], 1, 2)
        jac[:, m:, m:] = eye
        jac[:, m + np.arange(m), m + np.arange(m)] += slope[:, :m]
        y[rows] -= np.linalg.solve(jac, grad[keep][:, :, None])[:, :, 0]
    raise OrthantUnderflowError(
        f"minimax tilting point unsolved for {rows.size} categorical orthants "
        f"after {_NEWTON_ITERS} Newton steps"
    )


def _tilted_proposal(rng, h, ltri, sign, mu):
    """One tilted proposal eps per row, coordinate by coordinate, and its
    log weight psi(eps, mu)."""
    n, d = sign.shape
    eps = np.empty((n, d))
    log_w = np.zeros(n)
    for k in range(d):
        s = mu[:, k] + eps[:, :k] @ ltri[k, :k]
        t = -sign[:, k] * (h[k] + s)
        eps[:, k] = mu[:, k] + sign[:, k] * truncnorm_sample(rng, 0.0, 1.0, t, np.inf)
        log_w += log_ndtr(-t) + mu[:, k] * (0.5 * mu[:, k] - eps[:, k])
    return eps, log_w


def _tilted_orthant(rng, h, ltri, sign, mu, psi, stats: OrthantStats):
    """Exact orthant draws of eps by rejection from the tilted proposal:
    each round proposes once for every pending row and accepts where
    Exp(1) > psi* - log w."""
    eps = np.empty(sign.shape)
    rows = np.arange(sign.shape[0])
    while rows.size:
        stats.rounds += 1
        stats.proposed += rows.size
        cand, log_w = _tilted_proposal(rng, h, ltri, sign[rows], mu[rows])
        hit = rng.standard_exponential(rows.size) > psi[rows] - log_w
        eps[rows[hit]] = cand[hit]
        rows = rows[~hit]
    return eps


def _synthesize_batch(model: FittedCopula, t: dict, n: int, rng,
                      stats: OrthantStats):
    """Columns (name -> array) for a batch of n records from one posterior
    draw's table ``t``."""
    if model.cat_table is not None:
        cell_idx = model.cat_table.draw(rng, n)
        assign = model.cat_table.cells[cell_idx]
        eps = _tilted_orthant(rng, t["h"], t["ltri"], t["sign"][cell_idx],
                              t["mu"][cell_idx], t["psi"][cell_idx], stats)
    else:
        assign = np.empty((n, 0), dtype=np.int64)
        eps = np.empty((n, 0))
    noise = rng.standard_normal((n, t["a_rest"].size))
    z_rest = t["a_rest"] + eps @ t["bc"].T + noise @ t["l"].T
    # latent blocks follow schema order, the marginals the non-categorical
    # columns'; MixedDataset gives each column its kind's dtype
    cat = iter(assign.T)
    rest = iter([m.inverse(u) for m, u in
                 zip(model.marginals, ndtr(z_rest).T, strict=True)])
    return {col.name: next(cat) if col.kind is Kind.CATEGORICAL else next(rest)
            for col in model.schema}


def synthesize_datasets(
    model: FittedCopula, plan: SynthesisPlan, diagnostics: list | None = None
) -> list[MixedDataset]:
    """Generate plan.m synthetic datasets of plan.n_out records each from
    ``model``.

    Dataset i is produced entirely from substream (seed, "synth", i), so the
    output bytes depend only on (model, plan) and never on scheduling.  The
    stream's first number picks the dataset's posterior draw; its records
    then go through in chunks of SYNTH_CHUNK, one after another on that
    stream.  If `diagnostics` is a list, one OrthantStats per dataset is
    appended to it.
    """
    n_out = plan.n_out or model.n_fit
    out = []
    for i in range(plan.m):
        rng = substream(plan.seed, "synth", i)
        table = _draw_table(model, int(rng.integers(model.draws.n_draws)))
        stats = OrthantStats()
        parts = [
            _synthesize_batch(model, table, min(SYNTH_CHUNK, n_out - s), rng, stats)
            for s in range(0, n_out, SYNTH_CHUNK)
        ]
        cols = {name: np.concatenate([p[name] for p in parts]) for name in parts[0]}
        out.append(MixedDataset(model.schema, cols))
        if diagnostics is not None:
            diagnostics.append(stats)
    return out
