"""Gibbs sampler for a Gaussian copula factor model of mixed data.

Latent rows follow z_i = alpha + Lambda eta_i + eps_i with eps_i ~
N(0, diag(sigma2)).  Numeric columns constrain their latent column to
respect the observed ranks (cells with strictly smaller observed values keep
strictly smaller latents); each categorical column owns a block of k latent
columns constrained to its diagonal orthant: positive exactly at the observed
level, negative elsewhere.  Intercepts are free only on categorical block
columns; rank columns carry no location information.

The orthant constraint enters with no normalizing constant over the union
of the single-activation orthants, so the categorical block is a
multivariate probit on the one-hot indicators.  In every latent matrix the
share of positive cells in column h is the frequency of level h, and the
fitted activation mass P(z_h > 0) = Phi(alpha_h) (correlation scale)
tracks that frequency.  The single-activation masses P(z_h > 0, z_{-h} < 0)
sum to less than one, since the fitted Gaussian also covers "no level
positive" and "two or more positive"; they are not level probabilities,
and neither are their renormalized values.

Loadings get the multiplicative-gamma shrinkage prior: lambda_{jh} ~
N(0, 1/(phi_{jh} tau_h)), phi_{jh} ~ Ga(nu/2, nu/2), tau_h = prod_{l<=h}
delta_l with delta_1 ~ Ga(a1, 1), delta_h ~ Ga(a2, 1).

A full sweep updates, in order: loadings, idiosyncratic variances, factors,
local shrinkage, global shrinkage, intercepts, latent matrix.  The latent
update is column-major; within a rank column, cells are updated in ascending
observed-value groups (cells sharing an observed value are conditionally
independent, so each group is one exact Gibbs block).
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from ._lapack import cho_solve_lower, cholesky_lower, solve_lower_t
from .errors import NumericalOverflowError
from .schema import ExpandedLayout, Kind, MixedDataset, expand_layout
from .truncated import truncnorm_sample

__all__ = [
    "ChainConfig",
    "FactorModelPlan",
    "FactorState",
    "PosteriorDraws",
    "default_n_factors",
    "RankGroups",
    "init_state",
    "gibbs_sweep",
    "update_rank_column",
    "run_chain",
]

logger = logging.getLogger(__name__)

MAX_FACTORS = 15

# fixed priors: the module docstring's nu, a1, a2; sigma_j^2 ~ IG(A_SIGMA, B_SIGMA)
A_SIGMA = 1.0
B_SIGMA = 1.0
NU = 3.0
A1 = 2.0
A2 = 3.0


@dataclass(frozen=True)
class ChainConfig:
    iters: int = 15000
    burn_in: int = 9000
    thin: int = 10
    n_factors: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.burn_in < 0:
            raise ValueError("burn_in must be >= 0")
        if self.burn_in >= self.iters:
            raise ValueError("burn_in must be smaller than iters")
        if self.thin < 1:
            raise ValueError("thin must be >= 1")
        if self.n_factors is not None and self.n_factors < 1:
            raise ValueError("n_factors must be >= 1")


def default_n_factors(p_star: int) -> int:
    return min(MAX_FACTORS, math.ceil(p_star / 2))


@dataclass(frozen=True)
class RankGroups:
    """Cells of one numeric column grouped by observed value, ascending.

    Cells sharing a value form one group; only distinct values are ordered,
    so a latent column is feasible iff every group's latents lie strictly
    between those of the groups below and above it.
    """

    order: np.ndarray  # cell indices sorted by observed value (stable)
    starts: np.ndarray  # group start offsets into order
    gid: np.ndarray  # group index of each cell
    # per group parity (even, odd): ascending cell indices and their group ids
    sides: tuple

    @classmethod
    def from_values(cls, values: np.ndarray) -> "RankGroups":
        order = np.argsort(values, kind="stable")
        sv = values[order]
        if order.size:
            starts = np.flatnonzero(np.concatenate(([True], sv[1:] != sv[:-1])))
        else:
            starts = np.empty(0, dtype=np.int64)
        sizes = np.diff(np.append(starts, order.size))
        gid = np.empty(order.size, dtype=np.int64)
        gid[order] = np.repeat(np.arange(starts.size), sizes)
        cells = [np.flatnonzero((gid & 1) == side) for side in (0, 1)]
        return cls(order, starts, gid, tuple((c, gid[c]) for c in cells))

    def bounds(self, z_col: np.ndarray):
        """Per-group truncation interval (lo, hi) given current latents.

        lo is the largest latent of the group below, hi the smallest of the
        group above; infinities at the ends.  In a feasible state these equal
        the extremes over all strictly smaller and strictly larger values.
        """
        zo = z_col[self.order]
        gmax = np.maximum.reduceat(zo, self.starts)
        gmin = np.minimum.reduceat(zo, self.starts)
        return (
            np.concatenate(([-np.inf], gmax[:-1])),
            np.concatenate((gmin[1:], [np.inf])),
        )

    def normal_scores(self) -> np.ndarray:
        """Normal scores of rescaled mid-ranks; ties share a value."""
        n = self.order.size
        ends = np.append(self.starts[1:], n)
        mid = 0.5 * (self.starts + 1 + ends)  # average of ranks s+1..e
        return ndtri(mid[self.gid] / (n + 1.0))


@dataclass
class _RankCol:
    latent: int
    groups: RankGroups


def _level_signs(codes: np.ndarray, widths) -> np.ndarray:
    """Diagonal-orthant pattern of (n, q) level codes over q consecutive
    categorical blocks of the given widths: +1 at each observed level's
    latent column, -1 at the other levels; shape (n, sum(widths))."""
    n = codes.shape[0]
    sign = np.full((n, sum(widths)), -1.0)
    sign[np.arange(n)[:, None], np.cumsum([0, *widths[:-1]]) + codes] = 1.0
    return sign


def _sign_bounds(sign: np.ndarray):
    """Truncation interval (lo, hi) of each cell: (0, inf) where sign is +1,
    (-inf, 0) where it is -1."""
    pos = sign > 0
    return np.where(pos, 0.0, -np.inf), np.where(pos, np.inf, 0.0)


@dataclass
class _CatCol:
    offset: int
    k: int
    codes: np.ndarray
    lo: np.ndarray  # (k, n) _sign_bounds of the block's _level_signs
    hi: np.ndarray

    @classmethod
    def from_codes(cls, offset: int, k: int, codes: np.ndarray) -> "_CatCol":
        sign = _level_signs(codes[:, None], (k,)).T.copy()  # rows contiguous
        return cls(offset, k, codes, *_sign_bounds(sign))


@dataclass
class FactorModelPlan:
    """Preprocessed constraint structure for one dataset."""

    layout: ExpandedLayout
    n: int
    rank_cols: list
    cat_cols: list
    alpha_mask: np.ndarray

    @classmethod
    def from_dataset(cls, ds: MixedDataset) -> "FactorModelPlan":
        layout = expand_layout(ds)
        rank_cols, cat_cols = [], []
        for col, off in zip(layout.columns, layout.offsets):
            vals = ds.columns[col.name]
            if col.kind is Kind.CATEGORICAL:
                cat_cols.append(_CatCol.from_codes(off, col.width, vals))
            else:
                rank_cols.append(_RankCol(off, RankGroups.from_values(vals)))
        return cls(layout, ds.n, rank_cols, cat_cols, layout.cat_latent_mask())


@dataclass
class FactorState:
    z: np.ndarray  # (n, p_star)
    lam: np.ndarray  # (p_star, k)
    eta: np.ndarray  # (n, k)
    sigma2: np.ndarray  # (p_star,)
    phi: np.ndarray  # (p_star, k)
    delta: np.ndarray  # (k,)
    alpha: np.ndarray  # (p_star,)
    rng: np.random.Generator

    @property
    def tau(self) -> np.ndarray:
        return np.cumprod(self.delta)


@dataclass
class PosteriorDraws:
    """Retained draws on the correlation scale: C and rescaled intercepts."""

    corr: np.ndarray  # (n_draws, p_star, p_star)
    alpha: np.ndarray  # (n_draws, p_star)
    n_factors: int

    @property
    def n_draws(self) -> int:
        return self.corr.shape[0]


def init_state(
    plan: FactorModelPlan,
    n_factors: int,
    rng: np.random.Generator,
) -> FactorState:
    """Draw parameters from their priors; start latents at a feasible point.

    Rank columns start at normal scores of rescaled mid-ranks (ties share a
    value, which is feasible because only strictly distinct observations are
    ordered); categorical blocks start at 0.5 times their orthant sign.
    """
    n, p_star, k = plan.n, plan.layout.p_star, n_factors
    z = np.zeros((n, p_star))
    for rc in plan.rank_cols:
        z[:, rc.latent] = rc.groups.normal_scores()
    for cc in plan.cat_cols:
        z[:, cc.offset : cc.offset + cc.k] = 0.5 * _level_signs(
            cc.codes[:, None], (cc.k,)
        )
    delta = np.empty(k)
    delta[0] = rng.gamma(A1, 1.0)
    if k > 1:
        delta[1:] = rng.gamma(A2, 1.0, size=k - 1)
    tau = np.cumprod(delta)
    phi = rng.gamma(NU / 2.0, 2.0 / NU, size=(p_star, k))
    lam = rng.standard_normal((p_star, k)) / np.sqrt(phi * tau)
    sigma2 = 1.0 / rng.gamma(A_SIGMA, 1.0 / B_SIGMA, size=p_star)
    eta = rng.standard_normal((n, k))
    alpha = np.where(plan.alpha_mask, rng.standard_normal(p_star), 0.0)
    return FactorState(z, lam, eta, sigma2, phi, delta, alpha, rng)


def update_loadings(state: FactorState) -> None:
    """lambda_j | - ~ N_k per row with MGP prior precision."""
    k = state.lam.shape[1]
    tau = state.tau
    ete = state.eta.T @ state.eta
    resid = state.z - state.alpha
    etr = state.eta.T @ resid  # (k, p_star)
    for j in range(state.lam.shape[0]):
        prec = np.diag(state.phi[j] * tau) + ete / state.sigma2[j]
        low = cholesky_lower(prec)
        mean = cho_solve_lower(low, etr[:, j] / state.sigma2[j])
        state.lam[j] = mean + solve_lower_t(low, state.rng.standard_normal(k))


def update_idio_var(state: FactorState) -> None:
    n = state.z.shape[0]
    resid = state.z - state.alpha - state.eta @ state.lam.T
    ss = np.einsum("ij,ij->j", resid, resid)
    shape = A_SIGMA + 0.5 * n
    state.sigma2 = 1.0 / state.rng.gamma(shape, 1.0 / (B_SIGMA + 0.5 * ss))


def update_factors(state: FactorState) -> None:
    """eta_i | - ~ N_k((I + L'S^-1 L)^-1 L'S^-1 (z_i - alpha), (I + L'S^-1 L)^-1)."""
    k = state.lam.shape[1]
    m = state.lam / state.sigma2[:, None]  # Sigma^-1 Lambda
    prec = np.eye(k) + state.lam.T @ m
    cov = cho_solve_lower(cholesky_lower(prec), np.eye(k))
    cov = 0.5 * (cov + cov.T)
    means = (state.z - state.alpha) @ m @ cov.T
    root = cholesky_lower(cov)
    state.eta = means + state.rng.standard_normal(state.eta.shape) @ root.T


def update_local_shrink(state: FactorState) -> None:
    rate = 0.5 * (NU + state.tau * state.lam**2)
    state.phi = state.rng.gamma(0.5 * (NU + 1.0), 1.0 / rate)


def update_global_shrink(state: FactorState) -> None:
    """delta chain with leave-one-out products tau_l^(h) = prod_{t<=l, t!=h} delta_t."""
    p_star, k = state.lam.shape
    w = np.einsum("jl,jl->l", state.phi, state.lam**2)  # sum_j phi_jl lam_jl^2
    for h in range(k):
        masked = np.where(np.arange(k) == h, 1.0, state.delta)
        tau_loo = np.cumprod(masked)
        shape = (A1 if h == 0 else A2) + 0.5 * p_star * (k - h)
        rate = 1.0 + 0.5 * np.sum(tau_loo[h:] * w[h:])
        state.delta[h] = state.rng.gamma(shape, 1.0 / rate)


def update_intercepts(state: FactorState, plan: FactorModelPlan) -> None:
    """alpha_j | - for categorical block columns only; N(0,1) prior."""
    if not plan.cat_cols:
        return
    n = state.z.shape[0]
    fit = state.z - state.eta @ state.lam.T
    prec = n / state.sigma2 + 1.0
    mean = fit.sum(axis=0) / state.sigma2 / prec
    draw = mean + state.rng.standard_normal(state.alpha.size) / np.sqrt(prec)
    state.alpha = np.where(plan.alpha_mask, draw, 0.0)


def update_rank_column(
    rng: np.random.Generator,
    z_col: np.ndarray,
    mu: np.ndarray,
    sd: float,
    groups: RankGroups,
) -> None:
    """Odd/even blocked truncated-normal refresh of one rank column, in place.

    Groups of equal observed values are mutually unconstrained and, in a
    feasible state, bounded only by the extremes of the two adjacent groups.
    Alternating over group parity therefore gives two conditionally
    independent blocks, each drawn in a single vectorized pass.
    """
    if not groups.starts.size:
        return
    for cells, g in groups.sides:
        lo, hi = groups.bounds(z_col)
        z_col[cells] = truncnorm_sample(rng, mu[cells], sd, lo[g], hi[g])


def update_latent(state: FactorState, plan: FactorModelPlan) -> None:
    """Truncated-normal refresh of Z, column-major: rank columns via the
    parity-blocked group scheme, categorical blocks via their sign intervals."""
    fit = state.alpha + state.eta @ state.lam.T  # (n, p_star)
    sd = np.sqrt(state.sigma2)
    rng = state.rng
    for rc in plan.rank_cols:
        c = rc.latent
        update_rank_column(rng, state.z[:, c], fit[:, c], sd[c], rc.groups)
    for cc in plan.cat_cols:
        # one (k, n) call: a block's columns are conditionally independent,
        # and row-major order draws them level by level
        block = slice(cc.offset, cc.offset + cc.k)
        state.z[:, block] = truncnorm_sample(
            rng, fit[:, block].T, sd[block, None], cc.lo, cc.hi
        ).T


def gibbs_sweep(state: FactorState, plan: FactorModelPlan) -> None:
    update_loadings(state)
    update_idio_var(state)
    update_factors(state)
    update_local_shrink(state)
    update_global_shrink(state)
    update_intercepts(state, plan)
    update_latent(state, plan)


def rescale_draw(state: FactorState):
    """Map (Lambda, sigma2, alpha) to the correlation scale used for synthesis."""
    omega = state.lam @ state.lam.T + np.diag(state.sigma2)
    s = np.sqrt(np.diag(omega))
    corr = omega / np.outer(s, s)
    np.fill_diagonal(corr, 1.0)
    return corr, state.alpha / s


def run_chain(ds: MixedDataset, config: ChainConfig) -> PosteriorDraws:
    """Run the full chain and retain thinned post-burn-in correlation draws."""
    plan = FactorModelPlan.from_dataset(ds)
    k = config.n_factors
    if k is None:
        k = default_n_factors(plan.layout.p_star)
    state = init_state(plan, k, np.random.default_rng(config.seed))
    corrs, alphas = [], []
    report_every = max(1, config.iters // 10)
    for it in range(config.iters):
        gibbs_sweep(state, plan)
        if not np.all(np.isfinite(state.z)):
            raise NumericalOverflowError(f"latent matrix non-finite at iteration {it}")
        if it >= config.burn_in and (it - config.burn_in) % config.thin == 0:
            corr, alpha_t = rescale_draw(state)
            corrs.append(corr)
            alphas.append(alpha_t)
        if (it + 1) % report_every == 0 and logger.isEnabledFor(logging.INFO):
            corr, _ = rescale_draw(state)
            off = np.abs(corr[~np.eye(corr.shape[0], dtype=bool)])
            logger.info(
                "iteration %d/%d  mean|offdiag C| = %.4f",
                it + 1,
                config.iters,
                float(off.mean()) if off.size else 0.0,
            )
    return PosteriorDraws(np.asarray(corrs), np.asarray(alphas), k)
