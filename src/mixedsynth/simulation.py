"""Benchmark study on a two-column multinomial/Poisson design.

One unordered categorical column drives the rate of a count column.  Each
study in ``STUDIES`` encodes the categorical column one way: as itself, as
k-1 binary indicators, or as ordinal codes; the degraded encodings are where
multiple classification and biased group means come from.  ``run_study``
fits the copula factor model to a study's encoding, synthesizes many
datasets, and scores how well synthetic per-level means of the count column
track the observed ones (average MSE across replicates), plus the rate of
records assigned to multiple categories.

``run_studies`` runs several studies at once, one worker process per study.
Each study draws only from generators seeded by its design and chain
config, so its result does not depend on the worker count.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from itertools import repeat

import numpy as np

from ._lapack import lapack
from .factor_model import ChainConfig
from .schema import ColumnSchema, Kind, MixedDataset, expand_layout
from .streams import substream
from .synthesizer import (FittedCopula, SynthesisPlan, fit_copula_model,
                          synthesize_datasets)

__all__ = ["SimDesign", "SimResult", "generate_sim_data", "STUDIES", "run_study",
           "run_studies", "preset"]

_LEVELS = ("a", "b", "c", "d", "e")


@dataclass(frozen=True)
class SimDesign:
    n: int = 5000
    p_levels: tuple = (0.10, 0.40, 0.15, 0.20, 0.15)
    rates: tuple = (342.0, 344.0, 346.0, 348.0, 352.0)
    n_reps: int = 500
    seed: int = 0

    def __post_init__(self):
        if len(self.p_levels) != len(self.rates):
            raise ValueError("p_levels and rates must have equal length")
        if abs(sum(self.p_levels) - 1.0) > 1e-9:
            raise ValueError("p_levels must sum to 1")
        if any(r <= 0 for r in self.rates):
            raise ValueError("rates must be positive")
        if self.n < 1 or self.n_reps < 1:
            raise ValueError("n and n_reps must be positive")

    @property
    def n_levels(self):
        return len(self.p_levels)


@dataclass
class SimResult:
    obs_means: np.ndarray
    group_means: np.ndarray  # (reps, levels); nan where a level went missing
    per_rep_mse: np.ndarray
    avg_mse: float
    sd_mse: float | None  # spread (sd) of the per-rep MSEs; None when reps=1
    multi_rate: float
    datasets: list = field(default_factory=list, repr=False)
    model: FittedCopula | None = field(default=None, repr=False)  # kept with datasets

    def to_doc(self) -> dict:
        return {
            "obs_means": self.obs_means.tolist(),
            "group_means": self.group_means.tolist(),
            "per_rep_mse": self.per_rep_mse.tolist(),
            "avg_mse": self.avg_mse,
            "sd_mse": self.sd_mse,
            "multi_rate": self.multi_rate,
        }


def generate_sim_data(design: SimDesign):
    """n iid records: x1 multinomial, x2 | x1 = l Poisson with level rate."""
    rng = substream(design.seed, "simdata")
    x1 = rng.choice(design.n_levels, size=design.n, p=np.asarray(design.p_levels))
    x2 = rng.poisson(np.asarray(design.rates)[x1])
    schema = (
        ColumnSchema("x1", Kind.CATEGORICAL, levels=_LEVELS[: design.n_levels]),
        ColumnSchema("x2", Kind.COUNT),
    )
    return MixedDataset(schema, {"x1": x1, "x2": np.asarray(x2, dtype=np.int64)})


def _group_means(x1, x2, n_levels):
    out = np.full(n_levels, np.nan)
    for l in range(n_levels):
        sel = x1 == l
        if sel.any():
            out[l] = x2[sel].mean()
    return out


def _score(obs_means, rep_means_list, multi_flags, keep_data, datasets, model=None):
    gm = np.asarray(rep_means_list)
    per_rep = np.nanmean((gm - obs_means) ** 2, axis=1)
    return SimResult(
        obs_means=obs_means,
        group_means=gm,
        per_rep_mse=per_rep,
        avg_mse=float(per_rep.mean()),
        sd_mse=float(per_rep.std(ddof=1)) if per_rep.size > 1 else None,
        multi_rate=float(np.mean(multi_flags)),
        datasets=datasets if keep_data else [],
        model=model if keep_data else None,
    )


def _one_level(synth: MixedDataset):
    # x1 names exactly one level per record by construction
    x1 = synth.columns["x1"]
    return x1, np.zeros(x1.shape, dtype=bool)


def _categorical(data: MixedDataset, n_levels: int):
    """x1 as one categorical column under the orthant likelihood."""
    return data, _one_level


def _indicators(data: MixedDataset, n_levels: int):
    """x1 as k-1 binary rank columns (base level dropped), with no orthant
    constraint.

    Indicators decode independently: no active indicator means the base
    level, exactly one names its level, and two or more leave the record
    multiply classified -- those records are dropped from the group means,
    mirroring the discard accounting such releases would need.
    """
    x1 = data.columns["x1"]
    names = [f"d{l}" for l in range(1, n_levels)]
    schema = tuple(ColumnSchema(d, Kind.BINARY) for d in names)
    cols = {d: (x1 == l).astype(np.int64) for l, d in enumerate(names, 1)}
    cols["x2"] = data.columns["x2"]

    def decode(synth: MixedDataset):
        ind = np.column_stack([synth.columns[d] for d in names])
        active = ind.sum(axis=1)
        return np.where(active == 0, 0, np.argmax(ind, axis=1) + 1), active >= 2

    return MixedDataset(schema + (ColumnSchema("x2", Kind.COUNT),), cols), decode


def _ordinal(data: MixedDataset, n_levels: int):
    """x1 recoded as ordered integers under the plain rank likelihood; level
    identities survive (support closure) but the artificial ordering
    distorts the dependence structure."""
    ordinal = MixedDataset(
        (ColumnSchema("x1", Kind.ORDINAL), ColumnSchema("x2", Kind.COUNT)),
        {"x1": data.columns["x1"].astype(np.int64), "x2": data.columns["x2"]},
    )
    return ordinal, _one_level


# study name -> encoding of x1: (data, n_levels) -> (dataset to fit, decode),
# where decode(synthetic dataset) gives each record's level and a mask of the
# records that name more than one level
STUDIES = {
    "rpl": _categorical,
    "rl": _indicators,
    "ordinal": _ordinal,
}


def run_study(name: str, design: SimDesign, config: ChainConfig,
              keep_data: bool = False) -> SimResult:
    """Fit the named study's encoding of the design's data, synthesize
    ``design.n_reps`` datasets, decode x1 and score the group means of x2.

    Multiply classified records are left out of their dataset's group
    means; the multiple-classification rate averages their share over
    datasets.
    """
    data = generate_sim_data(design)
    obs = _group_means(data.columns["x1"], data.columns["x2"], design.n_levels)

    encoded, decode = STUDIES[name](data, design.n_levels)
    if config.n_factors is None:
        # full-capacity loading matrix unless the caller pinned one: the
        # shrinkage prior prunes what the data do not support, and the
        # expanded categorical block needs the extra columns to track x2
        config = replace(config, n_factors=expand_layout(encoded).p_star)
    model = fit_copula_model(encoded, config)
    synth = synthesize_datasets(model, SynthesisPlan(m=design.n_reps, seed=design.seed))

    means, rates = [], []
    for s in synth:
        level, multi = decode(s)
        keep = ~multi
        means.append(_group_means(level[keep], s.columns["x2"][keep], design.n_levels))
        rates.append(multi.mean())
    return _score(obs, means, rates, keep_data, synth, model)


def _die_with_parent(parent_pid):
    # Linux prctl(PR_SET_PDEATHSIG): the kernel SIGKILLs this worker when the
    # thread that forked it exits, so a killed parent leaves no worker behind.
    # A parent that died before this call shows as a changed parent pid.
    import ctypes
    import signal

    PR_SET_PDEATHSIG = 1  # from <linux/prctl.h>
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_PDEATHSIG, signal.SIGKILL) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_PDEATHSIG) failed")
    if os.getppid() != parent_pid:
        os._exit(1)


def run_studies(names, design: SimDesign, config: ChainConfig,
                keep_data: bool = False) -> dict:
    """Run the named studies of ``STUDIES``, concurrently: name -> SimResult.

    One forked worker process per study, up to the CPUs this process may
    run on; workers die with this process.  A study's failure is raised
    here once the pool has shut down.  No names give ``{}`` and start no
    pool.
    """
    names = list(dict.fromkeys(names))
    unknown = [n for n in names if n not in STUDIES]
    if unknown:
        raise ValueError(f"unknown studies {unknown}; choose from {sorted(STUDIES)}")
    if not names:
        return {}
    # imported here so that commands which never fan out do not pay for it
    import multiprocessing
    from concurrent.futures.process import ProcessPoolExecutor

    # fork, not spawn: workers inherit numpy and scipy, scipy.linalg's
    # LAPACK included, instead of importing them again
    lapack()
    ctx = multiprocessing.get_context("fork")
    workers = min(len(names), len(os.sched_getaffinity(0)))
    with ProcessPoolExecutor(workers, mp_context=ctx, initializer=_die_with_parent,
                             initargs=(os.getpid(),)) as pool:
        # only the name crosses over: the worker looks up the encoding
        results = pool.map(run_study, names, repeat(design), repeat(config),
                           repeat(keep_data))
        return dict(zip(names, results))


def preset(name: str, seed: int = 0):
    """Named (design, chain config) pairs: 'paper' scale or a fast 'desk'."""
    if name == "paper":
        design = SimDesign(n=5000, n_reps=500, seed=seed)
        config = ChainConfig(seed=seed)
    elif name == "desk":
        design = SimDesign(n=1000, n_reps=50, seed=seed)
        config = ChainConfig(iters=3000, burn_in=1500, thin=5, seed=seed)
    else:
        raise ValueError(f"unknown preset '{name}' (expected 'paper' or 'desk')")
    return design, config
