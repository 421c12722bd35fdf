"""Fully synthetic microdata for mixed-type tables.

Fits a Gaussian copula factor model under rank/orthant data augmentation,
synthesizes datasets from the posterior predictive, optionally models
designated response columns with a tree-ensemble regression on the latent
scale, and scores releases with interval-overlap/MSE/pMSE utility and
median-match disclosure-risk metrics.
"""

from .archive import ModelArchive, load_archive, save_archive
from .bart import BartConfig, BartSampler
from .errors import MixedSynthError
from .factor_model import ChainConfig, Hyperparams, PosteriorDraws, run_chain
from .marginals import fit_categorical_probs, fit_marginal
from .risk import AdversaryScenario, RiskReport, cmap_mean, risk_study
from .schema import (
    ColumnSchema,
    ExpandedLayout,
    Kind,
    MixedDataset,
    expand_layout,
    load_dataset,
    load_schema,
    schema_hash,
    write_csv,
)
from .simulation import SimDesign, SimResult, generate_sim_data
from .synthesizer import (
    FittedCopula,
    SynthesisPlan,
    fit_copula_model,
    synthesize_datasets,
)
from .target_regression import (
    TargetConfig,
    TargetModelSummary,
    fit_target_model,
    synthesize_response,
)
from .utility import (
    HorseshoeConfig,
    RegressionSpec,
    UtilityReport,
    evaluate_utility,
    fit_bayes_lm,
    pmse,
    pool_synthetic,
)

__version__ = "0.1.0"

__all__ = [
    "MixedSynthError",
    "ChainConfig",
    "Hyperparams",
    "PosteriorDraws",
    "run_chain",
    "fit_marginal",
    "fit_categorical_probs",
    "Kind",
    "ColumnSchema",
    "MixedDataset",
    "ExpandedLayout",
    "expand_layout",
    "load_dataset",
    "load_schema",
    "schema_hash",
    "write_csv",
    "FittedCopula",
    "SynthesisPlan",
    "fit_copula_model",
    "synthesize_datasets",
    "ModelArchive",
    "save_archive",
    "load_archive",
    "BartConfig",
    "BartSampler",
    "TargetConfig",
    "TargetModelSummary",
    "fit_target_model",
    "synthesize_response",
    "RegressionSpec",
    "HorseshoeConfig",
    "UtilityReport",
    "fit_bayes_lm",
    "pool_synthetic",
    "pmse",
    "evaluate_utility",
    "AdversaryScenario",
    "RiskReport",
    "cmap_mean",
    "risk_study",
    "SimDesign",
    "SimResult",
    "generate_sim_data",
    "__version__",
]
