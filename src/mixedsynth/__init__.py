"""Fully synthetic microdata for mixed-type tables.

Fits a Gaussian copula factor model under rank/orthant data augmentation,
synthesizes datasets from the posterior predictive, optionally models
designated response columns with a tree-ensemble regression on the latent
scale, and scores releases with interval-overlap/MSE/pMSE utility and
median-match disclosure-risk metrics.
"""

import importlib


def _lazy(namespace: dict, exports: dict):
    """A module ``__getattr__`` (PEP 562) that imports each name of
    ``exports`` (submodule -> names) from its submodule on first access and
    binds it in ``namespace``, so a program imports only the modules it
    uses."""
    home = {name: mod for mod, names in exports.items() for name in names}

    def __getattr__(name):
        try:
            mod = home[name]
        except KeyError:
            raise AttributeError(
                f"module {namespace['__name__']!r} has no attribute {name!r}"
            ) from None
        value = getattr(importlib.import_module(f"{__name__}.{mod}"), name)
        namespace[name] = value
        return value

    return __getattr__


_EXPORTS = {
    "archive": ("ModelArchive", "load_archive", "save_archive"),
    "bart": ("BartSampler",),
    "errors": ("MixedSynthError",),
    "factor_model": ("ChainConfig", "PosteriorDraws", "run_chain"),
    "marginals": ("fit_categorical_probs", "fit_marginal"),
    "risk": ("RiskPlan", "RiskReport", "cmap_mean", "risk_study"),
    "schema": ("ColumnSchema", "ExpandedLayout", "Kind", "MixedDataset",
               "expand_layout", "load_dataset", "load_schema", "schema_hash",
               "write_csv"),
    "simulation": ("SimDesign", "SimResult", "generate_sim_data"),
    "synthesizer": ("FittedCopula", "SynthesisPlan", "fit_copula_model",
                    "synthesize_datasets"),
    "target_regression": ("TargetConfig", "TargetModelSummary", "fit_target_model",
                          "synthesize_response"),
    "utility": ("HorseshoeConfig", "RegressionSpec", "UtilityReport",
                "evaluate_utility", "fit_bayes_lm", "pmse", "pool_synthetic"),
}
__getattr__ = _lazy(globals(), _EXPORTS)

__version__ = "0.1.0"

__all__ = [name for names in _EXPORTS.values() for name in names] + ["__version__"]


def __dir__():
    return sorted(set(globals()) | set(__all__))
