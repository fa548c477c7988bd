"""Stochastic Shapley-value explanations for Gaussian-process regression.

The package turns a GP posterior into jointly Gaussian feature
attributions: analytic means, full covariance across features and
instances, Bayesian estimation-uncertainty variants, and a multi-output
GP prior that predicts explanations for unseen inputs.
"""

from . import analysis, cme, coalition, explain, gp, kernels, numerics, shapley_prior
from .coalition import (
    CoalitionDesign,
    StochasticGame,
    enumerate_coalitions,
    exact_ssv,
    sample_coalitions,
    shapley_kernel_weight,
    shapley_of_variance_game,
)
from .explain import (
    BayesConfig,
    ExplanationBatch,
    bayesgpshap,
    bayesshap_deterministic,
    credible_intervals,
    gpshap,
)
from .gp import Dataset, GPPosterior, fit_exact, select_hyperparameters, select_inducing
from .kernels import KernelParams, gram, median_heuristic
from .shapley_prior import ExplanationDataset, ShapleyPriorModel

__version__ = "0.1.0"

__all__ = [
    "analysis", "cme", "coalition", "explain", "gp", "kernels", "numerics",
    "shapley_prior",
    "CoalitionDesign", "StochasticGame",
    "enumerate_coalitions", "exact_ssv", "sample_coalitions",
    "shapley_kernel_weight", "shapley_of_variance_game",
    "BayesConfig", "ExplanationBatch",
    "bayesgpshap", "bayesshap_deterministic", "credible_intervals", "gpshap",
    "Dataset", "GPPosterior", "fit_exact", "select_hyperparameters",
    "select_inducing",
    "KernelParams", "gram", "median_heuristic",
    "ExplanationDataset", "ShapleyPriorModel",
]
