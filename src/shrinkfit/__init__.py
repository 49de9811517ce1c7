"""Shrinkage and random-effect estimation for the two-level Normal model.

Fits the Level-2 variance by ADM (adjusted density maximization), MLE, REML,
or exact Bayes under the scale-invariant prior family A^(c-1), turns the
fitted shrinkages into posterior moments and intervals for the random
effects, and ships a seeded Monte-Carlo harness that measures interval
coverage and calibrated risk.
"""

from .model import (
    FitMethod,
    ModelError,
    NonpositiveC,
    NonpositiveVariance,
    PriorSpec,
    RandomEffectPosterior,
    RankDeficientX,
    ShrinkagePosterior,
    ShrinkfitError,
    TooFewUnits,
    TwoLevelData,
    validate,
)
from .density import AdjustedLogDensity, NonconcaveAtMax
from .fitters import NonintegrablePosterior, OptimizerNoBracket, fit
from .inference import random_effects
from .evaluate import (
    SimConfig,
    SimResult,
    equal_variance_config,
    run_accuracy,
    run_coverage,
    two_group_config,
)

__version__ = "0.1.0"

__all__ = [
    "AdjustedLogDensity",
    "FitMethod",
    "ModelError",
    "NonconcaveAtMax",
    "NonintegrablePosterior",
    "NonpositiveC",
    "NonpositiveVariance",
    "OptimizerNoBracket",
    "PriorSpec",
    "RandomEffectPosterior",
    "RankDeficientX",
    "ShrinkagePosterior",
    "ShrinkfitError",
    "SimConfig",
    "SimResult",
    "TooFewUnits",
    "TwoLevelData",
    "equal_variance_config",
    "fit",
    "random_effects",
    "run_accuracy",
    "run_coverage",
    "two_group_config",
    "validate",
]
