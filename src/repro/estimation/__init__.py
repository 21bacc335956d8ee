"""Estimators: the paper's method, its baselines, and extensions."""

from .adaptive import AdaptiveMaxPowerEstimator, build_estimator
from .bounds import UncertaintyBound
from .delay_estimator import MaxDelayEstimator
from .finite_population import finite_population_estimate, finite_population_quantile
from .genetic import GeneticMaxPowerSearch, GeneticSearchResult
from .gradient import ContinuousMaxPowerSearch, GradientSearchResult
from .mc_estimator import MaxPowerEstimator
from .parallel import hyper_sample_many, run_many, spawn_run_seeds
from .pot import PeaksOverThresholdEstimator
from .tuner import BlockSizeTuner, TunerReport
from .quantile_est import HighQuantileEstimator, QuantileEstimate
from .result import AdaptiveDecision, EstimationResult, HyperSample
from .srs import SimpleRandomSampling, SRSStudy, srs_required_units

__all__ = [
    "MaxPowerEstimator",
    "AdaptiveMaxPowerEstimator",
    "AdaptiveDecision",
    "build_estimator",
    "run_many",
    "hyper_sample_many",
    "spawn_run_seeds",
    "PeaksOverThresholdEstimator",
    "BlockSizeTuner",
    "TunerReport",
    "EstimationResult",
    "HyperSample",
    "finite_population_estimate",
    "finite_population_quantile",
    "SimpleRandomSampling",
    "SRSStudy",
    "srs_required_units",
    "HighQuantileEstimator",
    "QuantileEstimate",
    "GeneticMaxPowerSearch",
    "GeneticSearchResult",
    "ContinuousMaxPowerSearch",
    "GradientSearchResult",
    "UncertaintyBound",
    "MaxDelayEstimator",
]
