"""Peaks-over-threshold maximum power estimation (modern-EVT extension).

The paper forms *block maxima* and fits their Weibull limit.  The other
classical route to the same endpoint is **POT**: take all sample values
exceeding a high threshold ``u``, fit the generalized Pareto law to the
exceedances (Pickands–Balkema–de Haan), and read the endpoint
``u + σ̂/(−ξ̂)`` when the fitted tail index is negative.  POT uses every
extreme observation instead of one per block, which usually buys
efficiency — the ablation benchmark quantifies this against the paper's
estimator at equal unit budgets.

The iteration is the paper's Figure-4 loop (``run_sequential``): each
*round* draws a fresh batch, produces one endpoint estimate, and rounds
accumulate until the Student-t interval of their mean meets the target.

The estimator follows the same config pattern as
:class:`~repro.estimation.mc_estimator.MaxPowerEstimator`: build it
from an :class:`~repro.api.EstimatorConfig` with :meth:`from_config`
(``method="pot"``), or directly with the iteration bounds named
``min_hyper_samples``/``max_hyper_samples``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import ConfigError, FitError
from ..evt.gpd import fit_gpd
from ..vectors.generators import RngLike, as_rng
from ..vectors.population import PowerPopulation
from .finite_population import finite_population_quantile
from .mc_estimator import check_run_settings, run_sequential
from .result import EstimationResult, HyperSample

__all__ = ["DEFAULT_POT_THRESHOLD_QUANTILE", "PeaksOverThresholdEstimator"]

#: Default exceedance threshold (keep the top 10 % of each batch) —
#: what ``method="auto"`` uses when the config names no POT policy.
DEFAULT_POT_THRESHOLD_QUANTILE = 0.90

#: ``fallback_reason`` of a round whose fitted tail is not bounded.
_XI_NOT_NEGATIVE = "GPD tail index xi >= 0: endpoint not identified"


class PeaksOverThresholdEstimator:
    """GPD/POT endpoint estimator with the paper-style stopping rule.

    Parameters
    ----------
    population:
        Power population to sample.
    batch_size:
        Units drawn per round (plays the role of the paper's n·m = 300).
    threshold_quantile:
        Exceedance threshold as an empirical quantile of each batch
        (0.9 keeps the top 10 %).
    error, confidence:
        Convergence target, as in the paper.
    min_hyper_samples, max_hyper_samples:
        Iteration bounds (a POT round is this estimator's
        hyper-sample).
    finite_correction:
        Report the (1 − 1/|V|) quantile instead of the raw endpoint for
        finite populations (as §3.4 does for the Weibull route).
    upper_bound:
        Optional physical ceiling; fitted round estimates are clipped.
    """

    #: :attr:`EstimationResult.method` of this engine's runs.
    method = "pot"

    def __init__(
        self,
        population: PowerPopulation,
        batch_size: int = 300,
        threshold_quantile: float = DEFAULT_POT_THRESHOLD_QUANTILE,
        error: float = 0.05,
        confidence: float = 0.90,
        min_hyper_samples: int = 2,
        max_hyper_samples: int = 200,
        finite_correction: Optional[bool] = None,
        upper_bound: Optional[float] = None,
    ):
        if batch_size < 20:
            raise ConfigError("batch_size must be >= 20")
        if not 0.5 <= threshold_quantile < 1.0:
            raise ConfigError("threshold_quantile must be in [0.5, 1)")
        self.population = population
        self.batch_size = batch_size
        self.threshold_quantile = threshold_quantile
        self.error = error
        self.confidence = confidence
        self.min_hyper_samples = min_hyper_samples
        self.max_hyper_samples = max_hyper_samples
        self.upper_bound = upper_bound
        self.finite_correction = finite_correction
        self.finite_correction = check_run_settings(self, population)

    @classmethod
    def from_config(
        cls, population: PowerPopulation, config
    ) -> "PeaksOverThresholdEstimator":
        """Build a POT estimator from a :class:`repro.api.EstimatorConfig`.

        Duck-typed like :meth:`MaxPowerEstimator.from_config` so the
        estimation layer never imports the API layer.  ``batch_size``
        defaults to the config's n·m (one Weibull hyper-sample's worth
        of units per round, so the two families compare at equal
        budget); the threshold comes from ``pot_threshold_quantile``
        (falling back to :data:`DEFAULT_POT_THRESHOLD_QUANTILE`).
        """
        batch = config.pot_batch_size
        if batch is None:
            batch = config.n * config.m
        threshold = config.pot_threshold_quantile
        if threshold is None:
            threshold = DEFAULT_POT_THRESHOLD_QUANTILE
        return cls(
            population,
            batch_size=batch,
            threshold_quantile=threshold,
            error=config.error,
            confidence=config.confidence,
            min_hyper_samples=config.min_hyper_samples,
            max_hyper_samples=config.max_hyper_samples,
            finite_correction=config.finite_correction,
            upper_bound=config.upper_bound,
        )

    # ------------------------------------------------------------------
    def round_estimate(self, index: int, rng: RngLike = None) -> HyperSample:
        """One POT round: batch -> exceedances -> GPD -> endpoint, or
        the batch maximum with a ``fallback_reason`` when the batch does
        not identify the endpoint."""
        gen = as_rng(rng)
        batch = self.population.sample_powers(self.batch_size, gen)
        threshold = float(np.quantile(batch, self.threshold_quantile))
        exceedances = batch[batch > threshold] - threshold
        best_seen = float(batch.max())
        try:
            gpd = fit_gpd(exceedances)
            fallback_reason = _XI_NOT_NEGATIVE if gpd.xi >= 0 else None
        except FitError as exc:
            fallback_reason = str(exc)
        if fallback_reason is not None:
            estimate = best_seen
        else:
            endpoint = threshold + gpd.right_endpoint()
            if self.finite_correction and self.population.size:
                q = finite_population_quantile(self.population.size)
                # Tail quantile of the fitted exceedance law at the
                # population's effective level.
                tail_frac = 1.0 - self.threshold_quantile
                # P(X > x) = tail_frac * sf_gpd(x - u); solve for the
                # (1 - 1/|V|) quantile of X.
                target_sf = (1.0 - q) / tail_frac
                if target_sf < 1.0:
                    estimate = threshold + float(
                        gpd.ppf(1.0 - target_sf)
                    )
                else:
                    estimate = threshold
                estimate = min(estimate, endpoint)
            else:
                estimate = endpoint
            estimate = max(estimate, best_seen)
        # The GPD fit is not a WeibullFit: the record keeps fit=None.
        return HyperSample(
            index=index,
            maxima=exceedances + threshold,
            fit=None,
            estimate=float(estimate),
            units_used=self.batch_size,
            fallback_reason=fallback_reason,
        )

    def run(self, rng: RngLike = None, progress=None) -> EstimationResult:
        """Iterate rounds until the t-interval meets the target (see
        :func:`~repro.estimation.mc_estimator.run_sequential`)."""
        return run_sequential(
            self, self.round_estimate, rng, progress,
            batch_size=self.batch_size,
            threshold_quantile=self.threshold_quantile,
        )
