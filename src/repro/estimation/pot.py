"""Peaks-over-threshold maximum power estimation (modern-EVT extension).

The paper forms *block maxima* and fits their Weibull limit.  The other
classical route to the same endpoint is **POT**: take all sample values
exceeding a high threshold ``u``, fit the generalized Pareto law to the
exceedances (Pickands–Balkema–de Haan), and read the endpoint
``u + σ̂/(−ξ̂)`` when the fitted tail index is negative.  POT uses every
extreme observation instead of one per block, which usually buys
efficiency — the ablation benchmark quantifies this against the paper's
estimator at equal unit budgets.

The iteration mirrors the paper's Figure-4 loop: each *round* draws a
fresh batch, produces one endpoint estimate, and rounds accumulate until
the Student-t interval of their mean meets the error/confidence target.

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
from ..evt.confidence import t_mean_interval
from ..evt.gpd import fit_gpd
from ..vectors.generators import RngLike, as_rng
from ..vectors.population import PowerPopulation
from .finite_population import finite_population_quantile
from .result import EstimationResult, HyperSample

__all__ = ["DEFAULT_POT_THRESHOLD_QUANTILE", "PeaksOverThresholdEstimator"]

#: Default exceedance threshold (keep the top 10 % of each batch) —
#: what ``method="auto"`` uses when the config names no POT policy.
DEFAULT_POT_THRESHOLD_QUANTILE = 0.90


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
    """

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
    ):
        if batch_size < 20:
            raise ConfigError("batch_size must be >= 20")
        if not 0.5 <= threshold_quantile < 1.0:
            raise ConfigError("threshold_quantile must be in [0.5, 1)")
        if not 0.0 < error < 1.0:
            raise ConfigError("error must be in (0, 1)")
        if not 0.0 < confidence < 1.0:
            raise ConfigError("confidence must be in (0, 1)")
        if min_hyper_samples < 2:
            raise ConfigError("min_hyper_samples must be >= 2")
        if max_hyper_samples < min_hyper_samples:
            raise ConfigError("max_hyper_samples < min_hyper_samples")
        self.population = population
        self.batch_size = batch_size
        self.threshold_quantile = threshold_quantile
        self.error = error
        self.confidence = confidence
        self.min_hyper_samples = min_hyper_samples
        self.max_hyper_samples = max_hyper_samples
        if finite_correction is None:
            finite_correction = population.size is not None
        if finite_correction and population.size is None:
            raise ConfigError(
                "finite_correction requires a population with known size"
            )
        self.finite_correction = finite_correction

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
        )

    # ------------------------------------------------------------------
    def round_estimate(self, index: int, rng: RngLike = None) -> HyperSample:
        """One POT round: batch -> exceedances -> GPD -> endpoint."""
        gen = as_rng(rng)
        batch = self.population.sample_powers(self.batch_size, gen)
        threshold = float(np.quantile(batch, self.threshold_quantile))
        exceedances = batch[batch > threshold] - threshold
        best_seen = float(batch.max())
        try:
            gpd = fit_gpd(exceedances)
        except FitError:
            gpd = None
        if gpd is None or gpd.xi >= 0:
            # Heavy/unbounded tail verdict in this batch: the endpoint
            # is not identified; fall back to the batch maximum.
            estimate = best_seen
            fit = None
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
            fit = None  # GPD fit is not a WeibullFit; keep record slim
        return HyperSample(
            index=index,
            maxima=exceedances + threshold,
            fit=fit,
            estimate=float(estimate),
            units_used=self.batch_size,
        )

    # ------------------------------------------------------------------
    def run(self, rng: RngLike = None, progress=None) -> EstimationResult:
        """Iterate rounds until the t-interval meets the target.

        ``progress`` follows the :meth:`MaxPowerEstimator.run` contract:
        called as ``progress(hs, interval, cumulative_units)`` after
        every round, may abort the run by raising, and never touches the
        RNG stream — a run's result is bit-identical with or without it.
        """
        gen = as_rng(rng)
        result = EstimationResult(
            estimate=float("nan"),
            interval=None,
            converged=False,
            error_bound=self.error,
            confidence=self.confidence,
            population_name=f"{self.population.name} [POT]",
            population_size=self.population.size,
            method="pot",
        )
        estimates = []
        for k in range(1, self.max_hyper_samples + 1):
            hs = self.round_estimate(k, gen)
            result.hyper_samples.append(hs)
            result.units_used += hs.units_used
            estimates.append(hs.estimate)
            interval = None
            if k >= self.min_hyper_samples:
                interval = t_mean_interval(estimates, self.confidence)
                result.interval = interval
                result.estimate = interval.mean
                result.ci_trajectory.append(interval.rel_half_width)
            if progress is not None:
                progress(hs, interval, result.units_used)
            if interval is not None and interval.rel_half_width <= self.error:
                result.converged = True
                return result
        result.estimate = float(np.mean(estimates))
        return result
