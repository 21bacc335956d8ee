"""Adaptive estimation controller: ``method="auto"`` behind the API.

The paper fixes the sampling schedule at n = 30, m = 10 and always fits
the generalized Weibull to block maxima.  Both choices are population-
dependent: block-maxima MLE consistency depends on the block size
resolving the tail, and threshold methods (POT/GPD) use every extreme
observation instead of one per block.  This module adds the per-circuit
controller ROADMAP item 4 calls for:

1. **Pilot** (seed-deterministic): :class:`~repro.estimation.tuner.
   BlockSizeTuner` measures the hyper-sample relative spread at a few
   candidate block sizes and picks the n with the lowest predicted
   total cost; the pilot's Weibull-fit fallback rate at that n decides
   whether m needs growing.
2. **Family cross-validation**: on fresh pilot folds, both families
   predict the *median block maximum* of held-out blocks — the Weibull
   route from an MLE fit of the training block maxima, the POT route
   from a GPD fit of the training exceedances (``F(x)^n = 1/2`` solved
   through the fitted tail) — and the family with the lower mean
   relative prediction error wins.
3. **Handoff**: the chosen engine runs the paper's Figure-4 loop with
   the remaining hyper-sample budget; the pilot's cost is charged to
   the result's ``units_used`` and the whole decision is recorded on
   the result (:class:`~repro.estimation.result.AdaptiveDecision`), in
   spans and in metrics.

Seed contract
-------------
The controller consumes a single RNG stream: pilot, cross-validation,
and the production engine draw from the same generator in a fixed
order, and nothing else (progress callbacks, tracing, metrics) touches
it.  ``method="auto"`` under a fixed seed is therefore bit-identical
across runs, worker counts, checkpoint-resume, and service replicas —
exactly the guarantee the fixed-method path already made.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from ..errors import ConfigError, FitError
from ..evt.block_maxima import DEFAULT_NUM_SAMPLES
from ..evt.gpd import fit_gpd
from ..evt.mle import fit_weibull_mle
from ..obs.spans import get_span_recorder
from ..vectors.generators import RngLike, as_rng
from ..vectors.population import PowerPopulation
from .mc_estimator import MaxPowerEstimator, check_run_settings
from .pot import DEFAULT_POT_THRESHOLD_QUANTILE, PeaksOverThresholdEstimator
from .result import AdaptiveDecision, EstimationResult
from .tuner import BlockSizeTuner

__all__ = ["AdaptiveMaxPowerEstimator", "build_estimator"]

# The decision is two spans, ``adaptive.pilot`` and ``adaptive.cv``; the
# ``adaptive_*`` metrics fold from them.
_SPANS = get_span_recorder()

#: Pilot Weibull-fallback fraction above which m is doubled: when a
#: quarter of pilot fits at the chosen n degenerate to the sample
#: maximum, the MLE needs more block maxima per hyper-sample.
_FALLBACK_M_THRESHOLD = 0.25


class AdaptiveMaxPowerEstimator:
    """Per-circuit controller behind ``EstimatorConfig(method="auto")``.

    Parameters
    ----------
    population:
        Power population to estimate over.
    error, confidence, min_hyper_samples, max_hyper_samples,
    finite_correction, upper_bound:
        The production-run targets, exactly as
        :class:`~repro.estimation.mc_estimator.MaxPowerEstimator` takes
        them; ``max_hyper_samples`` is the *total* budget — the pilot's
        unit cost is converted to hyper-sample equivalents and deducted
        from the handoff engine's budget.
    candidates:
        Block sizes the pilot measures (30 is always included).
    pilot_hyper_samples:
        Pilot hyper-samples per candidate block size.
    pilot_m:
        Blocks per pilot hyper-sample (smaller than production m — the
        pilot buys variance estimates, not final estimates).
    cv_folds, cv_holdout_blocks:
        Cross-validation shape: per fold, one training draw (production
        m blocks of the chosen n) plus this many held-out blocks.
    pot_threshold_quantile, pot_batch_size:
        Overrides for the POT engine if it wins the cross-validation
        (defaults: top 10 % exceedances, n·m units per round).

    The production-run targets are validated at construction, as the
    engines validate them, so a bad setting fails before the pilot.
    """

    def __init__(
        self,
        population: PowerPopulation,
        error: float = 0.05,
        confidence: float = 0.90,
        min_hyper_samples: int = 2,
        max_hyper_samples: int = 200,
        finite_correction: Optional[bool] = None,
        upper_bound: Optional[float] = None,
        candidates: Sequence[int] = (10, 30, 60),
        pilot_hyper_samples: int = 4,
        pilot_m: int = 5,
        cv_folds: int = 3,
        cv_holdout_blocks: int = 4,
        pot_threshold_quantile: Optional[float] = None,
        pot_batch_size: Optional[int] = None,
    ):
        if pilot_m < 3:
            raise ConfigError("pilot_m must be >= 3 (the MLE needs maxima)")
        if cv_folds < 1:
            raise ConfigError("cv_folds must be >= 1")
        if cv_holdout_blocks < 2:
            raise ConfigError("cv_holdout_blocks must be >= 2")
        self.population = population
        self.error = error
        self.confidence = confidence
        self.min_hyper_samples = min_hyper_samples
        self.max_hyper_samples = max_hyper_samples
        self.upper_bound = upper_bound
        self.finite_correction = finite_correction
        self.finite_correction = check_run_settings(self, population)
        self.candidates = tuple(candidates)
        self.pilot_hyper_samples = pilot_hyper_samples
        self.pilot_m = pilot_m
        self.cv_folds = cv_folds
        self.cv_holdout_blocks = cv_holdout_blocks
        self.pot_threshold_quantile = (
            DEFAULT_POT_THRESHOLD_QUANTILE
            if pot_threshold_quantile is None
            else pot_threshold_quantile
        )
        self.pot_batch_size = pot_batch_size
        self._tuner = BlockSizeTuner(
            population,
            candidates=self.candidates,
            pilot_hyper_samples=self.pilot_hyper_samples,
            m=self.pilot_m,
            error=error,
            confidence=confidence,
        )

    @classmethod
    def from_config(
        cls, population: PowerPopulation, config
    ) -> "AdaptiveMaxPowerEstimator":
        """Build the controller from a :class:`repro.api.EstimatorConfig`
        (duck-typed, like the other estimators' ``from_config``)."""
        return cls(
            population,
            error=config.error,
            confidence=config.confidence,
            min_hyper_samples=config.min_hyper_samples,
            max_hyper_samples=config.max_hyper_samples,
            finite_correction=config.finite_correction,
            upper_bound=config.upper_bound,
            pot_threshold_quantile=config.pot_threshold_quantile,
            pot_batch_size=config.pot_batch_size,
        )

    # ------------------------------------------------------------------
    # Cross-validation predictors.  Both families predict the *median*
    # of a size-n block maximum from the same training draw, so the
    # comparison is a pure modelling contest at equal data.
    # ------------------------------------------------------------------
    @staticmethod
    def _weibull_predict(train_maxima: np.ndarray) -> float:
        try:
            fit = fit_weibull_mle(train_maxima)
            return float(fit.distribution.ppf(0.5))
        except FitError:
            return float(np.median(train_maxima))

    def _pot_predict(self, raw: np.ndarray, n: int) -> float:
        # Median block maximum: F(x)^n = 1/2, i.e. sf(x) = 1 - 2^(-1/n).
        target_sf = 1.0 - 0.5 ** (1.0 / n)
        tail_frac = 1.0 - self.pot_threshold_quantile
        empirical = float(np.quantile(raw, 0.5 ** (1.0 / n)))
        if target_sf >= tail_frac:
            # The median sits below the threshold: the GPD says nothing
            # about it; use the empirical quantile.
            return empirical
        threshold = float(np.quantile(raw, self.pot_threshold_quantile))
        exceedances = raw[raw > threshold] - threshold
        try:
            gpd = fit_gpd(exceedances)
        except FitError:
            return empirical
        return threshold + float(gpd.ppf(1.0 - target_sf / tail_frac))

    def _cross_validate(
        self, n: int, m: int, gen: np.random.Generator
    ) -> tuple:
        """Score both families on held-out blocks; returns
        ``(score_weibull, score_pot, units_used)``."""
        holdout = self.cv_holdout_blocks
        err_weibull, err_pot, units = 0.0, 0.0, 0
        for _ in range(self.cv_folds):
            raw = self.population.sample_powers(n * m, gen)
            observed = self.population.sample_powers(n * holdout, gen)
            units += n * m + n * holdout
            train_maxima = raw.reshape(m, n).max(axis=1)
            observed_maxima = observed.reshape(holdout, n).max(axis=1)
            center = float(observed_maxima.mean())
            if center <= 0:
                raise ConfigError("population yields non-positive maxima")
            pred_w = self._weibull_predict(train_maxima)
            pred_p = self._pot_predict(raw, n)
            err_weibull += float(
                np.mean(np.abs(pred_w - observed_maxima))
            ) / center
            err_pot += float(np.mean(np.abs(pred_p - observed_maxima))) / center
        folds = float(self.cv_folds)
        return err_weibull / folds, err_pot / folds, units

    # ------------------------------------------------------------------
    def decide(self, rng: RngLike = None) -> tuple:
        """Run pilot + cross-validation; returns
        ``(decision, engine, overhead_units)`` without executing the
        production run (:meth:`run` composes this with the handoff)."""
        gen = as_rng(rng)
        with _SPANS.span(
            "adaptive.pilot", population=self.population.name
        ) as span:
            report = self._tuner.run(gen)
            candidate_ns = [p.n for p in report.pilots]
            chosen_n = report.recommended_n
            pilot = next(p for p in report.pilots if p.n == chosen_n)
            chosen_m = (
                2 * DEFAULT_NUM_SAMPLES
                if pilot.fallback_rate > _FALLBACK_M_THRESHOLD
                else DEFAULT_NUM_SAMPLES
            )
            span.set(
                chosen_n=chosen_n,
                chosen_m=chosen_m,
                candidate_ns=candidate_ns,
                pilot_units=report.pilot_units_used,
                fallback_rate=pilot.fallback_rate,
            )
        with _SPANS.span("adaptive.cv", n=chosen_n) as span:
            score_weibull, score_pot, cv_units = self._cross_validate(
                chosen_n, chosen_m, gen
            )
            family = "pot" if score_pot < score_weibull else "weibull"
            span.set(
                family=family,
                cv_score_weibull=score_weibull,
                cv_score_pot=score_pot,
                cv_units=cv_units,
            )
        overhead = report.pilot_units_used + cv_units
        decision = AdaptiveDecision(
            chosen_n=chosen_n,
            chosen_m=chosen_m,
            family=family,
            cv_score_weibull=score_weibull,
            cv_score_pot=score_pot,
            pilot_units=overhead,
            candidate_ns=candidate_ns,
            pilot_fallback_rate=pilot.fallback_rate,
        )
        # Charge the pilot against the production budget in
        # hyper-sample equivalents so the *total* unit spend respects
        # max_hyper_samples; never starve the engine below its minimum.
        spent = math.ceil(overhead / (chosen_n * chosen_m))
        remaining = max(self.min_hyper_samples, self.max_hyper_samples - spent)
        if family == "pot":
            engine = PeaksOverThresholdEstimator(
                self.population,
                batch_size=(
                    self.pot_batch_size
                    if self.pot_batch_size is not None
                    else chosen_n * chosen_m
                ),
                threshold_quantile=self.pot_threshold_quantile,
                error=self.error,
                confidence=self.confidence,
                min_hyper_samples=self.min_hyper_samples,
                max_hyper_samples=remaining,
                finite_correction=self.finite_correction,
                upper_bound=self.upper_bound,
            )
        else:
            engine = MaxPowerEstimator(
                self.population,
                n=chosen_n,
                m=chosen_m,
                error=self.error,
                confidence=self.confidence,
                min_hyper_samples=self.min_hyper_samples,
                max_hyper_samples=remaining,
                finite_correction=self.finite_correction,
                upper_bound=self.upper_bound,
            )
        return decision, engine, overhead

    # ------------------------------------------------------------------
    def run(self, rng: RngLike = None, progress=None) -> EstimationResult:
        """Pilot, decide, and hand off to the chosen engine, whose run
        alone reports to ``progress`` (the pilot's cost is bounded)."""
        gen = as_rng(rng)
        decision, engine, overhead = self.decide(gen)
        result = engine.run(rng=gen, progress=progress)
        result.method = "auto"
        result.decision = decision
        result.units_used += overhead
        return result


def build_estimator(population: PowerPopulation, config):
    """The estimator factory behind ``EstimatorConfig.method``.

    One switch replaces the four historical entry points (direct
    ``MaxPowerEstimator`` construction, the tuner, the POT estimator,
    ad-hoc experiment code): ``"fixed"`` → the paper's block-maxima
    estimator with the config's n/m, ``"pot"`` → peaks-over-threshold,
    ``"auto"`` → this module's adaptive controller.  Every returned
    engine satisfies the same contract — ``run(rng, progress=None)``
    returning an :class:`~repro.estimation.result.EstimationResult`,
    bit-deterministic in the rng.  The parallel drivers' forked workers
    inherit the engine, so it need not be picklable.
    """
    method = getattr(config, "method", "fixed")
    if method == "fixed":
        return MaxPowerEstimator.from_config(population, config)
    if method == "pot":
        return PeaksOverThresholdEstimator.from_config(population, config)
    if method == "auto":
        return AdaptiveMaxPowerEstimator.from_config(population, config)
    raise ConfigError(
        f"unknown method {method!r}: expected 'fixed', 'auto', or 'pot'"
    )
