"""The paper's iterative Monte-Carlo maximum-power estimator.

Pipeline per hyper-sample (Figure 3): draw ``m`` samples of size ``n``
from the population, keep each sample's maximum, fit the generalized
Weibull by profile MLE, and report the location estimate (corrected to
the (1 − 1/|V|) quantile for finite populations).

Iterative loop (Figure 4): accumulate hyper-sample estimates
``P̂_1.., P̂_k``; after each one compute the Student-t confidence
interval of their mean (Theorem 6) and stop when the relative
half-width ``t_{l,k−1}·s / (√k · P̄_MAX)`` is within the user's error
bound ε at confidence level l.

The estimator is generic over :class:`~repro.vectors.population.PowerPopulation`,
so the same machinery estimates maximum circuit *delay* (paper §V) or
any other bounded simulation metric.
"""

from __future__ import annotations

from typing import Optional

from ..errors import ConfigError, FitError
from ..evt.block_maxima import (
    DEFAULT_NUM_SAMPLES,
    DEFAULT_SAMPLE_SIZE,
)
from ..evt.confidence import t_mean_interval
from ..evt.mle import fit_weibull_mle
from ..obs.metrics import (
    DEFAULT_ALPHA_BUCKETS,
    DEFAULT_K_BUCKETS,
    get_registry,
)
from ..obs.spans import get_span_recorder
from ..vectors.generators import RngLike, as_rng
from ..vectors.population import PowerPopulation
from .finite_population import finite_population_estimate
from .result import EstimationResult, HyperSample

__all__ = ["MaxPowerEstimator"]

# Module-level metric handles: one dict lookup at import, then each
# record is a branch on the registry's enabled flag (no-op fast path).
_METRICS = get_registry()
_SPANS = get_span_recorder()
_RUN_TIMER = _METRICS.timer("estimator_run_seconds")
_HS_TIMER = _METRICS.timer("estimator_hyper_sample_seconds")
_RUNS_TOTAL = _METRICS.counter("estimator_runs_total")
_RUNS_CONVERGED = _METRICS.counter("estimator_runs_converged_total")
_HS_TOTAL = _METRICS.counter("estimator_hyper_samples_total")
_HS_FALLBACKS = _METRICS.counter("estimator_fallbacks_total")
_UNITS_TOTAL = _METRICS.counter("estimator_units_total")
_NONREGULAR = _METRICS.counter("estimator_nonregular_fits_total")
_ALPHA_HIST = _METRICS.histogram("estimator_alpha", buckets=DEFAULT_ALPHA_BUCKETS)
_K_HIST = _METRICS.histogram("estimator_k", buckets=DEFAULT_K_BUCKETS)


def _hyper_sample_attributes(
    hs: HyperSample, rel_half_width=None, cumulative_units=None
) -> dict:
    """Per-k attributes of an ``estimator.hyper_sample`` span (names
    match :meth:`HyperSample.to_dict` where they overlap); the last two
    are known only inside :meth:`MaxPowerEstimator.run`."""
    maxima = hs.maxima
    attributes = {
        "estimate": hs.estimate,
        "units_used": hs.units_used,
        "maxima_min": float(maxima.min()),
        "maxima_mean": float(maxima.mean()),
        "maxima_max": float(maxima.max()),
        "fallback_reason": hs.fallback_reason,
        "rel_half_width": rel_half_width,
        "cumulative_units": cumulative_units,
    }
    for name in ("alpha", "beta", "mu", "shape_gt2"):
        attributes[name] = None if hs.fit is None else getattr(hs.fit, name)
    return attributes


class MaxPowerEstimator:
    """User-facing estimator implementing the full paper flow.

    Parameters
    ----------
    population:
        Where unit powers come from — a pre-simulated
        :class:`~repro.vectors.population.FinitePopulation` (categories
        I.1/I.2 experimental setup) or a
        :class:`~repro.vectors.population.StreamingPopulation`
        (random-vector-generation production mode).
    n:
        Sample (block) size; the paper fixes 30 (Figure 1 study).
    m:
        Samples per hyper-sample; the paper fixes 10 (Figure 2 study).
    error:
        Target relative error ε (default 5 %).
    confidence:
        Confidence level l (default 90 %).
    min_hyper_samples:
        First k at which convergence may be declared; 2 matches the
        paper's minimum observed cost of 600 units.
    max_hyper_samples:
        Budget guard; the result is flagged unconverged when exhausted.
    finite_correction:
        Apply the §3.4 quantile correction.  ``None`` (default) means
        "apply exactly when the population reports a finite size".
    upper_bound:
        Optional physical upper bound on the metric (e.g. a static
        timing bound for delay estimation, or a switched-capacitance
        ceiling for power).  Hyper-sample estimates are clipped to it —
        an extension beyond the paper that prevents the endpoint
        extrapolation from ever exceeding a known certificate.

    Example
    -------
    >>> est = MaxPowerEstimator(pop, error=0.05, confidence=0.90)
    >>> result = est.run(rng=0)
    >>> result.estimate, result.interval.low, result.interval.high
    """

    def __init__(
        self,
        population: PowerPopulation,
        n: int = DEFAULT_SAMPLE_SIZE,
        m: int = DEFAULT_NUM_SAMPLES,
        error: float = 0.05,
        confidence: float = 0.90,
        min_hyper_samples: int = 2,
        max_hyper_samples: int = 200,
        finite_correction: Optional[bool] = None,
        upper_bound: Optional[float] = None,
    ):
        if n < 2:
            raise ConfigError("sample size n must be >= 2")
        if m < 3:
            raise ConfigError("need m >= 3 block maxima for the MLE")
        if not 0.0 < error < 1.0:
            raise ConfigError("error must be in (0, 1)")
        if not 0.0 < confidence < 1.0:
            raise ConfigError("confidence must be in (0, 1)")
        if min_hyper_samples < 2:
            raise ConfigError("min_hyper_samples must be >= 2")
        if max_hyper_samples < min_hyper_samples:
            raise ConfigError("max_hyper_samples < min_hyper_samples")
        self.population = population
        self.n = n
        self.m = m
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
        if upper_bound is not None and upper_bound <= 0:
            raise ConfigError("upper_bound must be positive")
        self.upper_bound = upper_bound

    @classmethod
    def from_config(cls, population: PowerPopulation, config) -> "MaxPowerEstimator":
        """Build an estimator from a :class:`repro.api.EstimatorConfig`.

        Duck-typed on the config's statistical fields so the estimation
        layer never imports the API layer; execution fields
        (``workers``/``retries``/``task_timeout``) belong to the drivers
        in :mod:`repro.estimation.parallel` and are ignored here.
        """
        return cls(
            population,
            n=config.n,
            m=config.m,
            error=config.error,
            confidence=config.confidence,
            min_hyper_samples=config.min_hyper_samples,
            max_hyper_samples=config.max_hyper_samples,
            finite_correction=config.finite_correction,
            upper_bound=config.upper_bound,
        )

    # ------------------------------------------------------------------
    def hyper_sample(self, index: int, rng: RngLike = None) -> HyperSample:
        """Produce one hyper-sample estimate (n·m simulated units).

        Degenerate draws (all block maxima equal — possible in tiny
        populations) fall back to the plain sample maximum with
        ``fit=None`` rather than failing the whole run.
        """
        with _SPANS.span("estimator.hyper_sample", k=index) as span:
            hs = self._draw(index, as_rng(rng))
            if _SPANS.enabled:
                span.set(**_hyper_sample_attributes(hs))
        return hs

    def _draw(self, index: int, gen) -> HyperSample:
        """One hyper-sample's work; the caller owns its span."""
        with _HS_TIMER.time():
            # Batched fast path: all n*m units in one vectorized draw.
            maxima = self.population.sample_block_maxima(self.n, self.m, gen)
            units = self.n * self.m
            fallback_reason = None
            try:
                fit = fit_weibull_mle(maxima)
            except FitError as exc:
                fit = None
                fallback_reason = str(exc)
            if fit is None:
                # Fallback path: report the plain sample maximum
                # (observed, so never clipped).
                estimate = float(maxima.max())
            else:
                size = self.population.size if self.finite_correction else None
                estimate = finite_population_estimate(fit, size)
                # The corrected quantile can, at very small alpha-hat,
                # fall below the observed maximum — physically
                # impossible, so clamp.
                estimate = max(estimate, float(maxima.max()))
                if self.upper_bound is not None:
                    estimate = min(estimate, self.upper_bound)
        hs = HyperSample(
            index=index,
            maxima=maxima,
            fit=fit,
            estimate=estimate,
            units_used=units,
            fallback_reason=fallback_reason,
        )
        _HS_TOTAL.inc()
        _UNITS_TOTAL.inc(units)
        if fit is None:
            _HS_FALLBACKS.inc()
        else:
            _ALPHA_HIST.observe(fit.alpha)
            if not fit.shape_gt2:
                _NONREGULAR.inc()
        return hs

    # ------------------------------------------------------------------
    def run(self, rng: RngLike = None, progress=None) -> EstimationResult:
        """Execute the iterative procedure of Figure 4.

        ``progress``, when given, is called as
        ``progress(hs, interval, cumulative_units)`` after every
        hyper-sample (``interval`` is ``None`` before
        ``min_hyper_samples``).  It observes the run for live status
        reporting — e.g. the job service's per-k convergence
        trajectory — and may abort it by raising (the service raises
        :class:`~repro.errors.JobCancelledError` to cancel a job); the
        callback does not participate in the RNG stream, so a run's
        result is bit-identical with or without it.
        """
        gen = as_rng(rng)
        result = EstimationResult(
            estimate=float("nan"),
            interval=None,
            converged=False,
            error_bound=self.error,
            confidence=self.confidence,
            population_name=self.population.name,
            population_size=self.population.size,
        )
        _RUNS_TOTAL.inc()
        tracing = _SPANS.enabled
        with _SPANS.span(
            "estimator.run",
            population=self.population.name,
            population_size=self.population.size,
            n=self.n,
            m=self.m,
            error=self.error,
            confidence=self.confidence,
            min_hyper_samples=self.min_hyper_samples,
            max_hyper_samples=self.max_hyper_samples,
            finite_correction=self.finite_correction,
        ) as run_span, _RUN_TIMER.time():
            estimates = []
            for k in range(1, self.max_hyper_samples + 1):
                with _SPANS.span("estimator.hyper_sample", k=k) as span:
                    hs = self._draw(k, gen)
                    result.hyper_samples.append(hs)
                    result.units_used += hs.units_used
                    estimates.append(hs.estimate)
                    interval = None
                    if k >= self.min_hyper_samples:
                        interval = t_mean_interval(estimates, self.confidence)
                        result.interval = interval
                        result.estimate = interval.mean
                        result.ci_trajectory.append(interval.rel_half_width)
                    if tracing:
                        span.set(**_hyper_sample_attributes(
                            hs,
                            interval.rel_half_width if interval else None,
                            result.units_used,
                        ))
                if progress is not None:
                    progress(hs, interval, result.units_used)
                if interval is not None and (
                    interval.rel_half_width <= self.error
                ):
                    result.converged = True
                    break
            else:
                # Budget exhausted: report the final interval over *all*
                # k hyper-samples so that estimate == interval.mean
                # always holds (previously the estimate was overwritten
                # with the plain mean while the interval could lag
                # behind it).
                interval = t_mean_interval(estimates, self.confidence)
                result.interval = interval
                result.estimate = interval.mean
            run_span.set(
                k=result.k,
                converged=result.converged,
                estimate=result.estimate,
                units_used=result.units_used,
                rel_half_width=result.rel_half_width,
            )
        _K_HIST.observe(result.k)
        if result.converged:
            _RUNS_CONVERGED.inc()
        return result
