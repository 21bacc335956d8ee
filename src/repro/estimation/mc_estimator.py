"""The paper's iterative Monte-Carlo maximum-power estimator.

Pipeline per hyper-sample (Figure 3): draw ``m`` samples of size ``n``
from the population, keep each sample's maximum, fit the generalized
Weibull by profile MLE, and report the location estimate (corrected to
the (1 − 1/|V|) quantile for finite populations).

Iterative loop (Figure 4): accumulate hyper-sample estimates
``P̂_1.., P̂_k``; after each one compute the Student-t confidence
interval of their mean (Theorem 6) and stop when the relative
half-width ``t_{l,k−1}·s / (√k · P̄_MAX)`` is within the user's error
bound ε at confidence level l.  :func:`run_sequential` runs that loop
for every estimator family (a POT batch is a round too).

The estimator is generic over :class:`~repro.vectors.population.PowerPopulation`,
so the same machinery estimates maximum circuit *delay* (paper §V) or
any other bounded simulation metric.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from ..errors import ConfigError, FitError
from ..evt.block_maxima import (
    DEFAULT_NUM_SAMPLES,
    DEFAULT_SAMPLE_SIZE,
)
from ..evt.confidence import t_mean_interval
from ..evt.mle import fit_weibull_mle
from ..obs.spans import get_span_recorder
from ..vectors.generators import RngLike, as_rng
from ..vectors.population import PowerPopulation
from .finite_population import finite_population_estimate
from .result import EstimationResult, HyperSample

__all__ = ["MaxPowerEstimator", "check_run_settings", "run_sequential"]

# The run and each round are one span each; the ``estimator_*`` metrics
# fold from them (repro.obs.fold).
_SPANS = get_span_recorder()


def check_run_settings(settings, population: Optional[PowerPopulation] = None):
    """Validate the Figure-4 loop settings of an engine, the adaptive
    controller or an :class:`~repro.api.EstimatorConfig` (duck-typed).

    Returns ``settings.finite_correction`` resolved against
    ``population`` (``None``: apply iff the population has a size).
    """
    if not 0.0 < settings.error < 1.0:
        raise ConfigError("error must be in (0, 1)")
    if not 0.0 < settings.confidence < 1.0:
        raise ConfigError("confidence must be in (0, 1)")
    if settings.min_hyper_samples < 2:
        raise ConfigError("min_hyper_samples must be >= 2")
    if settings.max_hyper_samples < settings.min_hyper_samples:
        raise ConfigError("max_hyper_samples < min_hyper_samples")
    if settings.upper_bound is not None and settings.upper_bound <= 0:
        raise ConfigError("upper_bound must be positive")
    finite_correction = settings.finite_correction
    if population is None:
        return finite_correction
    if finite_correction is None:
        return population.size is not None
    if finite_correction and population.size is None:
        raise ConfigError(
            "finite_correction requires a population with known size"
        )
    return finite_correction


def _hyper_sample_attributes(
    hs: HyperSample, interval=None, cumulative_units=None
) -> dict:
    """Per-k attributes of an ``estimator.hyper_sample`` span (names
    match :meth:`HyperSample.to_dict` where they overlap); the last two
    are known only inside a run."""
    maxima = hs.maxima
    attributes = {
        "estimate": hs.estimate,
        "units_used": hs.units_used,
        "fallback_reason": hs.fallback_reason,
        "rel_half_width": None if interval is None else interval.rel_half_width,
        "cumulative_units": cumulative_units,
    }
    # A POT round over a flat batch has no values above its threshold.
    for stat in ("min", "mean", "max"):
        attributes[f"maxima_{stat}"] = (
            float(getattr(maxima, stat)()) if maxima.size else None
        )
    for name in ("alpha", "beta", "mu", "shape_gt2"):
        attributes[name] = None if hs.fit is None else getattr(hs.fit, name)
    return attributes


def _instrumented_round(engine, draw, index: int, gen, settle=None):
    """``draw(index, gen)`` under its ``estimator.hyper_sample`` span:
    clip a fitted estimate to ``engine.upper_bound`` (an observed
    maximum never is), record the round on the span, and (inside a run)
    let ``settle(hs)`` fold it in, returning
    ``(interval, cumulative_units)``.
    """
    interval = cumulative_units = None
    with _SPANS.span("estimator.hyper_sample", k=index) as span:
        hs = draw(index, gen)
        bound = engine.upper_bound
        if bound is not None and hs.fallback_reason is None:
            hs = replace(hs, estimate=min(hs.estimate, bound))
        if settle is not None:
            interval, cumulative_units = settle(hs)
        if _SPANS.recording:
            span.set(**_hyper_sample_attributes(hs, interval, cumulative_units))
    return hs, interval


def run_sequential(engine, draw, rng, progress, **run_attributes):
    """Execute the iterative procedure of Figure 4 for any estimator.

    ``draw(k, gen)`` returns round k, one hyper-sample (m Weibull block
    maxima, or one POT batch).  From ``engine.min_hyper_samples`` on,
    the run stops once the Student-t interval of the round estimates
    meets ``engine.error`` at ``engine.confidence``, else unconverged
    after ``engine.max_hyper_samples`` rounds; the estimate is the last
    interval's mean.  ``run_attributes`` name the engine's sampling
    schedule on the ``estimator.run`` span.

    ``progress``, when given, is called as
    ``progress(hs, interval, cumulative_units)`` after every round
    (``interval`` is ``None`` before ``min_hyper_samples``).  It
    observes the run for live status reporting — e.g. the job
    service's per-k convergence trajectory — and may abort it by
    raising (the service raises
    :class:`~repro.errors.JobCancelledError` to cancel a job); the
    callback does not participate in the RNG stream, so a run's result
    is bit-identical with or without it.
    """
    gen = as_rng(rng)
    population, name = engine.population, engine.population.name
    result = EstimationResult(
        estimate=float("nan"),
        interval=None,
        converged=False,
        error_bound=engine.error,
        confidence=engine.confidence,
        # Extensions beyond the paper's method tag the name: "c432 [POT]".
        population_name=(
            name if engine.method == "fixed"
            else f"{name} [{engine.method.upper()}]"
        ),
        population_size=population.size,
        method=engine.method,
    )
    estimates = []

    def settle(hs):
        result.hyper_samples.append(hs)
        result.units_used += hs.units_used
        estimates.append(hs.estimate)
        interval = None
        if len(estimates) >= engine.min_hyper_samples:
            interval = t_mean_interval(estimates, engine.confidence)
            result.interval = interval
            result.estimate = interval.mean
            result.ci_trajectory.append(interval.rel_half_width)
        return interval, result.units_used

    with _SPANS.span(
        "estimator.run",
        population=name,
        population_size=population.size,
        **run_attributes,
        error=engine.error,
        confidence=engine.confidence,
        min_hyper_samples=engine.min_hyper_samples,
        max_hyper_samples=engine.max_hyper_samples,
        finite_correction=engine.finite_correction,
    ) as run_span:
        for k in range(1, engine.max_hyper_samples + 1):
            hs, interval = _instrumented_round(engine, draw, k, gen, settle)
            if progress is not None:
                progress(hs, interval, result.units_used)
            if interval is not None and interval.rel_half_width <= engine.error:
                result.converged = True
                break
        run_span.set(
            k=result.k,
            converged=result.converged,
            estimate=result.estimate,
            units_used=result.units_used,
            rel_half_width=result.rel_half_width,
        )
    return result


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

    #: :attr:`EstimationResult.method` of this engine's runs.
    method = "fixed"

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
        self.population = population
        self.n = n
        self.m = m
        self.error = error
        self.confidence = confidence
        self.min_hyper_samples = min_hyper_samples
        self.max_hyper_samples = max_hyper_samples
        self.upper_bound = upper_bound
        self.finite_correction = finite_correction
        self.finite_correction = check_run_settings(self, population)

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
        """Produce one hyper-sample estimate (n·m simulated units), as
        the round of a run would, under its own
        ``estimator.hyper_sample`` span.

        Degenerate draws (all block maxima equal — possible in tiny
        populations) fall back to the plain sample maximum with
        ``fit=None`` rather than failing the whole run.
        """
        return _instrumented_round(self, self._draw, index, as_rng(rng))[0]

    def _draw(self, index: int, gen) -> HyperSample:
        """One hyper-sample's work: block maxima -> MLE -> estimate."""
        # Batched fast path: all n*m units in one vectorized draw.
        maxima = self.population.sample_block_maxima(self.n, self.m, gen)
        observed = float(maxima.max())
        fit, fallback_reason = None, None
        try:
            fit = fit_weibull_mle(maxima)
        except FitError as exc:
            fallback_reason = str(exc)
        if fit is None:
            # Fallback path: report the plain sample maximum.
            estimate = observed
        else:
            size = self.population.size if self.finite_correction else None
            # The corrected quantile can, at very small alpha-hat, fall
            # below the observed maximum — physically impossible, so
            # clamp.
            estimate = max(finite_population_estimate(fit, size), observed)
        return HyperSample(
            index=index,
            maxima=maxima,
            fit=fit,
            estimate=estimate,
            units_used=self.n * self.m,
            fallback_reason=fallback_reason,
        )

    def run(self, rng: RngLike = None, progress=None) -> EstimationResult:
        """Execute the iterative procedure of Figure 4 over
        hyper-samples (see :func:`run_sequential`)."""
        return run_sequential(
            self, self._draw, rng, progress, n=self.n, m=self.m
        )
