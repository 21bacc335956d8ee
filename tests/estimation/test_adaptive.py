"""Adaptive controller: ``method="auto"`` and the estimator factory."""

import numpy as np
import pytest

from repro.api import EstimatorConfig, estimate, hyper_sample_many, run_many
from repro.errors import ConfigError
from repro.estimation.adaptive import (
    AdaptiveMaxPowerEstimator,
    build_estimator,
)
from repro.estimation.mc_estimator import MaxPowerEstimator
from repro.estimation.pot import PeaksOverThresholdEstimator
from repro.evt.distributions import GeneralizedWeibull
from repro.obs.metrics import get_registry
from repro.vectors.population import FinitePopulation, StreamingPopulation

AUTO = EstimatorConfig(method="auto", max_hyper_samples=12)


@pytest.fixture(scope="module")
def light_pool():
    """Bounded tail: the paper's generalized-Weibull model."""
    dist = GeneralizedWeibull.from_scale(alpha=4.0, scale=0.3, mu=1.0)
    powers = np.clip(dist.rvs(20000, rng=0), 0.0, None)
    return FinitePopulation(powers, name="light-pool")


@pytest.fixture(scope="module")
def heavy_pool():
    """Heavy (lognormal) tail: block maxima resolve it poorly."""
    rng = np.random.default_rng(1)
    powers = rng.lognormal(mean=0.0, sigma=1.2, size=20000)
    return FinitePopulation(powers, name="heavy-pool")


class TestConfigValidation:
    def test_unknown_method(self):
        with pytest.raises(ConfigError, match="unknown method"):
            EstimatorConfig(method="bogus")

    def test_auto_rejects_schedule_overrides(self):
        with pytest.raises(ConfigError, match="method='auto'"):
            EstimatorConfig(method="auto", n=50)
        with pytest.raises(ConfigError, match="method='auto'"):
            EstimatorConfig(method="auto", m=20)

    def test_pot_requires_threshold_policy(self):
        with pytest.raises(ConfigError, match="threshold policy"):
            EstimatorConfig(method="pot")

    def test_fixed_rejects_pot_knobs(self):
        with pytest.raises(ConfigError, match="no effect"):
            EstimatorConfig(pot_threshold_quantile=0.9)
        with pytest.raises(ConfigError, match="no effect"):
            EstimatorConfig(pot_batch_size=200)

    def test_pot_knob_ranges(self):
        with pytest.raises(ConfigError, match=r"\[0.5, 1\)"):
            EstimatorConfig(method="pot", pot_threshold_quantile=0.3)
        with pytest.raises(ConfigError, match=">= 20"):
            EstimatorConfig(
                method="pot", pot_threshold_quantile=0.9, pot_batch_size=5
            )

    def test_controller_constructor_validation(self, light_pool):
        with pytest.raises(ConfigError, match="pilot_m"):
            AdaptiveMaxPowerEstimator(light_pool, pilot_m=2)
        with pytest.raises(ConfigError, match="cv_folds"):
            AdaptiveMaxPowerEstimator(light_pool, cv_folds=0)
        with pytest.raises(ConfigError, match="cv_holdout_blocks"):
            AdaptiveMaxPowerEstimator(light_pool, cv_holdout_blocks=1)

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"error": 0.0}, "error must be"),
            ({"confidence": 1.0}, "confidence must be"),
            ({"min_hyper_samples": 1}, "min_hyper_samples must be"),
            ({"max_hyper_samples": 1}, "max_hyper_samples < min"),
            ({"upper_bound": -1.0}, "upper_bound must be"),
        ],
        ids=["error", "confidence", "min", "max", "upper_bound"],
    )
    def test_controller_validates_run_settings(self, light_pool, kwargs, match):
        with pytest.raises(ConfigError, match=match):
            AdaptiveMaxPowerEstimator(light_pool, **kwargs)

    def test_controller_rejects_finite_correction_on_stream(self):
        stream = StreamingPopulation(
            lambda n, rng: (None, None), lambda a, b: np.zeros(1)
        )
        with pytest.raises(ConfigError, match="known size"):
            AdaptiveMaxPowerEstimator(stream, finite_correction=True)


class TestFactory:
    def test_dispatch(self, light_pool):
        assert isinstance(
            build_estimator(light_pool, EstimatorConfig()), MaxPowerEstimator
        )
        assert isinstance(
            build_estimator(
                light_pool,
                EstimatorConfig(method="pot", pot_threshold_quantile=0.9),
            ),
            PeaksOverThresholdEstimator,
        )
        assert isinstance(
            build_estimator(light_pool, AUTO), AdaptiveMaxPowerEstimator
        )

    def test_config_threads_through(self, light_pool):
        config = EstimatorConfig(
            method="pot",
            pot_threshold_quantile=0.95,
            pot_batch_size=500,
            error=0.04,
            confidence=0.95,
            max_hyper_samples=33,
        )
        est = build_estimator(light_pool, config)
        assert est.threshold_quantile == 0.95
        assert est.batch_size == 500
        assert est.error == 0.04
        assert est.confidence == 0.95
        assert est.max_hyper_samples == 33

    def test_pot_batch_defaults_to_schedule_units(self, light_pool):
        config = EstimatorConfig(
            method="pot", pot_threshold_quantile=0.9, n=40, m=8
        )
        est = build_estimator(light_pool, config)
        assert est.batch_size == 40 * 8

    def test_hyper_sample_many_is_fixed_only(self, light_pool):
        with pytest.raises(ConfigError, match="method='fixed'"):
            hyper_sample_many(light_pool, 2, config=AUTO)


class TestDecision:
    def test_family_tracks_cv_scores(self, light_pool, heavy_pool):
        for pool in (light_pool, heavy_pool):
            for seed in range(4):
                decision, engine, overhead = AdaptiveMaxPowerEstimator(
                    pool
                ).decide(np.random.default_rng(seed))
                assert decision.family == (
                    "pot"
                    if decision.cv_score_pot < decision.cv_score_weibull
                    else "weibull"
                )
                assert decision.chosen_n in decision.candidate_ns
                assert decision.chosen_m >= 1
                assert overhead == decision.pilot_units > 0
                assert 0.0 <= decision.pilot_fallback_rate <= 1.0
                expected = (
                    PeaksOverThresholdEstimator
                    if decision.family == "pot"
                    else MaxPowerEstimator
                )
                assert isinstance(engine, expected)

    def test_pilot_cost_charged_to_budget(self, light_pool):
        controller = AdaptiveMaxPowerEstimator(light_pool, max_hyper_samples=12)
        decision, engine, overhead = controller.decide(np.random.default_rng(2))
        assert engine.max_hyper_samples < 12
        assert engine.max_hyper_samples >= controller.min_hyper_samples

    def test_result_records_decision(self, light_pool):
        result = estimate(light_pool, AUTO, seed=7)
        assert result.method == "auto"
        assert result.decision is not None
        assert result.decision.chosen_n > 0
        assert result.decision.family in ("weibull", "pot")
        # Total spend includes the pilot overhead on top of the engine.
        engine_units = sum(hs.units_used for hs in result.hyper_samples)
        assert result.units_used == engine_units + result.decision.pilot_units

    def test_round_trips_through_dict(self, light_pool):
        result = estimate(light_pool, AUTO, seed=7)
        clone = type(result).from_dict(result.to_dict())
        assert clone.to_dict() == result.to_dict()
        assert clone.decision == result.decision

    def test_metrics_recorded(self, light_pool):
        registry = get_registry()
        was_enabled = registry.enabled
        registry.enable()
        try:
            estimate(light_pool, AUTO, seed=7)
            snap = registry.snapshot()
        finally:
            if not was_enabled:
                registry.disable()
                registry.reset()
        counters = {c["name"] for c in snap["counters"]}
        histograms = {h["name"] for h in snap["histograms"]}
        assert "adaptive_runs_total" in counters
        assert "adaptive_pilot_units_total" in counters
        assert "adaptive_chosen_n" in histograms


class TestSeedDeterminism:
    def test_estimate_bit_identical(self, light_pool):
        a = estimate(light_pool, AUTO, seed=7)
        b = estimate(light_pool, AUTO, seed=7)
        assert a.to_dict() == b.to_dict()

    def test_run_many_workers_invariant(self, light_pool):
        serial = run_many(light_pool, 3, AUTO, base_seed=11)
        parallel = run_many(
            light_pool,
            3,
            EstimatorConfig(method="auto", max_hyper_samples=12, workers=4),
            base_seed=11,
        )
        assert [r.to_dict() for r in serial] == [
            r.to_dict() for r in parallel
        ]

    def test_checkpoint_resume_bit_identical(self, light_pool, tmp_path):
        from repro.errors import WorkerError
        from repro.estimation import parallel

        from .faultlib import FaultyEstimator

        controller = AdaptiveMaxPowerEstimator(light_pool, max_hyper_samples=12)
        baseline = [
            r.to_dict()
            for r in parallel.run_many(controller, 4, base_seed=5, workers=1)
        ]
        # First pass dies on run 2 ("the process was killed"); the
        # resume completes the batch and must not re-run or perturb the
        # runs that already committed to the checkpoint.
        path = tmp_path / "auto.jsonl"
        faulty = FaultyEstimator(controller, crash_indices={2}, max_attempt=None)
        with pytest.raises(WorkerError):
            parallel.run_many(
                faulty, 4, base_seed=5, workers=1, retries=0,
                checkpoint=path, backoff=0.0, task_timeout=None,
            )
        resumed = parallel.run_many(
            controller, 4, base_seed=5, workers=1,
            checkpoint=path, resume=True,
        )
        assert [r.to_dict() for r in resumed] == baseline


class TestFamilyDifferential:
    def test_bounded_tail_both_families_converge(self, light_pool):
        truth = light_pool.actual_max_power
        pot = PeaksOverThresholdEstimator(light_pool).run(rng=7)
        weib = MaxPowerEstimator(light_pool).run(rng=7)
        assert pot.converged and weib.converged
        assert abs(pot.relative_error(truth)) < 0.10
        assert abs(weib.relative_error(truth)) < 0.10

    def test_heavy_tail_neither_family_claims_convergence(self, heavy_pool):
        # Lognormal tails defeat both models at this budget; the honest
        # outcome is converged=False, not a confidently wrong interval.
        pot = PeaksOverThresholdEstimator(
            heavy_pool, max_hyper_samples=20
        ).run(rng=7)
        weib = MaxPowerEstimator(heavy_pool, max_hyper_samples=20).run(rng=7)
        assert not pot.converged
        assert not weib.converged

    def test_cv_scores_separate_tail_difficulty(self, light_pool, heavy_pool):
        def mean_scores(pool):
            scores = [
                AdaptiveMaxPowerEstimator(pool).decide(
                    np.random.default_rng(seed)
                )[0]
                for seed in range(4)
            ]
            best = [
                min(d.cv_score_weibull, d.cv_score_pot) for d in scores
            ]
            return float(np.mean(best))

        # Prediction error on held-out block maxima is an order of
        # magnitude worse on the heavy tail: the controller *measures*
        # tail difficulty rather than assuming the paper's model.
        assert mean_scores(light_pool) < 0.15
        assert mean_scores(heavy_pool) > 0.25
