"""The iterative hyper-sample estimator (the paper's core flow)."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.estimation.mc_estimator import MaxPowerEstimator
from repro.estimation.pot import PeaksOverThresholdEstimator
from repro.evt.distributions import GeneralizedWeibull
from repro.vectors.population import FinitePopulation, StreamingPopulation


def weibull_population(alpha=4.0, mu=1.0, size=20000, seed=0):
    dist = GeneralizedWeibull.from_scale(alpha=alpha, scale=0.3, mu=mu)
    powers = dist.rvs(size, rng=seed)
    powers = np.clip(powers, 0.0, None)
    return FinitePopulation(powers, name="synthetic-weibull")


class TestConfiguration:
    def test_parameter_validation(self, small_population):
        with pytest.raises(ConfigError):
            MaxPowerEstimator(small_population, n=1)
        with pytest.raises(ConfigError):
            MaxPowerEstimator(small_population, m=2)
        with pytest.raises(ConfigError):
            MaxPowerEstimator(small_population, error=0.0)
        with pytest.raises(ConfigError):
            MaxPowerEstimator(small_population, confidence=1.0)
        with pytest.raises(ConfigError):
            MaxPowerEstimator(small_population, min_hyper_samples=1)
        with pytest.raises(ConfigError):
            MaxPowerEstimator(
                small_population, min_hyper_samples=5, max_hyper_samples=4
            )
        with pytest.raises(ConfigError):
            MaxPowerEstimator(small_population, upper_bound=-1.0)

    def test_finite_correction_defaults(self, small_population):
        est = MaxPowerEstimator(small_population)
        assert est.finite_correction is True
        stream = StreamingPopulation(
            lambda n, rng: (None, None), lambda a, b: np.zeros(1)
        )
        est2 = MaxPowerEstimator(stream)
        assert est2.finite_correction is False
        with pytest.raises(ConfigError):
            MaxPowerEstimator(stream, finite_correction=True)


class TestHyperSample:
    def test_units_accounting(self, small_population):
        est = MaxPowerEstimator(small_population, n=25, m=8)
        hs = est.hyper_sample(1, rng=1)
        assert hs.units_used == 200
        assert hs.maxima.shape == (8,)

    def test_estimate_at_least_observed_max(self, small_population):
        est = MaxPowerEstimator(small_population)
        rng = np.random.default_rng(2)
        for i in range(20):
            hs = est.hyper_sample(i, rng)
            assert hs.estimate >= hs.maxima.max() - 1e-15

    def test_degenerate_sample_falls_back(self):
        pop = FinitePopulation(np.full(100, 3.0), name="flat")
        est = MaxPowerEstimator(pop)
        hs = est.hyper_sample(1, rng=1)
        assert hs.degenerate
        assert hs.fit is None
        assert hs.estimate == 3.0
        assert hs.units_used == est.n * est.m

    def test_mu_rounding_to_the_maximum_falls_back(self):
        # A spread below ~1e-12 of the values: the smallest μ offsets
        # round to max(x), so some rounds' fits fail.  Those rounds fall
        # back to the sample maximum instead of aborting the run.
        powers = 1.0 + np.random.default_rng(0).uniform(0.0, 1e-13, 20000)
        pop = FinitePopulation(powers, name="flat-to-1e-13")
        result = MaxPowerEstimator(pop).run(rng=0)
        fallbacks = [hs for hs in result.hyper_samples if hs.fallback_reason]
        assert fallbacks
        assert all(hs.estimate == hs.maxima.max() for hs in fallbacks)

    def test_uses_batched_block_maxima_path(self, small_population):
        """hyper_sample consumes the RNG exactly like one batched
        sample_block_maxima call (the vectorized hot path)."""
        est = MaxPowerEstimator(small_population, n=10, m=5)
        hs = est.hyper_sample(1, rng=77)
        expected = small_population.sample_block_maxima(10, 5, rng=77)
        assert np.array_equal(hs.maxima, expected)

    def test_upper_bound_clips(self, small_population):
        actual = small_population.actual_max_power
        bound = actual * 0.5
        est = MaxPowerEstimator(small_population, upper_bound=bound)
        hs = est.hyper_sample(1, rng=3)
        assert hs.estimate <= bound + 1e-15


class TestRun:
    def test_converges_on_synthetic_population(self):
        pop = weibull_population()
        result = MaxPowerEstimator(pop).run(rng=5)
        assert result.converged
        assert result.interval is not None
        assert result.rel_half_width <= 0.05
        assert abs(result.relative_error(pop.actual_max_power)) < 0.25
        assert result.population_size == pop.size
        assert result.population_name == pop.name

    def test_units_equal_k_times_nm(self):
        pop = weibull_population(seed=3)
        est = MaxPowerEstimator(pop, n=30, m=10)
        result = est.run(rng=7)
        assert result.units_used == result.k * 300
        assert len(result.hyper_samples) == result.k
        assert result.k >= 2

    def test_estimate_is_mean_of_hyper_samples(self):
        pop = weibull_population(seed=4)
        result = MaxPowerEstimator(pop).run(rng=9)
        values = [hs.estimate for hs in result.hyper_samples]
        assert result.estimate == pytest.approx(np.mean(values))

    def test_reproducible_with_seed(self):
        pop = weibull_population(seed=5)
        r1 = MaxPowerEstimator(pop).run(rng=11)
        r2 = MaxPowerEstimator(pop).run(rng=11)
        assert r1.estimate == r2.estimate
        assert r1.units_used == r2.units_used

    def test_flat_population_converges_immediately(self):
        pop = FinitePopulation(np.full(1000, 2.5), name="flat")
        result = MaxPowerEstimator(pop).run(rng=1)
        assert result.converged
        assert result.k == 2
        assert result.estimate == 2.5
        assert result.interval.half_width == 0.0

    def test_budget_exhaustion_flags_unconverged(self):
        rng_pool = np.random.default_rng(0)
        # Extremely heavy-tailed pool to defeat convergence at k<=3.
        powers = rng_pool.pareto(0.5, size=5000) + 0.1
        pop = FinitePopulation(powers, name="pareto")
        result = MaxPowerEstimator(
            pop, error=0.001, max_hyper_samples=3
        ).run(rng=3)
        assert not result.converged
        assert result.k == 3
        assert np.isfinite(result.estimate)

    @pytest.mark.parametrize(
        "engine", [MaxPowerEstimator, PeaksOverThresholdEstimator],
        ids=["fixed", "pot"],
    )
    def test_unconverged_estimate_equals_interval_mean(self, engine):
        """Regression: the unconverged fallback overwrote the estimate
        with the plain mean while the interval lagged behind it."""
        rng_pool = np.random.default_rng(1)
        powers = rng_pool.pareto(0.5, size=5000) + 0.1
        pop = FinitePopulation(powers, name="pareto")
        result = engine(pop, error=0.0001, max_hyper_samples=4).run(rng=5)
        assert not result.converged
        assert result.interval is not None
        assert result.estimate == result.interval.mean
        assert result.interval.k == result.k
        values = [hs.estimate for hs in result.hyper_samples]
        assert result.estimate == pytest.approx(np.mean(values))

    def test_tighter_error_needs_more_units(self):
        pop = weibull_population(seed=6)
        rng = np.random.default_rng(13)
        loose = [
            MaxPowerEstimator(pop, error=0.10).run(rng).units_used
            for _ in range(5)
        ]
        rng = np.random.default_rng(13)
        tight = [
            MaxPowerEstimator(pop, error=0.02).run(rng).units_used
            for _ in range(5)
        ]
        assert np.mean(tight) >= np.mean(loose)

    def test_summary_mentions_status(self):
        pop = weibull_population(seed=7)
        result = MaxPowerEstimator(pop).run(rng=15)
        text = result.summary()
        assert "converged" in text
        assert "units=" in text

    def test_relative_error_sign(self):
        pop = weibull_population(seed=8)
        result = MaxPowerEstimator(pop).run(rng=17)
        actual = pop.actual_max_power
        err = result.relative_error(actual)
        assert err == pytest.approx((result.estimate - actual) / actual)

    def test_works_on_streaming_population(self):
        dist = GeneralizedWeibull.from_scale(alpha=4.0, scale=0.3, mu=1.0)

        def generate(n, rng):
            return n, rng  # opaque pass-through

        def power(n, rng):
            return dist.rvs(n, rng)

        pop = StreamingPopulation(generate, power, name="stream")
        result = MaxPowerEstimator(pop, max_hyper_samples=100).run(rng=19)
        assert result.population_size is None
        # Infinite population: the raw mu-hat estimator is used.
        assert result.estimate == pytest.approx(1.0, abs=0.4)
