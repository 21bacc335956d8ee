"""Peaks-over-threshold maximum estimation."""

import numpy as np
import pytest

import repro.estimation.pot as pot_module
from repro.api import EstimatorConfig, estimate
from repro.errors import ConfigError, FitError
from repro.estimation.pot import PeaksOverThresholdEstimator
from repro.evt.distributions import GeneralizedWeibull
from repro.vectors.population import FinitePopulation

from ..evt.test_gpd import INFEASIBLE_START_EXCEEDANCES


@pytest.fixture(scope="module")
def pool():
    true = GeneralizedWeibull.from_scale(alpha=4.0, scale=0.3, mu=1.0)
    powers = np.clip(true.rvs(20000, rng=3), 0.0, None)
    return FinitePopulation(powers, name="weibull-pool")


@pytest.fixture(scope="module")
def pareto_pool():
    rng_pool = np.random.default_rng(10)
    return FinitePopulation(
        rng_pool.pareto(1.0, size=20000) + 1.0, name="pareto"
    )


def gpd_outcomes(monkeypatch):
    """Record each GPD fit: its tail index, or ``None`` when it raised."""
    outcomes = []
    fit_gpd = pot_module.fit_gpd

    def recording(exceedances):
        try:
            gpd = fit_gpd(exceedances)
        except FitError:
            outcomes.append(None)
            raise
        outcomes.append(gpd.xi)
        return gpd

    monkeypatch.setattr(pot_module, "fit_gpd", recording)
    return outcomes


class TestConfiguration:
    def test_validation(self, pool):
        with pytest.raises(ConfigError):
            PeaksOverThresholdEstimator(pool, batch_size=10)
        with pytest.raises(ConfigError):
            PeaksOverThresholdEstimator(pool, threshold_quantile=0.4)
        with pytest.raises(ConfigError):
            PeaksOverThresholdEstimator(pool, threshold_quantile=1.0)
        with pytest.raises(ConfigError):
            PeaksOverThresholdEstimator(pool, error=0)
        with pytest.raises(ConfigError, match="min_hyper_samples must be"):
            PeaksOverThresholdEstimator(pool, min_hyper_samples=1)
        with pytest.raises(ConfigError, match="max_hyper_samples < min"):
            PeaksOverThresholdEstimator(
                pool, min_hyper_samples=5, max_hyper_samples=4
            )


class TestRounds:
    def test_round_units_and_domain(self, pool):
        est = PeaksOverThresholdEstimator(pool, batch_size=400)
        hs = est.round_estimate(1, rng=1)
        assert hs.units_used == 400
        assert hs.estimate > 0
        # The estimate can never sit below the best value in the batch.
        assert hs.estimate >= hs.maxima.max() - 1e-12

    def test_fallback_rounds_say_why(self, pareto_pool, monkeypatch):
        outcomes = gpd_outcomes(monkeypatch)
        est = PeaksOverThresholdEstimator(pareto_pool)
        rng = np.random.default_rng(11)
        rounds = [est.round_estimate(k, rng) for k in range(1, 13)]
        flagged = [hs for hs in rounds if hs.fallback_reason is not None]
        assert flagged  # the heavy tail leaves the endpoint unidentified
        for hs, xi in zip(rounds, outcomes):
            assert (hs.fallback_reason is None) == (xi is not None and xi < 0)
            if xi is not None and xi >= 0:
                assert hs.fallback_reason == (
                    "GPD tail index xi >= 0: endpoint not identified"
                )
        for hs in flagged:
            # The batch maximum, recovered from the stored exceedances.
            assert hs.estimate == pytest.approx(hs.maxima.max(), rel=1e-12)

    def test_infeasible_fit_falls_back_with_its_reason(self, monkeypatch):
        # 91 zeros put the 0.9 quantile of a 101-unit batch at 0, so the
        # round's exceedances are exactly these values, whose GPD fit has
        # an infeasible start.
        batch = np.concatenate([np.zeros(91), INFEASIBLE_START_EXCEEDANCES])
        population = FinitePopulation(batch, name="fixed-batch")
        monkeypatch.setattr(
            population, "sample_powers", lambda n, rng=None: batch.copy()
        )
        est = PeaksOverThresholdEstimator(population, batch_size=101)
        hs = est.round_estimate(1, rng=0)
        assert hs.fallback_reason.startswith("infeasible start")
        assert hs.estimate == batch.max()

    def test_fitted_rounds_carry_no_reason(self, pool, monkeypatch):
        outcomes = gpd_outcomes(monkeypatch)
        est = PeaksOverThresholdEstimator(pool)
        rng = np.random.default_rng(12)
        rounds = [est.round_estimate(k, rng) for k in range(1, 13)]
        fitted = [
            hs for hs, xi in zip(rounds, outcomes)
            if xi is not None and xi < 0
        ]
        assert fitted
        assert all(hs.fallback_reason is None for hs in fitted)

    def test_only_fallback_rounds_are_degenerate(self, pool):
        result = PeaksOverThresholdEstimator(pool).run(rng=7)
        fitted = [hs for hs in result.hyper_samples if hs.fallback_reason is None]
        assert fitted
        assert not any(hs.degenerate for hs in fitted)
        assert all(
            hs.degenerate == (hs.fallback_reason is not None)
            for hs in result.hyper_samples
        )

    def test_round_reproducible(self, pool):
        est = PeaksOverThresholdEstimator(pool)
        a = est.round_estimate(1, rng=5)
        b = est.round_estimate(1, rng=5)
        assert a.estimate == b.estimate


class TestRun:
    def test_converges_near_truth(self, pool):
        est = PeaksOverThresholdEstimator(pool)
        result = est.run(rng=7)
        assert result.converged
        assert "[POT]" in result.population_name
        assert abs(result.relative_error(pool.actual_max_power)) < 0.25

    def test_units_accounting(self, pool):
        est = PeaksOverThresholdEstimator(pool, batch_size=300)
        result = est.run(rng=8)
        assert result.units_used == result.k * 300

    def test_comparable_to_block_maxima_estimator(self, pool):
        from repro.estimation.mc_estimator import MaxPowerEstimator

        rng = np.random.default_rng(9)
        pot_errors, bm_errors = [], []
        for _ in range(6):
            pot = PeaksOverThresholdEstimator(pool).run(rng=rng)
            bm = MaxPowerEstimator(pool).run(rng=rng)
            actual = pool.actual_max_power
            pot_errors.append(abs(pot.relative_error(actual)))
            bm_errors.append(abs(bm.relative_error(actual)))
        # Both statistical routes land in the same accuracy regime.
        assert np.mean(pot_errors) < 0.2
        assert np.mean(bm_errors) < 0.2

    def test_heavy_tail_falls_back_to_sample_max(self):
        rng_pool = np.random.default_rng(10)
        heavy = FinitePopulation(
            rng_pool.pareto(1.0, size=20000) + 1.0, name="pareto"
        )
        est = PeaksOverThresholdEstimator(heavy, max_hyper_samples=4)
        result = est.run(rng=11)
        # No crash, finite answer; POT cannot certify an endpoint here.
        assert np.isfinite(result.estimate)

    def test_budget_exhaustion_flagged(self, pool):
        est = PeaksOverThresholdEstimator(
            pool, error=1e-6, max_hyper_samples=3
        )
        result = est.run(rng=12)
        assert not result.converged
        assert result.k == 3


class TestUpperBound:
    @pytest.mark.parametrize(
        "config",
        [
            EstimatorConfig(),
            EstimatorConfig(method="pot", pot_threshold_quantile=0.9),
            EstimatorConfig(method="auto"),
        ],
        ids=["fixed", "pot", "auto"],
    )
    def test_fitted_rounds_never_exceed_bound(self, pool, config):
        bound = 0.9 * pool.actual_max_power
        result = estimate(
            pool, config.with_overrides(upper_bound=bound), seed=7
        )
        if config.method == "auto":
            assert result.decision.family == "pot"
        fitted = [
            hs for hs in result.hyper_samples if hs.fallback_reason is None
        ]
        assert fitted
        assert all(hs.estimate <= bound for hs in fitted)
        # An observed maximum is reported as is, never clipped.
        assert all(
            hs.estimate == pytest.approx(hs.maxima.max(), rel=1e-12)
            for hs in result.hyper_samples
            if hs.fallback_reason is not None
        )
