"""EstimationResult / HyperSample JSON serialization round trips."""

import json

import numpy as np
import pytest

from repro.estimation.mc_estimator import MaxPowerEstimator
from repro.estimation.result import EstimationResult, HyperSample
from repro.evt.distributions import GeneralizedWeibull
from repro.schemas import RESULT_SCHEMA
from repro.vectors.population import FinitePopulation


@pytest.fixture(scope="module")
def result():
    dist = GeneralizedWeibull.from_scale(alpha=4.0, scale=0.3, mu=1.0)
    powers = np.clip(dist.rvs(8000, rng=0), 0.0, None)
    pop = FinitePopulation(powers, name="synthetic")
    est = MaxPowerEstimator(pop, error=0.05, confidence=0.90)
    return est.run(np.random.default_rng(42))


class TestToDict:
    def test_schema_and_top_level_fields(self, result):
        d = result.to_dict()
        assert d["schema"] == RESULT_SCHEMA
        assert d["estimate"] == result.estimate
        assert d["converged"] == result.converged
        assert d["k"] == result.k
        assert d["units_used"] == result.units_used
        assert d["population_name"] == "synthetic"
        assert d["population_size"] == 8000
        assert len(d["hyper_samples"]) == result.k
        assert d["ci_trajectory"] == result.ci_trajectory

    def test_hyper_samples_include_fits(self, result):
        d = result.to_dict()
        fitted = [hs for hs in d["hyper_samples"] if hs["fit"] is not None]
        assert fitted  # synthetic Weibull data: fits succeed
        for hs in fitted:
            for key in ("alpha", "beta", "mu", "loglik", "shape_gt2"):
                assert key in hs["fit"]

    def test_json_text_is_strict_json(self, result):
        json.loads(result.to_json())
        json.loads(result.to_json(indent=2))


class TestRoundTrip:
    def test_full_round_trip_preserves_everything(self, result):
        back = EstimationResult.from_json(result.to_json())
        assert back.to_dict() == result.to_dict()
        assert back.estimate == result.estimate
        assert back.units_used == result.units_used
        assert back.ci_trajectory == result.ci_trajectory
        assert back.interval.low == result.interval.low
        assert back.interval.high == result.interval.high
        assert back.rel_half_width == result.rel_half_width
        for a, b in zip(result.hyper_samples, back.hyper_samples):
            assert np.array_equal(a.maxima, b.maxima)
            assert a.estimate == b.estimate
            if a.fit is not None:
                assert b.fit.alpha == a.fit.alpha
                assert b.fit.mu == a.fit.mu
                # the distribution is reconstructed, not just echoed
                assert b.fit.distribution.cdf(a.fit.mu * 0.9) == (
                    pytest.approx(a.fit.distribution.cdf(a.fit.mu * 0.9))
                )

    def test_degenerate_fallback_round_trip(self):
        # Flat population -> every fit degenerates to the plain maximum.
        pop = FinitePopulation(np.full(2000, 1.5), name="flat")
        est = MaxPowerEstimator(pop, error=0.05, confidence=0.90)
        result = est.run(np.random.default_rng(0))
        assert all(hs.fit is None for hs in result.hyper_samples)
        assert all(hs.fallback_reason for hs in result.hyper_samples)
        back = EstimationResult.from_json(result.to_json())
        assert back.to_dict() == result.to_dict()
        assert back.hyper_samples[0].degenerate
        assert (
            back.hyper_samples[0].fallback_reason
            == result.hyper_samples[0].fallback_reason
        )

    def test_hyper_sample_round_trip_standalone(self):
        hs = HyperSample(
            index=3,
            maxima=np.array([1.0, 2.0, 3.0]),
            fit=None,
            estimate=3.0,
            units_used=90,
            fallback_reason="degenerate sample",
        )
        back = HyperSample.from_dict(
            json.loads(json.dumps(hs.to_dict()))
        )
        assert back.to_dict() == hs.to_dict()
        assert back.maxima.dtype == np.float64

    def test_missing_optional_fields_default(self, result):
        d = result.to_dict()
        del d["ci_trajectory"]
        del d["population_name"]
        back = EstimationResult.from_dict(d)
        assert back.ci_trajectory == []
        assert back.population_name == ""
