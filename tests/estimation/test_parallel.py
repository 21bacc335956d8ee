"""Parallel estimation drivers: seed contract and worker independence."""

import pickle

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.estimation.mc_estimator import MaxPowerEstimator
from repro.estimation.parallel import (
    hyper_sample_many,
    run_many,
    spawn_run_seeds,
)
from repro.evt.distributions import GeneralizedWeibull
from repro.vectors.population import FinitePopulation, StreamingPopulation


@pytest.fixture(scope="module")
def estimator():
    dist = GeneralizedWeibull.from_scale(alpha=4.0, scale=0.3, mu=1.0)
    powers = np.clip(dist.rvs(8000, rng=0), 0.0, None)
    pop = FinitePopulation(powers, name="synthetic")
    return MaxPowerEstimator(pop, error=0.05, confidence=0.90)


class TestSpawnRunSeeds:
    def test_deterministic_and_distinct(self):
        a = spawn_run_seeds(42, 5)
        b = spawn_run_seeds(42, 5)
        assert len(a) == 5
        for s1, s2 in zip(a, b):
            assert np.array_equal(
                np.random.default_rng(s1).integers(0, 1 << 30, 4),
                np.random.default_rng(s2).integers(0, 1 << 30, 4),
            )
        # distinct children produce distinct streams
        d1 = np.random.default_rng(a[0]).random(8)
        d2 = np.random.default_rng(a[1]).random(8)
        assert not np.array_equal(d1, d2)

    def test_accepts_seed_sequence(self):
        root = np.random.SeedSequence([7, 11])
        children = spawn_run_seeds(root, 3)
        assert len(children) == 3

    def test_rejects_bad_count(self):
        with pytest.raises(ConfigError):
            spawn_run_seeds(0, 0)


class TestRunMany:
    def test_serial_matches_manual_loop(self, estimator):
        results = run_many(estimator, 4, base_seed=11, workers=1)
        seeds = spawn_run_seeds(11, 4)
        manual = [estimator.run(np.random.default_rng(s)) for s in seeds]
        assert [r.estimate for r in results] == [r.estimate for r in manual]
        assert [r.units_used for r in results] == [
            r.units_used for r in manual
        ]

    def test_serial_vs_parallel_bit_identical(self, estimator):
        serial = run_many(estimator, 6, base_seed=123, workers=1)
        parallel = run_many(estimator, 6, base_seed=123, workers=3)
        assert [r.estimate for r in serial] == [
            r.estimate for r in parallel
        ]
        assert [r.units_used for r in serial] == [
            r.units_used for r in parallel
        ]
        assert [r.converged for r in serial] == [
            r.converged for r in parallel
        ]

    def test_results_independent_of_worker_count(self, estimator):
        two = run_many(estimator, 5, base_seed=9, workers=2)
        four = run_many(estimator, 5, base_seed=9, workers=4)
        assert [r.estimate for r in two] == [r.estimate for r in four]

    def test_different_base_seeds_differ(self, estimator):
        a = run_many(estimator, 3, base_seed=1, workers=1)
        b = run_many(estimator, 3, base_seed=2, workers=1)
        assert [r.estimate for r in a] != [r.estimate for r in b]

    def test_workers_inherit_an_unpicklable_estimator(self):
        # Pool workers are forked, so they inherit the estimator rather
        # than unpickle it: a population closed over local lambdas cannot
        # be pickled, yet runs in parallel with the serial estimates.
        dist = GeneralizedWeibull.from_scale(alpha=4.0, scale=0.3, mu=1.0)
        pop = StreamingPopulation(
            lambda n, rng: (rng.random(n), rng.random(n)),
            lambda v1, v2: dist.ppf(v1),
            name="local-lambdas",
        )
        est = MaxPowerEstimator(pop, error=0.05, confidence=0.90)
        # Pythons before 3.14 raise AttributeError for a local object.
        with pytest.raises((pickle.PicklingError, AttributeError)):
            pickle.dumps(est)
        serial = run_many(est, 3, base_seed=5, workers=1)
        parallel = run_many(est, 3, base_seed=5, workers=2)
        assert [r.estimate for r in parallel] == [r.estimate for r in serial]
        assert [r.units_used for r in parallel] == [
            r.units_used for r in serial
        ]

    def test_validation(self, estimator):
        with pytest.raises(ConfigError):
            run_many(estimator, 0, base_seed=1)
        with pytest.raises(ConfigError):
            run_many(estimator, 2, base_seed=1, workers=0)


class TestHyperSampleMany:
    def test_indices_are_one_based_and_ordered(self, estimator):
        samples = hyper_sample_many(estimator, 5, base_seed=3, workers=1)
        assert [hs.index for hs in samples] == [1, 2, 3, 4, 5]

    def test_serial_vs_parallel_bit_identical(self, estimator):
        serial = hyper_sample_many(estimator, 8, base_seed=21, workers=1)
        parallel = hyper_sample_many(estimator, 8, base_seed=21, workers=2)
        assert [hs.estimate for hs in serial] == [
            hs.estimate for hs in parallel
        ]
        for s, p in zip(serial, parallel):
            assert np.array_equal(s.maxima, p.maxima)

    def test_validation(self, estimator):
        with pytest.raises(ConfigError):
            hyper_sample_many(estimator, 3, workers=-1)
