"""The unified public API (repro.api): config object + facades."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import (
    EstimatorConfig,
    build_population,
    estimate,
    hyper_sample_many,
    run_many,
)
from repro.errors import ConfigError
from repro.estimation.mc_estimator import MaxPowerEstimator
from repro.estimation.parallel import run_many as raw_run_many

#: One config per method, for the contract every method's run shares.
PROGRESS_CONFIGS = [
    EstimatorConfig(max_hyper_samples=10),
    EstimatorConfig(
        method="pot", pot_threshold_quantile=0.9, max_hyper_samples=10
    ),
    EstimatorConfig(method="auto", max_hyper_samples=30),
]
METHOD_IDS = ["fixed", "pot", "auto"]


class TestEstimatorConfig:
    def test_defaults_match_estimator(self, small_population):
        est = MaxPowerEstimator.from_config(small_population, EstimatorConfig())
        ref = MaxPowerEstimator(small_population)
        assert (est.n, est.m, est.error, est.confidence) == (
            ref.n, ref.m, ref.error, ref.confidence
        )
        assert est.finite_correction == ref.finite_correction

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n": 1},
            {"m": 2},
            {"error": 0.0},
            {"error": 1.0},
            {"confidence": 1.5},
            {"min_hyper_samples": 1},
            {"max_hyper_samples": 1},
            {"upper_bound": -1.0},
            {"workers": 0},
            {"retries": -1},
            {"task_timeout": 0.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigError):
            EstimatorConfig(**kwargs)

    def test_with_overrides(self):
        config = EstimatorConfig().with_overrides(error=0.01, workers=3)
        assert config.error == 0.01 and config.workers == 3
        assert EstimatorConfig().error == 0.05  # original untouched

    def test_with_overrides_validates(self):
        with pytest.raises(ConfigError):
            EstimatorConfig().with_overrides(error=2.0)


class TestBuildPopulation:
    def test_matches_manual_build(self, c17, tmp_path):
        from repro.netlist.bench import dump_bench
        from repro.sim.power import PowerAnalyzer
        from repro.vectors.generators import high_activity_vector_pairs
        from repro.vectors.population import FinitePopulation

        path = tmp_path / "c17.bench"
        dump_bench(c17, path)
        pop = build_population(str(path), population_size=300, seed=5)
        analyzer = PowerAnalyzer(c17, frequency_hz=50e6, mode="zero")
        ref = FinitePopulation.build(
            lambda n, g: high_activity_vector_pairs(n, c17.num_inputs, rng=g),
            analyzer.powers_for_pairs,
            num_pairs=300,
            seed=5,
            name="ref",
        )
        assert np.array_equal(pop.powers, ref.powers)

    def test_streaming_when_size_zero(self, c17, tmp_path):
        from repro.netlist.bench import dump_bench
        from repro.vectors.population import StreamingPopulation

        path = tmp_path / "c17.bench"
        dump_bench(c17, path)
        pop = build_population(str(path), population_size=0)
        assert isinstance(pop, StreamingPopulation)
        assert pop.size is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"population_size": -1},
            {"sim_mode": "bogus"},
            {"frequency_mhz": 0.0},
            {"activity": 1.5},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigError):
            build_population("c432", **kwargs)


class TestEstimateFacade:
    def test_population_seed_contract(self, small_population):
        config = EstimatorConfig(max_hyper_samples=10)
        via_facade = estimate(small_population, config, seed=7)
        direct = MaxPowerEstimator.from_config(small_population, config).run(
            rng=np.random.default_rng(7)
        )
        assert via_facade.to_dict() == direct.to_dict()

    def test_circuit_parity_with_manual_pipeline(self, c17, tmp_path):
        from repro.netlist.bench import dump_bench

        path = tmp_path / "c17.bench"
        dump_bench(c17, path)
        config = EstimatorConfig(max_hyper_samples=10)
        via_facade = estimate(
            str(path), config, seed=3, population_size=300
        )
        pop = build_population(str(path), population_size=300, seed=3)
        direct = MaxPowerEstimator.from_config(pop, config).run(
            rng=np.random.default_rng(4)  # facade runs with seed + 1
        )
        assert via_facade.to_dict() == direct.to_dict()

    @pytest.mark.parametrize("config", PROGRESS_CONFIGS, ids=METHOD_IDS)
    def test_progress_fires_per_hyper_sample_and_changes_nothing(
        self, small_population, config
    ):
        seen = []

        def progress(hs, interval, cumulative_units):
            seen.append((hs.index, interval, cumulative_units))

        watched = estimate(small_population, config, seed=7, progress=progress)
        plain = estimate(small_population, config, seed=7)
        assert watched.to_dict() == plain.to_dict()
        assert len(seen) == watched.k
        assert [index for index, _, _ in seen] == list(range(1, watched.k + 1))
        assert seen[0][1] is None  # before min_hyper_samples
        assert all(interval is not None for _, interval, _ in seen[1:])
        pilot_units = watched.decision.pilot_units if watched.decision else 0
        assert seen[-1][2] == watched.units_used - pilot_units

    @pytest.mark.parametrize("config", PROGRESS_CONFIGS, ids=METHOD_IDS)
    def test_progress_exception_aborts(self, small_population, config):
        class Abort(RuntimeError):
            pass

        def progress(hs, interval, cumulative_units):
            raise Abort()

        with pytest.raises(Abort):
            estimate(small_population, config, seed=7, progress=progress)


class TestConfigDrivers:
    def test_run_many_matches_raw_driver(self, small_population):
        config = EstimatorConfig(max_hyper_samples=6)
        via_api = run_many(small_population, 3, config, base_seed=11)
        estimator = MaxPowerEstimator.from_config(small_population, config)
        raw = raw_run_many(estimator, 3, base_seed=11)
        assert [r.to_dict() for r in via_api] == [r.to_dict() for r in raw]

    def test_on_result_observes_everything_without_changing_results(
        self, small_population
    ):
        config = EstimatorConfig(max_hyper_samples=6)
        seen = []
        watched = run_many(
            small_population, 4, config, base_seed=11,
            on_result=lambda i, r: seen.append((i, r.estimate)),
        )
        plain = run_many(small_population, 4, config, base_seed=11)
        assert [r.to_dict() for r in watched] == [r.to_dict() for r in plain]
        assert sorted(i for i, _ in seen) == [0, 1, 2, 3]
        assert {i: e for i, e in seen} == {
            i: r.estimate for i, r in enumerate(plain)
        }

    def test_hyper_sample_many_with_hook(self, small_population):
        config = EstimatorConfig()
        seen = []
        samples = hyper_sample_many(
            small_population, 5, config, base_seed=2,
            on_result=lambda i, hs: seen.append(i),
        )
        assert len(samples) == 5
        assert sorted(seen) == [0, 1, 2, 3, 4]
