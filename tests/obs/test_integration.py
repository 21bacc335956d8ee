"""Observability threaded through the estimation pipeline.

Covers the PR's acceptance criteria end to end:

* disabling observability reproduces the seed estimates bit-for-bit;
* a traced run writes one ``estimator.hyper_sample`` span per
  hyper-sample carrying (k, fitted alpha/beta/mu or the fallback reason,
  the relative CI half-width, and the cumulative unit count);
* metrics recorded inside ``run_many`` survive the process pool with
  >= 2 workers and merge to the same totals as a serial run, and the
  JSONL sink holds every pool run's spans exactly once.
"""

import numpy as np
import pytest

from repro.api import EstimatorConfig, estimate
from repro.errors import FitError
from repro.estimation.mc_estimator import MaxPowerEstimator
from repro.estimation.parallel import hyper_sample_many, run_many
from repro.estimation.pot import PeaksOverThresholdEstimator
from repro.evt.distributions import GeneralizedWeibull
from repro.evt.mle import fit_weibull_mle
from repro.obs import get_registry, get_span_recorder, load_trace
from repro.vectors.population import FinitePopulation

from ..estimation.faultlib import FaultyEstimator


@pytest.fixture(scope="module")
def estimator():
    dist = GeneralizedWeibull.from_scale(alpha=4.0, scale=0.3, mu=1.0)
    powers = np.clip(dist.rvs(8000, rng=0), 0.0, None)
    pop = FinitePopulation(powers, name="synthetic")
    return MaxPowerEstimator(pop, error=0.05, confidence=0.90)


def _run(estimator, seed=7):
    return estimator.run(np.random.default_rng(seed))


class TestNoOpIdentity:
    def test_disabled_enabled_traced_all_bit_identical(
        self, estimator, tmp_path
    ):
        baseline = _run(estimator)

        get_registry().enable()
        with_metrics = _run(estimator)

        get_span_recorder().open(tmp_path / "run.jsonl")
        with_trace = _run(estimator)
        get_span_recorder().close()

        for other in (with_metrics, with_trace):
            assert other.estimate == baseline.estimate
            assert other.units_used == baseline.units_used
            assert other.converged == baseline.converged
            assert other.k == baseline.k
            for a, b in zip(baseline.hyper_samples, other.hyper_samples):
                assert a.estimate == b.estimate
                assert np.array_equal(a.maxima, b.maxima)

    def test_disabled_run_records_nothing(self, estimator):
        registry = get_registry()
        _run(estimator)
        snap = registry.snapshot()
        assert snap == {
            "counters": [],
            "gauges": [],
            "timers": [],
            "histograms": [],
        }
        assert get_span_recorder().snapshot() == []


def _named(records, name):
    return [r for r in records if r["name"] == name]


class TestTraceSchema:
    def test_one_hyper_sample_event_per_iteration(self, estimator, tmp_path):
        path = tmp_path / "run.jsonl"
        get_registry().enable()
        get_span_recorder().open(path)
        result = _run(estimator)
        get_span_recorder().close()

        records = load_trace(path)
        hypers = _named(records, "estimator.hyper_sample")
        assert len(hypers) == result.k
        assert [h["attributes"]["k"] for h in hypers] == list(
            range(1, result.k + 1)
        )

        (run,) = _named(records, "estimator.run")
        for h in hypers:
            # acceptance-criterion payload, field by field
            assert h["parent_id"] == run["span_id"]
            e = h["attributes"]
            assert isinstance(e["k"], int)
            assert isinstance(e["estimate"], float)
            assert isinstance(e["units_used"], int)
            assert isinstance(e["cumulative_units"], int)
            assert "rel_half_width" in e
            assert "fallback_reason" in e
            if e["fallback_reason"] is None:
                assert isinstance(e["alpha"], float)
                assert isinstance(e["beta"], float)
                assert isinstance(e["mu"], float)
                assert isinstance(e["shape_gt2"], bool)
            else:
                assert e["alpha"] is None
            for stat in ("maxima_min", "maxima_mean", "maxima_max"):
                assert isinstance(e[stat], float)

        # intervals start at min_hyper_samples; cumulative units ascend
        attrs = [h["attributes"] for h in hypers]
        assert attrs[0]["rel_half_width"] is None
        cumulative = [a["cumulative_units"] for a in attrs]
        assert cumulative == sorted(cumulative)
        assert cumulative[-1] == result.units_used

        # the run span carries the old run_start and run_end fields
        end = run["attributes"]
        assert end["population"] == "synthetic"
        assert end["population_size"] == estimator.population.size
        assert (end["n"], end["m"]) == (estimator.n, estimator.m)
        assert end["error"] == estimator.error
        assert end["confidence"] == estimator.confidence
        assert end["min_hyper_samples"] == estimator.min_hyper_samples
        assert end["max_hyper_samples"] == estimator.max_hyper_samples
        assert end["finite_correction"] is True
        assert end["converged"] == result.converged
        assert end["k"] == result.k
        assert end["estimate"] == result.estimate
        assert end["units_used"] == result.units_used
        assert end["rel_half_width"] == result.rel_half_width

    def test_ci_trajectory_matches_trace(self, estimator):
        spans = get_span_recorder()
        spans.enable()
        result = _run(estimator)
        traced = [
            h["attributes"]["rel_half_width"]
            for h in _named(spans.snapshot(), "estimator.hyper_sample")
            if h["attributes"]["rel_half_width"] is not None
        ]
        assert traced == pytest.approx(result.ci_trajectory)
        assert len(result.ci_trajectory) == result.k - (
            estimator.min_hyper_samples - 1
        )

    def test_standalone_hyper_sample_has_no_run_fields(self, estimator):
        spans = get_span_recorder()
        spans.enable()
        hs = estimator.hyper_sample(3, np.random.default_rng(0))
        (record,) = _named(spans.snapshot(), "estimator.hyper_sample")
        attrs = record["attributes"]
        assert attrs["k"] == 3
        assert attrs["estimate"] == hs.estimate
        assert attrs["rel_half_width"] is None
        assert attrs["cumulative_units"] is None


class TestEveryMethodTraced:
    """POT runs, and auto runs handed to POT, are traced and counted
    like fixed runs."""

    @pytest.fixture(scope="class")
    def pot_pool(self):
        # The bounded pool on which auto picks POT under seed 7.
        dist = GeneralizedWeibull.from_scale(alpha=4.0, scale=0.3, mu=1.0)
        powers = np.clip(dist.rvs(20000, rng=3), 0.0, None)
        return FinitePopulation(powers, name="weibull-pool")

    @pytest.mark.parametrize(
        "config",
        [
            EstimatorConfig(method="pot", pot_threshold_quantile=0.9),
            EstimatorConfig(method="auto"),
        ],
        ids=["pot", "auto"],
    )
    def test_run_span_rounds_and_metrics(self, pot_pool, config):
        registry = get_registry()
        registry.enable()
        spans = get_span_recorder()
        spans.enable()
        result = estimate(pot_pool, config, seed=7)
        records = spans.snapshot()
        counters = {
            c["name"]: c["value"] for c in registry.snapshot()["counters"]
        }

        (run,) = _named(records, "estimator.run")
        attrs = run["attributes"]
        assert attrs["k"] == result.k
        assert attrs["converged"] == result.converged
        assert attrs["estimate"] == result.estimate
        assert attrs["threshold_quantile"] == 0.9
        assert attrs["batch_size"] == result.hyper_samples[0].units_used
        assert "n" not in attrs and "m" not in attrs
        pilot_units = result.decision.pilot_units if result.decision else 0
        if config.method == "auto":
            assert result.decision.family == "pot"
        assert attrs["units_used"] == result.units_used - pilot_units

        hypers = _named(records, "estimator.hyper_sample")
        rounds = [h for h in hypers if h["parent_id"] == run["span_id"]]
        assert [h["attributes"]["k"] for h in rounds] == list(
            range(1, result.k + 1)
        )
        assert sum(h["attributes"]["units_used"] for h in rounds) == (
            attrs["units_used"]
        )
        # auto's pilot draws standalone hyper-samples under its own span;
        # they count like the run's rounds.
        others = [h for h in hypers if h["parent_id"] != run["span_id"]]
        if config.method == "auto":
            (pilot,) = _named(records, "adaptive.pilot")
            assert others
            assert all(h["parent_id"] == pilot["span_id"] for h in others)
        else:
            assert not others
        assert counters["estimator_runs_total"] == 1
        assert counters["estimator_hyper_samples_total"] == (
            result.k + len(others)
        )
        assert counters["estimator_units_total"] == attrs["units_used"] + sum(
            h["attributes"]["units_used"] for h in others
        )

    def test_flat_pot_batch_traces_without_maxima(self):
        # No value of a flat batch exceeds its threshold: the round has
        # no exceedances and falls back to the batch maximum.
        pop = FinitePopulation(np.full(4000, 1.5), name="flat")
        spans = get_span_recorder()
        spans.enable()
        result = PeaksOverThresholdEstimator(pop).run(rng=1)
        hypers = [
            h["attributes"]
            for h in _named(spans.snapshot(), "estimator.hyper_sample")
        ]
        assert len(hypers) == result.k
        for h in hypers:
            assert h["fallback_reason"]
            assert h["maxima_min"] is None and h["maxima_max"] is None
            assert h["estimate"] == 1.5


class TestCrossProcessMerge:
    def test_run_many_metrics_survive_two_workers(self, estimator):
        registry = get_registry()
        registry.enable()

        serial = run_many(estimator, 4, base_seed=11, workers=1)
        serial_snap = registry.snapshot(reset=True)

        parallel = run_many(estimator, 4, base_seed=11, workers=2)
        parallel_snap = registry.snapshot(reset=True)

        assert [r.estimate for r in serial] == [r.estimate for r in parallel]

        def totals(snap):
            return {
                (c["name"], tuple(sorted(c["labels"].items()))): c["value"]
                for c in snap["counters"]
            }

        assert totals(parallel_snap) == totals(serial_snap)
        assert totals(parallel_snap)[("estimator_runs_total", ())] == 4
        expected_units = sum(r.units_used for r in parallel)
        assert (
            totals(parallel_snap)[("estimator_units_total", ())]
            == expected_units
        )

        def timer_counts(snap):
            return {t["name"]: t["count"] for t in snap["timers"]}

        assert timer_counts(parallel_snap) == timer_counts(serial_snap)

        def hist_counts(snap):
            return {h["name"]: h["counts"] for h in snap["histograms"]}

        assert hist_counts(parallel_snap) == hist_counts(serial_snap)

    def test_hyper_sample_many_counts_with_two_workers(self, estimator):
        registry = get_registry()
        registry.enable()
        hyper_sample_many(estimator, 6, base_seed=5, workers=2)
        snap = registry.snapshot()
        counters = {c["name"]: c["value"] for c in snap["counters"]}
        assert counters["estimator_hyper_samples_total"] == 6

    def test_disabled_parent_keeps_workers_silent(self, estimator):
        registry = get_registry()
        assert not registry.enabled
        run_many(estimator, 2, base_seed=1, workers=2)
        assert registry.snapshot()["counters"] == []

    def test_trace_file_holds_serial_and_pool_runs_once(
        self, estimator, tmp_path
    ):
        # One serial run, then a forked pool: the children must neither
        # re-write the parent's lines nor lose their own runs.
        path = tmp_path / "run.jsonl"
        get_span_recorder().open(path)
        _run(estimator)
        run_many(estimator, 4, base_seed=11, workers=2)
        get_span_recorder().close()
        records = load_trace(path)
        span_ids = [r["span_id"] for r in records]
        assert len(span_ids) == len(set(span_ids))
        runs = _named(records, "estimator.run")
        assert len(runs) == 5
        for run in runs:
            ks = [
                h["attributes"]["k"]
                for h in _named(records, "estimator.hyper_sample")
                if h["parent_id"] == run["span_id"]
            ]
            assert ks == list(range(1, run["attributes"]["k"] + 1))

    def test_serial_retry_leaves_task_retry_record(self, estimator):
        spans = get_span_recorder()
        spans.enable()
        faulty = FaultyEstimator(estimator, crash_indices={1})
        run_many(faulty, 3, base_seed=11, workers=1, retries=1, backoff=0.0)
        (retry,) = _named(spans.snapshot(), "task_retry")
        assert retry["duration_s"] == 0.0
        attrs = retry["attributes"]
        assert (attrs["kind"], attrs["index"], attrs["attempt"]) == ("run", 1, 0)
        assert attrs["cause"] == "error"
        assert "injected crash" in attrs["detail"]


class TestMleInstrumentation:
    def test_fit_error_cause_counted_and_traced(self):
        registry = get_registry()
        registry.enable()
        get_span_recorder().enable()
        with pytest.raises(FitError) as excinfo:
            fit_weibull_mle(np.full(30, 2.0))  # degenerate: all equal
        cause = excinfo.value.cause
        assert cause == "degenerate"
        snap = registry.snapshot()
        errors = {
            c["labels"]["cause"]: c["value"]
            for c in snap["counters"]
            if c["name"] == "mle_fit_errors_total"
        }
        assert errors == {"degenerate": 1}
        (fit,) = _named(get_span_recorder().snapshot(), "mle.fit")
        assert fit["status"] == "error"
        assert fit["attributes"]["cause"] == "degenerate"
        assert str(excinfo.value) in fit["attributes"]["error"]

    def test_successful_fit_emits_mle_fit_event(self):
        registry = get_registry()
        registry.enable()
        get_span_recorder().enable()
        rng = np.random.default_rng(0)
        dist = GeneralizedWeibull.from_scale(alpha=4.0, scale=0.3, mu=1.0)
        x = dist.rvs(200, rng=rng)
        fit = fit_weibull_mle(x)
        (span,) = _named(get_span_recorder().snapshot(), "mle.fit")
        attrs = span["attributes"]
        assert span["status"] == "ok"
        assert attrs["alpha"] == pytest.approx(fit.alpha)
        assert attrs["loglik"] == pytest.approx(fit.loglik)
        assert attrs["method"] == "profile-mle"
        assert attrs["shape_gt2"] == fit.shape_gt2
        assert attrs["m"] == 200
        for key in (
            "grid_points", "grid_finite", "refine", "refine_accepted",
            "bracket_lo", "bracket_hi", "mu_offset", "profile_solves",
            "cold_solves",
        ):
            assert key in attrs
        assert 0 <= attrs["cold_solves"] <= attrs["profile_solves"]
        counters = {
            c["name"]: c["value"] for c in registry.snapshot()["counters"]
        }
        assert counters["mle_fits_total"] == 1

    def test_fallback_reason_lands_in_hyper_sample(self, tmp_path):
        # A constant population makes every block maximum identical, so
        # the fit degenerates and the estimator falls back to the max.
        pop = FinitePopulation(np.full(4000, 1.5), name="flat")
        est = MaxPowerEstimator(pop, error=0.05, confidence=0.90)
        registry = get_registry()
        registry.enable()
        get_span_recorder().open(tmp_path / "run.jsonl")
        result = _run(est)
        get_span_recorder().close()
        assert all(hs.fallback_reason for hs in result.hyper_samples)
        records = load_trace(tmp_path / "run.jsonl")
        hypers = [
            h["attributes"] for h in _named(records, "estimator.hyper_sample")
        ]
        assert len(hypers) == result.k
        assert all(h["fallback_reason"] for h in hypers)
        assert all(h["alpha"] is None for h in hypers)
        # each fallback follows a failed mle.fit child span
        assert [f["status"] for f in _named(records, "mle.fit")] == (
            ["error"] * result.k
        )
        counters = {
            c["name"]: c["value"] for c in registry.snapshot()["counters"]
        }
        assert counters["estimator_fallbacks_total"] == result.k
