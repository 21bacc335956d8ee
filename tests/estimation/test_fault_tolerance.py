"""Fault-tolerant scheduling: retries, timeouts, pool recovery, metrics.

The contract under test (see ``docs/robustness.md``): crashes, hangs,
dead workers, retries and serial degradation may change *how long* a
batch takes, never *what it computes* — results stay bit-for-bit
identical to an undisturbed ``workers=1`` run.
"""

import numpy as np
import pytest

from repro.errors import ConfigError, TaskTimeoutError, WorkerError
from repro.estimation import parallel
from repro.estimation.mc_estimator import MaxPowerEstimator
from repro.estimation.parallel import (
    MAX_POOL_REBUILDS,
    current_task,
    hyper_sample_many,
    run_many,
)
from repro.evt.distributions import GeneralizedWeibull
from repro.obs.metrics import get_registry
from repro.vectors.population import FinitePopulation

from .faultlib import FaultyEstimator, InjectedCrash, RecordingEstimator

NUM_RUNS = 6
BASE_SEED = 42


@pytest.fixture(scope="module")
def estimator():
    dist = GeneralizedWeibull.from_scale(alpha=4.0, scale=0.3, mu=1.0)
    powers = np.clip(dist.rvs(3000, rng=0), 0.0, None)
    pop = FinitePopulation(powers, name="synthetic")
    return MaxPowerEstimator(pop, error=0.05, confidence=0.90)


@pytest.fixture(scope="module")
def baseline(estimator):
    """Undisturbed serial run — the bit-identity reference."""
    return [
        r.to_dict()
        for r in run_many(estimator, NUM_RUNS, base_seed=BASE_SEED, workers=1)
    ]


@pytest.fixture
def registry():
    reg = get_registry()
    was_enabled = reg.enabled
    reg.reset()
    reg.enable()
    try:
        yield reg
    finally:
        reg.reset()
        if not was_enabled:
            reg.disable()


def dicts(results):
    return [r.to_dict() for r in results]


class TestCrashRecovery:
    def test_parallel_retry_is_bit_identical(self, estimator, baseline):
        faulty = FaultyEstimator(estimator, crash_indices={2})
        results = run_many(
            faulty, NUM_RUNS, base_seed=BASE_SEED, workers=2,
            retries=2, backoff=0.0,
        )
        assert dicts(results) == baseline

    def test_serial_retry_is_bit_identical(self, estimator, baseline):
        faulty = FaultyEstimator(estimator, crash_indices={0, 4})
        results = run_many(
            faulty, NUM_RUNS, base_seed=BASE_SEED, workers=1,
            retries=1, backoff=0.0,
        )
        assert dicts(results) == baseline

    def test_hyper_sample_many_retry_is_bit_identical(self, estimator):
        clean = hyper_sample_many(estimator, 5, base_seed=7, workers=1)
        faulty = FaultyEstimator(estimator, crash_indices={1, 3})
        recovered = hyper_sample_many(
            faulty, 5, base_seed=7, workers=2, retries=1, backoff=0.0
        )
        assert [hs.index for hs in recovered] == [1, 2, 3, 4, 5]
        assert dicts(recovered) == dicts(clean)

    def test_retries_exhausted_raises_with_cause(self, estimator):
        faulty = FaultyEstimator(
            estimator, crash_indices={1}, max_attempt=None
        )
        with pytest.raises(WorkerError) as err:
            run_many(
                faulty, 3, base_seed=BASE_SEED, workers=1,
                retries=1, backoff=0.0,
            )
        assert err.value.index == 1
        assert err.value.cause_type == "InjectedCrash"

    def test_zero_retries_fail_fast(self, estimator):
        # task_timeout forces the scheduled path even with workers=1
        # (the plain fast path would never set a TaskContext).
        faulty = FaultyEstimator(estimator, crash_indices={0})
        with pytest.raises(WorkerError):
            run_many(
                faulty, 2, base_seed=BASE_SEED, workers=1,
                retries=0, task_timeout=30.0, backoff=0.0,
            )


class TestHangRecovery:
    def test_hung_task_is_killed_and_retried(self, estimator, baseline, registry):
        faulty = FaultyEstimator(
            estimator, hang_indices={1}, hang_seconds=60.0
        )
        results = run_many(
            faulty, 4, base_seed=BASE_SEED, workers=2,
            retries=1, task_timeout=5.0, backoff=0.0,
        )
        assert dicts(results) == baseline[:4]
        assert registry.counter(
            "parallel_task_timeouts_total", kind="run"
        ).value == 1
        assert registry.counter(
            "parallel_retries_total", kind="run", cause="timeout"
        ).value == 1
        assert registry.counter(
            "parallel_pool_rebuilds_total", kind="run", cause="timeout"
        ).value == 1

    def test_timeout_exhausted_raises(self, estimator):
        faulty = FaultyEstimator(
            estimator, hang_indices={0}, hang_seconds=60.0, max_attempt=None
        )
        with pytest.raises(TaskTimeoutError) as err:
            run_many(
                faulty, 2, base_seed=BASE_SEED, workers=2,
                retries=0, task_timeout=1.5, backoff=0.0,
            )
        assert err.value.index == 0
        assert err.value.cause_type == "timeout"


    def test_queued_task_never_times_out_for_its_wait(
        self, estimator, baseline, registry
    ):
        # Two tasks per worker are in flight, so tasks 2-5 wait behind
        # ~0.6 s tasks before they start.  A task's clock starts when it
        # starts running: none of the six reaches the 1 s timeout, where
        # a clock started at submission would time out task 2.
        slow = FaultyEstimator(
            estimator, hang_indices=range(NUM_RUNS), hang_seconds=0.6,
            max_attempt=None,
        )
        results = run_many(
            slow, NUM_RUNS, base_seed=BASE_SEED, workers=2,
            retries=0, task_timeout=1.0, backoff=0.0,
        )
        assert dicts(results) == baseline
        assert registry.counter(
            "parallel_task_timeouts_total", kind="run"
        ).value == 0


class TestBrokenPoolRecovery:
    def test_dead_worker_degrades_to_serial_bit_identical(
        self, estimator, baseline, registry
    ):
        # Task 1 hard-kills its worker on *every* attempt: each rebuild
        # hits the same wall, so the driver must eventually give up on
        # the pool and finish in-process (where the injector stands
        # down — it only fires in child processes).
        faulty = FaultyEstimator(
            estimator, crash_indices={1}, hard=True, max_attempt=None
        )
        results = run_many(
            faulty, NUM_RUNS, base_seed=BASE_SEED, workers=2,
            retries=0, backoff=0.0,
        )
        assert dicts(results) == baseline
        assert registry.counter(
            "parallel_pool_rebuilds_total", kind="run", cause="broken"
        ).value == MAX_POOL_REBUILDS + 1
        assert registry.counter(
            "parallel_serial_degradations_total", kind="run"
        ).value == 1


class TestMetricsExactness:
    """Counter totals must not depend on the retry history."""

    def test_parallel_totals_unaffected_by_retries(
        self, estimator, registry
    ):
        faulty = FaultyEstimator(
            estimator,
            crash_indices={1},
            count_metric="fault_test_attempts_total",
        )
        run_many(
            faulty, NUM_RUNS, base_seed=BASE_SEED, workers=2,
            retries=1, backoff=0.0,
        )
        # The failed attempt incremented the counter too, but its
        # partial snapshot was discarded in the worker.
        assert registry.counter(
            "fault_test_attempts_total"
        ).value == NUM_RUNS
        assert registry.counter(
            "parallel_retries_total", kind="run", cause="error"
        ).value == 1

    def test_serial_totals_unaffected_by_retries(self, estimator, registry):
        faulty = FaultyEstimator(
            estimator,
            crash_indices={0, 2},
            count_metric="fault_test_attempts_total",
        )
        run_many(
            faulty, 4, base_seed=BASE_SEED, workers=1,
            retries=1, backoff=0.0,
        )
        assert registry.counter("fault_test_attempts_total").value == 4
        assert registry.counter(
            "parallel_retries_total", kind="run", cause="error"
        ).value == 2


class TestTaskContext:
    def test_none_outside_a_task(self):
        assert current_task() is None

    def test_records_index_and_attempt_across_retries(self, estimator):
        recorder = RecordingEstimator(estimator, crash_once_indices={1})
        run_many(
            recorder, 3, base_seed=BASE_SEED, workers=1,
            retries=1, backoff=0.0,
        )
        assert recorder.contexts == [(0, 0), (1, 0), (1, 1), (2, 0)]
        assert current_task() is None  # cleared after the batch


class TestWorkerSlot:
    def test_uninitialized_worker_slot_fails_fast(self, monkeypatch):
        monkeypatch.setattr(parallel, "_WORKER_ESTIMATOR", None)
        with pytest.raises(WorkerError, match="never initialized"):
            parallel._require_estimator()


class TestValidation:
    def test_fault_options_validated(self, estimator):
        with pytest.raises(ConfigError):
            run_many(estimator, 2, retries=-1)
        with pytest.raises(ConfigError):
            run_many(estimator, 2, task_timeout=0.0)
        with pytest.raises(ConfigError):
            run_many(estimator, 2, backoff=-0.1)
        with pytest.raises(ConfigError, match="requires a checkpoint"):
            run_many(estimator, 2, resume=True)
        with pytest.raises(ConfigError, match="requires a checkpoint"):
            hyper_sample_many(estimator, 2, resume=True)


class TestMetricsSurviveRebuild:
    def test_histograms_and_timers_survive_hung_pool_rebuild(
        self, estimator, baseline, registry
    ):
        """A hung task's kill/rebuild must not lose the metrics of tasks
        that completed before the pool went down (regression: merged
        snapshots dropped on rebuild leave histogram counts short)."""
        run_many(estimator, 4, base_seed=BASE_SEED, workers=1)
        serial = registry.snapshot(reset=True)

        faulty = FaultyEstimator(
            estimator, hang_indices={1}, hang_seconds=30.0
        )
        results = run_many(
            faulty, 4, base_seed=BASE_SEED, workers=2,
            retries=2, task_timeout=3.0, backoff=0.0,
        )
        rebuilt = registry.snapshot(reset=True)
        assert dicts(results) == baseline[:4]
        assert any(
            c["name"] == "parallel_pool_rebuilds_total" and c["value"] >= 1
            for c in rebuilt["counters"]
        )

        def hist_counts(snap):
            return {
                (h["name"], tuple(sorted(h["labels"].items()))): h["counts"]
                for h in snap["histograms"]
            }

        def timer_counts(snap):
            return {
                (t["name"], tuple(sorted(t["labels"].items()))): t["count"]
                for t in snap["timers"]
            }

        # Estimation metrics identical to the serial reference;
        # parallel_* bookkeeping exists only in the faulted run.
        serial_hists = hist_counts(serial)
        rebuilt_hists = hist_counts(rebuilt)
        assert serial_hists and serial_hists == {
            k: v
            for k, v in rebuilt_hists.items()
            if not k[0].startswith("parallel_")
        }
        serial_timers = timer_counts(serial)
        rebuilt_timers = timer_counts(rebuilt)
        assert serial_timers and serial_timers == {
            k: v
            for k, v in rebuilt_timers.items()
            if not k[0].startswith("parallel_")
        }
        # Timer maxima survive the merge (a lost merge zeroes them out).
        for t in rebuilt["timers"]:
            if not t["name"].startswith("parallel_"):
                assert t["max"] > 0.0
