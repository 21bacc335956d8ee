"""Attempts: a unit of work's spans and metrics, committed, exported or
dropped as a whole, never by resetting the process-wide registry."""

from __future__ import annotations

import contextvars
import sys
import threading
import time

import numpy as np
import pytest

from repro.estimation import parallel
from repro.estimation.mc_estimator import MaxPowerEstimator
from repro.estimation.parallel import run_many
from repro.evt.distributions import GeneralizedWeibull
from repro.obs import (
    Attempt,
    get_registry,
    get_span_recorder,
    load_trace,
    merge_attempt,
)
from repro.obs.spans import SpanContext, new_span_id, new_trace_id
from repro.vectors.population import FinitePopulation

from ..estimation.faultlib import FaultyEstimator, InjectedCrash


@pytest.fixture(scope="module")
def estimator():
    dist = GeneralizedWeibull.from_scale(alpha=4.0, scale=0.3, mu=1.0)
    powers = np.clip(dist.rvs(6000, rng=0), 0.0, None)
    pop = FinitePopulation(powers, name="synthetic")
    return MaxPowerEstimator(pop, error=0.05, confidence=0.90)


@pytest.fixture
def obs(tmp_path):
    """Metrics on, spans on and streamed to ``tmp_path/t.jsonl``."""
    registry = get_registry()
    spans = get_span_recorder()
    registry.enable()
    spans.open(tmp_path / "t.jsonl")
    return registry, spans, tmp_path / "t.jsonl"


def names(records):
    return [r["name"] for r in records]


def counter(registry, name):
    return registry.counter(name).value


class TestScope:
    def test_commit_publishes_spans_and_metrics_at_once(self, obs):
        registry, spans, path = obs
        with Attempt() as attempt:
            with spans.span("inside"):
                registry.counter("attempt_test_total").inc()
            # Held by the attempt: nowhere to be seen yet.
            assert spans.snapshot() == []
            assert load_trace(path) == []
            assert counter(registry, "attempt_test_total") == 0
        assert spans.snapshot() == []
        attempt.commit()
        assert names(spans.snapshot()) == ["inside"]
        assert names(load_trace(path)) == ["inside"]
        assert counter(registry, "attempt_test_total") == 1

    def test_dropped_attempt_leaves_other_records_alone(self, obs):
        registry, spans, path = obs
        with spans.span("kept"):
            registry.counter("attempt_test_total").inc()
        kept_trace = spans.snapshot()[0]["trace_id"]
        other = SpanContext(trace_id=new_trace_id(), span_id=new_span_id())

        def elsewhere():
            # Another thread, another trace, while the attempt is open.
            spans.emit("other", parent=other)
            registry.counter("attempt_test_total").inc()

        with Attempt():
            spans.emit("doomed", parent=SpanContext(trace_id="f" * 32))
            registry.counter("attempt_test_total").inc(10)
            thread = threading.Thread(target=elsewhere)
            thread.start()
            thread.join(10)
            assert not thread.is_alive()
        # Neither committed nor exported: dropped.
        assert set(names(spans.snapshot())) == {"kept", "other"}
        assert set(names(load_trace(path))) == {"kept", "other"}
        assert spans.spans_for_trace(kept_trace)
        assert spans.spans_for_trace("f" * 32) == []
        assert counter(registry, "attempt_test_total") == 2

    def test_nested_commit_goes_to_the_enclosing_attempt(self, obs):
        registry, spans, _path = obs
        with Attempt() as outer:
            with Attempt() as inner:
                with spans.span("inner"):
                    registry.counter("attempt_test_total").inc()
            inner.commit()
            assert spans.snapshot() == []
            assert counter(registry, "attempt_test_total") == 0
        # Dropping the outer attempt drops what the inner one committed.
        assert spans.snapshot() == []
        assert counter(registry, "attempt_test_total") == 0
        with Attempt() as outer:
            with Attempt() as inner:
                with spans.span("inner"):
                    registry.counter("attempt_test_total").inc()
            inner.commit()
        outer.commit()
        assert names(spans.snapshot()) == ["inner"]
        assert counter(registry, "attempt_test_total") == 1

    def test_export_then_merge_elsewhere(self, obs):
        registry, spans, path = obs
        with Attempt() as attempt:
            spans.emit("task_retry", kind="run", index=0, attempt=0,
                       cause="error", detail="boom")
        payload = attempt.export()
        assert names(payload["spans"]) == ["task_retry"]
        (folded,) = payload["metrics"]["counters"]
        assert folded["name"] == "parallel_retries_total"
        # The span was folded where it was recorded: merging it adds its
        # metrics once, not twice.
        with Attempt() as receiver:
            merge_attempt(payload)
        receiver.commit()
        assert names(spans.snapshot()) == ["task_retry"]
        assert names(load_trace(path)) == ["task_retry"]
        assert registry.counter(
            "parallel_retries_total", kind="run", cause="error"
        ).value == 1
        merge_attempt(None)  # nothing recorded, nothing shipped
        assert Attempt().export() is None

    def test_metrics_only_folds_spans_but_keeps_none(self, estimator):
        registry = get_registry()
        spans = get_span_recorder()
        registry.enable()
        with Attempt() as attempt:
            estimator.run(np.random.default_rng(7))
        payload = attempt.export()
        assert payload["spans"] == []
        counters = {c["name"]: c["value"] for c in payload["metrics"]["counters"]}
        assert counters["estimator_runs_total"] == 1
        attempt.commit()
        assert spans.snapshot() == []
        assert counter(registry, "estimator_runs_total") == 1

    def test_copied_context_records_into_the_attempt(self, obs):
        registry, spans, _path = obs

        def chunk():
            with spans.span("chunk"):
                registry.counter("attempt_test_total").inc()

        with Attempt() as attempt:
            copied = threading.Thread(
                target=contextvars.copy_context().run, args=(chunk,)
            )
            plain = threading.Thread(target=chunk)
            for thread in (copied, plain):
                thread.start()
                thread.join(10)
                assert not thread.is_alive()
        # The plain thread recorded straight into the process ...
        assert names(spans.snapshot()) == ["chunk"]
        assert counter(registry, "attempt_test_total") == 1
        # ... the copied context's thread into the attempt.
        assert names(attempt.export()["spans"]) == ["chunk"]

    def test_population_chunks_land_in_the_callers_attempt(self):
        registry = get_registry()
        registry.enable()

        def pairs(count, rng):
            return rng.random((count, 2)), rng.random((count, 2))

        def power(v1, v2):
            return (v1 != v2).sum(axis=1).astype(float)

        with Attempt() as attempt:
            FinitePopulation.build(
                pairs, power, num_pairs=40, chunk_size=10, seed=1, workers=2
            )
        timers = {
            t["name"]: t["count"] for t in attempt.export()["metrics"]["timers"]
        }
        assert timers["population_build_chunk_seconds"] == 4
        assert timers["population_build_seconds"] == 1
        assert registry.timer("population_build_chunk_seconds").count == 0


class _RecordsWhileOpen:
    """Run the real estimator, then hold the attempt open until another
    thread has recorded ``burst`` more times; fail every first attempt."""

    def __init__(self, inner, progress, burst=40):
        self.inner = inner
        self.progress = progress
        self.burst = burst

    def run(self, rng):
        result = self.inner.run(rng)
        target = self.progress() + self.burst
        deadline = time.monotonic() + 30
        while self.progress() < target and time.monotonic() < deadline:
            time.sleep(0.001)
        if parallel.current_task().attempt == 0:
            raise InjectedCrash("fail the first attempt")
        return result


class TestRetryRace:
    def test_a_retried_attempt_never_touches_another_threads_records(
        self, estimator
    ):
        # run_many(workers=1) retries each failed attempt in-process
        # while another thread records into the same registry and span
        # buffer under its own trace.
        clean = run_many(estimator, 6, base_seed=11, workers=1)
        registry = get_registry()
        spans = get_span_recorder()
        registry.enable()
        spans.enable()
        increments = registry.counter("race_other_thread_total")
        trace = SpanContext(trace_id=new_trace_id(), span_id=new_span_id())
        reads = []
        done = threading.Event()

        def other():
            token = spans.attach(trace)
            try:
                while not done.is_set():
                    increments.inc()
                    with spans.span("race.other"):
                        pass
                    reads.append(increments.value)
                    time.sleep(0.0002)
            finally:
                spans.detach(token)

        thread = threading.Thread(target=other)
        thread.start()
        try:
            results = run_many(
                _RecordsWhileOpen(estimator, lambda: len(reads)), 6,
                base_seed=11, workers=1, retries=1, backoff=0.0,
            )
        finally:
            done.set()
            thread.join(30)
        assert not thread.is_alive()
        assert [r.estimate for r in results] == [r.estimate for r in clean]
        assert len(reads) >= 12 * 40
        assert increments.value == len(reads)
        assert reads == sorted(reads), "a counter read went backwards"
        other_spans = [
            r for r in spans.spans_for_trace(trace.trace_id)
            if r["name"] == "race.other"
        ]
        assert len(other_spans) == len(reads)
        # The estimator's own totals count the six successful attempts.
        assert registry.counter("estimator_runs_total").value == 6
        assert registry.counter(
            "parallel_retries_total", kind="run", cause="error"
        ).value == 6


class TestStress:
    def test_concurrent_attempts_lose_no_update(self):
        # More threads than cores, each committing every other attempt,
        # and two copied-context threads recording into each attempt,
        # while a reader watches the process-wide total.
        registry = get_registry()
        spans = get_span_recorder()
        registry.enable()
        spans.enable()
        total = registry.counter("stress_total")
        attempts, threads_per_attempt, workers = 60, 2, 6
        reads = []
        done = threading.Event()

        def record():
            total.inc()
            with spans.span("stress"):
                pass

        def worker():
            token = spans.attach(
                SpanContext(trace_id=new_trace_id(), span_id=new_span_id())
            )
            try:
                for n in range(attempts):
                    with Attempt() as attempt:
                        helpers = [
                            threading.Thread(
                                target=contextvars.copy_context().run,
                                args=(record,),
                            )
                            for _ in range(threads_per_attempt)
                        ]
                        for helper in helpers:
                            helper.start()
                        record()
                        for helper in helpers:
                            helper.join(10)
                    if n % 2 == 0:
                        attempt.commit()
            finally:
                spans.detach(token)

        def reader():
            while not done.is_set():
                reads.append(total.value)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            watcher = threading.Thread(target=reader)
            watcher.start()
            pool = [threading.Thread(target=worker) for _ in range(workers)]
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join(60)
            done.set()
            watcher.join(10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in pool + [watcher])
        committed = workers * (attempts // 2) * (threads_per_attempt + 1)
        assert total.value == committed
        assert reads == sorted(reads)
        stress = [r for r in spans.snapshot() if r["name"] == "stress"]
        assert len(stress) == committed


class TestTraceFile:
    def test_failed_attempts_never_reach_the_trace_file(
        self, estimator, tmp_path
    ):
        spans = get_span_recorder()
        written = {}
        for workers in (1, 2):
            path = tmp_path / f"workers{workers}.jsonl"
            spans.open(path)
            try:
                results = run_many(
                    FaultyEstimator(estimator, crash_indices={1, 4},
                                    after_run=True),
                    6, base_seed=11, workers=workers, retries=1, backoff=0.0,
                )
            finally:
                spans.close()
            runs = [r for r in load_trace(path) if r["name"] == "estimator.run"]
            written[workers] = sorted(
                (r["attributes"]["estimate"], r["attributes"]["k"])
                for r in runs
            )
            assert sorted((r.estimate, r.k) for r in results) == written[workers]
        assert len(written[1]) == 6
        assert written[1] == written[2]
