"""Observability overhead — instrumented-but-disabled must be free.

Metrics and spans are threaded through the estimation hot path
(`hyper_sample` → `fit_weibull_mle` → per-k interval).  The design
contract is a no-op fast path: with the registry disabled every record
call is one attribute load plus one branch, and with spans disabled
every span call returns a shared null object after one flag check.
This benchmark pins that contract down three ways:

* **identity** — estimates are bit-for-bit identical with observability
  off, on, or on-with-trace (spans written to a ``--trace`` JSONL sink;
  instrumentation never touches a random stream);
* **micro** — the disabled-path primitives (counter inc, timer context,
  histogram observe) cost well under a microsecond each, so the ~10
  instrumentation touches per hyper-sample are < 0.1 % of its ~10 ms
  budget (i.e. within noise of the PR 1 throughput);
* **macro** — enabling metrics (the *slow* path: locks and real
  timing) still keeps the 100-run experiment within 1.5x of the
  disabled run, so leaving metrics on in production is viable.
"""

import json
import time

import numpy as np
import pytest

from repro.estimation import MaxPowerEstimator, run_many
from repro.evt.distributions import GeneralizedWeibull
from repro.obs import get_registry, get_span_recorder
from repro.vectors.population import FinitePopulation

NUM_RUNS = 40
BASE_SEED = 1998
POOL_SIZE = 20_000

#: Instrumentation touches per hyper-sample (counters, timers,
#: histogram) — generous over-count of the actual call sites.
TOUCHES_PER_HYPER_SAMPLE = 16

#: Span call sites per estimator run (run + per-k hyper_sample +
#: per-k mle.fit, k <= 25) — generous over-count.
SPAN_SITES_PER_RUN = 80


@pytest.fixture(scope="module")
def estimator():
    dist = GeneralizedWeibull.from_scale(alpha=4.0, scale=0.3, mu=1.0)
    powers = np.clip(dist.rvs(POOL_SIZE, rng=0), 0.0, None)
    pop = FinitePopulation(powers, name="synthetic-weibull")
    return MaxPowerEstimator(pop, error=0.05, confidence=0.90)


@pytest.fixture()
def clean_registry():
    registry = get_registry()
    was_enabled = registry.enabled
    registry.disable()
    registry.reset()
    yield registry
    registry.reset()
    if was_enabled:
        registry.enable()
    else:
        registry.disable()


def _timed_runs(estimator, num_runs=NUM_RUNS):
    start = time.perf_counter()
    results = run_many(estimator, num_runs, base_seed=BASE_SEED, workers=1)
    return time.perf_counter() - start, [r.estimate for r in results]


@pytest.fixture()
def clean_spans():
    spans = get_span_recorder()
    spans.disable()
    spans.reset()
    yield spans
    spans.close()
    spans.disable()
    spans.reset()


def test_disabled_observability_is_bit_identical(
    estimator, clean_registry, clean_spans, tmp_path
):
    _, baseline = _timed_runs(estimator, num_runs=10)

    clean_registry.enable()
    _, with_metrics = _timed_runs(estimator, num_runs=10)

    clean_spans.open(tmp_path / "bench.jsonl")
    _, with_trace = _timed_runs(estimator, num_runs=10)
    clean_spans.close()
    assert (tmp_path / "bench.jsonl").stat().st_size > 0
    clean_spans.disable()
    clean_spans.reset()

    clean_spans.enable()
    _, with_spans = _timed_runs(estimator, num_runs=10)
    clean_spans.disable()
    clean_registry.disable()

    assert baseline == with_metrics == with_trace == with_spans


def test_disabled_primitives_are_sub_microsecond(clean_registry):
    """The no-op fast path must be negligible at hot-path call rates."""
    counter = clean_registry.counter("bench_noop_counter")
    timer = clean_registry.timer("bench_noop_timer")
    hist = clean_registry.histogram("bench_noop_hist", buckets=(1.0, 2.0))
    n = 100_000
    start = time.perf_counter()
    for _ in range(n):
        counter.inc()
        with timer.time():
            pass
        hist.observe(1.5)
    per_touch = (time.perf_counter() - start) / (3 * n)
    # Interpreted-python branch+return; observed ~0.1 us.  2 us is a
    # very loose ceiling that still proves the point below.
    assert per_touch < 2e-6, f"no-op metric call costs {per_touch * 1e6:.2f} us"

    # Relate the primitive cost to the actual hot path: the estimator
    # touches instrumentation O(10) times per hyper-sample, and one
    # hyper-sample costs milliseconds (300 simulated units + an MLE).
    overhead_per_hyper_sample = per_touch * TOUCHES_PER_HYPER_SAMPLE
    assert overhead_per_hyper_sample < 100e-6  # < 0.1 ms, i.e. noise


def test_enabled_metrics_overhead_is_bounded(estimator, clean_registry):
    """Even the slow path (metrics ON) stays near disabled throughput."""
    # Warm-up to stabilize caches/JIT-free interpreter state.
    _timed_runs(estimator, num_runs=5)
    disabled_time, disabled = _timed_runs(estimator)
    clean_registry.enable()
    enabled_time, enabled = _timed_runs(estimator)
    clean_registry.disable()
    assert disabled == enabled
    ratio = enabled_time / disabled_time
    print(
        f"\n{NUM_RUNS}-run experiment: disabled {disabled_time:.2f}s, "
        f"metrics enabled {enabled_time:.2f}s -> {ratio:.3f}x"
    )
    # Generous bound for noisy CI machines; locally this is ~1.0x.
    assert ratio < 1.5


def test_spans_overhead_and_artifact(
    estimator, clean_registry, clean_spans, results_dir
):
    """Spans column: disabled spans cost one flag check (<= 2% of a
    run); enabled spans stay bit-identical and near disabled
    throughput.  The whole A/B lands in ``BENCH_7.json``."""
    # Warm-up to stabilize caches.
    _timed_runs(estimator, num_runs=5)
    disabled_time, disabled = _timed_runs(estimator)
    clean_registry.enable()
    metrics_time, with_metrics = _timed_runs(estimator)
    clean_spans.enable()
    spans_time, with_spans = _timed_runs(estimator)
    clean_spans.disable()
    clean_registry.disable()

    bit_identical = disabled == with_metrics == with_spans
    assert bit_identical

    # The disabled fast path: `span()` returns the shared null object
    # after a single flag test.
    n = 200_000
    start = time.perf_counter()
    for _ in range(n):
        with clean_spans.span("bench_noop"):
            pass
    per_call = (time.perf_counter() - start) / n
    per_run_disabled = disabled_time / NUM_RUNS
    overhead_pct = 100.0 * (per_call * SPAN_SITES_PER_RUN) / per_run_disabled

    payload = {
        "benchmark": "obs_overhead",
        "num_runs": NUM_RUNS,
        "pool_size": POOL_SIZE,
        "bit_identical": bit_identical,
        "modes": {
            "disabled": {"wall_time_s": disabled_time},
            "metrics": {
                "wall_time_s": metrics_time,
                "ratio_vs_disabled": metrics_time / disabled_time,
            },
            "spans": {
                "wall_time_s": spans_time,
                "ratio_vs_disabled": spans_time / disabled_time,
            },
        },
        "null_span_call_us": per_call * 1e6,
        "spans_disabled_overhead_pct": overhead_pct,
    }
    (results_dir / "BENCH_7.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
    print(
        f"\nspans column: disabled {disabled_time:.2f}s, metrics "
        f"{metrics_time:.2f}s, spans {spans_time:.2f}s; null span "
        f"{per_call * 1e6:.2f}us -> {overhead_pct:.3f}% of a run"
    )
    assert per_call < 2e-6
    assert overhead_pct <= 2.0
    assert spans_time / disabled_time < 1.5
