"""Simulator throughput — what makes 2500-unit estimation cheap.

Measures pairs/second of the three power-simulation paths on one suite
circuit, plus the A/B of the two unit-delay tiers — the numpy loop of a
host without a C compiler vs the C loop (the artifact behind
``BENCH_10.json``).  The bit-parallel paths are what let the experiment
harness simulate 10^5-pair populations in seconds; the event-driven
path is the reference semantics.
"""

import json
import os
import time

import numpy as np
import pytest

from repro.netlist.generators import build_circuit
from repro.sim.compiled import resolve_kernel
from repro.sim.native import backend_name, native_available, reset_backend
from repro.sim.power import PowerAnalyzer

CIRCUIT = "c880"
PAIRS_FAST = 4096
PAIRS_EVENT = 32


@pytest.fixture(scope="module")
def workload():
    circuit = build_circuit(CIRCUIT)
    rng = np.random.default_rng(7)
    v1 = rng.integers(0, 2, size=(PAIRS_FAST, circuit.num_inputs), dtype=np.uint8)
    v2 = rng.integers(0, 2, size=(PAIRS_FAST, circuit.num_inputs), dtype=np.uint8)
    return circuit, v1, v2


def test_throughput_zero_delay(benchmark, workload):
    circuit, v1, v2 = workload
    analyzer = PowerAnalyzer(circuit, mode="zero")
    powers = benchmark(analyzer.powers_for_pairs, v1, v2)
    assert powers.shape == (PAIRS_FAST,)
    assert (powers > 0).any()


def test_throughput_unit_delay(benchmark, workload):
    circuit, v1, v2 = workload
    analyzer = PowerAnalyzer(circuit, mode="unit")
    powers = benchmark(analyzer.powers_for_pairs, v1, v2)
    assert powers.shape == (PAIRS_FAST,)


def test_throughput_event_driven(benchmark, workload):
    circuit, v1, v2 = workload
    analyzer = PowerAnalyzer(circuit, mode="event")
    powers = benchmark(
        analyzer.powers_for_pairs, v1[:PAIRS_EVENT], v2[:PAIRS_EVENT]
    )
    assert powers.shape == (PAIRS_EVENT,)


# Tier A/B workload per scale: (circuit, num_pairs, timed trials).
# Timings take the min over trials — the boxes this runs on are noisy
# and the minimum is the least-contended estimate of the true cost.
TIER_WORKLOADS = {
    "smoke": ("c880", 4096, 3),
    "ci": ("c7552", 8192, 8),
    "paper": ("c7552", 16384, 8),
}


def _min_time(fn, trials):
    best = float("inf")
    for _ in range(trials):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_kernel_tier_ab(results_dir):
    """The numpy loop (no C compiler) vs the C loop on one unit-delay
    workload.

    Times ``powers_for_pairs`` on the same packed workload (same seed)
    on each tier and asserts both produce float-identical powers — the
    C loop must be a pure speedup.  The numpy side stands in for a
    host without a compiler (``REPRO_NATIVE_CC`` points nowhere), so it
    also charges in numpy.  The timings land in ``BENCH_10.json``.
    """
    scale = os.environ.get("REPRO_SCALE", "smoke").lower()
    circuit_name, num_pairs, trials = TIER_WORKLOADS.get(
        scale, TIER_WORKLOADS["smoke"]
    )
    circuit = build_circuit(circuit_name)
    rng = np.random.default_rng(11)
    v1 = rng.integers(0, 2, size=(num_pairs, circuit.num_inputs), dtype=np.uint8)
    v2 = rng.integers(0, 2, size=(num_pairs, circuit.num_inputs), dtype=np.uint8)

    def measure(tier):
        assert resolve_kernel() == tier
        analyzer = PowerAnalyzer(circuit, mode="unit")
        powers = analyzer.powers_for_pairs(v1, v2)  # warm-up + identity
        seconds = _min_time(lambda: analyzer.powers_for_pairs(v1, v2), trials)
        return powers, {"seconds": seconds, "pairs_per_s": num_pairs / seconds}

    tier_results = {}
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setenv("REPRO_NATIVE_CC", "/nonexistent/cc")
            reset_backend()
            reference, tier_results["compiled"] = measure("compiled")
    finally:
        reset_backend()
    have_native = native_available()
    native_speedup = None
    if have_native:
        powers, tier_results["native"] = measure("native")
        assert np.array_equal(reference, powers), "C loop changed powers"
        native_speedup = (
            tier_results["compiled"]["seconds"]
            / tier_results["native"]["seconds"]
        )

    payload = {
        "benchmark": "sim_kernel_tiers",
        "circuit": circuit_name,
        "scale": scale,
        "num_pairs": num_pairs,
        "mode": "unit",
        "seed": 11,
        "native_backend": backend_name() if have_native else None,
        "tiers": tier_results,
        "native_vs_compiled_speedup": native_speedup,
        "powers_bit_identical": True,
    }
    (results_dir / "BENCH_10.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
    lines = ", ".join(
        f"{tier} {res['pairs_per_s']:.0f} pairs/s"
        for tier, res in tier_results.items()
    )
    print(f"\n{circuit_name} unit-delay, {num_pairs} pairs: {lines}")
    # Loose floor so shared CI boxes don't flake; the committed
    # BENCH_10.json records the measured ratio.
    if have_native:
        assert native_speedup >= 1.0, (
            f"native slower than compiled ({native_speedup:.2f}x)"
        )
