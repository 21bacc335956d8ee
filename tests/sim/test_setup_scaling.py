"""Power-analyzer set-up grows near-linearly with netlist size.

Set-up used to copy the whole fanout map once per net (quadratic); it
now reads one cached index per circuit.  The counting test pins the
mechanism exactly; the timing test checks the end result with a bound
loose enough for a noisy host but far below what quadratic set-up
gives (about 100x for 10x the gates).
"""

import gc
import time

import pytest

from repro.netlist.circuit import Circuit
from repro.netlist.generators.random_dag import random_layered_circuit
from repro.sim.power import PowerAnalyzer


def layered(gates: int) -> Circuit:
    return random_layered_circuit(
        f"rnd{gates}", num_inputs=64, num_outputs=32, num_gates=gates,
        depth=20, seed=gates,
    )


@pytest.mark.parametrize("gates", [2_000, 20_000])
def test_analyzer_builds_fanout_index_once(gates, monkeypatch):
    circuit = layered(gates).copy()
    calls = {"index": 0, "fanout_map": 0}
    build_index = Circuit._build_fanout_index
    fanout_map = Circuit.fanout_map

    def counting_build(self):
        calls["index"] += 1
        return build_index(self)

    def counting_map(self):
        calls["fanout_map"] += 1
        return fanout_map(self)

    monkeypatch.setattr(Circuit, "_build_fanout_index", counting_build)
    monkeypatch.setattr(Circuit, "fanout_map", counting_map)
    PowerAnalyzer(circuit)
    # The capacitance pass needs the index, so it is built exactly once.
    assert calls["index"] == 1
    assert calls["fanout_map"] <= 1


def test_analyzer_setup_scales_near_linearly():
    # Constructions per sample.  One 5k-gate set-up takes about 0.1 s and
    # one 50k-gate set-up about 1.5 s; a shared host runs short bursts
    # faster than sustained work, so each 5k sample times ten set-ups
    # back to back and both sizes are timed over similar windows.
    reps = {5_000: 10, 50_000: 1}
    circuits = {gates: layered(gates) for gates in reps}
    times = {gates: [] for gates in reps}
    # Alternate the sizes so a drift in host speed hits both alike, and
    # collect first so no sample pays for another's garbage.
    for _ in range(3):
        for gates, circuit in circuits.items():
            # Fresh copies carry no cached index or compiled plan.
            copies = [circuit.copy() for _ in range(reps[gates])]
            gc.collect()
            start = time.perf_counter()
            for fresh in copies:
                PowerAnalyzer(fresh)
            times[gates].append((time.perf_counter() - start) / reps[gates])
            del copies
    best = {gates: min(samples) for gates, samples in times.items()}
    # 10x the gates: <= 25x the time is an exponent of about 1.4.
    assert best[50_000] / best[5_000] <= 25, times
