"""Differential tests: the numpy wavefront loop vs exact oracles.

On a host without a C compiler (the ``no_compiler`` fixture stands in
for one) every unit-delay block runs the numpy loop of
:class:`~repro.sim.compiled.CompiledPlan`.  It must agree exactly with
two independently implemented oracles: steady states with the
dict-based :meth:`~repro.netlist.circuit.Circuit.evaluate_vector`, and
per-net, per-lane unit-delay toggle counts with the event-driven
simulator under :class:`~repro.sim.delay.UnitDelay`.  With dyadic
capacitances every energy is an exact sum, so energies must match the
oracle bit for bit too.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.netlist.circuit import Circuit
from repro.netlist.gates import GateType
from repro.netlist.generators.random_dag import random_layered_circuit
from repro.sim import compiled
from repro.sim.bitsim import (
    BitParallelSimulator,
    pack_vectors,
    unpack_vectors,
)
from repro.sim.compiled import (
    MAX_BATCH_ARITY,
    CompiledPlan,
    compile_plan,
    lane_mask,
    popcount_rows,
    resolve_kernel,
)
from repro.sim.delay import UnitDelay
from repro.sim.event_sim import EventDrivenSimulator

# Lane counts straddling the word boundary: single lane, partial word,
# exactly one word, and spill into a second word.
LANE_COUNTS = (1, 63, 64, 65)

# (inputs, outputs, gates, depth, seed) profiles for the random DAGs.
DAG_PROFILES = (
    (8, 4, 30, 5, 101),
    (16, 8, 120, 10, 202),
    (24, 12, 400, 18, 303),
)


def _random_pairs(num_inputs: int, num_pairs: int, seed: int):
    rng = np.random.default_rng(seed)
    v1 = rng.integers(0, 2, size=(num_pairs, num_inputs), dtype=np.uint8)
    v2 = rng.integers(0, 2, size=(num_pairs, num_inputs), dtype=np.uint8)
    return v1, v2


def dyadic_caps(num_nets: int, seed: int) -> np.ndarray:
    """Capacitances that are multiples of 1/8: every energy below is a
    short sum of exactly representable products, so it is exact in
    float64 whatever the summation order."""
    rng = np.random.default_rng(seed)
    caps = rng.integers(1, 160, size=num_nets) / 8.0
    caps[rng.random(num_nets) < 0.1] = 0.0  # exercise the zero-cap filter
    return caps


def evaluate_states(circuit: Circuit, vectors: np.ndarray) -> np.ndarray:
    """``(num_nets, lanes)`` 0/1 steady states from ``evaluate_vector``."""
    nets = circuit.nets
    states = np.empty((len(nets), len(vectors)), dtype=np.int64)
    for lane, vec in enumerate(vectors):
        values = circuit.evaluate_vector(list(vec))
        states[:, lane] = [values[n] for n in nets]
    return states


def event_toggle_counts(
    circuit: Circuit, v1: np.ndarray, v2: np.ndarray
) -> np.ndarray:
    """``(num_nets, lanes)`` unit-delay toggle counts, primary inputs
    included, from the event-driven simulator."""
    event = EventDrivenSimulator(circuit, UnitDelay())
    row = {net: i for i, net in enumerate(circuit.nets)}
    counts = np.zeros((len(row), len(v1)), dtype=np.int64)
    for lane in range(len(v1)):
        toggles = event.simulate_pair(v1[lane], v2[lane]).toggle_counts
        for net, count in toggles.items():
            counts[row[net], lane] = count
    return counts


def plane_counts(planes, planes_used: int, num_lanes: int) -> np.ndarray:
    """``(num_nets, lanes)`` toggle counts decoded from bit-plane
    counters: plane *k* holds bit *k* of every count."""
    counts = np.zeros((planes[0].shape[0], num_lanes), dtype=np.int64)
    for k in range(planes_used):
        rows = np.ascontiguousarray(planes[k])
        bits = np.unpackbits(rows.view(np.uint8), axis=1, bitorder="little")
        counts += bits[:, :num_lanes].astype(np.int64) << k
    return counts


def _special_circuit() -> Circuit:
    """Hand-built net exercising every batch kind in one plan.

    Covers MUX, CONST0/CONST1, NOT, BUF, XNOR, and a NAND wider than
    ``MAX_BATCH_ARITY`` (forcing a per-gate straggler batch).
    """
    c = Circuit("special")
    names = [f"i{k}" for k in range(MAX_BATCH_ARITY + 2)]
    for n in names:
        c.add_input(n)
    c.add_gate("zero", GateType.CONST0, [])
    c.add_gate("one", GateType.CONST1, [])
    c.add_gate("ninv", GateType.NOT, ["i0"])
    c.add_gate("buf", GateType.BUF, ["i1"])
    c.add_gate("m", GateType.MUX, ["i0", "i1", "i2"])
    c.add_gate("xn", GateType.XNOR, ["m", "ninv"])
    c.add_gate("wide", GateType.NAND, names)  # arity > MAX_BATCH_ARITY
    c.add_gate("mix", GateType.OR, ["wide", "xn", "zero"])
    c.add_gate("mix2", GateType.AND, ["mix", "one", "buf"])
    c.set_outputs(["mix2", "m"])
    c.validate()
    return c


def _check_against_oracles(circuit: Circuit, num_lanes: int, seed: int):
    """Every simulator output of the numpy tier vs the exact oracles."""
    sim = BitParallelSimulator(circuit)
    v1, v2 = _random_pairs(circuit.num_inputs, num_lanes, seed)
    w1, lanes = pack_vectors(v1)
    w2, _ = pack_vectors(v2)
    caps = dyadic_caps(sim.num_nets, seed + 1)

    s1 = evaluate_states(circuit, v1)
    s2 = evaluate_states(circuit, v2)
    for words, states in ((w1, s1), (w2, s2)):
        bits = unpack_vectors(sim.steady_state(words, lanes), lanes)
        assert np.array_equal(bits.T, states)
    assert np.array_equal(
        sim.toggle_counts_zero_delay(w1, w2, lanes), (s1 != s2).sum(axis=1)
    )
    assert np.array_equal(
        sim.toggle_energy_zero_delay(w1, w2, lanes, caps), caps @ (s1 != s2)
    )

    counts = event_toggle_counts(circuit, v1, v2)
    mask = lane_mask(lanes, w1.shape[1])
    planes, used = compile_plan(circuit).unit_delay_planes(w1, w2, mask)
    assert np.array_equal(plane_counts(planes, used, lanes), counts)
    assert np.array_equal(
        sim.toggle_energy_unit_delay(w1, w2, lanes, caps), caps @ counts
    )


class TestKernelSelection:
    def test_default_is_compiled(self, c17, no_compiler):
        """Without a C compiler the tier is ``compiled``: unit-delay
        blocks run the numpy loop, the only one that counts steps."""
        from repro.obs.metrics import get_registry

        assert resolve_kernel() == "compiled"
        sim = BitParallelSimulator(c17)
        assert sim._plan is compile_plan(c17)
        registry = get_registry()
        was_enabled = registry.enabled
        registry.enable()
        try:
            before = compiled._STEPS_TOTAL.value
            v1, v2 = _random_pairs(c17.num_inputs, 8, 4)
            w1, lanes = pack_vectors(v1)
            w2, _ = pack_vectors(v2)
            sim.toggle_energy_unit_delay(w1, w2, lanes, np.ones(sim.num_nets))
            assert compiled._STEPS_TOTAL.value > before
        finally:
            if not was_enabled:
                registry.disable()


@pytest.mark.usefixtures("no_compiler")
class TestDifferentialParity:
    """The numpy tier must agree exactly with both oracles."""

    @pytest.mark.parametrize("profile", DAG_PROFILES)
    @pytest.mark.parametrize("num_lanes", LANE_COUNTS)
    def test_random_dag_parity(self, profile, num_lanes):
        ni, no, ng, depth, seed = profile
        circuit = random_layered_circuit(
            f"dag{seed}", ni, no, ng, depth, seed=seed
        )
        _check_against_oracles(circuit, num_lanes, seed + 1)

    @pytest.mark.parametrize("num_lanes", LANE_COUNTS)
    def test_special_gates_parity(self, num_lanes):
        _check_against_oracles(_special_circuit(), num_lanes, 7)

    def test_special_circuit_has_straggler_batch(self):
        plan = CompiledPlan(_special_circuit())
        kinds = {b.kind for b in plan.batches}
        assert "pergate" in kinds
        assert "mux" in kinds
        assert "reduce" in kinds

    def test_parity_against_circuit_evaluate(self, c17):
        # Steady states vs the dict-based scalar evaluator, lane by lane.
        sim = BitParallelSimulator(c17)
        rng = np.random.default_rng(5)
        vecs = rng.integers(0, 2, size=(17, c17.num_inputs), dtype=np.uint8)
        w, lanes = pack_vectors(vecs)
        bits = unpack_vectors(sim.steady_state(w, lanes), lanes)
        for lane in range(lanes):
            ref = c17.evaluate_vector(list(vecs[lane]))
            for j, net in enumerate(sim.net_order):
                assert bits[lane, j] == ref[net], (lane, net)


class TestEventDrivenParity:
    """Unit-delay bitsim vs the event-driven simulator (UnitDelay).

    With all capacitances equal to 1.0 the per-lane unit-delay energy
    is an exact integer: the total number of transitions, including the
    primary-input transitions — directly comparable to the event sim's
    ``total_toggles()`` (integer sums of this size are exact in
    float64).
    """

    @pytest.mark.parametrize(
        "profile", [(6, 3, 25, 4, 11), (10, 5, 60, 8, 22)]
    )
    def test_total_toggles_match(self, profile):
        ni, no, ng, depth, seed = profile
        circuit = random_layered_circuit(
            f"evt{seed}", ni, no, ng, depth, seed=seed
        )
        comp = BitParallelSimulator(circuit)
        event = EventDrivenSimulator(circuit, UnitDelay())
        num_pairs = 40
        v1, v2 = _random_pairs(ni, num_pairs, seed + 1)
        w1, lanes = pack_vectors(v1)
        w2, _ = pack_vectors(v2)
        caps = np.ones(comp.num_nets, dtype=np.float64)
        energies = comp.toggle_energy_unit_delay(w1, w2, lanes, caps)
        for lane in range(lanes):
            expected = event.simulate_pair(
                v1[lane], v2[lane]
            ).total_toggles()
            assert energies[lane] == expected, lane

    def test_hazard_pulse_counted(self, hazard_circuit):
        comp = BitParallelSimulator(hazard_circuit)
        event = EventDrivenSimulator(hazard_circuit, UnitDelay())
        w1, lanes = pack_vectors(np.array([[0]], dtype=np.uint8))
        w2, _ = pack_vectors(np.array([[1]], dtype=np.uint8))
        caps = np.ones(comp.num_nets, dtype=np.float64)
        energy = comp.toggle_energy_unit_delay(w1, w2, lanes, caps)
        assert energy[0] == event.simulate_pair([0], [1]).total_toggles()


class TestPlanCache:
    def test_plan_shared_between_simulators(self, c17):
        a = BitParallelSimulator(c17)
        b = BitParallelSimulator(c17)
        assert a._plan is b._plan

    def test_mutation_invalidates_plan(self, c17):
        plan1 = compile_plan(c17)
        c17.add_gate("extra", GateType.NOT, ["G22"])
        c17.add_output("extra")
        plan2 = compile_plan(c17)
        assert plan2 is not plan1
        assert plan2.num_gates == plan1.num_gates + 1

    def test_circuit_pickle_drops_cache(self, c17):
        compile_plan(c17)
        clone = pickle.loads(pickle.dumps(c17))
        assert clone._cache == {}

    def test_simulator_pickle_roundtrip(self, c17):
        sim = BitParallelSimulator(c17)
        clone = pickle.loads(pickle.dumps(sim))
        assert clone._plan is compile_plan(clone.circuit)
        v1, v2 = _random_pairs(c17.num_inputs, 10, 3)
        w1, lanes = pack_vectors(v1)
        w2, _ = pack_vectors(v2)
        caps = np.ones(sim.num_nets)
        assert np.array_equal(
            sim.toggle_energy_unit_delay(w1, w2, lanes, caps),
            clone.toggle_energy_unit_delay(w1, w2, lanes, caps),
        )


class TestPopcountRows:
    def test_matches_python_popcount(self):
        rng = np.random.default_rng(9)
        words = rng.integers(
            0, 2**64, size=(7, 5), dtype=np.uint64
        )
        expected = [
            sum(int(w).bit_count() for w in row) for row in words
        ]
        assert popcount_rows(words).tolist() == expected

    def test_lut_fallback_matches(self, monkeypatch):
        rng = np.random.default_rng(10)
        words = rng.integers(0, 2**64, size=(4, 9), dtype=np.uint64)
        fast = popcount_rows(words)
        monkeypatch.setattr(compiled, "_HAS_BITWISE_COUNT", False)
        slow = popcount_rows(words)
        assert np.array_equal(fast, slow)
        assert slow.dtype == np.int64

    def test_no_uint8_overflow(self):
        # > 255 set bits per row must not wrap the per-word uint8 counts.
        words = np.full((1, 8), np.uint64(0xFFFFFFFFFFFFFFFF))
        assert popcount_rows(words)[0] == 512


class TestKernelMetrics:
    def test_compiled_metrics_recorded(self, no_compiler):
        from repro.obs.metrics import get_registry

        registry = get_registry()
        registry.reset()
        registry.enable()
        try:
            circuit = random_layered_circuit("met", 8, 4, 40, 6, seed=77)
            sim = BitParallelSimulator(circuit)
            v1, v2 = _random_pairs(8, 32, 78)
            w1, lanes = pack_vectors(v1)
            w2, _ = pack_vectors(v2)
            caps = np.ones(sim.num_nets)
            sim.toggle_energy_unit_delay(w1, w2, lanes, caps)
            assert compiled._COMPILE_TOTAL.value >= 1
            assert compiled._COMPILE_TIMER.count >= 1
            assert compiled._BATCH_EVALS.value > 0
            assert compiled._STEPS_TOTAL.value > 0
            assert compiled._ACTIVE_LEVELS.count > 0
        finally:
            registry.disable()
            registry.reset()

    def test_cache_hit_counter(self):
        from repro.obs.metrics import get_registry

        registry = get_registry()
        registry.reset()
        registry.enable()
        try:
            circuit = random_layered_circuit("hit", 6, 3, 20, 4, seed=88)
            compile_plan(circuit)
            hits0 = compiled._PLAN_CACHE_HITS.value
            compile_plan(circuit)
            assert compiled._PLAN_CACHE_HITS.value == hits0 + 1
        finally:
            registry.disable()
            registry.reset()
