"""Bit-parallel simulator: packing, steady state, toggle accounting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.netlist.generators import build_circuit, ripple_carry_adder
from repro.sim.bitsim import (
    BitParallelSimulator,
    pack_vectors,
    unpack_vectors,
)
from repro.sim.delay import UnitDelay
from repro.sim.event_sim import EventDrivenSimulator
from repro.sim.native import native_available


class TestPacking:
    @given(
        n=st.integers(min_value=1, max_value=200),
        w=st.integers(min_value=1, max_value=20),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=40, deadline=None)
    def test_pack_unpack_roundtrip(self, n, w, seed):
        rng = np.random.default_rng(seed)
        bits = rng.integers(0, 2, size=(n, w)).astype(np.uint8)
        words, lanes = pack_vectors(bits)
        assert lanes == n
        assert words.shape == (w, (n + 63) // 64)
        back = unpack_vectors(words, lanes)
        assert np.array_equal(back, bits)

    def test_pack_requires_2d(self):
        with pytest.raises(SimulationError):
            pack_vectors(np.zeros(5))


class TestSteadyState:
    def test_matches_reference_evaluator(self, c17, rng):
        sim = BitParallelSimulator(c17)
        bits = rng.integers(0, 2, size=(100, 5)).astype(np.uint8)
        words, lanes = pack_vectors(bits)
        state = sim.steady_state(words, lanes)
        values = unpack_vectors(state, lanes)
        for k in (0, 13, 64, 99):  # includes a word-boundary lane
            expected = c17.evaluate_vector(list(bits[k]))
            for i, net in enumerate(sim.net_order):
                assert values[k][i] == expected[net], (k, net)

    def test_partial_word_lanes_handled(self, half_adder):
        sim = BitParallelSimulator(half_adder)
        bits = np.array([[1, 1], [1, 0], [0, 1]], dtype=np.uint8)
        words, lanes = pack_vectors(bits)
        state = sim.steady_state(words, lanes)
        values = unpack_vectors(state, lanes)
        sums = values[:, sim.net_index("sum")]
        carries = values[:, sim.net_index("carry")]
        assert list(sums) == [0, 1, 1]
        assert list(carries) == [1, 0, 0]

    def test_wrong_input_rows_rejected(self, half_adder):
        sim = BitParallelSimulator(half_adder)
        with pytest.raises(SimulationError, match="input rows"):
            sim.steady_state(np.zeros((5, 1), dtype=np.uint64), 3)

    def test_lane_overflow_rejected(self, half_adder):
        sim = BitParallelSimulator(half_adder)
        with pytest.raises(SimulationError, match="capacity"):
            sim.steady_state(np.zeros((2, 1), dtype=np.uint64), 65)

    def test_output_values_extraction(self, half_adder):
        sim = BitParallelSimulator(half_adder)
        bits = np.array([[1, 1]], dtype=np.uint8)
        words, lanes = pack_vectors(bits)
        state = sim.steady_state(words, lanes)
        outs = sim.output_values(state, lanes)
        assert outs.shape == (1, 2)
        assert list(outs[0]) == [0, 1]  # sum=0, carry=1

    def test_output_values_zero_outputs(self, half_adder):
        # Regression: an empty output list used to go through a float64
        # np.empty and crash/round-trip on the uint64 view.
        sim = BitParallelSimulator(half_adder)
        bits = np.array([[1, 0], [0, 1], [1, 1]], dtype=np.uint8)
        words, lanes = pack_vectors(bits)
        state = sim.steady_state(words, lanes)
        half_adder.set_outputs([])
        outs = sim.output_values(state, lanes)
        assert outs.shape == (lanes, 0)
        assert outs.dtype == np.uint8


class TestToggleAccounting:
    def test_zero_delay_energy_matches_reference(self, c17, rng):
        sim = BitParallelSimulator(c17)
        caps = rng.random(len(sim.net_order))
        v1 = rng.integers(0, 2, size=(70, 5)).astype(np.uint8)
        v2 = rng.integers(0, 2, size=(70, 5)).astype(np.uint8)
        w1, lanes = pack_vectors(v1)
        w2, _ = pack_vectors(v2)
        energy = sim.toggle_energy_zero_delay(w1, w2, lanes, caps)
        for k in (0, 31, 69):
            s1 = c17.evaluate_vector(list(v1[k]))
            s2 = c17.evaluate_vector(list(v2[k]))
            expected = sum(
                caps[i]
                for i, net in enumerate(sim.net_order)
                if s1[net] != s2[net]
            )
            assert energy[k] == pytest.approx(expected)

    def test_zero_delay_counts(self, half_adder):
        sim = BitParallelSimulator(half_adder)
        v1 = np.array([[0, 0]], dtype=np.uint8)
        v2 = np.array([[1, 1]], dtype=np.uint8)
        w1, lanes = pack_vectors(v1)
        w2, _ = pack_vectors(v2)
        counts = sim.toggle_counts_zero_delay(w1, w2, lanes)
        by_net = dict(zip(sim.net_order, counts))
        assert by_net["a"] == 1 and by_net["b"] == 1
        assert by_net["sum"] == 0  # 0 -> 0
        assert by_net["carry"] == 1

    @pytest.mark.parametrize("circuit_name", ["c432", "c880"])
    def test_unit_delay_equals_event_driven(self, circuit_name, rng):
        circuit = build_circuit(circuit_name)
        bsim = BitParallelSimulator(circuit)
        esim = EventDrivenSimulator(circuit, UnitDelay())
        caps = np.ones(len(bsim.net_order))
        n = 20
        v1 = rng.integers(0, 2, size=(n, circuit.num_inputs)).astype(np.uint8)
        v2 = rng.integers(0, 2, size=(n, circuit.num_inputs)).astype(np.uint8)
        w1, lanes = pack_vectors(v1)
        w2, _ = pack_vectors(v2)
        energy = bsim.toggle_energy_unit_delay(w1, w2, lanes, caps)
        for k in range(n):
            expected = esim.simulate_pair(
                list(v1[k]), list(v2[k])
            ).total_toggles()
            assert energy[k] == pytest.approx(expected), k

    def test_unit_delay_captures_hazard(self, hazard_circuit):
        sim = BitParallelSimulator(hazard_circuit)
        caps = np.zeros(len(sim.net_order))
        caps[sim.net_index("y")] = 1.0  # only count the hazard net
        v1 = np.array([[0]], dtype=np.uint8)
        v2 = np.array([[1]], dtype=np.uint8)
        w1, lanes = pack_vectors(v1)
        w2, _ = pack_vectors(v2)
        zero_energy = sim.toggle_energy_zero_delay(w1, w2, lanes, caps)
        unit_energy = sim.toggle_energy_unit_delay(w1, w2, lanes, caps)
        assert zero_energy[0] == 0.0
        assert unit_energy[0] == 2.0  # the 0->1->0 pulse

    def test_unit_delay_ripple_adder_carry_chain(self):
        # Flipping a0 with b=111 ripples the carry chain: every fa
        # carry toggles once, deterministic and hand-checkable.
        rca = ripple_carry_adder(3)
        sim = BitParallelSimulator(rca)
        caps = np.ones(len(sim.net_order))
        base = [0, 0, 0, 1, 1, 1, 0]  # a=0, b=7, cin=0
        bump = [1, 0, 0, 1, 1, 1, 0]  # a=1 -> sum wraps to 0, carry out
        w1, lanes = pack_vectors(np.array([base], dtype=np.uint8))
        w2, _ = pack_vectors(np.array([bump], dtype=np.uint8))
        energy = sim.toggle_energy_unit_delay(w1, w2, lanes, caps)
        esim = EventDrivenSimulator(rca, UnitDelay())
        assert energy[0] == pytest.approx(
            esim.simulate_pair(base, bump).total_toggles()
        )

    @pytest.mark.parametrize(
        "kernel",
        [
            "interp",
            "compiled",
            pytest.param(
                "native",
                marks=pytest.mark.skipif(
                    not native_available(), reason="no native backend"
                ),
            ),
        ],
    )
    def test_unit_delay_unstable_raises_then_recovers(self, kernel):
        # One relaxation step cannot settle c880 (depth >> 1): the
        # invariant guard must raise, and the simulator (and the native
        # tier's per-thread buffers) must serve the next call unharmed.
        circuit = build_circuit("c880")
        sim = BitParallelSimulator(circuit, kernel=kernel)
        rng = np.random.default_rng(14)
        v1 = rng.integers(0, 2, size=(10, circuit.num_inputs), dtype=np.uint8)
        v2 = rng.integers(0, 2, size=(10, circuit.num_inputs), dtype=np.uint8)
        w1, lanes = pack_vectors(v1)
        w2, _ = pack_vectors(v2)
        caps = np.ones(sim.num_nets)
        with pytest.raises(SimulationError, match="did not stabilize"):
            sim.toggle_energy_unit_delay(w1, w2, lanes, caps, max_steps=1)
        reference = BitParallelSimulator(circuit, kernel="compiled")
        assert np.array_equal(
            sim.toggle_energy_unit_delay(w1, w2, lanes, caps),
            reference.toggle_energy_unit_delay(w1, w2, lanes, caps),
        )
