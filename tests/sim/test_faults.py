"""Stuck-at fault simulation."""

import itertools

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.netlist.generators import build_circuit
from repro.sim.faults import CoverageReport, Fault, FaultSimulator


def all_vectors(width):
    return np.array(
        list(itertools.product([0, 1], repeat=width)), dtype=np.uint8
    )


class TestFault:
    def test_validation(self):
        with pytest.raises(SimulationError):
            Fault("a", 2)

    def test_str(self):
        assert str(Fault("G10", 1)) == "G10/SA1"


class TestDetection:
    def test_and_gate_classic_faults(self, half_adder):
        sim = FaultSimulator(half_adder)
        vectors = all_vectors(2)
        # carry = AND(a, b): carry/SA1 detected by any vector with
        # carry=0 and ... specifically vectors where AND=0 -> output
        # differs: (0,0),(0,1),(1,0).
        lanes = sim.detecting_lanes(vectors, Fault("carry", 1))
        assert list(lanes) == [True, True, True, False]
        # carry/SA0 detected only by (1,1).
        lanes = sim.detecting_lanes(vectors, Fault("carry", 0))
        assert list(lanes) == [False, False, False, True]

    def test_input_fault(self, half_adder):
        sim = FaultSimulator(half_adder)
        vectors = all_vectors(2)
        # a/SA0: differs whenever a=1 (sum flips; carry flips if b=1).
        lanes = sim.detecting_lanes(vectors, Fault("a", 0))
        assert list(lanes) == [False, False, True, True]

    def test_unknown_net_rejected(self, half_adder):
        sim = FaultSimulator(half_adder)
        with pytest.raises(SimulationError, match="unknown net"):
            sim.detecting_lanes(all_vectors(2), Fault("ghost", 0))

    def test_vector_shape_checked(self, half_adder):
        sim = FaultSimulator(half_adder)
        with pytest.raises(SimulationError, match="vectors"):
            sim.detecting_lanes(
                np.zeros((4, 3), dtype=np.uint8), Fault("a", 0)
            )

    def test_matches_reference_evaluation(self, c17, rng):
        sim = FaultSimulator(c17)
        vectors = rng.integers(0, 2, size=(50, 5)).astype(np.uint8)
        fault = Fault("G11", 0)
        lanes = sim.detecting_lanes(vectors, fault)
        # Reference: rebuild circuit with G11 replaced by CONST0.
        from repro.netlist.circuit import Circuit
        from repro.netlist.gates import GateType

        mutant = Circuit("c17_sa")
        for net in c17.inputs:
            mutant.add_input(net)
        for name in c17.topological_order():
            gate = c17.gate(name)
            if name == "G11":
                mutant.add_gate(name, GateType.CONST0, [])
            else:
                mutant.add_gate(name, gate.gtype, gate.fanin)
        mutant.set_outputs(c17.outputs)
        for k in range(50):
            good = c17.evaluate_vector(list(vectors[k]))
            bad = mutant.evaluate_vector(list(vectors[k]))
            expected = any(good[o] != bad[o] for o in c17.outputs)
            assert lanes[k] == expected, k


class TestCoverage:
    def test_exhaustive_coverage_of_c17(self, c17):
        sim = FaultSimulator(c17)
        report = sim.coverage(all_vectors(5))
        # c17 is fully testable under exhaustive stimulus.
        assert report.coverage == 1.0
        assert not report.undetected
        assert str(report).endswith("(100.0%)")

    def test_single_vector_low_coverage(self, c17):
        sim = FaultSimulator(c17)
        one = np.array([[0, 0, 0, 0, 0]], dtype=np.uint8)
        report = sim.coverage(one)
        assert 0 < report.coverage < 1.0

    def test_first_detection_indices(self, half_adder):
        sim = FaultSimulator(half_adder)
        vectors = all_vectors(2)
        report = sim.coverage(vectors, [Fault("carry", 0)])
        assert report.first_detection[Fault("carry", 0)] == 3

    def test_undetectable_fault_reported(self):
        # A net that no output observes can never be detected.
        from repro.netlist.circuit import Circuit
        from repro.netlist.gates import GateType

        c = Circuit("dangle")
        c.add_input("a")
        c.add_gate("dead", GateType.NOT, ["a"])
        c.add_gate("out", GateType.BUF, ["a"])
        c.set_outputs(["out"])
        sim = FaultSimulator(c)
        report = sim.coverage(
            np.array([[0], [1]], dtype=np.uint8),
            [Fault("dead", 0), Fault("dead", 1)],
        )
        assert report.coverage == 0.0

    def test_all_faults_enumeration(self, half_adder):
        sim = FaultSimulator(half_adder)
        faults = sim.all_faults()
        assert len(faults) == 2 * len(half_adder.nets)


class TestPowerUnderFault:
    def test_stuck_net_never_toggles(self, c17, rng):
        sim = FaultSimulator(c17)
        bsim_order = FaultSimulator(c17)._sim.net_order
        caps = np.zeros(len(bsim_order))
        caps[bsim_order.index("G11")] = 1.0  # charge only the stuck net
        v1 = rng.integers(0, 2, size=(30, 5)).astype(np.uint8)
        v2 = rng.integers(0, 2, size=(30, 5)).astype(np.uint8)
        energy = sim.power_under_fault(v1, v2, Fault("G11", 1), caps)
        assert (energy == 0).all()

    def test_fault_changes_power_distribution(self, c17, rng):
        from repro.sim.power import PowerAnalyzer

        sim = FaultSimulator(c17)
        pa = PowerAnalyzer(c17, mode="zero")
        caps = pa._net_caps_f
        v1 = rng.integers(0, 2, size=(200, 5)).astype(np.uint8)
        v2 = rng.integers(0, 2, size=(200, 5)).astype(np.uint8)
        healthy = pa.powers_for_pairs(v1, v2) / (
            pa.energy_scale * pa.frequency_hz
        )
        faulty = sim.power_under_fault(v1, v2, Fault("G11", 0), caps)
        # Capacitances are femtofarad-scale, so compare with rtol only.
        assert not np.allclose(healthy, faulty, rtol=1e-3, atol=0.0)
        # The stuck circuit can only lose switching on G11's cone side.
        assert faulty.mean() < healthy.mean() * 1.2

    @pytest.mark.parametrize("width", [1, 39])
    def test_vector_width_checked(self, width):
        # c432 has 36 inputs: a width-1 matrix used to be broadcast to
        # every input, a width-39 one to fail inside numpy.
        c432 = build_circuit("c432")
        sim = FaultSimulator(c432)
        caps = np.ones(sim._sim.num_nets)
        good = np.zeros((4, c432.num_inputs), dtype=np.uint8)
        bad = np.ones((4, width), dtype=np.uint8)
        fault = Fault(c432.outputs[0], 0)
        with pytest.raises(SimulationError, match=r"v1 must be \(N, 36\)"):
            sim.power_under_fault(bad, bad, fault, caps)
        with pytest.raises(SimulationError, match=r"v2 must be \(N, 36\)"):
            sim.power_under_fault(good, bad, fault, caps)

    def test_net_caps_length_checked(self):
        c432 = build_circuit("c432")
        sim = FaultSimulator(c432)
        v = np.zeros((4, c432.num_inputs), dtype=np.uint8)
        with pytest.raises(SimulationError, match="net_caps must have"):
            sim.power_under_fault(v, v, Fault(c432.outputs[0], 0), np.ones(3))
