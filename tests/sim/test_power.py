"""Power analyzer: unit conversions, mode consistency, validation."""

import sys
import threading

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.netlist.generators import build_circuit
from repro.netlist.library import default_library
from repro.sim.compiled import resolve_kernel
from repro.sim.native import native_available
from repro.sim.power import PowerAnalyzer

requires_native = pytest.mark.skipif(
    not native_available(), reason="no native backend (no C compiler)"
)

# Lane counts straddling the word (64) and lane-block (4096) boundaries,
# plus the single pair.
THREAD_JOB_SIZES = (513, 100, 4096, 1, 64, 5000, 63, 4097)


class TestConfiguration:
    def test_invalid_mode_rejected(self, c17):
        with pytest.raises(SimulationError, match="mode"):
            PowerAnalyzer(c17, mode="spice")

    def test_invalid_frequency_rejected(self, c17):
        with pytest.raises(SimulationError, match="frequency"):
            PowerAnalyzer(c17, frequency_hz=0)

    def test_energy_scale(self, c17):
        pa = PowerAnalyzer(c17)
        lib = default_library()
        assert pa.energy_scale == pytest.approx(0.5 * lib.vdd ** 2)

    def test_max_possible_power_formula(self, c17):
        pa = PowerAnalyzer(c17, frequency_hz=1e6)
        expected = pa.energy_scale * pa.total_capacitance_f() * 1e6
        assert pa.max_possible_power_w() == pytest.approx(expected)


class TestPairPower:
    def test_identical_vectors_zero_power(self, c17):
        for mode in ("zero", "unit", "event"):
            pa = PowerAnalyzer(c17, mode=mode)
            bd = pa.pair_power([1, 0, 1, 0, 1], [1, 0, 1, 0, 1])
            assert bd.power_w == 0.0
            assert bd.energy_j == 0.0

    def test_power_scales_with_frequency(self, c17):
        pa1 = PowerAnalyzer(c17, frequency_hz=10e6)
        pa2 = PowerAnalyzer(c17, frequency_hz=20e6)
        v1, v2 = [0, 0, 0, 0, 0], [1, 1, 1, 1, 1]
        p1 = pa1.pair_power(v1, v2).power_w
        p2 = pa2.pair_power(v1, v2).power_w
        assert p2 == pytest.approx(2 * p1)
        # energy is frequency independent
        assert pa1.pair_power(v1, v2).energy_j == pytest.approx(
            pa2.pair_power(v1, v2).energy_j
        )

    def test_hand_computed_single_toggle(self, half_adder):
        # a: 0->1 with b=1: a toggles, sum toggles 1->0, carry 0->1.
        pa = PowerAnalyzer(half_adder, mode="zero", frequency_hz=1e6)
        lib = pa.library
        bd = pa.pair_power([0, 1], [1, 1])
        caps = lib.all_net_capacitances(half_adder)
        expected_energy = (
            0.5
            * lib.vdd ** 2
            * (caps["a"] + caps["sum"] + caps["carry"])
            * 1e-15
        )
        assert bd.energy_j == pytest.approx(expected_energy)
        assert set(bd.toggle_counts) == {"a", "sum", "carry"}

    def test_event_mode_reports_settle_time(self, c17):
        pa = PowerAnalyzer(c17, mode="event")
        bd = pa.pair_power([0] * 5, [1] * 5)
        assert bd.settle_time > 0

    def test_event_mode_glitch_power_exceeds_zero_delay(self, hazard_circuit):
        pz = PowerAnalyzer(hazard_circuit, mode="zero")
        pu = PowerAnalyzer(hazard_circuit, mode="unit")
        vz = pz.pair_power([0], [1]).power_w
        vu = pu.pair_power([0], [1]).power_w
        assert vu > vz  # hazard pulse adds switched capacitance

    def test_power_mw_property(self, c17):
        pa = PowerAnalyzer(c17)
        bd = pa.pair_power([0] * 5, [1] * 5)
        assert bd.power_mw == pytest.approx(bd.power_w * 1e3)


class TestPopulationPowers:
    def test_shape_and_consistency_with_pair_power(self, c17, rng):
        for mode in ("zero", "unit"):
            pa = PowerAnalyzer(c17, mode=mode)
            v1 = rng.integers(0, 2, size=(40, 5)).astype(np.uint8)
            v2 = rng.integers(0, 2, size=(40, 5)).astype(np.uint8)
            powers = pa.powers_for_pairs(v1, v2)
            assert powers.shape == (40,)
            for k in (0, 17, 39):
                single = pa.pair_power(list(v1[k]), list(v2[k]))
                assert powers[k] == pytest.approx(single.power_w)

    def test_event_mode_population_matches_loop(self, half_adder, rng):
        pa = PowerAnalyzer(half_adder, mode="event")
        v1 = rng.integers(0, 2, size=(10, 2)).astype(np.uint8)
        v2 = rng.integers(0, 2, size=(10, 2)).astype(np.uint8)
        powers = pa.powers_for_pairs(v1, v2)
        for k in range(10):
            assert powers[k] == pytest.approx(
                pa.pair_power(list(v1[k]), list(v2[k])).power_w
            )

    def test_block_processing_equivalence(self, c17, rng):
        pa = PowerAnalyzer(c17, mode="zero")
        v1 = rng.integers(0, 2, size=(200, 5)).astype(np.uint8)
        v2 = rng.integers(0, 2, size=(200, 5)).astype(np.uint8)
        whole = pa.powers_for_pairs(v1, v2)
        blocked = pa.powers_for_pairs(v1, v2, block_lanes=64)
        assert np.allclose(whole, blocked)

    def test_shape_mismatch_rejected(self, c17):
        pa = PowerAnalyzer(c17)
        with pytest.raises(SimulationError, match="mismatch"):
            pa.powers_for_pairs(
                np.zeros((3, 5), dtype=np.uint8),
                np.zeros((4, 5), dtype=np.uint8),
            )

    def test_wrong_width_rejected(self, c17):
        pa = PowerAnalyzer(c17)
        with pytest.raises(SimulationError, match="expected"):
            pa.powers_for_pairs(
                np.zeros((3, 4), dtype=np.uint8),
                np.zeros((3, 4), dtype=np.uint8),
            )

    def test_powers_bounded_by_ceiling(self, c17, rng):
        pa = PowerAnalyzer(c17, mode="zero")
        v1 = rng.integers(0, 2, size=(100, 5)).astype(np.uint8)
        v2 = rng.integers(0, 2, size=(100, 5)).astype(np.uint8)
        powers = pa.powers_for_pairs(v1, v2)
        assert (powers <= pa.max_possible_power_w() + 1e-12).all()
        assert (powers >= 0).all()


class TestConcurrentPowers:
    @pytest.mark.parametrize(
        "kernel, circuit_name",
        [
            ("compiled", "c880"),
            pytest.param("native", "c1908", marks=requires_native),
        ],
    )
    def test_threads_sharing_a_plan_match_serial(
        self, kernel, circuit_name, request
    ):
        """Eight threads run unit-delay ``powers_for_pairs`` at once on
        analyzers of one circuit, so they share its cached plan (and the
        C loop's calls overlap, each on its own per-thread buffers).
        Every result must equal the serial run bit for bit."""
        if kernel == "compiled":
            request.getfixturevalue("no_compiler")
        assert resolve_kernel() == kernel
        circuit = build_circuit(circuit_name)
        rng = np.random.default_rng(7)
        jobs = [
            tuple(
                rng.integers(0, 2, size=(n, circuit.num_inputs), dtype=np.uint8)
                for _ in range(2)
            )
            for n in THREAD_JOB_SIZES
        ]
        serial = PowerAnalyzer(circuit, mode="unit")
        expected = [serial.powers_for_pairs(v1, v2) for v1, v2 in jobs]

        analyzers = [PowerAnalyzer(circuit, mode="unit") for _ in jobs]
        assert len({id(a._bitsim._plan) for a in analyzers}) == 1
        results = [None] * len(jobs)
        errors = []
        barrier = threading.Barrier(len(jobs))

        def run(i):
            try:
                barrier.wait(timeout=60)
                results[i] = analyzers[i].powers_for_pairs(*jobs[i])
            except Exception as exc:  # reported by the assert below
                errors.append(exc)

        threads = [
            threading.Thread(target=run, args=(i,)) for i in range(len(jobs))
        ]
        # Switch threads often, so the Python parts of the calls
        # interleave as much as they can.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors, errors
        for n, exp, got in zip(THREAD_JOB_SIZES, expected, results):
            assert np.array_equal(exp, got), f"job with {n} pairs"
