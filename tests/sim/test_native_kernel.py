"""Differential tests: the C wavefront loop vs the numpy loop and oracles.

On a host where the C library loads, every unit-delay block runs the C
loop.  It must be *indistinguishable* from the numpy loop that runs on
a host without a compiler: bit-identical toggle planes and
float-identical energies (both loops charge through the one shared
:func:`~repro.sim.compiled.charge_planes`), and per-net, per-lane
toggle counts equal to the event-driven oracle's.  Everything that
needs the C library skips — never fails — when it cannot be built, and
the ``no_compiler`` tests prove that such a host simulates on the
numpy loop and reports it.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.netlist.circuit import Circuit
from repro.netlist.gates import GateType
from repro.netlist.generators.iscas_like import build_circuit
from repro.netlist.generators.random_dag import random_layered_circuit
from repro.sim import native
from repro.sim.bitsim import BitParallelSimulator, pack_vectors
from repro.sim.compiled import (
    MAX_BATCH_ARITY,
    charge_planes,
    compile_plan,
    kernel_info,
    lane_mask,
    resolve_kernel,
)
from repro.sim.native import (
    backend_name,
    native_available,
    reset_backend,
    unit_delay_planes_native,
)
from repro.sim.power import PowerAnalyzer

from .test_compiled_kernel import (
    dyadic_caps,
    event_toggle_counts,
    plane_counts,
)

HAVE_NATIVE = native_available()
requires_native = pytest.mark.skipif(
    not HAVE_NATIVE, reason="no native backend (no C compiler)"
)

# Lane counts straddling word and charge-block boundaries.
LANE_COUNTS = (1, 63, 64, 65, 200)

DAG_PROFILES = (
    (8, 4, 30, 5, 401),
    (16, 8, 120, 10, 402),
    (24, 12, 400, 18, 403),
)


def _random_pairs(num_inputs: int, num_pairs: int, seed: int):
    rng = np.random.default_rng(seed)
    v1 = rng.integers(0, 2, size=(num_pairs, num_inputs), dtype=np.uint8)
    v2 = rng.integers(0, 2, size=(num_pairs, num_inputs), dtype=np.uint8)
    return v1, v2


def _random_caps(num_nets: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    caps = rng.uniform(0.5, 20.0, size=num_nets)
    caps[rng.random(num_nets) < 0.1] = 0.0
    return caps


def _mixed_arity_circuit() -> Circuit:
    """Every batch kind in one netlist: MUX, consts, NOT/BUF, XNOR, a
    NAND wider than ``MAX_BATCH_ARITY`` and ragged mid-arity gates."""
    c = Circuit("native-mixed")
    names = [f"i{k}" for k in range(MAX_BATCH_ARITY + 2)]
    for n in names:
        c.add_input(n)
    c.add_gate("zero", GateType.CONST0, [])
    c.add_gate("one", GateType.CONST1, [])
    c.add_gate("ninv", GateType.NOT, ["i0"])
    c.add_gate("buf", GateType.BUF, ["i1"])
    c.add_gate("m", GateType.MUX, ["i0", "i1", "i2"])
    c.add_gate("xn", GateType.XNOR, ["m", "ninv"])
    c.add_gate("wide", GateType.NAND, names)
    c.add_gate("nor3", GateType.NOR, ["i3", "i4", "i5"])
    c.add_gate("mix", GateType.OR, ["wide", "xn", "zero", "nor3"])
    c.add_gate("mix2", GateType.AND, ["mix", "one", "buf"])
    c.set_outputs(["mix2", "m"])
    c.validate()
    return c


def _dangling_circuit() -> Circuit:
    """Gates with zero fanout: toggles on nets that feed nothing must
    still be counted, and the 'dirty nets feed no gates' quiescent step
    must terminate identically across tiers."""
    c = Circuit("native-dangling")
    for n in ("a", "b", "c"):
        c.add_input(n)
    c.add_gate("g1", GateType.AND, ["a", "b"])
    c.add_gate("dead1", GateType.XOR, ["g1", "c"])  # no consumers
    c.add_gate("dead2", GateType.NOT, ["a"])  # no consumers
    c.add_gate("g2", GateType.OR, ["g1", "c"])
    c.set_outputs(["g2", "dead1", "dead2"])
    c.validate()
    return c


class TestNativeSelection:
    @requires_native
    def test_env_var_selects_native(self, c17, monkeypatch):
        """``REPRO_NATIVE_CC`` naming a working compiler gives the C
        loop (the same compiler path, so the cached library loads)."""
        monkeypatch.setenv("REPRO_NATIVE_CC", native._find_cc())
        reset_backend()
        try:
            assert kernel_info() == {"active": "native", "backend": "cext"}
            sim = BitParallelSimulator(c17)
            v1, v2 = _random_pairs(c17.num_inputs, 10, 5)
            w1, lanes = pack_vectors(v1)
            w2, _ = pack_vectors(v2)
            caps = np.ones(sim.num_nets)
            assert np.array_equal(
                sim.toggle_energy_unit_delay(w1, w2, lanes, caps),
                event_toggle_counts(c17, v1, v2).sum(axis=0),
            )
        finally:
            monkeypatch.undo()
            reset_backend()

    def test_no_accelerator_degrades_to_compiled(self, c17, no_compiler):
        assert not native_available()
        assert backend_name() is None
        # The numpy loop still simulates correctly: with unit
        # capacitances the energy is the event-driven toggle total.
        sim = BitParallelSimulator(c17)
        v1, v2 = _random_pairs(c17.num_inputs, 10, 1)
        w1, lanes = pack_vectors(v1)
        w2, _ = pack_vectors(v2)
        caps = np.ones(sim.num_nets)
        assert np.array_equal(
            sim.toggle_energy_unit_delay(w1, w2, lanes, caps),
            event_toggle_counts(c17, v1, v2).sum(axis=0),
        )

    def test_kernel_info_reports_fallback(self, c17, no_compiler):
        PowerAnalyzer(c17, mode="unit").powers_for_pairs(
            *_random_pairs(c17.num_inputs, 4, 3)
        )
        assert kernel_info() == {"active": "compiled", "backend": None}
        assert resolve_kernel(probe=True) == "compiled"

    def test_kernel_info_active_native(self, c17):
        if not HAVE_NATIVE:
            pytest.skip("no native backend")
        # A fresh probe, loaded by the unit-delay call itself: the
        # report must name the library that call loaded.
        reset_backend()
        PowerAnalyzer(c17, mode="unit").powers_for_pairs(
            *_random_pairs(c17.num_inputs, 4, 3)
        )
        assert kernel_info() == {"active": "native", "backend": "cext"}
        assert resolve_kernel(probe=True) == "native"

    @requires_native
    def test_pickled_sim_keeps_native_kernel(self, c17):
        sim = BitParallelSimulator(c17)
        clone = pickle.loads(pickle.dumps(sim))
        v1, v2 = _random_pairs(c17.num_inputs, 5, 2)
        w1, lanes = pack_vectors(v1)
        w2, _ = pack_vectors(v2)
        caps = np.ones(sim.num_nets)
        assert np.array_equal(
            sim.toggle_energy_unit_delay(w1, w2, lanes, caps),
            clone.toggle_energy_unit_delay(w1, w2, lanes, caps),
        )


@requires_native
class TestNativeDifferential:
    """C loop vs numpy loop vs event-driven oracle: exact agreement."""

    def _three_way(self, circuit, num_lanes, seed):
        sim = BitParallelSimulator(circuit)
        plan = compile_plan(circuit)
        v1, v2 = _random_pairs(circuit.num_inputs, num_lanes, seed)
        w1, lanes = pack_vectors(v1)
        w2, _ = pack_vectors(v2)
        mask = lane_mask(lanes, w1.shape[1])
        p_n, used_n = unit_delay_planes_native(plan, w1, w2, mask)
        p_c, used_c = plan.unit_delay_planes(w1, w2, mask)
        counts = plane_counts(p_n, used_n, lanes)
        assert used_n == used_c
        assert np.array_equal(counts, plane_counts(p_c, used_c, lanes))
        assert np.array_equal(counts, event_toggle_counts(circuit, v1, v2))
        # With dyadic capacitances the energy is the oracle's exact sum.
        dcaps = dyadic_caps(sim.num_nets, seed + 2)
        assert np.array_equal(
            sim.toggle_energy_unit_delay(w1, w2, lanes, dcaps),
            dcaps @ counts,
        )
        # With arbitrary ones it is float-identical to the numpy loop's
        # (one lane block: the same planes through the same charge).
        caps = _random_caps(sim.num_nets, seed + 1)
        assert np.array_equal(
            sim.toggle_energy_unit_delay(w1, w2, lanes, caps),
            charge_planes(p_c, caps, lanes, used_c),
        )

    @pytest.mark.parametrize("profile", DAG_PROFILES)
    @pytest.mark.parametrize("num_lanes", LANE_COUNTS)
    def test_random_dag_parity(self, profile, num_lanes):
        ni, no, ng, depth, seed = profile
        circuit = random_layered_circuit(
            f"ndag{seed}", ni, no, ng, depth, seed=seed
        )
        self._three_way(circuit, num_lanes, seed)

    @pytest.mark.parametrize("num_lanes", LANE_COUNTS)
    def test_mixed_arity_parity(self, num_lanes):
        self._three_way(_mixed_arity_circuit(), num_lanes, 17)

    @pytest.mark.parametrize("num_lanes", (1, 65))
    def test_dangling_net_parity(self, num_lanes):
        self._three_way(_dangling_circuit(), num_lanes, 23)

    @pytest.mark.parametrize("name", ("c432", "c880"))
    def test_suite_circuit_parity(self, name):
        self._three_way(build_circuit(name), 300, 31)

    def test_identical_vectors_zero_energy(self):
        circuit = build_circuit("c432")
        sim = BitParallelSimulator(circuit)
        v1, _ = _random_pairs(circuit.num_inputs, 70, 41)
        w1, lanes = pack_vectors(v1)
        caps = _random_caps(sim.num_nets, 42)
        energy = sim.toggle_energy_unit_delay(w1, w1, lanes, caps)
        assert np.array_equal(energy, np.zeros(lanes))

    def test_planes_bit_identical(self):
        """The raw toggle planes — not just the charged energies —
        match the numpy loop's, including the used-plane count."""
        circuit = random_layered_circuit("nplanes", 12, 6, 90, 8, seed=55)
        plan = compile_plan(circuit)
        v1, v2 = _random_pairs(circuit.num_inputs, 130, 56)
        w1, lanes = pack_vectors(v1)
        w2, _ = pack_vectors(v2)
        mask = lane_mask(lanes, w1.shape[1])
        p_n, used_n = unit_delay_planes_native(plan, w1, w2, mask)
        p_c, used_c = plan.unit_delay_planes(w1, w2, mask)
        assert used_n == used_c
        for k in range(used_n):
            assert np.array_equal(np.asarray(p_n[k]), np.asarray(p_c[k])), k

    def test_charge_accelerator_matches_numpy(self, request):
        """charge_planes with the native charge accelerator vs the pure
        numpy grouped-SWAR path: bit-identical energies."""
        circuit = random_layered_circuit("ncharge", 10, 5, 80, 7, seed=66)
        plan = compile_plan(circuit)
        v1, v2 = _random_pairs(circuit.num_inputs, 150, 67)
        w1, lanes = pack_vectors(v1)
        w2, _ = pack_vectors(v2)
        mask = lane_mask(lanes, w1.shape[1])
        planes, used = plan.unit_delay_planes(w1, w2, mask)
        caps = _random_caps(plan.num_nets, 68)
        with_accel = charge_planes(planes, caps, lanes, used)
        request.getfixturevalue("no_compiler")
        without = charge_planes(planes, caps, lanes, used)
        assert np.array_equal(with_accel, without)
