"""Set-up values are float-identical to the per-net reference formula.

Every population, estimate and service result is bit-pinned to the
capacitances and delays computed here, so the single-pass set-up must
reproduce the per-net formula exactly (``==``, never ``approx``): the
driver's output cap, then each sink pin's input cap in fanout order,
then the wire term.  The reference below keeps that formula and derives
its sink lists from the gates directly, not from ``Circuit``'s index.
"""

import json

import numpy as np
import pytest

from repro.netlist.generators import build_circuit
from repro.netlist.generators.random_dag import random_layered_circuit
from repro.netlist.library import CellLibrary, default_library
from repro.sim.delay import LibraryDelay
from repro.sim.event_sim import EventDrivenSimulator
from repro.sim.power import PowerAnalyzer

CIRCUITS = ("c17", "c432", "c880", "c3540", "rnd_a", "rnd_b")


def reference_sinks(circuit):
    sinks = {net: [] for net in circuit.nets}
    for gate in circuit.gates.values():
        for src in gate.fanin:
            sinks[src].append(gate.name)
    return sinks


def reference_capacitance(lib, circuit, sinks, net):
    cap = 0.0
    if not circuit.is_input(net):
        cap += lib.params(circuit.gate(net).gtype).output_cap_ff
    for sink in sinks[net]:
        cap += lib.params(circuit.gate(sink).gtype).input_cap_ff
    cap += lib.wire_cap_per_fanout_ff * len(sinks[net])
    return cap


def reference_delay(lib, circuit, sinks, net):
    if circuit.is_input(net):
        return 0.0
    cell = lib.params(circuit.gate(net).gtype)
    load = reference_capacitance(lib, circuit, sinks, net)
    return cell.intrinsic_delay_ps + cell.delay_per_ff_ps * load


def non_dyadic_library():
    """Every cell field x1.1 + 0.1 and a 0.3 fF wire term: sums of these
    values round differently when reordered, so equality pins the
    summation order."""
    payload = json.loads(default_library().to_json())
    payload["name"] = "non_dyadic"
    payload["wire_cap_per_fanout_ff"] = 0.3
    for fields in payload["cells"].values():
        for key in fields:
            fields[key] = fields[key] * 1.1 + 0.1
    return CellLibrary.from_json(json.dumps(payload))


@pytest.fixture(scope="module")
def circuits():
    return {
        "c432": build_circuit("c432"),
        "c880": build_circuit("c880"),
        "c3540": build_circuit("c3540"),
        "rnd_a": random_layered_circuit(
            "rnd_a", num_inputs=16, num_outputs=8, num_gates=300, depth=9, seed=5
        ),
        "rnd_b": random_layered_circuit(
            "rnd_b", num_inputs=40, num_outputs=12, num_gates=1200, depth=25,
            seed=11, fanin_choices=(1, 2, 3, 4, 5), local_fanin_prob=0.4,
        ),
    }


LIBRARIES = {"default": default_library, "non_dyadic": non_dyadic_library}


@pytest.mark.parametrize("lib_name", sorted(LIBRARIES))
@pytest.mark.parametrize("circuit_name", CIRCUITS)
def test_setup_matches_per_net_reference(c17, circuits, circuit_name, lib_name):
    circuit = c17 if circuit_name == "c17" else circuits[circuit_name]
    lib = LIBRARIES[lib_name]()
    sinks = reference_sinks(circuit)
    caps = {n: reference_capacitance(lib, circuit, sinks, n) for n in circuit.nets}
    delays = {n: reference_delay(lib, circuit, sinks, n) for n in circuit.nets}

    all_caps = lib.all_net_capacitances(circuit)
    assert list(all_caps) == circuit.nets
    assert all_caps == caps
    assert lib.all_gate_delays(circuit) == delays
    assert LibraryDelay(lib).delays_for(circuit) == {
        n: delays[n] for n in circuit.gates
    }
    for net in circuit.nets:
        assert lib.net_capacitance(circuit, net) == caps[net]
        assert lib.gate_delay(circuit, net) == delays[net]

    analyzer = PowerAnalyzer(circuit, library=lib)
    expected = np.array([caps[n] * 1e-15 for n in analyzer._bitsim.net_order])
    assert np.array_equal(analyzer._net_caps_f, expected)


def test_fanout_map_copies_do_not_leak(c17):
    lib = default_library()
    sinks = reference_sinks(c17)
    counts = {n: len(s) for n, s in sinks.items()}
    caps_before = PowerAnalyzer(c17, library=lib)._net_caps_f.copy()
    for _ in range(2):
        fo = c17.fanout_map()
        fo["G11"].append("G22")
        fo["G3"].clear()
        fo["G1"] = []
        del fo["G22"]
        fo["bogus"] = ["G10"]
    assert {n: c17.fanout_count(n) for n in c17.nets} == counts
    assert c17.fanout_map() == sinks
    assert np.array_equal(
        PowerAnalyzer(c17, library=lib)._net_caps_f, caps_before
    )


def test_event_mode_reuses_construction_capacitances(circuits, monkeypatch):
    """Regression: event-mode power recomputed every capacitance for
    each pair.  The analyzer's own pass runs once at construction; the
    only other pass is the library delay model's, once, when the event
    simulator is first built.  Powers equal the per-pair reference."""
    circuit = circuits["c880"]
    lib = default_library()
    passes = []
    original = CellLibrary.all_net_capacitances

    def counting(self, circ):
        passes.append(circ)
        return original(self, circ)

    monkeypatch.setattr(CellLibrary, "all_net_capacitances", counting)
    analyzer = PowerAnalyzer(circuit, library=lib, mode="event")
    assert len(passes) == 1
    rng = np.random.default_rng(7)
    v1 = rng.integers(0, 2, size=(24, circuit.num_inputs), dtype=np.uint8)
    v2 = rng.integers(0, 2, size=(24, circuit.num_inputs), dtype=np.uint8)
    head = analyzer.powers_for_pairs(v1[:1], v2[:1])
    after_first = len(passes)
    assert after_first <= 2
    powers = analyzer.powers_for_pairs(v1, v2)
    assert len(passes) == after_first
    assert powers[0] == head[0]

    monkeypatch.setattr(CellLibrary, "all_net_capacitances", original)
    sinks = reference_sinks(circuit)
    caps = {n: reference_capacitance(lib, circuit, sinks, n) for n in circuit.nets}
    sim = EventDrivenSimulator(circuit, LibraryDelay(lib))
    for i in range(len(v1)):
        toggles = sim.simulate_pair(v1[i], v2[i]).toggle_counts
        energy = analyzer.energy_scale * sum(
            caps[net] * 1e-15 * count for net, count in toggles.items()
        )
        assert powers[i] == energy * analyzer.frequency_hz
