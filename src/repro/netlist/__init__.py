"""Gate-level netlist substrate.

Public surface:

* :class:`~repro.netlist.circuit.Circuit`, :class:`~repro.netlist.circuit.Gate`
  — the circuit DAG.
* :class:`~repro.netlist.gates.GateType` — primitive gate set.
* :mod:`~repro.netlist.bench` / :mod:`~repro.netlist.verilog` — file I/O.
* :class:`~repro.netlist.library.CellLibrary` — capacitance/delay data.
* :mod:`~repro.netlist.generators` — parametric circuit generators and
  the ISCAS85-like suite.
"""

from .bench import dump_bench, load_bench, parse_bench, write_bench
from .circuit import Circuit, CircuitStats, Gate
from .equivalence import EquivalenceResult, check_equivalence
from .gates import GateType, eval_gate, eval_gate_words, gate_from_name
from .library import CellLibrary, CellParams, default_library
from .transforms import (
    buffer_high_fanout,
    decompose_to_two_input,
    expand_xor_to_and_or,
    expand_xor_to_nand,
    propagate_constants,
    sweep_dangling,
)
from .verilog import dump_verilog, load_verilog, parse_verilog, write_verilog

__all__ = [
    "Circuit",
    "CircuitStats",
    "Gate",
    "GateType",
    "eval_gate",
    "eval_gate_words",
    "gate_from_name",
    "CellLibrary",
    "CellParams",
    "default_library",
    "parse_bench",
    "load_bench",
    "write_bench",
    "dump_bench",
    "parse_verilog",
    "load_verilog",
    "write_verilog",
    "dump_verilog",
    "check_equivalence",
    "EquivalenceResult",
    "expand_xor_to_nand",
    "expand_xor_to_and_or",
    "decompose_to_two_input",
    "propagate_constants",
    "sweep_dangling",
    "buffer_high_fanout",
]
