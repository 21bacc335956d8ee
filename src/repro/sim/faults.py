"""Stuck-at fault simulation (bit-parallel).

The ATPG-based maximum-power techniques the paper compares against
(refs. [5][6]) grew out of test generation, whose workhorse is the
single-stuck-at fault model.  This module provides that substrate:

* :class:`Fault` — a net stuck at 0 or 1.
* :class:`FaultSimulator` — serial fault simulation on the bit-parallel
  engine: for each fault, re-evaluate the circuit with the faulty net
  forced and compare primary outputs against the golden response over
  all stimulus lanes at once (64 vectors per word).
* :meth:`FaultSimulator.coverage` — classic fault-coverage report for a
  vector set, plus per-fault detecting-vector lookup.

Beyond testing, it doubles as a *failure-injection* tool: the power
analyses accept the faulty steady state, so "power under fault" studies
are one call away.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import SimulationError
from ..netlist.circuit import Circuit
from ..netlist.gates import eval_gate_words
from .bitsim import BitParallelSimulator, pack_vectors
from .compiled import lane_mask

__all__ = ["Fault", "CoverageReport", "FaultSimulator"]


@dataclass(frozen=True)
class Fault:
    """A single stuck-at fault on a named net."""

    net: str
    stuck_at: int

    def __post_init__(self) -> None:
        if self.stuck_at not in (0, 1):
            raise SimulationError("stuck_at must be 0 or 1")

    def __str__(self) -> str:
        return f"{self.net}/SA{self.stuck_at}"


@dataclass
class CoverageReport:
    """Fault-coverage outcome for one stimulus set."""

    total_faults: int
    detected: List[Fault] = field(default_factory=list)
    undetected: List[Fault] = field(default_factory=list)
    #: fault -> index of the first detecting vector.
    first_detection: Dict[Fault, int] = field(default_factory=dict)

    @property
    def coverage(self) -> float:
        if not self.total_faults:
            return 1.0
        return len(self.detected) / self.total_faults

    def __str__(self) -> str:
        return (
            f"{len(self.detected)}/{self.total_faults} faults detected "
            f"({self.coverage:.1%})"
        )


class FaultSimulator:
    """Single-stuck-at fault simulation over a combinational circuit."""

    def __init__(self, circuit: Circuit):
        circuit.validate()
        self.circuit = circuit
        self._sim = BitParallelSimulator(circuit)
        self._out_idx = [
            self._sim.net_index(o) for o in circuit.outputs
        ]
        # Forcing a net mid-evaluation is inherently per-gate, so the
        # fault path keeps its own op list instead of depending on the
        # bit-parallel kernel's internal representation.
        self._ops: List[Tuple[int, object, Tuple[int, ...]]] = []
        for name in circuit.topological_order():
            gate = circuit.gate(name)
            self._ops.append(
                (
                    self._sim.net_index(name),
                    gate.gtype,
                    tuple(self._sim.net_index(f) for f in gate.fanin),
                )
            )

    # ------------------------------------------------------------------
    def all_faults(self) -> List[Fault]:
        """Both polarities on every net (no fault collapsing)."""
        return [
            Fault(net, sa)
            for net in self.circuit.nets
            for sa in (0, 1)
        ]

    # ------------------------------------------------------------------
    def _faulty_state(
        self,
        input_words: np.ndarray,
        num_lanes: int,
        fault: Fault,
    ) -> np.ndarray:
        """Steady state with ``fault.net`` forced on every lane."""
        if fault.net not in self.circuit:
            raise SimulationError(f"unknown net {fault.net!r}")
        input_words = np.ascontiguousarray(input_words, dtype=np.uint64)
        num_words = input_words.shape[1]
        mask = lane_mask(num_lanes, num_words)
        forced = mask.copy() if fault.stuck_at else np.zeros_like(mask)
        state = np.empty(
            (self._sim.num_nets, num_words), dtype=np.uint64
        )
        state[: self._sim.num_inputs] = input_words & mask
        fault_idx = self._sim.net_index(fault.net)
        if fault_idx < self._sim.num_inputs:
            state[fault_idx] = forced
        for out_idx, gtype, fanin in self._ops:
            if out_idx == fault_idx:
                state[out_idx] = forced
            else:
                state[out_idx] = eval_gate_words(
                    gtype, [state[i] for i in fanin], mask
                )
        return state

    def _check_vectors(self, vectors: np.ndarray, name: str) -> np.ndarray:
        """``vectors`` as uint8, checked to be ``(N, num_inputs)``."""
        vectors = np.asarray(vectors, dtype=np.uint8)
        if vectors.ndim != 2 or vectors.shape[1] != self.circuit.num_inputs:
            raise SimulationError(
                f"{name} must be (N, {self.circuit.num_inputs})"
            )
        return vectors

    # ------------------------------------------------------------------
    def detecting_lanes(
        self, vectors: np.ndarray, fault: Fault
    ) -> np.ndarray:
        """Boolean array: which stimulus vectors expose ``fault``.

        A vector detects the fault when at least one primary output
        differs from the fault-free response.
        """
        vectors = self._check_vectors(vectors, "vectors")
        words, lanes = pack_vectors(vectors)
        golden = self._sim.steady_state(words, lanes)
        faulty = self._faulty_state(words, lanes, fault)
        diff_words = np.zeros(words.shape[1], dtype=np.uint64)
        for idx in self._out_idx:
            diff_words |= golden[idx] ^ faulty[idx]
        # Unpack the per-lane difference indicator.
        bits = np.unpackbits(
            diff_words.view(np.uint8), bitorder="little"
        )[:lanes]
        return bits.astype(bool)

    def coverage(
        self,
        vectors: np.ndarray,
        faults: Optional[Sequence[Fault]] = None,
    ) -> CoverageReport:
        """Simulate every fault against the vector set."""
        if faults is None:
            faults = self.all_faults()
        report = CoverageReport(total_faults=len(faults))
        for fault in faults:
            lanes = self.detecting_lanes(vectors, fault)
            if lanes.any():
                report.detected.append(fault)
                report.first_detection[fault] = int(
                    np.argmax(lanes)
                )
            else:
                report.undetected.append(fault)
        return report

    # ------------------------------------------------------------------
    def power_under_fault(
        self,
        v1: np.ndarray,
        v2: np.ndarray,
        fault: Fault,
        net_caps: np.ndarray,
    ) -> np.ndarray:
        """Per-pair weighted toggle sums with the fault present.

        The faulty net never toggles (it is stuck), but the fault
        re-shapes downstream activity — useful for studying how defects
        move the power distribution.
        """
        v1 = self._check_vectors(v1, "v1")
        v2 = self._check_vectors(v2, "v2")
        if v1.shape != v2.shape:
            raise SimulationError("v1/v2 shape mismatch")
        if len(net_caps) != self._sim.num_nets:
            raise SimulationError(
                f"net_caps must have {self._sim.num_nets} entries, "
                f"got {len(net_caps)}"
            )
        w1, lanes = pack_vectors(v1)
        w2, _ = pack_vectors(v2)
        s1 = self._faulty_state(w1, lanes, fault)
        s2 = self._faulty_state(w2, lanes, fault)
        energy = np.zeros(lanes, dtype=np.float64)
        for idx in range(self._sim.num_nets):
            cap = float(net_caps[idx])
            if cap == 0.0:
                continue
            row = s1[idx] ^ s2[idx]
            if not row.any():
                continue
            bits = np.unpackbits(
                row.view(np.uint8), bitorder="little"
            )[:lanes]
            energy += cap * bits
        return energy
