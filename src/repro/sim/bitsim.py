"""Bit-parallel (64 lanes per word) levelized logic simulation.

Ground-truth power for a whole vector-pair *population* requires
simulating 10^5 vector pairs per circuit — far too slow gate-by-gate in
Python.  This module packs 64 independent simulations ("lanes") into
each ``uint64`` and evaluates whole nets with numpy bitwise ops:

* :meth:`BitParallelSimulator.steady_state` — zero-delay levelized
  evaluation of all nets for every lane (one pass in topological order).
* :meth:`BitParallelSimulator.toggle_counts_zero_delay` — per-lane
  weighted toggle sums between the steady states of ``v1`` and ``v2``
  (no glitches).
* :meth:`BitParallelSimulator.toggle_counts_unit_delay` — synchronous
  unit-delay simulation: after settling at ``v1``, inputs switch to
  ``v2`` and gates are re-evaluated once per time step from the
  previous step's values.  Transitions in *every* step are accumulated,
  so hazard (glitch) activity is captured, exactly like an event-driven
  unit-delay simulator but orders of magnitude faster in Python.

A circuit is lowered once into a
:class:`~repro.sim.compiled.CompiledPlan` — flat struct-of-arrays
batches: one fancy-indexed gather plus one bitwise reduction evaluates
all same-shaped gates of a level, and the unit-delay loop re-evaluates
only gates whose fanin changed.  The unit-delay loop itself runs in C
(:mod:`repro.sim.native`) when the C library loads on this host, and in
numpy otherwise; both produce bit-identical toggle counts and
float-identical energies.

Packing helpers convert between ``(num_vectors, num_inputs)`` bit
matrices and the ``(num_inputs, num_words)`` lane layout.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..errors import SimulationError
from ..netlist.circuit import Circuit
from .compiled import (
    charge_planes,
    charge_rows,
    compile_plan,
    lane_mask,
    popcount_rows,
)
from .native import load_backend, unit_delay_planes_native

__all__ = [
    "BitParallelSimulator",
    "pack_vectors",
    "unpack_vectors",
]

#: Lanes processed per unit-delay block.  Blocking keeps the per-block
#: transients (state copy, bit-plane counters) cache-sized while still
#: amortizing per-step call overhead over wide words; 4096 lanes is at
#: or near the minimum of the kernels' cost curves on the deep suite
#: circuits.  Lanes are independent, so blocking cannot change any
#: toggle count; it only groups the floating-point partial sums of the
#: final charge, and both wavefront loops share this one split.
_UNIT_LANE_BLOCK = 4096


def pack_vectors(bits: np.ndarray) -> Tuple[np.ndarray, int]:
    """Pack a ``(num_vectors, num_signals)`` 0/1 matrix into lane words.

    Returns ``(words, num_lanes)`` where ``words`` has shape
    ``(num_signals, ceil(num_vectors / 64))`` dtype ``uint64`` and lane
    *j* of the word array equals row *j* of ``bits``.
    """
    bits = np.asarray(bits)
    if bits.ndim != 2:
        raise SimulationError("bits must be a 2-D array")
    num_vectors, num_signals = bits.shape
    packed_bytes = np.packbits(
        bits.astype(np.uint8).T, axis=1, bitorder="little"
    )
    num_words = (num_vectors + 63) // 64
    padded = np.zeros((num_signals, num_words * 8), dtype=np.uint8)
    padded[:, : packed_bytes.shape[1]] = packed_bytes
    words = padded.view(np.uint64)
    return np.ascontiguousarray(words), num_vectors


def unpack_vectors(words: np.ndarray, num_lanes: int) -> np.ndarray:
    """Inverse of :func:`pack_vectors` -> ``(num_lanes, num_signals)``."""
    words = np.ascontiguousarray(words, dtype=np.uint64)
    as_bytes = words.view(np.uint8)
    bits = np.unpackbits(as_bytes, axis=1, bitorder="little")
    return bits[:, :num_lanes].T.copy()


class BitParallelSimulator:
    """Levelized bit-parallel simulator for one circuit.

    The constructor freezes the circuit structure into a cached
    :class:`~repro.sim.compiled.CompiledPlan` shared by every simulator
    (and every worker-process task) using the same circuit object, so
    the per-call hot loops touch no Python dictionaries.
    """

    def __init__(self, circuit: Circuit):
        circuit.validate()
        self.circuit = circuit
        self._net_index: Dict[str, int] = {
            net: i for i, net in enumerate(circuit.nets)
        }
        self.num_nets = len(self._net_index)
        self.num_inputs = circuit.num_inputs
        self._plan = compile_plan(circuit)

    def __getstate__(self) -> Dict[str, object]:
        # The plan is derived data: ship only the circuit, and re-freeze
        # it once on unpickling.  Pool workers are forked, so they
        # inherit the simulator with its plan and never unpickle one.
        return {"circuit": self.circuit}

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__init__(state["circuit"])

    # ------------------------------------------------------------------
    def net_index(self, net: str) -> int:
        """Index of ``net`` in the simulator's net-major arrays."""
        return self._net_index[net]

    @property
    def net_order(self) -> List[str]:
        """Net names in index order (inputs first, then insertion order)."""
        return self.circuit.nets

    # ------------------------------------------------------------------
    def steady_state(
        self, input_words: np.ndarray, num_lanes: int
    ) -> np.ndarray:
        """Zero-delay settled values of every net, per lane.

        Parameters
        ----------
        input_words:
            ``(num_inputs, num_words)`` uint64 lane array (from
            :func:`pack_vectors`).
        num_lanes:
            Number of valid lanes.

        Returns
        -------
        numpy.ndarray
            ``(num_nets, num_words)`` uint64 array; rows follow
            :attr:`net_order`.
        """
        return self._plan.steady_state(input_words, num_lanes)

    # ------------------------------------------------------------------
    def toggle_energy_zero_delay(
        self,
        v1_words: np.ndarray,
        v2_words: np.ndarray,
        num_lanes: int,
        net_caps: np.ndarray,
    ) -> np.ndarray:
        """Per-lane capacitance-weighted toggle sum, zero-delay.

        ``net_caps`` is a float array indexed like :attr:`net_order`.
        Returns a float64 array of length ``num_lanes`` holding
        ``sum_net cap[net] * [net toggles in lane]``.  All changed rows
        are charged with one stacked unpack + matmul (see
        :func:`repro.sim.compiled.charge_rows`) in ascending net order, so
        the float accumulation order is fixed.
        """
        s1 = self.steady_state(v1_words, num_lanes)
        s2 = self.steady_state(v2_words, num_lanes)
        diff = s1 ^ s2
        caps = np.asarray(net_caps, dtype=np.float64)
        idx = np.flatnonzero(diff.any(axis=1) & (caps != 0.0))
        return charge_rows(diff[idx], caps[idx], num_lanes)

    def toggle_counts_zero_delay(
        self, v1_words: np.ndarray, v2_words: np.ndarray, num_lanes: int
    ) -> np.ndarray:
        """Unweighted per-net toggle totals (summed over lanes).

        One batched popcount over the whole diff block
        (``np.bitwise_count`` or the uint16-LUT fallback, both with an
        explicit int64 accumulator) replaces the former per-net loop.
        """
        s1 = self.steady_state(v1_words, num_lanes)
        s2 = self.steady_state(v2_words, num_lanes)
        return popcount_rows(s1 ^ s2)

    # ------------------------------------------------------------------
    def toggle_energy_unit_delay(
        self,
        v1_words: np.ndarray,
        v2_words: np.ndarray,
        num_lanes: int,
        net_caps: np.ndarray,
        max_steps: Optional[int] = None,
    ) -> np.ndarray:
        """Per-lane weighted toggle sum under unit-delay (with glitches).

        Synchronous relaxation: step *t* evaluates gates from the
        values of step *t-1*.  Stops when globally stable.  The lanes
        are split into ``_UNIT_LANE_BLOCK``-lane blocks; per block the
        integer phase fills packed bit-plane toggle counters — the C
        loop (:func:`~repro.sim.native.unit_delay_planes_native`) when
        the C library loads on this host, else the numpy loop
        (:meth:`~repro.sim.compiled.CompiledPlan.unit_delay_planes`) —
        and one shared :func:`~repro.sim.compiled.charge_planes` call
        charges them.  Both loops see the same blocks and the same
        charge, so their energies are float-identical.

        Raises
        ------
        SimulationError
            If stability is not reached within ``max_steps`` (defaults
            to circuit depth + 4) — impossible for an acyclic circuit,
            so it guards against internal errors.
        """
        if load_backend() is not None:
            block_planes = partial(unit_delay_planes_native, self._plan)
        else:
            block_planes = self._plan.unit_delay_planes
        if max_steps is None:
            max_steps = self._plan.depth + 4
        caps = np.asarray(net_caps, dtype=np.float64)
        v1_words = np.ascontiguousarray(v1_words, dtype=np.uint64)
        v2_words = np.ascontiguousarray(v2_words, dtype=np.uint64)
        energy = np.empty(num_lanes, dtype=np.float64)
        for lo in range(0, num_lanes, _UNIT_LANE_BLOCK):
            hi = min(lo + _UNIT_LANE_BLOCK, num_lanes)
            ws = slice(lo // 64, (hi + 63) // 64)
            mask = lane_mask(hi - lo, ws.stop - ws.start)
            planes, planes_used = block_planes(
                v1_words[:, ws], v2_words[:, ws], mask, max_steps
            )
            energy[lo:hi] = charge_planes(planes, caps, hi - lo, planes_used)
            # Drop the plane views before the next block, so the C loop
            # reuses its per-thread plane buffer.
            del planes
        return energy

    # ------------------------------------------------------------------
    def output_values(
        self, state: np.ndarray, num_lanes: int
    ) -> np.ndarray:
        """Extract ``(num_lanes, num_outputs)`` bits from a state array."""
        rows = [state[self._net_index[o]] for o in self.circuit.outputs]
        if rows:
            stacked = np.ascontiguousarray(np.stack(rows), dtype=np.uint64)
        else:
            # Allocate the empty block as uint64 directly; np.empty
            # defaults to float64 and a later astype would round-trip
            # the (absent) words through floats.
            stacked = np.empty((0, state.shape[1]), dtype=np.uint64)
        return unpack_vectors(stacked, num_lanes)
