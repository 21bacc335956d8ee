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

Two kernels implement these semantics.  The default **compiled**
kernel (:mod:`repro.sim.compiled`) lowers the circuit once into flat
struct-of-arrays batches — one fancy-indexed gather plus one bitwise
reduction evaluates all same-shaped gates of a level, and the
unit-delay loop re-evaluates only batches whose fanin cone changed.
The legacy **interpreted** kernel (per-gate ``eval_gate_words`` calls)
is retained behind ``REPRO_SIM_KERNEL=interp`` for A/B benchmarking and
differential testing; the two produce bit-identical states and toggle
counts and float-identical energies.

Packing helpers convert between ``(num_vectors, num_inputs)`` bit
matrices and the ``(num_inputs, num_words)`` lane layout.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..errors import SimulationError
from ..netlist.circuit import Circuit
from ..netlist.gates import GateType, eval_gate_words
from .compiled import (
    CompiledPlan,
    accumulate_planes,
    charge_planes,
    charge_rows,
    make_planes,
    compile_plan,
    lane_mask,
    popcount_rows,
    resolve_kernel,
)

__all__ = [
    "BitParallelSimulator",
    "pack_vectors",
    "unpack_vectors",
]

# Back-compat alias: sibling modules import the lane-mask helper from
# here (the implementation moved to repro.sim.compiled).
_lane_mask = lane_mask

#: Lanes processed per unit-delay block.  Blocking keeps the per-block
#: transients (state copy, bit-plane counters) cache-sized while still
#: amortizing per-step call overhead over wide words; 4096 lanes is at
#: or near the minimum of the kernels' cost curves on the deep suite
#: circuits.  Lanes are independent, so blocking cannot change any
#: toggle count; it only groups the floating-point partial sums of the
#: final charge, and every tier shares this one split.
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


def _popcount(words: np.ndarray) -> int:
    """Total set bits in a uint64 array (batched popcount underneath)."""
    words = np.ascontiguousarray(words, dtype=np.uint64)
    return int(popcount_rows(words.reshape(1, -1))[0])


def _unpack_lanes(words: np.ndarray, num_lanes: int) -> np.ndarray:
    """uint64 word array -> uint8 0/1 array of length num_lanes."""
    bits = np.unpackbits(words.view(np.uint8), bitorder="little")
    return bits[:num_lanes]


class BitParallelSimulator:
    """Levelized bit-parallel simulator for one circuit.

    The constructor freezes the circuit structure into flat arrays so
    the per-call hot loops touch no Python dictionaries.  With the
    default ``compiled`` kernel the frozen form is a cached
    :class:`~repro.sim.compiled.CompiledPlan` shared by every simulator
    (and every worker-process task) using the same circuit object;
    ``kernel="interp"`` (or ``REPRO_SIM_KERNEL=interp``) selects the
    legacy per-gate interpreter instead.
    """

    def __init__(self, circuit: Circuit, kernel: Optional[str] = None):
        circuit.validate()
        self.circuit = circuit
        # probe=True: a "native" request degrades to "compiled" here
        # (once, logged + metric-counted) when no accelerator backend
        # is available, so construction never fails on a capable-but-
        # unaccelerated host.
        self._kernel = resolve_kernel(kernel, probe=True)
        self._net_index: Dict[str, int] = {
            net: i for i, net in enumerate(circuit.nets)
        }
        self.num_nets = len(self._net_index)
        self.num_inputs = circuit.num_inputs
        self._plan: Optional[CompiledPlan] = None
        self._ops: List[Tuple[int, GateType, Tuple[int, ...]]] = []
        if self._kernel in ("compiled", "native"):
            self._plan = compile_plan(circuit)
        else:
            for name in circuit.topological_order():
                gate = circuit.gate(name)
                self._ops.append(
                    (
                        self._net_index[name],
                        gate.gtype,
                        tuple(self._net_index[f] for f in gate.fanin),
                    )
                )

    # ------------------------------------------------------------------
    @property
    def kernel(self) -> str:
        """Active simulation kernel: ``"native"``, ``"compiled"`` or
        ``"interp"`` (a ``"native"`` request with no accelerator
        backend reports the ``"compiled"`` tier it degraded to)."""
        return self._kernel

    def __getstate__(self) -> Dict[str, object]:
        # Plans and frozen op lists are derived data: ship only the
        # circuit and the kernel choice.  Unpickling re-freezes once —
        # so a process-pool worker compiles the plan once per process
        # (in the initializer), never per task.
        return {"circuit": self.circuit, "kernel": self._kernel}

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__init__(state["circuit"], kernel=state["kernel"])

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
        if self._plan is not None:
            return self._plan.steady_state(input_words, num_lanes)
        input_words = np.ascontiguousarray(input_words, dtype=np.uint64)
        num_words = input_words.shape[-1]
        if num_lanes > num_words * 64:
            raise SimulationError("num_lanes exceeds word capacity")
        return self._settle_interp(
            input_words, lane_mask(num_lanes, num_words)
        )

    def _settle_interp(
        self, input_words: np.ndarray, mask: np.ndarray
    ) -> np.ndarray:
        """Interpreted zero-delay settle of every net in ``mask``'s lanes."""
        if input_words.shape[0] != self.num_inputs:
            raise SimulationError(
                f"expected {self.num_inputs} input rows, "
                f"got {input_words.shape[0]}"
            )
        state = np.empty((self.num_nets, mask.shape[0]), dtype=np.uint64)
        state[: self.num_inputs] = input_words & mask
        for out_idx, gtype, fanin in self._ops:
            state[out_idx] = eval_gate_words(
                gtype, [state[i] for i in fanin], mask
            )
        return state

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
        :func:`repro.sim.compiled.charge_rows`); both kernels share the
        exact accumulation order, so energies are float-identical.
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
        tier's integer phase fills packed bit-plane toggle counters
        (:meth:`~repro.sim.compiled.CompiledPlan.unit_delay_planes`,
        :func:`~repro.sim.native.unit_delay_planes_native`, or the
        interpreter, which re-evaluates every gate each step) and one
        shared :func:`~repro.sim.compiled.charge_planes` call charges
        them.  Every tier sees the same blocks and the same charge, so
        their energies are float-identical.

        Raises
        ------
        SimulationError
            If stability is not reached within ``max_steps`` (defaults
            to circuit depth + 4) — impossible for an acyclic circuit,
            so it guards against internal errors.
        """
        if self._kernel == "native":
            from .native import unit_delay_planes_native

            block_planes = partial(unit_delay_planes_native, self._plan)
        elif self._plan is not None:
            block_planes = self._plan.unit_delay_planes
        else:
            block_planes = self._unit_delay_planes_interp
        if max_steps is None:
            depth = (
                self._plan.depth if self._plan is not None
                else self.circuit.depth()
            )
            max_steps = depth + 4
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
            # Drop the plane views before the next block, so the native
            # tier reuses its per-thread plane buffer.
            del planes
        return energy

    def _unit_delay_planes_interp(
        self,
        v1_words: np.ndarray,
        v2_words: np.ndarray,
        mask: np.ndarray,
        max_steps: int,
    ) -> Tuple[List[np.ndarray], int]:
        """Interpreted integer phase of one unit-delay block: every gate
        is re-evaluated each step (cf.
        :meth:`~repro.sim.compiled.CompiledPlan.unit_delay_planes`)."""
        state = self._settle_interp(v1_words, mask)
        num_words = state.shape[1]
        planes = make_planes(self.num_nets, num_words, max_steps + 1)

        # Input transitions.
        v2_masked = v2_words & mask
        in_diff = state[: self.num_inputs] ^ v2_masked
        ch = np.flatnonzero(in_diff.any(axis=1))
        planes_used = accumulate_planes(planes, ch, in_diff[ch])
        state[: self.num_inputs] = v2_masked

        # Double buffer: input rows are identical in both buffers and
        # the loop rewrites every gate row, so one initial copy suffices.
        prev = state
        cur = state.copy()
        for _step in range(max_steps):
            for out_idx, gtype, fanin in self._ops:
                cur[out_idx] = eval_gate_words(
                    gtype, [prev[i] for i in fanin], mask
                )
            diff = prev[self.num_inputs :] ^ cur[self.num_inputs :]
            changed = np.flatnonzero(diff.any(axis=1))
            if changed.size == 0:
                return planes, planes_used
            planes_used = max(
                planes_used,
                accumulate_planes(
                    planes, changed + self.num_inputs, diff[changed]
                ),
            )
            prev, cur = cur, prev
        raise SimulationError(
            "unit-delay simulation did not stabilize — invariant broken"
        )

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
