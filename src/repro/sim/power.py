"""Cycle-based power computation (the "PowerMill substitute").

Dynamic power of a CMOS net is charged as switched capacitance:
``E_cycle = 0.5 * Vdd^2 * sum_i C_i * n_i`` where ``n_i`` counts the
transitions of net *i* during the clock cycle, and the cycle-based power
is ``P = E_cycle * f_clk``.  Capacitances come from a
:class:`~repro.netlist.library.CellLibrary`; transition counts come from
one of three simulation modes:

* ``"zero"`` — steady-state XOR, no hazards (cheapest, vectorized);
* ``"unit"`` — synchronous unit-delay with glitch capture (vectorized;
  the default, and what the experiments use for ground truth);
* ``"event"`` — event-driven with an arbitrary delay model (reference
  semantics; per-pair cost, used for validation and small studies).

:class:`PowerAnalyzer` is the façade the rest of the library uses: it
owns the capacitance vector, the packed-lane simulator, and unit
conversions, and exposes both single-pair and whole-population power
evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from ..errors import SimulationError
from ..netlist.circuit import Circuit
from ..netlist.library import CellLibrary, default_library
from .bitsim import BitParallelSimulator, pack_vectors
from .delay import DelayModel, LibraryDelay, UnitDelay
from .event_sim import EventDrivenSimulator, PairSimResult

__all__ = ["PowerAnalyzer", "PowerBreakdown", "SIM_MODES"]

SIM_MODES = ("zero", "unit", "event")

_FF_TO_F = 1e-15


@dataclass(frozen=True)
class PowerBreakdown:
    """Detailed power result for a single vector pair.

    Attributes
    ----------
    power_w:
        Cycle-based average power in watts.
    energy_j:
        Switched energy of the cycle in joules.
    toggle_counts:
        net -> transition count used for the charge.
    settle_time:
        Last-transition time (event mode only; 0 otherwise).
    """

    power_w: float
    energy_j: float
    toggle_counts: Dict[str, int]
    settle_time: float = 0.0

    @property
    def power_mw(self) -> float:
        return self.power_w * 1e3


class PowerAnalyzer:
    """Per-pair and per-population cycle power for one circuit.

    Parameters
    ----------
    circuit:
        Circuit under analysis (validated on construction).
    library:
        Cell library supplying capacitances (and delays for the event
        mode); defaults to :func:`~repro.netlist.library.default_library`.
    frequency_hz:
        Clock frequency for the energy -> power conversion.  The default
        50 MHz puts the suite circuits in the paper's mW range.
    mode:
        One of ``"zero"``, ``"unit"``, ``"event"`` — see module docs.
    delay_model:
        Delay model for the event mode (defaults to the library's linear
        model).  Ignored by the vectorized modes.
    """

    def __init__(
        self,
        circuit: Circuit,
        library: Optional[CellLibrary] = None,
        frequency_hz: float = 50e6,
        mode: str = "unit",
        delay_model: Optional[DelayModel] = None,
    ):
        if mode not in SIM_MODES:
            raise SimulationError(f"mode must be one of {SIM_MODES}")
        if frequency_hz <= 0:
            raise SimulationError("frequency_hz must be positive")
        self.circuit = circuit
        self.library = library if library is not None else default_library()
        self.frequency_hz = frequency_hz
        self.mode = mode
        self._bitsim = BitParallelSimulator(circuit)
        self._caps_ff = self.library.all_net_capacitances(circuit)
        self._net_caps_f = np.array(
            [self._caps_ff[n] * _FF_TO_F for n in self._bitsim.net_order],
            dtype=np.float64,
        )
        self._event_delay_model = delay_model or LibraryDelay(self.library)
        self._event_sim: Optional[EventDrivenSimulator] = None

    # ------------------------------------------------------------------
    @property
    def vdd(self) -> float:
        return self.library.vdd

    @property
    def energy_scale(self) -> float:
        """Joules per (farad of switched capacitance): ``0.5 * Vdd^2``."""
        return 0.5 * self.vdd ** 2

    def total_capacitance_f(self) -> float:
        """Sum of all net capacitances (farads) — the absolute power cap."""
        return float(self._net_caps_f.sum())

    def max_possible_power_w(self) -> float:
        """Power if every net toggled exactly once (zero-delay ceiling)."""
        return (
            self.energy_scale * self.total_capacitance_f() * self.frequency_hz
        )

    # ------------------------------------------------------------------
    def pair_power(
        self, v1: Sequence[int], v2: Sequence[int]
    ) -> PowerBreakdown:
        """Full-detail power of one vector pair in the configured mode."""
        if self.mode == "event":
            return self._pair_power_event(v1, v2)
        powers = self.powers_for_pairs(
            np.asarray([v1], dtype=np.uint8), np.asarray([v2], dtype=np.uint8)
        )
        # Recover per-net toggles with the reference evaluator for the
        # breakdown (cheap for a single pair).
        toggles = self._zero_delay_toggles(v1, v2)
        return PowerBreakdown(
            power_w=float(powers[0]),
            energy_j=float(powers[0]) / self.frequency_hz,
            toggle_counts=toggles,
        )

    def _zero_delay_toggles(
        self, v1: Sequence[int], v2: Sequence[int]
    ) -> Dict[str, int]:
        s1 = self.circuit.evaluate_vector(list(v1))
        s2 = self.circuit.evaluate_vector(list(v2))
        return {
            net: int(s1[net] != s2[net])
            for net in s1
            if s1[net] != s2[net]
        }

    def _pair_power_event(
        self, v1: Sequence[int], v2: Sequence[int]
    ) -> PowerBreakdown:
        if self._event_sim is None:
            self._event_sim = EventDrivenSimulator(
                self.circuit, self._event_delay_model
            )
        result = self._event_sim.simulate_pair(v1, v2)
        return self.breakdown_from_result(result)

    def breakdown_from_result(self, result: PairSimResult) -> PowerBreakdown:
        """Convert an event-simulation result into power numbers."""
        energy = self.energy_scale * sum(
            self._caps_ff[net] * _FF_TO_F * count
            for net, count in result.toggle_counts.items()
        )
        return PowerBreakdown(
            power_w=energy * self.frequency_hz,
            energy_j=energy,
            toggle_counts=dict(result.toggle_counts),
            settle_time=result.settle_time,
        )

    # ------------------------------------------------------------------
    def powers_for_pairs(
        self,
        v1_bits: np.ndarray,
        v2_bits: np.ndarray,
        block_lanes: int = 1 << 16,
    ) -> np.ndarray:
        """Cycle power (watts) of every (v1, v2) row pair, vectorized.

        Parameters
        ----------
        v1_bits, v2_bits:
            ``(N, num_inputs)`` 0/1 matrices.
        block_lanes:
            Pairs processed per bit-parallel block (bounds peak memory).

        The ``"event"`` mode falls back to a per-pair loop — it exists
        for validation; use ``"zero"``/``"unit"`` for populations.
        """
        v1_bits = np.asarray(v1_bits, dtype=np.uint8)
        v2_bits = np.asarray(v2_bits, dtype=np.uint8)
        if v1_bits.shape != v2_bits.shape:
            raise SimulationError("v1/v2 shape mismatch")
        if v1_bits.ndim != 2 or v1_bits.shape[1] != self.circuit.num_inputs:
            raise SimulationError(
                f"expected (N, {self.circuit.num_inputs}) bit matrices"
            )
        n = v1_bits.shape[0]
        if self.mode == "event":
            return np.array(
                [
                    self._pair_power_event(v1_bits[i], v2_bits[i]).power_w
                    for i in range(n)
                ]
            )
        out = np.empty(n, dtype=np.float64)
        for start in range(0, n, block_lanes):
            stop = min(start + block_lanes, n)
            w1, lanes = pack_vectors(v1_bits[start:stop])
            w2, _ = pack_vectors(v2_bits[start:stop])
            if self.mode == "zero":
                energy_caps = self._bitsim.toggle_energy_zero_delay(
                    w1, w2, lanes, self._net_caps_f
                )
            else:
                energy_caps = self._bitsim.toggle_energy_unit_delay(
                    w1, w2, lanes, self._net_caps_f
                )
            out[start:stop] = (
                self.energy_scale * energy_caps * self.frequency_hz
            )
        return out
