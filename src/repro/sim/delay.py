"""Gate delay models for the timing simulators.

The paper's point about simulation-based estimation is that the method is
*independent* of the delay model — anything from zero-delay to a
library-calibrated model just changes the power numbers being sampled,
not the estimator.  Three models are provided:

* :class:`ZeroDelay` — all gates switch instantly; no glitches.
* :class:`UnitDelay` — every gate takes one time unit; first-order
  glitch modelling (the classic gate-level power simulation setting).
* :class:`LibraryDelay` — linear delay model from a
  :class:`~repro.netlist.library.CellLibrary` (intrinsic + load slope),
  giving non-integer per-gate delays and realistic glitch generation.
"""

from __future__ import annotations

import abc
from typing import Dict

from ..netlist.circuit import Circuit
from ..netlist.library import CellLibrary, default_library

__all__ = ["DelayModel", "ZeroDelay", "UnitDelay", "LibraryDelay"]


class DelayModel(abc.ABC):
    """Strategy mapping every gate-driven net to a propagation delay."""

    @abc.abstractmethod
    def delays_for(self, circuit: Circuit) -> Dict[str, float]:
        """Return net -> delay for every gate net of ``circuit``.

        Primary inputs are not included; they switch at t = 0 by
        convention.
        """

    @property
    def name(self) -> str:
        return type(self).__name__


class ZeroDelay(DelayModel):
    """All gates propagate instantly (functional simulation)."""

    def delays_for(self, circuit: Circuit) -> Dict[str, float]:
        return {net: 0.0 for net in circuit.gates}


class UnitDelay(DelayModel):
    """Every gate has the same delay (1 unit by default)."""

    def __init__(self, unit: float = 1.0):
        if unit <= 0:
            raise ValueError("unit delay must be positive")
        self.unit = unit

    def delays_for(self, circuit: Circuit) -> Dict[str, float]:
        return {net: self.unit for net in circuit.gates}


class LibraryDelay(DelayModel):
    """Linear delay model driven by a cell library.

    ``delay = intrinsic + slope * C_load`` where the load is the net
    capacitance computed from the same library (sink input caps + wire
    estimate).
    """

    def __init__(self, library: "CellLibrary | None" = None):
        self.library = library if library is not None else default_library()

    def delays_for(self, circuit: Circuit) -> Dict[str, float]:
        delays = self.library.all_gate_delays(circuit)
        return {net: delays[net] for net in circuit.gates}
