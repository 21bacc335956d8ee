"""Technology cell library: capacitance and delay parameters.

The power model of the paper's era charges energy to the *switched
capacitance* of each net; the timing simulator needs a per-gate delay.
Both come from a :class:`CellLibrary` that maps each gate type to a
:class:`CellParams` record:

* ``input_cap_ff`` — capacitance one input pin of this cell presents to
  the net driving it (femtofarads).
* ``output_cap_ff`` — parasitic drain/diffusion capacitance the cell puts
  on its own output net.
* ``intrinsic_delay_ps`` — unloaded propagation delay.
* ``delay_per_ff_ps`` — delay slope vs. load capacitance (linear delay
  model: ``d = intrinsic + slope * C_load``).

The default library models a generic 0.35 µm / 3.3 V process — the
technology node contemporary with the paper — with values in the range
published for such libraries.  Absolute accuracy is irrelevant to the
statistical method; only the induced relative spread of per-vector-pair
power matters, and the linear-in-fanout capacitance model captures it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional

from ..errors import ConfigError
from .circuit import Circuit
from .gates import GateType

__all__ = ["CellParams", "CellLibrary", "default_library", "WIRE_CAP_PER_FANOUT_FF"]

#: Estimated routing capacitance added per fanout connection (fF).  A
#: crude wire-load model: each extra sink implies more routed wirelength.
WIRE_CAP_PER_FANOUT_FF = 3.0


@dataclass(frozen=True)
class CellParams:
    """Electrical parameters of one library cell (see module docstring)."""

    input_cap_ff: float
    output_cap_ff: float
    intrinsic_delay_ps: float
    delay_per_ff_ps: float

    def __post_init__(self) -> None:
        for field_name in (
            "input_cap_ff",
            "output_cap_ff",
            "intrinsic_delay_ps",
            "delay_per_ff_ps",
        ):
            if getattr(self, field_name) < 0:
                raise ConfigError(f"{field_name} must be non-negative")


class CellLibrary:
    """Mapping from :class:`GateType` to :class:`CellParams`.

    Provides the two derived quantities consumers need:

    * :meth:`net_capacitance` — total capacitance switched when a net
      toggles (driver output cap + sink input caps + wire estimate).
    * :meth:`gate_delay` — linear-model propagation delay of a gate
      driving its net in a given circuit.
    """

    def __init__(
        self,
        cells: Mapping[GateType, CellParams],
        name: str = "library",
        wire_cap_per_fanout_ff: float = WIRE_CAP_PER_FANOUT_FF,
        vdd: float = 3.3,
    ):
        if wire_cap_per_fanout_ff < 0:
            raise ConfigError("wire_cap_per_fanout_ff must be non-negative")
        if vdd <= 0:
            raise ConfigError("vdd must be positive")
        self.name = name
        self.vdd = vdd
        self.wire_cap_per_fanout_ff = wire_cap_per_fanout_ff
        self._cells: Dict[GateType, CellParams] = dict(cells)

    def params(self, gtype: GateType) -> CellParams:
        """Return the cell parameters for ``gtype``.

        Raises :class:`ConfigError` for gate types absent from the
        library (except INPUT, which maps to a zero-cost pseudo cell).
        """
        try:
            return self._cells[gtype]
        except KeyError:
            raise ConfigError(
                f"library {self.name!r} has no cell for {gtype.value!r}"
            ) from None

    def __contains__(self, gtype: GateType) -> bool:
        return gtype in self._cells

    def net_capacitance(self, circuit: Circuit, net: str) -> float:
        """Total switched capacitance of ``net`` in femtofarads.

        Sum of the driving cell's output capacitance (zero for primary
        inputs — their drivers are off-chip), each sink pin's input
        capacitance, and the wire-load estimate.
        """
        # The summation order (driver, sinks in fanout order, wire) is
        # pinned: every simulated power is bit-identical under it.
        cap = 0.0
        if not circuit.is_input(net):
            cap += self.params(circuit.gate(net).gtype).output_cap_ff
        sinks = circuit.fanout_index()[net]
        for sink in sinks:
            cap += self.params(circuit.gate(sink).gtype).input_cap_ff
        cap += self.wire_cap_per_fanout_ff * len(sinks)
        return cap

    def gate_delay(self, circuit: Circuit, net: str) -> float:
        """Propagation delay (ps) of the gate driving ``net``.

        Linear delay model: intrinsic delay plus slope times the load
        capacitance of the driven net.  Primary inputs have zero delay.
        """
        if circuit.is_input(net):
            return 0.0
        return self._delay(circuit, net, self.net_capacitance(circuit, net))

    def _delay(self, circuit: Circuit, net: str, load: float) -> float:
        cell = self.params(circuit.gate(net).gtype)
        return cell.intrinsic_delay_ps + cell.delay_per_ff_ps * load

    def all_net_capacitances(self, circuit: Circuit) -> Dict[str, float]:
        """Net -> capacitance for every net in ``circuit`` (one pass)."""
        return {
            net: self.net_capacitance(circuit, net) for net in circuit.nets
        }

    def all_gate_delays(self, circuit: Circuit) -> Dict[str, float]:
        """Net -> driver delay for every net (0.0 for primary inputs).

        One :meth:`all_net_capacitances` pass supplies every load.
        """
        caps = self.all_net_capacitances(circuit)
        return {
            net: (
                0.0 if circuit.is_input(net)
                else self._delay(circuit, net, load)
            )
            for net, load in caps.items()
        }

    # ------------------------------------------------------------------
    # serialization (simple JSON technology files)
    # ------------------------------------------------------------------
    def to_json(self) -> str:
        """Serialize the library (all cells + globals) as JSON text."""
        import json

        payload = {
            "name": self.name,
            "vdd": self.vdd,
            "wire_cap_per_fanout_ff": self.wire_cap_per_fanout_ff,
            "cells": {
                gtype.value: {
                    "input_cap_ff": cell.input_cap_ff,
                    "output_cap_ff": cell.output_cap_ff,
                    "intrinsic_delay_ps": cell.intrinsic_delay_ps,
                    "delay_per_ff_ps": cell.delay_per_ff_ps,
                }
                for gtype, cell in self._cells.items()
            },
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "CellLibrary":
        """Load a library from :meth:`to_json` output.

        Raises :class:`ConfigError` on missing keys, unknown gate types
        or out-of-range values (reusing the CellParams validation).
        """
        import json

        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid library JSON: {exc}") from None
        try:
            cells_raw = payload["cells"]
            name = payload.get("name", "library")
            vdd = float(payload["vdd"])
            wire = float(payload["wire_cap_per_fanout_ff"])
        except KeyError as exc:
            raise ConfigError(f"library JSON missing key {exc}") from None
        cells: Dict[GateType, CellParams] = {}
        for key, fields in cells_raw.items():
            try:
                gtype = GateType(key)
            except ValueError:
                raise ConfigError(
                    f"library JSON has unknown gate type {key!r}"
                ) from None
            try:
                cells[gtype] = CellParams(
                    input_cap_ff=float(fields["input_cap_ff"]),
                    output_cap_ff=float(fields["output_cap_ff"]),
                    intrinsic_delay_ps=float(fields["intrinsic_delay_ps"]),
                    delay_per_ff_ps=float(fields["delay_per_ff_ps"]),
                )
            except KeyError as exc:
                raise ConfigError(
                    f"cell {key!r} missing field {exc}"
                ) from None
        return cls(
            cells, name=name, wire_cap_per_fanout_ff=wire, vdd=vdd
        )

    def save(self, path) -> None:
        """Write :meth:`to_json` output to ``path``."""
        from pathlib import Path

        Path(path).write_text(self.to_json())

    @classmethod
    def load(cls, path) -> "CellLibrary":
        """Read a library previously written by :meth:`save`."""
        from pathlib import Path

        return cls.from_json(Path(path).read_text())


def default_library(vdd: float = 3.3) -> CellLibrary:
    """Generic 0.35 µm-class library used throughout the experiments.

    Larger (more-input) and inverting cells get slightly different
    parasitics and delays so that real circuits exhibit unequal per-net
    capacitances and non-trivial timing — which is what makes the power
    distribution continuous and glitching possible.
    """
    cells = {
        GateType.INPUT: CellParams(0.0, 0.0, 0.0, 0.0),
        GateType.CONST0: CellParams(0.0, 1.0, 0.0, 0.0),
        GateType.CONST1: CellParams(0.0, 1.0, 0.0, 0.0),
        GateType.BUF: CellParams(4.0, 5.0, 90.0, 2.0),
        GateType.NOT: CellParams(4.0, 4.0, 45.0, 1.8),
        GateType.AND: CellParams(5.0, 6.0, 120.0, 2.4),
        GateType.NAND: CellParams(5.0, 5.0, 70.0, 2.2),
        GateType.OR: CellParams(5.0, 6.0, 130.0, 2.6),
        GateType.NOR: CellParams(5.0, 5.0, 85.0, 2.5),
        GateType.XOR: CellParams(7.0, 8.0, 160.0, 3.0),
        GateType.XNOR: CellParams(7.0, 8.0, 165.0, 3.0),
        GateType.MUX: CellParams(6.0, 7.0, 140.0, 2.8),
    }
    return CellLibrary(cells, name="generic035", vdd=vdd)
