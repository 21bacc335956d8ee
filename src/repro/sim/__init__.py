"""Logic/timing simulation and power analysis substrate.

* :class:`~repro.sim.event_sim.EventDrivenSimulator` — reference
  event-driven timing simulation with arbitrary delay models.
* :class:`~repro.sim.bitsim.BitParallelSimulator` — 64-lanes-per-word
  vectorized simulation for population-scale work.
* :class:`~repro.sim.compiled.CompiledPlan` — the struct-of-arrays
  batch plan behind the bit-parallel simulator.
* :class:`~repro.sim.power.PowerAnalyzer` — cycle-based power (the
  paper's PowerMill substitute).
* :class:`~repro.sim.sta.StaticTimingAnalyzer` — longest-path timing.
"""

from .bitsim import BitParallelSimulator, pack_vectors, unpack_vectors
from .compiled import CompiledPlan, compile_plan, kernel_info, resolve_kernel
from .delay import DelayModel, LibraryDelay, UnitDelay, ZeroDelay
from .event_sim import EventDrivenSimulator, PairSimResult
from .power import PowerAnalyzer, PowerBreakdown, SIM_MODES
from .sta import StaticTimingAnalyzer, TimingReport
from .vcd import VcdData, dump_vcd, parse_vcd, write_vcd

__all__ = [
    "BitParallelSimulator",
    "CompiledPlan",
    "compile_plan",
    "kernel_info",
    "resolve_kernel",
    "pack_vectors",
    "unpack_vectors",
    "DelayModel",
    "ZeroDelay",
    "UnitDelay",
    "LibraryDelay",
    "EventDrivenSimulator",
    "PairSimResult",
    "PowerAnalyzer",
    "PowerBreakdown",
    "SIM_MODES",
    "StaticTimingAnalyzer",
    "TimingReport",
    "write_vcd",
    "dump_vcd",
    "parse_vcd",
    "VcdData",
]
