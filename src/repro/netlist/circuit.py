"""Combinational circuit data structure.

A :class:`Circuit` is a DAG of named nets.  Every net is driven either by
a primary input or by exactly one gate, and — ISCAS85 style — the net
carries the name of its driver.  Primary outputs are a designated subset
of nets.

The class provides the derived views every downstream consumer needs:
topological order, levelization (for the bit-parallel simulator and
static timing analysis), the fanout index (for capacitance extraction)
and structural statistics.  Derived views are computed lazily and
cached; any mutation invalidates the caches.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from ..errors import NetlistError
from .gates import GATE_ARITY, GateType, check_arity

__all__ = ["Gate", "Circuit", "CircuitStats"]


@dataclass(frozen=True)
class Gate:
    """One gate instance.

    Attributes
    ----------
    name:
        Name of the net this gate drives (unique within the circuit).
    gtype:
        The primitive gate type.
    fanin:
        Ordered tuple of the driving net names.  Order matters for MUX.
    """

    name: str
    gtype: GateType
    fanin: Tuple[str, ...]

    def __post_init__(self) -> None:
        check_arity(self.gtype, len(self.fanin))


@dataclass(frozen=True)
class CircuitStats:
    """Summary statistics of a circuit (used in reports and tests)."""

    name: str
    num_inputs: int
    num_outputs: int
    num_gates: int
    depth: int
    gate_counts: Dict[str, int] = field(default_factory=dict)
    max_fanout: int = 0
    avg_fanin: float = 0.0

    def __str__(self) -> str:
        parts = ", ".join(f"{k}={v}" for k, v in sorted(self.gate_counts.items()))
        return (
            f"{self.name}: {self.num_inputs} PI, {self.num_outputs} PO, "
            f"{self.num_gates} gates, depth {self.depth} ({parts})"
        )


class Circuit:
    """A combinational gate-level circuit.

    Build one incrementally::

        c = Circuit("half_adder")
        c.add_input("a")
        c.add_input("b")
        c.add_gate("sum", GateType.XOR, ["a", "b"])
        c.add_gate("carry", GateType.AND, ["a", "b"])
        c.set_outputs(["sum", "carry"])
        c.validate()

    or through the parsers / generators in :mod:`repro.netlist`.
    """

    def __init__(self, name: str = "circuit"):
        self.name = name
        self._inputs: List[str] = []
        self._outputs: List[str] = []
        self._gates: Dict[str, Gate] = {}
        self._input_set: set = set()
        self._cache: Dict[str, object] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_input(self, name: str) -> None:
        """Declare a primary input net."""
        if name in self._input_set or name in self._gates:
            raise NetlistError(f"net {name!r} already defined")
        self._inputs.append(name)
        self._input_set.add(name)
        self._cache.clear()

    def add_gate(
        self, name: str, gtype: GateType, fanin: Sequence[str]
    ) -> Gate:
        """Add a gate driving net ``name``; returns the created Gate."""
        if name in self._input_set or name in self._gates:
            raise NetlistError(f"net {name!r} already defined")
        if gtype is GateType.INPUT:
            raise NetlistError("use add_input() for primary inputs")
        gate = Gate(name, gtype, tuple(fanin))
        self._gates[name] = gate
        self._cache.clear()
        return gate

    def set_outputs(self, names: Iterable[str]) -> None:
        """Designate the primary output nets (replaces any previous set)."""
        names = list(names)
        seen = set()
        for n in names:
            if n in seen:
                raise NetlistError(f"duplicate output {n!r}")
            seen.add(n)
        self._outputs = names
        self._cache.clear()

    def add_output(self, name: str) -> None:
        """Append one primary output net."""
        if name in self._outputs:
            raise NetlistError(f"duplicate output {name!r}")
        self._outputs.append(name)
        self._cache.clear()

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def inputs(self) -> Tuple[str, ...]:
        """Primary input net names, in declaration order."""
        return tuple(self._inputs)

    @property
    def outputs(self) -> Tuple[str, ...]:
        """Primary output net names, in declaration order."""
        return tuple(self._outputs)

    @property
    def gates(self) -> Dict[str, Gate]:
        """Mapping net name -> driving Gate (excludes primary inputs)."""
        return dict(self._gates)

    @property
    def num_inputs(self) -> int:
        return len(self._inputs)

    @property
    def num_outputs(self) -> int:
        return len(self._outputs)

    @property
    def num_gates(self) -> int:
        return len(self._gates)

    @property
    def nets(self) -> List[str]:
        """All net names: inputs first, then gates in insertion order."""
        return self._inputs + list(self._gates)

    def is_input(self, net: str) -> bool:
        return net in self._input_set

    def gate(self, net: str) -> Gate:
        """Return the gate driving ``net`` (KeyError style for inputs)."""
        try:
            return self._gates[net]
        except KeyError:
            raise NetlistError(f"net {net!r} is not driven by a gate") from None

    def __contains__(self, net: str) -> bool:
        return net in self._input_set or net in self._gates

    def __len__(self) -> int:
        return self.num_gates

    def __repr__(self) -> str:
        return (
            f"Circuit({self.name!r}, inputs={self.num_inputs}, "
            f"outputs={self.num_outputs}, gates={self.num_gates})"
        )

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check structural well-formedness.

        Verifies that every fanin net exists, every output net exists,
        the circuit has at least one input and one output, and the gate
        graph is acyclic.  Raises :class:`NetlistError` on the first
        violation found.
        """
        if not self._inputs:
            raise NetlistError(f"circuit {self.name!r} has no primary inputs")
        if not self._outputs:
            raise NetlistError(f"circuit {self.name!r} has no primary outputs")
        for gate in self._gates.values():
            for src in gate.fanin:
                if src not in self:
                    raise NetlistError(
                        f"gate {gate.name!r} references undefined net {src!r}"
                    )
        for out in self._outputs:
            if out not in self:
                raise NetlistError(f"output {out!r} is not a defined net")
        # Cycle check doubles as topological-order computation.
        self.topological_order()

    # ------------------------------------------------------------------
    # derived views (cached)
    # ------------------------------------------------------------------
    def memo(self, key: str, factory: Callable[[], object]) -> object:
        """Cache an arbitrary derived object on the circuit.

        The value is built once by ``factory`` and invalidated together
        with the built-in derived views whenever the circuit is mutated.
        Consumers that freeze the circuit into their own structures
        (e.g. the compiled simulation plan) use this so every simulator
        sharing a circuit object shares one frozen form.
        """
        value = self._cache.get(key)
        if value is None:
            value = factory()
            self._cache[key] = value
        return value

    def memo_discard(self, key: str) -> bool:
        """Drop one memoized entry (if present) without touching the rest.

        Lets external caches bound their memory (e.g. the compiled-plan
        LRU evicting a cold circuit's plan) while the circuit and its
        other derived views stay valid.  Returns whether an entry was
        removed.
        """
        return self._cache.pop(key, None) is not None

    def __getstate__(self) -> Dict[str, object]:
        # Derived views (and memoized plans) can be large and are cheap
        # to rebuild; ship only the structural state.  A worker process
        # unpickling a circuit therefore recompiles caches once, not
        # per task.
        state = self.__dict__.copy()
        state["_cache"] = {}
        return state

    def topological_order(self) -> List[str]:
        """Gate net names in a topological order (inputs excluded).

        Raises :class:`NetlistError` if the gate graph contains a cycle.
        """
        cached = self._cache.get("topo")
        if cached is not None:
            return list(cached)

        indegree: Dict[str, int] = {}
        dependents: Dict[str, List[str]] = {}
        for gate in self._gates.values():
            gate_fanin = [f for f in gate.fanin if f in self._gates]
            indegree[gate.name] = len(gate_fanin)
            for src in gate_fanin:
                dependents.setdefault(src, []).append(gate.name)

        ready = deque(
            name for name in self._gates if indegree[name] == 0
        )
        order: List[str] = []
        while ready:
            name = ready.popleft()
            order.append(name)
            for dep in dependents.get(name, ()):
                indegree[dep] -= 1
                if indegree[dep] == 0:
                    ready.append(dep)
        if len(order) != len(self._gates):
            stuck = sorted(n for n, d in indegree.items() if d > 0)[:5]
            raise NetlistError(
                f"circuit {self.name!r} contains a combinational cycle "
                f"(involving e.g. {stuck})"
            )
        self._cache["topo"] = tuple(order)
        return order

    def levels(self) -> Dict[str, int]:
        """Map net -> logic level (inputs at 0, gate = 1 + max fanin level)."""
        cached = self._cache.get("levels")
        if cached is not None:
            return dict(cached)
        lvl: Dict[str, int] = {name: 0 for name in self._inputs}
        for name in self.topological_order():
            gate = self._gates[name]
            lvl[name] = 1 + max(
                (lvl[f] for f in gate.fanin), default=0
            )
        self._cache["levels"] = dict(lvl)
        return lvl

    def depth(self) -> int:
        """Maximum logic level over all nets (0 for an empty gate list)."""
        lv = self.levels()
        return max(lv.values(), default=0)

    def fanout_index(self) -> Mapping[str, Tuple[str, ...]]:
        """Read-only map net -> tuple of gate nets that read it.

        A gate appears once per input pin it reads the net on, in gate
        insertion order.  Built once per circuit in O(nets + pins) and
        shared by every per-net query; use :meth:`fanout_map` for a
        mutable copy.
        """
        return self.memo("fanout", self._build_fanout_index)

    def _build_fanout_index(self) -> Mapping[str, Tuple[str, ...]]:
        fo: Dict[str, List[str]] = {net: [] for net in self.nets}
        for gate in self._gates.values():
            for src in gate.fanin:
                fo[src].append(gate.name)
        return MappingProxyType({k: tuple(v) for k, v in fo.items()})

    def fanout_map(self) -> Dict[str, List[str]]:
        """Map net -> list of gate nets that read it (deterministic order).

        Returns a fresh, caller-owned copy of :meth:`fanout_index`.
        """
        return {k: list(v) for k, v in self.fanout_index().items()}

    def fanout_count(self, net: str) -> int:
        """Number of gate inputs driven by ``net`` (counting multiplicity)."""
        return len(self.fanout_index()[net])

    def dangling_nets(self) -> List[str]:
        """Nets that drive nothing and are not primary outputs."""
        fo = self.fanout_index()
        outs = set(self._outputs)
        return [n for n in self.nets if not fo[n] and n not in outs]

    def transitive_fanin(self, net: str) -> set:
        """All nets (including inputs) in the cone feeding ``net``."""
        seen: set = set()
        stack = [net]
        while stack:
            cur = stack.pop()
            if cur in seen:
                continue
            seen.add(cur)
            if cur in self._gates:
                stack.extend(self._gates[cur].fanin)
        seen.discard(net)
        return seen

    def stats(self) -> CircuitStats:
        """Compute summary statistics (gate counts, depth, fanout)."""
        counts = Counter(g.gtype.value for g in self._gates.values())
        fo = self.fanout_index()
        max_fo = max((len(v) for v in fo.values()), default=0)
        total_fanin = sum(len(g.fanin) for g in self._gates.values())
        avg_fanin = total_fanin / self.num_gates if self._gates else 0.0
        return CircuitStats(
            name=self.name,
            num_inputs=self.num_inputs,
            num_outputs=self.num_outputs,
            num_gates=self.num_gates,
            depth=self.depth(),
            gate_counts=dict(counts),
            max_fanout=max_fo,
            avg_fanin=avg_fanin,
        )

    # ------------------------------------------------------------------
    # functional evaluation (reference semantics)
    # ------------------------------------------------------------------
    def evaluate(self, input_values: Dict[str, int]) -> Dict[str, int]:
        """Zero-delay functional evaluation of every net.

        Parameters
        ----------
        input_values:
            Mapping of *every* primary input name to 0 or 1.

        Returns
        -------
        dict
            Mapping of every net name to its steady-state value.

        This is the slow reference evaluator; the simulators in
        :mod:`repro.sim` are the production paths.
        """
        from .gates import eval_gate  # local import avoids cycle at module load

        values: Dict[str, int] = {}
        for name in self._inputs:
            try:
                values[name] = int(input_values[name]) & 1
            except KeyError:
                raise NetlistError(f"missing value for input {name!r}") from None
        for name in self.topological_order():
            gate = self._gates[name]
            values[name] = eval_gate(
                gate.gtype, [values[f] for f in gate.fanin]
            )
        return values

    def evaluate_vector(self, bits: Sequence[int]) -> Dict[str, int]:
        """Like :meth:`evaluate`, taking bits in primary-input order."""
        if len(bits) != self.num_inputs:
            raise NetlistError(
                f"expected {self.num_inputs} input bits, got {len(bits)}"
            )
        return self.evaluate(dict(zip(self._inputs, bits)))

    # ------------------------------------------------------------------
    # transformation helpers
    # ------------------------------------------------------------------
    def copy(self, name: Optional[str] = None) -> "Circuit":
        """Deep-enough copy (Gate objects are immutable and shared)."""
        other = Circuit(name or self.name)
        other._inputs = list(self._inputs)
        other._input_set = set(self._input_set)
        other._outputs = list(self._outputs)
        other._gates = dict(self._gates)
        return other

    def iter_gates_topological(self) -> Iterator[Gate]:
        """Yield Gate objects in topological order."""
        for name in self.topological_order():
            yield self._gates[name]
