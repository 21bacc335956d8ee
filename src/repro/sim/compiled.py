"""Compiled struct-of-arrays simulation kernel.

The bit-parallel simulator historically evaluated gates one at a time
from Python: ``steady_state`` called ``eval_gate_words`` once per gate
with a freshly built list of fanin rows, and the unit-delay loop
re-evaluated *every* gate at *every* time step.  For a 10k-gate circuit
at depth ~40 that is ~400k Python-level gate calls per 64-pair chunk —
the dominant cost of building ground-truth populations.

This module lowers a :class:`~repro.netlist.circuit.Circuit` *once*
into flat numpy plan arrays:

* **Batched gate evaluation** — gates are grouped by
  ``(level, gate_type, fanin_arity)``.  Each batch stores a
  ``(num_gates_in_batch, arity)`` fanin index matrix and an output
  index vector, so one fancy-indexed gather (``state[fanin_idx]``)
  plus one bitwise reduction along the arity axis evaluates every
  same-shaped gate of a level in a single numpy call.  Inverting types
  XOR the reduced block against the lane mask; MUX batches use the
  select/data formulation directly; variadic stragglers (arity above
  :data:`MAX_BATCH_ARITY`) fall back to per-gate evaluation.
* **Active-gate scheduling** — a synchronous unit-delay step reads
  *only* the previous step's values, so step evaluation needs no level
  ordering at all: gates are regrouped by ``(gate_type, arity)`` alone
  into a handful of circuit-wide groups, and each step gathers just
  the rows of each group whose fanin changed in the previous step
  (dirty nets -> consuming gates through a CSR map).  Work per step is
  proportional to the switching wavefront, with a near-constant number
  of numpy calls regardless of circuit depth.  Deferred write-back
  keeps the synchronous semantics: every active gate reads the
  previous step's values before any output is stored.
* **Vectorized energy accumulation** — zero-delay charges stack the
  changed rows into one 2-D block, unpack them with a single
  ``np.unpackbits``, and apply one ``caps @ bits`` matmul per block
  (:func:`charge_rows`).  The unit-delay loop goes further: per-step
  toggles ripple-carry into packed bit-plane counters
  (:func:`accumulate_planes`) entirely in the uint64 lane domain, and
  a final per-plane ``2^k * (caps @ bits)`` charge
  (:func:`charge_planes`) yields the energy.

Plans are cached on the circuit itself (via
:meth:`~repro.netlist.circuit.Circuit.memo`, invalidated on mutation),
so every :class:`~repro.sim.bitsim.BitParallelSimulator`,
:class:`~repro.sim.power.PowerAnalyzer` and worker process sharing a
circuit object reuses one compiled plan instead of re-freezing per
task; a plan lives exactly as long as its circuit.

The simulation tier is a property of the host, not a setting: a
unit-delay block runs the C wavefront loop of :mod:`repro.sim.native`
when its library loads, and :meth:`CompiledPlan.unit_delay_planes`
otherwise.  Both fill the same bit-plane counters and charge them
through :func:`charge_planes`, so energies are bit-identical across
hosts.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from ..errors import SimulationError
from ..netlist.circuit import Circuit
from ..netlist.gates import GateType, eval_gate_words
from ..obs.metrics import get_registry
from ..obs.spans import get_span_recorder

__all__ = [
    "CompiledPlan",
    "compile_plan",
    "resolve_kernel",
    "kernel_info",
    "charge_rows",
    "charge_planes",
    "accumulate_planes",
    "make_planes",
    "popcount_rows",
    "lane_mask",
    "MAX_BATCH_ARITY",
]

#: Largest fanin arity evaluated through the batched gather+reduce
#: path; wider (rare, variadic) gates fall back to per-gate evaluation.
MAX_BATCH_ARITY = 8

#: Rows unpacked/charged per matmul block in :func:`charge_rows`.
#: Bounds the transient ``(block, num_lanes)`` float64 allocation while
#: keeping the BLAS calls large; part of the float-reproducibility
#: contract (the partial-sum grouping is fixed).
_CHARGE_ROW_BLOCK = 128

_METRICS = get_registry()
_SPANS = get_span_recorder()
_COMPILE_TIMER = _METRICS.timer("sim_compile_seconds")
_COMPILE_TOTAL = _METRICS.counter("sim_compile_total")
_PLAN_CACHE_HITS = _METRICS.counter("sim_plan_cache_hits_total")
_BATCH_EVALS = _METRICS.counter("sim_batch_eval_total")
_STEPS_TOTAL = _METRICS.counter("sim_steps_total")
_ACTIVE_LEVELS = _METRICS.histogram(
    "sim_active_levels", buckets=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)
)


def kernel_info() -> dict:
    """This host's simulation tier, for health/telemetry.

    One probe of the C library (:func:`repro.sim.native.load_backend`,
    the same one every unit-delay call makes): ``active`` is
    ``"native"`` with ``backend`` ``"cext"`` when it loads, else
    ``"compiled"`` with ``backend`` ``None``.
    """
    from .native import backend_name

    backend = backend_name()
    return {
        "active": "compiled" if backend is None else "native",
        "backend": backend,
    }


def resolve_kernel(probe: bool = True) -> str:
    """This host's simulation tier, ``kernel_info()["active"]``.

    Kept for callers that read the tier by this name; ``probe`` is
    accepted for them and ignored — the tier is always probed.
    """
    return kernel_info()["active"]


def lane_mask(num_lanes: int, num_words: int) -> np.ndarray:
    """All-ones in valid lane bits, zeros in the padding bits."""
    mask = np.full(num_words, np.uint64(0xFFFFFFFFFFFFFFFF), dtype=np.uint64)
    rem = num_lanes % 64
    if rem:
        mask[-1] = np.uint64((1 << rem) - 1)
    return mask


# Popcount strategy: numpy >= 2.0 ships np.bitwise_count; otherwise a
# 16-bit lookup table, applied to the whole 2-D block at once.
_HAS_BITWISE_COUNT = hasattr(np, "bitwise_count")
_POPCOUNT_LUT: Optional[np.ndarray] = None


def popcount_rows(words: np.ndarray) -> np.ndarray:
    """Per-row popcount of a 2-D ``uint64`` array -> int64 ``(rows,)``.

    Uses ``np.bitwise_count`` when available; the uint16-LUT fallback is
    equally batched (one fancy index over the whole block).  Both paths
    sum into an explicit int64 accumulator so row totals never overflow
    the uint8 per-word counts.
    """
    words = np.ascontiguousarray(words, dtype=np.uint64)
    if words.ndim != 2:
        raise SimulationError("popcount_rows expects a 2-D word array")
    if _HAS_BITWISE_COUNT:
        return np.bitwise_count(words).sum(axis=1, dtype=np.int64)
    global _POPCOUNT_LUT
    if _POPCOUNT_LUT is None:
        _POPCOUNT_LUT = np.array(
            [bin(i).count("1") for i in range(1 << 16)], dtype=np.uint8
        )
    return _POPCOUNT_LUT[words.view(np.uint16)].sum(axis=1, dtype=np.int64)


def charge_rows(
    rows: np.ndarray, caps: np.ndarray, num_lanes: int
) -> np.ndarray:
    """Per-lane weighted toggle sum: ``energy[j] = sum_i caps[i] * bit_j(rows[i])``.

    ``rows`` is a ``(R, num_words)`` uint64 block of XOR-diff rows and
    ``caps`` the aligned weights.  The whole block is unpacked with
    ``np.unpackbits`` and charged with one ``caps @ bits`` contraction
    per :data:`_CHARGE_ROW_BLOCK` rows (``np.einsum``, which multiplies
    the uint8 bit matrix against the float64 weights without first
    materializing an 8-byte-per-bit float copy).

    Float-reproducibility contract: callers pass only changed rows with
    nonzero capacitance, in **ascending net-index order**, so the
    float summation order is fixed.
    """
    energy = np.zeros(num_lanes, dtype=np.float64)
    num_rows = rows.shape[0]
    if num_rows == 0 or num_lanes == 0:
        return energy
    rows = np.ascontiguousarray(rows, dtype=np.uint64)
    caps = np.ascontiguousarray(caps, dtype=np.float64)
    for start in range(0, num_rows, _CHARGE_ROW_BLOCK):
        stop = start + _CHARGE_ROW_BLOCK
        blk = rows[start:stop]
        bits = np.unpackbits(
            blk.view(np.uint8), axis=1, bitorder="little"
        )[:, :num_lanes]
        energy += np.einsum("i,ij->j", caps[start:stop], bits)
    return energy


def make_planes(
    num_nets: int, num_words: int, max_count: int
) -> List[np.ndarray]:
    """Allocate bit-plane toggle counters for one unit-delay sub-block.

    Plane *k* holds bit *k* of every per-net per-lane toggle count, in
    the packed uint64 lane domain.  ``max_count`` bounds any single
    counter (a net toggles at most once per relaxation step), which
    fixes the number of planes needed.
    """
    num_planes = max(1, int(max_count).bit_length())
    return [
        np.zeros((num_nets, num_words), dtype=np.uint64)
        for _ in range(num_planes)
    ]


def accumulate_planes(
    planes: List[np.ndarray], idx: np.ndarray, rows: np.ndarray
) -> int:
    """Add the set bits of XOR-diff ``rows`` into the plane counters.

    Ripple-carry add of one bit per (net, lane): XOR into plane 0, AND
    for the carry, repeat on higher planes for the (quickly shrinking)
    rows that actually carry.  Everything stays in the packed uint64
    domain — no ``np.unpackbits``, no per-lane scatter — which is what
    makes per-step toggle accounting cheap on deep, glitchy circuits.

    ``idx`` must be duplicate-free (each net appears at most once per
    step).  Returns the number of planes touched so chargers can skip
    the all-zero tail.
    """
    used = 0
    for plane in planes:
        if idx.size == 0:
            break
        used += 1
        old = plane[idx]
        carry = old & rows
        np.bitwise_xor(old, rows, out=old)  # sum bit, reusing the gather
        plane[idx] = old
        keep = np.flatnonzero(carry.any(axis=1))
        idx = idx[keep]
        rows = carry[keep]
    if idx.size:
        raise SimulationError(
            "toggle counter overflow — plane allocation invariant broken"
        )
    return used


def charge_planes(
    planes: List[np.ndarray],
    caps: np.ndarray,
    num_lanes: int,
    num_planes: int,
) -> np.ndarray:
    """Per-lane energy from bit-plane toggle counters.

    ``energy = sum_g caps_g * count_g`` where ``count_g`` is the exact
    per-lane toggle total over all nets sharing capacitance value
    ``caps_g``.  Real libraries map thousands of nets onto a few dozen
    distinct capacitance values, so grouping turns almost the whole
    charge into integer work: per plane, the live rows of each group
    are unpacked in <=255-row chunks and column-summed eight lanes at a
    time through a uint64 view (byte sums cannot overflow at <=255
    rows), scaled by the exact power-of-two plane weight into a uint32
    per-group total, and only the final ``(G, lanes)`` contraction with
    the distinct capacitance values runs in float64.

    The integer totals are exact and the float contraction has one
    fixed (value-sorted) order, so energies are deterministic — and
    both wavefront loops route each charge through this one helper,
    so energies are bit-for-bit equal across hosts.
    """
    energy = np.zeros(num_lanes, dtype=np.float64)
    nz = np.flatnonzero(caps != 0.0)
    if nz.size == 0 or num_lanes == 0:
        return energy
    # Group nets by distinct capacitance value; ``perm`` lists the
    # nonzero-cap nets sorted by group, ``gid`` their (sorted) group
    # ids.  np.unique sorts, so group order — and therefore the float
    # summation order below — depends only on the capacitance values.
    vals, inv = np.unique(caps[nz], return_inverse=True)
    order = np.argsort(inv, kind="stable")
    perm = np.ascontiguousarray(nz[order], dtype=np.int64)
    gid = inv[order].astype(np.int64)
    num_groups = vals.shape[0]
    group_bounds = np.arange(num_groups + 1)

    # The C accelerator (when built) computes the same exact integer
    # group totals straight from the packed plane rows — no unpack, no
    # gather.  It is bounded to 64-word rows by its on-stack
    # accumulator, which every per-block charge satisfies.
    num_words = planes[0].shape[1] if num_planes > 0 else 0
    if num_words and num_words <= 64:
        from .native import charge_accelerator

        accel = charge_accelerator()
        if accel is not None:
            cuts = np.ascontiguousarray(
                np.searchsorted(gid, group_bounds), dtype=np.int64
            )
            gtot_pad = np.zeros(
                (num_groups, num_words * 64), dtype=np.uint32
            )
            for k in range(num_planes):
                accel(planes[k], perm, cuts, 1 << k, gtot_pad)
            energy += np.einsum(
                "g,gj->j",
                vals,
                gtot_pad[:, :num_lanes].astype(np.float64),
            )
            return energy

    gtot = np.zeros((num_groups, num_lanes), dtype=np.uint32)
    for k in range(num_planes):
        rows = planes[k][perm]
        live = np.flatnonzero(rows.any(axis=1))
        if live.size == 0:
            continue
        live_rows = np.ascontiguousarray(rows[live])
        live_gid = gid[live]
        cuts = np.searchsorted(live_gid, group_bounds)
        weight = np.uint32(1) << np.uint32(k)
        for g in range(num_groups):
            start, stop = int(cuts[g]), int(cuts[g + 1])
            if start == stop:
                continue
            while stop - start > 255:
                bits64 = np.unpackbits(
                    live_rows[start : start + 255].view(np.uint8),
                    axis=1,
                    bitorder="little",
                ).view(np.uint64)
                gtot[g] += weight * np.add.reduce(bits64, axis=0).view(
                    np.uint8
                )[:num_lanes].astype(np.uint32)
                start += 255
            bits = np.unpackbits(
                live_rows[start:stop].view(np.uint8),
                axis=1,
                bitorder="little",
            )
            if stop - start == 1:
                gtot[g] += weight * bits[0, :num_lanes].astype(np.uint32)
            else:
                gtot[g] += weight * np.add.reduce(
                    bits.view(np.uint64), axis=0
                ).view(np.uint8)[:num_lanes].astype(np.uint32)
    energy += np.einsum("g,gj->j", vals, gtot.astype(np.float64))
    return energy


# Reduction ufunc + output-inversion flag per batchable gate type.
# BUF/NOT are arity-1 reductions (identity + optional invert), so the
# whole non-MUX gate set shares one gather -> reduce -> invert shape.
_REDUCERS = {
    GateType.AND: (np.bitwise_and, False),
    GateType.NAND: (np.bitwise_and, True),
    GateType.OR: (np.bitwise_or, False),
    GateType.NOR: (np.bitwise_or, True),
    GateType.XOR: (np.bitwise_xor, False),
    GateType.XNOR: (np.bitwise_xor, True),
    GateType.BUF: (np.bitwise_or, False),
    GateType.NOT: (np.bitwise_or, True),
}


@dataclass
class _Batch:
    """One same-shaped gate group of one level.

    ``kind`` is ``"reduce"`` (gather + ufunc-reduce + optional invert),
    ``"mux"`` (select/data formulation) or ``"pergate"`` (variadic
    stragglers evaluated through ``eval_gate_words``).
    """

    level: int
    kind: str
    out_idx: np.ndarray
    fanin_idx: Optional[np.ndarray] = None
    reduce_op: Optional[np.ufunc] = None
    invert: bool = False
    gates: List[Tuple[GateType, Tuple[int, ...]]] = field(default_factory=list)

    @property
    def size(self) -> int:
        return int(self.out_idx.size)


@dataclass
class _StepGroup:
    """One circuit-wide gate group for the unit-delay step.

    A synchronous step reads only the previous step's values, so these
    groups ignore levels entirely — one group holds *every* batchable
    gate sharing one **reduction ufunc** (AND/NAND; OR/NOR/BUF/NOT;
    XOR/XNOR — inverting members are flagged per row in
    ``invert_rows``), plus one group of MUXes and one of variadic
    stragglers.  That keeps the per-step numpy call count at a handful
    regardless of depth or gate mix.  Mixed fanin arities within a
    group are padded to the group maximum with the reduction's
    identity row (the virtual all-zeros net for OR/XOR, the virtual
    all-ones net for AND), so one rectangular gather + reduction still
    evaluates the whole group.  ``offset`` places the group's gates in
    the plan's global step-gate numbering, which the dirty-net CSR map
    indexes into.
    """

    kind: str
    offset: int
    out_idx: np.ndarray
    fanin_idx: Optional[np.ndarray] = None
    reduce_op: Optional[np.ufunc] = None
    invert_rows: Optional[np.ndarray] = None
    gates: List[Tuple[GateType, Tuple[int, ...]]] = field(default_factory=list)

    @property
    def size(self) -> int:
        return int(self.out_idx.size)


class CompiledPlan:
    """A circuit lowered to flat struct-of-arrays evaluation batches.

    Construction freezes net indexing, the level-ordered batch list,
    the constant rows, and the net -> consuming-batch CSR map used by
    active-level scheduling.  Plans hold no reference to the circuit
    object and are immutable after construction, so they are safely
    shared across simulators (and across threads: evaluation only reads
    the plan arrays).
    """

    def __init__(self, circuit: Circuit):
        circuit.validate()
        self.circuit_name = circuit.name
        net_index = {net: i for i, net in enumerate(circuit.nets)}
        self.num_nets = len(net_index)
        self.num_inputs = circuit.num_inputs
        self.depth = circuit.depth()
        levels = circuit.levels()

        const0: List[int] = []
        const1: List[int] = []
        groups: dict = {}
        stragglers: dict = {}
        for name in circuit.topological_order():
            gate = circuit.gate(name)
            out = net_index[name]
            if gate.gtype is GateType.CONST0:
                const0.append(out)
                continue
            if gate.gtype is GateType.CONST1:
                const1.append(out)
                continue
            fan = tuple(net_index[f] for f in gate.fanin)
            lvl = levels[name]
            if gate.gtype is not GateType.MUX and len(fan) > MAX_BATCH_ARITY:
                stragglers.setdefault(lvl, []).append((out, gate.gtype, fan))
            else:
                groups.setdefault((lvl, gate.gtype, len(fan)), []).append(
                    (out, fan)
                )

        self.const0_idx = np.asarray(const0, dtype=np.intp)
        self.const1_idx = np.asarray(const1, dtype=np.intp)

        batches: List[_Batch] = []
        for (lvl, gtype, _arity), members in groups.items():
            out_idx = np.array([m[0] for m in members], dtype=np.intp)
            fanin_idx = np.array([m[1] for m in members], dtype=np.intp)
            if gtype is GateType.MUX:
                batches.append(_Batch(lvl, "mux", out_idx, fanin_idx))
            else:
                op, inv = _REDUCERS[gtype]
                batches.append(
                    _Batch(lvl, "reduce", out_idx, fanin_idx, op, inv)
                )
        for lvl, members in stragglers.items():
            out_idx = np.array([m[0] for m in members], dtype=np.intp)
            batches.append(
                _Batch(
                    lvl,
                    "pergate",
                    out_idx,
                    gates=[(g, f) for _, g, f in members],
                )
            )
        batches.sort(key=lambda b: (b.level, int(b.out_idx[0])))
        self.batches = batches
        self.batch_levels = np.array(
            [b.level for b in batches], dtype=np.intp
        )
        self.num_gates = circuit.num_gates

        # Unit-delay step groups: a synchronous step reads only the
        # previous step's values, so grouping ignores levels — every
        # batchable gate sharing one reduction ufunc lands in one
        # circuit-wide group (inverting types flagged per row),
        # keeping the per-step numpy call count at a handful
        # regardless of depth.  Mixed arities are padded with the
        # reduction's identity: two virtual state rows (all-zeros at
        # ``num_nets``, all-ones at ``num_nets + 1``) are appended by
        # the unit-delay loop.  Constants never change and are left
        # out.
        self.zeros_row = self.num_nets
        self.ones_row = self.num_nets + 1
        step_members: dict = {}
        step_stragglers: List[Tuple[int, GateType, Tuple[int, ...], int]] = []
        for name in circuit.topological_order():
            gate = circuit.gate(name)
            if gate.gtype in (GateType.CONST0, GateType.CONST1):
                continue
            out = net_index[name]
            fan = tuple(net_index[f] for f in gate.fanin)
            lvl = levels[name]
            if gate.gtype is GateType.MUX:
                step_members.setdefault("mux", []).append(
                    (out, fan, lvl, False)
                )
            elif len(fan) > MAX_BATCH_ARITY:
                step_stragglers.append((out, gate.gtype, fan, lvl))
            else:
                op, inv = _REDUCERS[gate.gtype]
                step_members.setdefault(op, []).append(
                    (out, fan, lvl, inv)
                )

        raw_groups: List[_StepGroup] = []
        gate_levels: List[List[int]] = []
        for key, members in step_members.items():
            out_idx = np.array([m[0] for m in members], dtype=np.intp)
            if isinstance(key, str):  # the "mux" group
                fanin_idx = np.array([m[1] for m in members], dtype=np.intp)
                group = _StepGroup("mux", 0, out_idx, fanin_idx)
            else:
                arity = max(len(m[1]) for m in members)
                pad = (
                    self.ones_row
                    if key is np.bitwise_and
                    else self.zeros_row
                )
                fanin_idx = np.array(
                    [
                        m[1] + (pad,) * (arity - len(m[1]))
                        for m in members
                    ],
                    dtype=np.intp,
                )
                invert_rows = np.array(
                    [m[3] for m in members], dtype=bool
                )
                if not invert_rows.any():
                    invert_rows = None
                group = _StepGroup(
                    "reduce", 0, out_idx, fanin_idx, key,
                    invert_rows=invert_rows,
                )
            raw_groups.append(group)
            gate_levels.append([m[2] for m in members])
        if step_stragglers:
            raw_groups.append(
                _StepGroup(
                    "pergate",
                    0,
                    np.array([s[0] for s in step_stragglers], dtype=np.intp),
                    gates=[(g, f) for _, g, f, _ in step_stragglers],
                )
            )
            gate_levels.append([s[3] for s in step_stragglers])

        order = sorted(
            range(len(raw_groups)),
            key=lambda i: int(raw_groups[i].out_idx[0]),
        )
        self.step_groups: List[_StepGroup] = []
        levels_flat: List[int] = []
        offset = 0
        for i in order:
            group = raw_groups[i]
            group.offset = offset
            offset += group.size
            self.step_groups.append(group)
            levels_flat.extend(gate_levels[i])
        self.num_step_gates = offset
        self._step_gate_levels = np.asarray(levels_flat, dtype=np.intp)
        self._group_ends = np.array(
            [g.offset + g.size for g in self.step_groups], dtype=np.intp
        )

        # CSR map: net index -> global step-gate ids of the gates that
        # read it, for the dirty-net -> active-gate propagation of the
        # unit-delay loop.
        per_net: List[List[int]] = [[] for _ in range(self.num_nets)]
        for group in self.step_groups:
            if group.kind == "pergate":
                fans_per_gate = [set(fan) for _, fan in group.gates]
            else:
                fans_per_gate = [
                    set(row.tolist()) for row in group.fanin_idx
                ]
            for row, fans in enumerate(fans_per_gate):
                gate_id = group.offset + row
                for n in fans:
                    if n < self.num_nets:  # skip virtual pad rows
                        per_net[n].append(gate_id)
        counts = np.fromiter(
            (len(x) for x in per_net), dtype=np.intp, count=self.num_nets
        )
        self._consumer_indptr = np.concatenate(
            (np.zeros(1, dtype=np.intp), np.cumsum(counts))
        )
        self._consumer_gate_ids = np.fromiter(
            (g for lst in per_net for g in lst),
            dtype=np.intp,
            count=int(counts.sum()),
        )

    # ------------------------------------------------------------------
    def _eval_batch(
        self, batch: _Batch, state: np.ndarray, mask: np.ndarray
    ) -> np.ndarray:
        """New output words ``(batch.size, num_words)`` read from ``state``."""
        if batch.kind == "pergate":
            out = np.empty(
                (len(batch.gates), state.shape[1]), dtype=np.uint64
            )
            for i, (gtype, fan) in enumerate(batch.gates):
                out[i] = eval_gate_words(
                    gtype, [state[j] for j in fan], mask
                )
            return out
        fi = batch.fanin_idx
        if batch.kind == "mux":
            sel = state[fi[:, 0]]
            d0 = state[fi[:, 1]]
            d1 = state[fi[:, 2]]
            return (sel & d1) | ((sel ^ mask) & d0)
        # Column-wise in-place fold: one gather + one in-place op per
        # fanin column, instead of materializing a (B, arity, words)
        # block and reducing it in a second pass.
        out = state[fi[:, 0]]
        for j in range(1, fi.shape[1]):
            batch.reduce_op(out, state[fi[:, j]], out=out)
        if batch.invert:
            out ^= mask
        return out

    def _consumer_flags(self, dirty: np.ndarray) -> np.ndarray:
        """Bool mask over global step-gate ids: fanin touched ``dirty``."""
        flags = np.zeros(self.num_step_gates, dtype=bool)
        starts = self._consumer_indptr[dirty]
        counts = self._consumer_indptr[dirty + 1] - starts
        total = int(counts.sum())
        if total == 0:
            return flags
        # Vectorized multi-slice gather of the CSR ranges.
        shifted = np.concatenate(
            (np.zeros(1, dtype=np.intp), np.cumsum(counts)[:-1])
        )
        flat = np.arange(total, dtype=np.intp) + np.repeat(
            starts - shifted, counts
        )
        flags[self._consumer_gate_ids[flat]] = True
        return flags

    def _eval_group_rows(
        self,
        group: _StepGroup,
        rows: np.ndarray,
        state: np.ndarray,
        mask: np.ndarray,
    ) -> np.ndarray:
        """New output words for the selected rows of one step group."""
        if group.kind == "pergate":
            out = np.empty((rows.size, state.shape[1]), dtype=np.uint64)
            for i, r in enumerate(rows):
                gtype, fan = group.gates[r]
                out[i] = eval_gate_words(
                    gtype, [state[j] for j in fan], mask
                )
            return out
        fi = group.fanin_idx[rows]  # (R, arity), small
        if group.kind == "mux":
            sel = state[fi[:, 0]]
            d0 = state[fi[:, 1]]
            d1 = state[fi[:, 2]]
            return (sel & d1) | ((sel ^ mask) & d0)
        # Column-wise in-place fold (see _eval_batch).
        out = state[fi[:, 0]]
        for j in range(1, fi.shape[1]):
            group.reduce_op(out, state[fi[:, j]], out=out)
        if group.invert_rows is not None:
            inv = np.flatnonzero(group.invert_rows[rows])
            if inv.size:
                out[inv] ^= mask
        return out

    # ------------------------------------------------------------------
    def steady_state(
        self,
        input_words: np.ndarray,
        num_lanes: int,
        mask: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Zero-delay settled values of every net, per lane.

        Identical contract (and bit-identical output) to
        :meth:`repro.sim.bitsim.BitParallelSimulator.steady_state`.

        An explicit per-word ``mask`` (ones in valid lane bits) replaces
        ``lane_mask(num_lanes, ...)``; :meth:`unit_delay_planes` passes
        the mask of its lane block.
        """
        input_words = np.ascontiguousarray(input_words, dtype=np.uint64)
        if input_words.shape[0] != self.num_inputs:
            raise SimulationError(
                f"expected {self.num_inputs} input rows, "
                f"got {input_words.shape[0]}"
            )
        num_words = input_words.shape[1]
        if num_lanes > num_words * 64:
            raise SimulationError("num_lanes exceeds word capacity")
        if mask is None:
            mask = lane_mask(num_lanes, num_words)
        state = np.empty((self.num_nets, num_words), dtype=np.uint64)
        state[: self.num_inputs] = input_words & mask
        if self.const0_idx.size:
            state[self.const0_idx] = np.uint64(0)
        if self.const1_idx.size:
            state[self.const1_idx] = mask
        for batch in self.batches:
            state[batch.out_idx] = self._eval_batch(batch, state, mask)
        if _METRICS.enabled:
            _BATCH_EVALS.inc(len(self.batches))
        return state

    # ------------------------------------------------------------------
    def toggle_energy_zero_delay(
        self,
        v1_words: np.ndarray,
        v2_words: np.ndarray,
        num_lanes: int,
        net_caps: np.ndarray,
    ) -> np.ndarray:
        """Per-lane capacitance-weighted toggle sum, zero-delay."""
        s1 = self.steady_state(v1_words, num_lanes)
        s2 = self.steady_state(v2_words, num_lanes)
        diff = s1 ^ s2
        caps = np.asarray(net_caps, dtype=np.float64)
        idx = np.flatnonzero(diff.any(axis=1) & (caps != 0.0))
        return charge_rows(diff[idx], caps[idx], num_lanes)

    def toggle_counts_zero_delay(
        self, v1_words: np.ndarray, v2_words: np.ndarray, num_lanes: int
    ) -> np.ndarray:
        """Unweighted per-net toggle totals (summed over lanes)."""
        s1 = self.steady_state(v1_words, num_lanes)
        s2 = self.steady_state(v2_words, num_lanes)
        return popcount_rows(s1 ^ s2)

    # ------------------------------------------------------------------
    def unit_delay_planes(
        self,
        v1_words: np.ndarray,
        v2_words: np.ndarray,
        mask: np.ndarray,
        max_steps: Optional[int] = None,
    ) -> Tuple[List[np.ndarray], int]:
        """Integer phase of one unit-delay block: the wavefront loop.

        Synchronous relaxation with active-gate scheduling: only the
        gates whose fanin changed in the previous step are re-evaluated
        (selected row-wise from the circuit-wide step groups), and all
        writes of a step are deferred until every active gate has read
        the previous values.  Per-step toggles accumulate into packed
        bit-plane counters (:func:`accumulate_planes` — no unpacking,
        no float work in the loop).  The per-step changed-net sets are
        exactly those of re-evaluating every gate each step.

        Runs over the *whole* given word array and returns the counters
        plus the number of planes touched — everything
        :func:`charge_planes` needs.  The caller,
        :meth:`repro.sim.bitsim.BitParallelSimulator.toggle_energy_unit_delay`,
        splits the lanes into blocks and charges each one, exactly as it
        does for the C loop.
        """
        if max_steps is None:
            max_steps = self.depth + 4
        record = _METRICS.enabled
        v1_words = np.ascontiguousarray(v1_words, dtype=np.uint64)
        v2_words = np.ascontiguousarray(v2_words, dtype=np.uint64)
        num_words = v1_words.shape[1]
        settled = self.steady_state(v1_words, num_words * 64, mask=mask)
        # Two extra virtual rows feed the identity-padded fanin
        # columns of the merged step groups: all-zeros at
        # ``zeros_row``, all-ones (in valid lanes) at ``ones_row``.
        state = np.empty((self.num_nets + 2, num_words), dtype=np.uint64)
        state[: self.num_nets] = settled
        state[self.zeros_row] = np.uint64(0)
        state[self.ones_row] = mask
        planes = make_planes(self.num_nets, num_words, max_steps + 1)
        planes_used = 0

        # Input transitions.
        v2_masked = v2_words & mask
        in_diff = state[: self.num_inputs] ^ v2_masked
        dirty = np.flatnonzero(in_diff.any(axis=1))
        planes_used = max(
            planes_used, accumulate_planes(planes, dirty, in_diff[dirty])
        )
        state[: self.num_inputs] = v2_masked

        steps = 0
        stabilized = False
        for _step in range(max_steps):
            if dirty.size == 0:
                stabilized = True
                break
            flags = self._consumer_flags(dirty)
            steps += 1
            # One pass over the flags, then split the sorted active
            # ids at the group boundaries — cheaper than scanning
            # each group's slice separately.
            active = np.flatnonzero(flags)
            cuts = np.searchsorted(active, self._group_ends)
            # Evaluate every active gate before writing anything
            # back, so all reads see the previous step (synchronous
            # semantics).
            evals: List[Tuple[np.ndarray, np.ndarray]] = []
            start = 0
            for gi, group in enumerate(self.step_groups):
                end = cuts[gi]
                if end == start:
                    continue
                local = active[start:end] - group.offset
                start = end
                evals.append(
                    (
                        group.out_idx[local],
                        self._eval_group_rows(group, local, state, mask),
                    )
                )
            if record:
                _BATCH_EVALS.inc(len(evals))
                if active.size:
                    lvls = self._step_gate_levels[active]
                    _ACTIVE_LEVELS.observe(int(np.unique(lvls).size))
            if not evals:
                # The dirty nets feed no gates (primary outputs,
                # dangling nets): the next pass can change nothing.
                # Consume one step, like a full re-evaluation's final
                # quiescent pass.
                dirty = np.empty(0, dtype=np.intp)
                continue
            # Write back and account per group — the toggle planes
            # are order-independent XOR accumulators and the groups
            # write disjoint nets, so this equals the one-shot
            # concatenated update without its large temporaries.
            changed_parts: List[np.ndarray] = []
            for out_sub, new in evals:
                diff = state[out_sub] ^ new
                row_changed = diff.any(axis=1)
                state[out_sub] = new
                changed_idx = out_sub[row_changed]
                if changed_idx.size:
                    planes_used = max(
                        planes_used,
                        accumulate_planes(
                            planes, changed_idx, diff[row_changed]
                        ),
                    )
                    changed_parts.append(changed_idx)
            if not changed_parts:
                dirty = np.empty(0, dtype=np.intp)
            elif len(changed_parts) == 1:
                dirty = changed_parts[0]
            else:
                dirty = np.concatenate(changed_parts)
        if record:
            _STEPS_TOTAL.inc(steps)
        if not stabilized:
            raise SimulationError(
                "unit-delay simulation did not stabilize — "
                "invariant broken"
            )
        return planes, planes_used


def compile_plan(circuit: Circuit) -> CompiledPlan:
    """Return the circuit's :class:`CompiledPlan`, compiling on first use.

    The plan is memoized on the circuit (invalidated automatically by
    any structural mutation), so all simulators sharing a circuit object
    — including every task of a worker process — reuse one plan.
    Compile time and cache hits are recorded in the ``sim_compile*``
    metrics; a ``sim.compile`` span carries the batch layout.
    """
    built: List[float] = []

    def build() -> CompiledPlan:
        with _SPANS.span("sim.compile", circuit=circuit.name) as span:
            start = time.perf_counter()
            plan = CompiledPlan(circuit)
            elapsed = time.perf_counter() - start
            span.set(
                num_gates=plan.num_gates,
                num_batches=len(plan.batches),
                depth=plan.depth,
            )
        built.append(elapsed)
        _COMPILE_TOTAL.inc()
        _COMPILE_TIMER.observe(elapsed)
        return plan

    plan = circuit.memo("compiled_plan", build)
    if not built:
        _PLAN_CACHE_HITS.inc()
    return plan
