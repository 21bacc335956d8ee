"""Native accelerator backend for the unit-delay wavefront loop.

The compiled plan (:mod:`repro.sim.compiled`) already reduced the
unit-delay relaxation to a handful of numpy calls per step, but on deep
circuits the loop still pays per-step Python/numpy dispatch dozens of
times per lane block.  This module runs that loop — and only that loop —
in native code, consuming the plan's flat arrays directly:

* a tiny **C extension** compiled lazily at first use with the system C
  compiler and loaded through :mod:`ctypes` (the call releases the GIL,
  so worker threads run native work in parallel; work buffers are
  per thread), or
* nothing — in which case callers degrade gracefully to the
  ``compiled`` tier (:func:`native_available` is the probe,
  :func:`record_fallback` the accounting hook).

Float identity with the other kernels is by construction, not by luck:
the native code performs **only exact integer work** (gate word
evaluation, changed-net detection, ripple-carry accumulation into the
packed bit-plane toggle counters).  Settling, input-transition
accounting and the final capacitance charge stay in the shared numpy
helpers, so the float operations — and therefore the energies — are
bit-for-bit those of the ``compiled`` tier.

Backend choice is overridable via ``REPRO_NATIVE_BACKEND``
(``auto``/``cext``/``none``; ``none`` forces the fallback path, which
the no-accelerator tests use) and the compiler via ``REPRO_NATIVE_CC``.
"""

from __future__ import annotations

import ctypes
import hashlib
import logging
import os
import shutil
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..errors import ConfigError, SimulationError
from ..obs.metrics import get_registry
from .compiled import CompiledPlan, accumulate_planes

__all__ = [
    "backend_name",
    "charge_accelerator",
    "native_available",
    "native_tables",
    "record_fallback",
    "reset_backend",
    "unit_delay_planes_native",
]

_LOG = logging.getLogger("repro.sim.native")
_METRICS = get_registry()
_FALLBACK_TOTAL = _METRICS.counter("sim_native_fallback_total")

_BACKENDS = ("auto", "cext", "none")

# Opcodes of the C kernel.  Inverting gate types (NAND/NOR/
# XNOR/NOT) carry a separate per-gate invert flag.
_OP_AND = 0
_OP_OR = 1
_OP_XOR = 2
_OP_MUX = 3

#: Words per native wavefront tile (x64 lanes).  Lanes are independent,
#: so tiling the loop over word ranges changes no toggle bit; it keeps
#: the per-tile state/plane working set cache-sized and lets tiles
#: whose lanes calm down early stop relaxing before the noisy ones.
_TILE_WORDS = 64

# Reusable per-thread work buffers.  The wavefront loop allocates a
# plane block (~10 MB on the larger suite circuits) plus scratch every
# call; fresh mmap'd pages cost page faults and cold caches each time,
# which measurably slows back-to-back blocks.  A buffer is reused only
# when its base array has no external references left (the previous
# caller dropped its plane views), checked via the refcount — holding
# on to returned planes simply forces the next call onto a fresh
# allocation, never corruption.
_TLS = threading.local()


def _reusable(name: str, shape: tuple, dtype, zero: bool) -> np.ndarray:
    buf = getattr(_TLS, name, None)
    # refcount == 3: the TLS slot, the local ``buf``, and getrefcount's
    # own argument — i.e. nobody else holds the buffer or a view of it.
    if (
        buf is not None
        and buf.shape == shape
        and buf.dtype == dtype
        and sys.getrefcount(buf) == 3
    ):
        if zero:
            buf.fill(0)
        return buf
    buf = np.zeros(shape, dtype=dtype) if zero else np.empty(shape, dtype)
    setattr(_TLS, name, buf)
    return buf


# ----------------------------------------------------------------------
# Flat per-gate tables derived from the plan's step groups
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class NativeTables:
    """The plan's step groups flattened to per-gate CSR arrays.

    Gate *g* is the plan's global step-gate id (what the dirty-net
    consumer CSR indexes), its fanins are
    ``fan_nets[fan_indptr[g]:fan_indptr[g+1]]`` in evaluation order
    (identity padding stripped — the native loop handles ragged arity
    natively), and ``(op[g], invert[g])`` encode the reduction exactly
    as the numpy step groups do.
    """

    fan_indptr: np.ndarray
    fan_nets: np.ndarray
    out_net: np.ndarray
    op: np.ndarray
    invert: np.ndarray
    topo: np.ndarray  # gate ids in topological (level) order, for settle


# GateType -> (opcode, invert).  BUF/NOT become arity-1 OR reductions,
# mirroring the plan's _REDUCERS table.
def _op_table():
    from ..netlist.gates import GateType

    return {
        GateType.AND: (_OP_AND, 0),
        GateType.NAND: (_OP_AND, 1),
        GateType.OR: (_OP_OR, 0),
        GateType.NOR: (_OP_OR, 1),
        GateType.XOR: (_OP_XOR, 0),
        GateType.XNOR: (_OP_XOR, 1),
        GateType.BUF: (_OP_OR, 0),
        GateType.NOT: (_OP_OR, 1),
        GateType.MUX: (_OP_MUX, 0),
    }


def native_tables(plan: CompiledPlan) -> NativeTables:
    """Flatten (and memoize) ``plan``'s step groups for the native loop."""
    cached = getattr(plan, "_native_tables", None)
    if cached is not None:
        return cached

    import numpy as _np

    ops = _op_table()
    n = plan.num_step_gates
    out_net = _np.empty(n, dtype=_np.int64)
    op = _np.empty(n, dtype=_np.uint8)
    invert = _np.empty(n, dtype=_np.uint8)
    fans: List[List[int]] = [[] for _ in range(n)]
    for group in plan.step_groups:
        if group.kind == "pergate":
            for row, (gtype, fan) in enumerate(group.gates):
                g = group.offset + row
                out_net[g] = group.out_idx[row]
                op[g], invert[g] = ops[gtype]
                fans[g] = list(fan)
        elif group.kind == "mux":
            for row in range(group.size):
                g = group.offset + row
                out_net[g] = group.out_idx[row]
                op[g] = _OP_MUX
                invert[g] = 0
                fans[g] = group.fanin_idx[row].tolist()
        else:  # reduce: strip the identity padding (virtual rows)
            inv_rows = group.invert_rows
            if group.reduce_op is _np.bitwise_and:
                opc = _OP_AND
            elif group.reduce_op is _np.bitwise_or:
                opc = _OP_OR
            else:
                opc = _OP_XOR
            for row in range(group.size):
                g = group.offset + row
                out_net[g] = group.out_idx[row]
                op[g] = opc
                invert[g] = (
                    1 if (inv_rows is not None and inv_rows[row]) else 0
                )
                fans[g] = [
                    f
                    for f in group.fanin_idx[row].tolist()
                    if f < plan.num_nets
                ]
    counts = _np.fromiter((len(f) for f in fans), dtype=_np.int64, count=n)
    fan_indptr = _np.concatenate(
        (_np.zeros(1, dtype=_np.int64), _np.cumsum(counts))
    )
    fan_nets = _np.fromiter(
        (f for lst in fans for f in lst),
        dtype=_np.int64,
        count=int(counts.sum()),
    )
    # Level order is a topological order (fanins settle at strictly
    # lower levels), which is all the zero-delay settle pass needs.
    topo = _np.argsort(
        plan._step_gate_levels, kind="stable"
    ).astype(_np.int64)
    tables = NativeTables(fan_indptr, fan_nets, out_net, op, invert, topo)
    # Plans are immutable after construction; piggyback the memo.
    plan._native_tables = tables  # type: ignore[attr-defined]
    return tables


# ----------------------------------------------------------------------
# C extension backend
# ----------------------------------------------------------------------

_C_SOURCE = r"""
#include <stdint.h>
#include <string.h>

/* Zero-delay settle: evaluate every gate once in topological order,
 * writing directly into the state rows.  Order within a level is
 * irrelevant (fanins live at strictly lower levels) and every
 * operation is exact integer work, so the resulting state words are
 * bit-identical to the numpy levelized evaluation. */
void repro_settle(
    const int64_t *fan_indptr,
    const int64_t *fan_nets,
    const int64_t *out_net,
    const uint8_t *op,
    const uint8_t *invert,
    const int64_t *topo,       /* gate ids in topological order */
    int64_t num_gates,
    int64_t num_words,         /* tile width W */
    int64_t row_stride,        /* words per full state row */
    uint64_t *state,           /* base pointer at the tile offset */
    const uint64_t *mask)      /* (W,) tile slice */
{
    const int64_t W = num_words;
    for (int64_t t = 0; t < num_gates; t++) {
        int64_t g = topo[t];
        const int64_t *f = fan_nets + fan_indptr[g];
        int64_t nf = fan_indptr[g + 1] - fan_indptr[g];
        uint64_t *dst = state + out_net[g] * row_stride;
        if (op[g] == 3) {  /* MUX: fanin = (sel, d0, d1) */
            const uint64_t *sel = state + f[0] * row_stride;
            const uint64_t *d0 = state + f[1] * row_stride;
            const uint64_t *d1 = state + f[2] * row_stride;
            for (int64_t w = 0; w < W; w++)
                dst[w] = (sel[w] & d1[w]) | ((sel[w] ^ mask[w]) & d0[w]);
            continue;
        }
        const uint64_t *s0 = state + f[0] * row_stride;
        if (nf == 2) {
            const uint64_t *s1 = state + f[1] * row_stride;
            switch (op[g]) {
            case 0: for (int64_t w = 0; w < W; w++) dst[w] = s0[w] & s1[w]; break;
            case 1: for (int64_t w = 0; w < W; w++) dst[w] = s0[w] | s1[w]; break;
            default: for (int64_t w = 0; w < W; w++) dst[w] = s0[w] ^ s1[w]; break;
            }
        } else {
            for (int64_t w = 0; w < W; w++) dst[w] = s0[w];
            switch (op[g]) {
            case 0:
                for (int64_t j = 1; j < nf; j++) {
                    const uint64_t *src = state + f[j] * row_stride;
                    for (int64_t w = 0; w < W; w++) dst[w] &= src[w];
                }
                break;
            case 1:
                for (int64_t j = 1; j < nf; j++) {
                    const uint64_t *src = state + f[j] * row_stride;
                    for (int64_t w = 0; w < W; w++) dst[w] |= src[w];
                }
                break;
            default:
                for (int64_t j = 1; j < nf; j++) {
                    const uint64_t *src = state + f[j] * row_stride;
                    for (int64_t w = 0; w < W; w++) dst[w] ^= src[w];
                }
                break;
            }
        }
        if (invert[g])
            for (int64_t w = 0; w < W; w++) dst[w] ^= mask[w];
    }
}

/* Synchronous unit-delay wavefront relaxation over packed lane words.
 *
 * Mirrors CompiledPlan.unit_delay_planes step for step: build the
 * active-gate set from the dirty nets through the consumer CSR,
 * evaluate every active gate from the previous step's state (deferred
 * write-back), then write back, ripple-carry the XOR diffs into the
 * bit-plane toggle counters, and collect the next dirty set.
 *
 * One refinement over the literal numpy loop (it cannot change a
 * toggle bit): the first three carry levels of the toggle counters
 * are updated branchlessly (a zero carry writes the word back
 * unchanged); only the rare >=4-deep carry chain takes a
 * data-dependent branch.  Toggle counts decay roughly geometrically,
 * so this removes almost every mispredicted carry-loop exit.
 *
 * The caller tiles the lane words (num_words <= row_stride) so the
 * per-tile working set stays cache-sized and tiles with calmer lanes
 * stabilize early; lanes are independent, so tiling cannot change any
 * toggle bit.  All pointers into per-net arrays (state, planes, mask)
 * are pre-offset to the tile start and strided by row_stride.
 *
 * Returns the number of planes touched (>= 0), -1 if the relaxation
 * did not stabilize within max_steps, -2 on toggle-counter overflow
 * (both map to the SimulationError cases of the numpy kernels).
 */
long long repro_unit_delay(
    const int64_t *fan_indptr,
    const int64_t *fan_nets,
    const int64_t *out_net,
    const uint8_t *op,
    const uint8_t *invert,
    const int64_t *cons_indptr,
    const int64_t *cons_gate,
    int64_t num_nets,
    int64_t num_words,         /* tile width W */
    int64_t row_stride,        /* words per full state/plane row */
    int64_t max_steps,
    int64_t num_planes,        /* >= 3 (wrapper over-allocates) */
    uint64_t *state,           /* (num_nets + 2, row_stride), tile offset */
    const uint64_t *mask,      /* (W,) tile slice */
    uint64_t *planes,          /* (num_nets, num_planes, row_stride), tile offset */
    int64_t *dirty,            /* in: initial dirty nets; scratch cap num_nets */
    int64_t n_dirty,
    uint64_t *scratch,         /* (num_step_gates, W) tile-contiguous */
    int64_t *active,           /* scratch, cap num_step_gates */
    uint8_t *flags)            /* scratch, cap num_step_gates, zeroed */
{
    const int64_t W = num_words;
    (void)num_nets;
    int64_t used = 0;
    uint64_t any_c0 = 0, any_c1 = 0, any_d = 0;
    int stabilized = 0;

    for (int64_t step = 0; step < max_steps; step++) {
        if (n_dirty == 0) { stabilized = 1; break; }

        /* Dirty nets -> deduplicated active gate list. */
        int64_t n_active = 0;
        for (int64_t i = 0; i < n_dirty; i++) {
            int64_t net = dirty[i];
            for (int64_t j = cons_indptr[net]; j < cons_indptr[net + 1]; j++) {
                int64_t g = cons_gate[j];
                if (!flags[g]) { flags[g] = 1; active[n_active++] = g; }
            }
        }
        for (int64_t i = 0; i < n_active; i++) flags[active[i]] = 0;

        if (n_active == 0) {
            /* Dirty nets feed no gates: consume one quiescent step. */
            n_dirty = 0;
            continue;
        }

        /* Evaluate all active gates before writing anything back, so
         * every read sees the previous step (synchronous semantics). */
        for (int64_t i = 0; i < n_active; i++) {
            int64_t g = active[i];
            const int64_t *f = fan_nets + fan_indptr[g];
            int64_t nf = fan_indptr[g + 1] - fan_indptr[g];
            uint64_t *dst = scratch + i * W;
            if (op[g] == 3) {  /* MUX: fanin = (sel, d0, d1) */
                const uint64_t *sel = state + f[0] * row_stride;
                const uint64_t *d0 = state + f[1] * row_stride;
                const uint64_t *d1 = state + f[2] * row_stride;
                for (int64_t w = 0; w < W; w++)
                    dst[w] = (sel[w] & d1[w]) | ((sel[w] ^ mask[w]) & d0[w]);
            } else {
                const uint64_t *s0 = state + f[0] * row_stride;
                if (nf == 2) {  /* dominant case: one fused pass */
                    const uint64_t *s1 = state + f[1] * row_stride;
                    switch (op[g]) {
                    case 0: for (int64_t w = 0; w < W; w++) dst[w] = s0[w] & s1[w]; break;
                    case 1: for (int64_t w = 0; w < W; w++) dst[w] = s0[w] | s1[w]; break;
                    default: for (int64_t w = 0; w < W; w++) dst[w] = s0[w] ^ s1[w]; break;
                    }
                } else {
                    for (int64_t w = 0; w < W; w++) dst[w] = s0[w];
                    switch (op[g]) {
                    case 0:
                        for (int64_t j = 1; j < nf; j++) {
                            const uint64_t *src = state + f[j] * row_stride;
                            for (int64_t w = 0; w < W; w++) dst[w] &= src[w];
                        }
                        break;
                    case 1:
                        for (int64_t j = 1; j < nf; j++) {
                            const uint64_t *src = state + f[j] * row_stride;
                            for (int64_t w = 0; w < W; w++) dst[w] |= src[w];
                        }
                        break;
                    default:
                        for (int64_t j = 1; j < nf; j++) {
                            const uint64_t *src = state + f[j] * row_stride;
                            for (int64_t w = 0; w < W; w++) dst[w] ^= src[w];
                        }
                        break;
                    }
                }
            }
            if (invert[g])
                for (int64_t w = 0; w < W; w++) dst[w] ^= mask[w];
        }

        /* Write back, accumulate toggles, collect the next dirty set.
         * Output nets are disjoint across gates, so order is free. */
        n_dirty = 0;
        for (int64_t i = 0; i < n_active; i++) {
            int64_t o = out_net[active[i]];
            uint64_t *row = state + o * row_stride;
            const uint64_t *nv = scratch + i * W;
            int changed = 0;
            for (int64_t w = 0; w < W; w++) {
                uint64_t d = row[w] ^ nv[w];
                if (!d) continue;
                changed = 1;
                row[w] = nv[w];
                any_d = 1;
                /* Net-major planes: all counter bits of one net sit
                 * in adjacent rows, so the carry chain stays on the
                 * same few cache lines.  First three carry levels are
                 * branchless; deeper chains are rare. */
                uint64_t *p = planes + o * num_planes * row_stride + w;
                uint64_t c0 = p[0] & d;
                p[0] ^= d;
                uint64_t c1 = p[row_stride] & c0;
                p[row_stride] ^= c0;
                uint64_t c2 = p[2 * row_stride] & c1;
                p[2 * row_stride] ^= c1;
                any_c0 |= c0;
                any_c1 |= c1;
                if (c2) {
                    int64_t k = 3;
                    uint64_t *q = p + 3 * row_stride;
                    uint64_t dd = c2;
                    while (dd) {
                        if (k >= num_planes) return -2;
                        uint64_t carry = *q & dd;
                        *q ^= dd;
                        dd = carry;
                        q += row_stride;
                        k++;
                    }
                    if (k > used) used = k;
                }
            }
            if (changed) dirty[n_dirty++] = o;
        }
    }

    if (!stabilized) return -1;
    {
        int64_t base = any_c1 ? 3 : (any_c0 ? 2 : (any_d ? 1 : 0));
        if (base > used) used = base;
    }
    return used;
}

/* Exact per-(group, lane) toggle totals for one bit-plane.
 *
 * For every capacitance group g (net ids perm[cuts[g]:cuts[g+1]]),
 * adds weight * bit(lane) of each net's plane row into the group's
 * uint32 lane totals.  Rows accumulate in <=255-row chunks into one
 * byte-per-lane accumulator: the multiply trick spreads each 8-bit
 * slice of a row word into eight bytes of a uint64, so one add
 * advances eight lanes (byte sums cannot overflow at <=255 rows).
 * Everything is exact integer arithmetic — the caller's single float
 * contraction over the finished totals is what fixes the energies, so
 * this path and the numpy fallback produce bit-identical energies.
 *
 * W is capped at 64 words (the caller tiles wider blocks) to bound
 * the on-stack accumulator.
 */
void repro_charge_gtot(
    const uint64_t *plane,   /* plane k base pointer (rows may be strided) */
    int64_t row_stride,      /* words between consecutive net rows */
    int64_t W,               /* words per row, <= 64 */
    const int64_t *perm,     /* nonzero-cap net ids, group-sorted */
    const int64_t *cuts,     /* (num_groups + 1,) boundaries into perm */
    int64_t num_groups,
    uint32_t weight,         /* plane weight 2^k */
    uint32_t *gtot)          /* (num_groups, W*64) running totals */
{
    uint64_t acc[8 * 64];
    for (int64_t g = 0; g < num_groups; g++) {
        uint32_t *dst = gtot + g * W * 64;
        int64_t hi = cuts[g + 1];
        for (int64_t s = cuts[g]; s < hi; s += 255) {
            int64_t e = (s + 255 < hi) ? s + 255 : hi;
            memset(acc, 0, (size_t)(W * 8) * sizeof(uint64_t));
            int any = 0;
            for (int64_t i = s; i < e; i++) {
                const uint64_t *row = plane + perm[i] * row_stride;
                for (int64_t w = 0; w < W; w++) {
                    uint64_t b = row[w];
                    if (!b) continue;
                    any = 1;
                    uint64_t *a = acc + w * 8;
                    for (int j = 0; j < 8; j++) {
                        uint64_t chunk = (b >> (8 * j)) & 0xFF;
                        a[j] += ((chunk * 0x8040201008040201ULL) >> 7)
                                & 0x0101010101010101ULL;
                    }
                }
            }
            if (!any) continue;
            /* The multiply spread lands chunk bit m in byte 7-m. */
            for (int64_t l = 0; l < W * 64; l++) {
                uint32_t c =
                    (uint32_t)((acc[l >> 3] >> ((7 - (l & 7)) * 8)) & 0xFF);
                if (c) dst[l] += weight * c;
            }
        }
    }
}
"""


def _cache_dir() -> str:
    override = os.environ.get("REPRO_NATIVE_CACHE")
    if override:
        return override
    base = os.environ.get("XDG_CACHE_HOME") or os.path.expanduser("~/.cache")
    return os.path.join(base, "repro", "native")


def _find_cc() -> Optional[str]:
    override = os.environ.get("REPRO_NATIVE_CC")
    if override:
        return shutil.which(override) or (
            override if os.path.exists(override) else None
        )
    for cand in ("cc", "gcc", "clang"):
        path = shutil.which(cand)
        if path:
            return path
    return None


def _build_cext() -> ctypes.CDLL:
    """Compile (once, content-addressed) and load the C kernel."""
    cc = _find_cc()
    if cc is None:
        raise SimulationError("no C compiler found for the native kernel")
    digest = hashlib.sha256(
        (_C_SOURCE + "\x00" + cc).encode()
    ).hexdigest()[:16]
    cache = _cache_dir()
    os.makedirs(cache, exist_ok=True)
    so_path = os.path.join(cache, f"repro_native_{digest}.so")
    if not os.path.exists(so_path):
        src_path = os.path.join(cache, f"repro_native_{digest}.c")
        with open(src_path, "w") as fh:
            fh.write(_C_SOURCE)
        # Compile to a unique temp name, then atomically publish — two
        # processes racing the first build both end up with a good .so.
        # The cache is host-local, so -march=native is safe; fall back
        # to a generic build on compilers that reject it.
        fd, tmp_path = tempfile.mkstemp(suffix=".so", dir=cache)
        os.close(fd)
        try:
            base = ["-O3", "-fPIC", "-shared", "-o", tmp_path, src_path]
            try:
                subprocess.run(
                    [cc, "-march=native", "-funroll-loops"] + base,
                    check=True,
                    capture_output=True,
                    timeout=120,
                )
            except subprocess.CalledProcessError:
                subprocess.run(
                    [cc] + base,
                    check=True,
                    capture_output=True,
                    timeout=120,
                )
            os.replace(tmp_path, so_path)
        finally:
            if os.path.exists(tmp_path):
                os.unlink(tmp_path)
    lib = ctypes.CDLL(so_path)
    fn = lib.repro_unit_delay
    fn.restype = ctypes.c_longlong
    # Must list every parameter: a missing argtype would marshal the
    # trailing pointers as 32-bit ints and truncate them.
    # (7 table/CSR pointers, 5 sizes, state/mask/planes pointers, the
    # dirty pointer, the dirty count, 3 scratch pointers.)
    fn.argtypes = (
        [ctypes.c_void_p] * 7
        + [ctypes.c_longlong] * 5
        + [ctypes.c_void_p] * 3
        + [ctypes.c_void_p]
        + [ctypes.c_longlong]
        + [ctypes.c_void_p] * 3
    )
    settle = lib.repro_settle
    settle.restype = None
    settle.argtypes = (
        [ctypes.c_void_p] * 6
        + [ctypes.c_longlong] * 3
        + [ctypes.c_void_p] * 2
    )
    charge = lib.repro_charge_gtot
    charge.restype = None
    charge.argtypes = [
        ctypes.c_void_p,
        ctypes.c_longlong,
        ctypes.c_longlong,
        ctypes.c_void_p,
        ctypes.c_void_p,
        ctypes.c_longlong,
        ctypes.c_uint32,
        ctypes.c_void_p,
    ]
    return lib


class _CExtBackend:
    name = "cext"

    def __init__(self) -> None:
        self._lib = _build_cext()
        self._fn = self._lib.repro_unit_delay
        self._settle = self._lib.repro_settle
        self._charge = self._lib.repro_charge_gtot

    def charge_gtot(
        self,
        plane: np.ndarray,
        perm: np.ndarray,
        cuts: np.ndarray,
        weight: int,
        gtot: np.ndarray,
    ) -> None:
        self._charge(
            plane.ctypes.data,
            plane.strides[0] // 8,
            plane.shape[1],
            perm.ctypes.data,
            cuts.ctypes.data,
            cuts.shape[0] - 1,
            weight,
            gtot.ctypes.data,
        )

    def settle(
        self,
        plan: CompiledPlan,
        tables: NativeTables,
        state: np.ndarray,
        mask: np.ndarray,
    ) -> None:
        self._settle(
            tables.fan_indptr.ctypes.data,
            tables.fan_nets.ctypes.data,
            tables.out_net.ctypes.data,
            tables.op.ctypes.data,
            tables.invert.ctypes.data,
            tables.topo.ctypes.data,
            tables.out_net.shape[0],
            state.shape[1],
            state.shape[1],
            state.ctypes.data,
            mask.ctypes.data,
        )

    def run(
        self,
        plan: CompiledPlan,
        tables: NativeTables,
        state: np.ndarray,
        mask: np.ndarray,
        planes3: np.ndarray,
        dirty: np.ndarray,
        n_dirty: int,
        max_steps: int,
        t0: int,
        t1: int,
    ) -> int:
        row_stride = state.shape[1]
        num_words = t1 - t0
        num_gates = tables.out_net.shape[0]
        scratch = _reusable(
            "cext_scratch", (max(1, num_gates), num_words), np.uint64, False
        )
        active = _reusable("cext_active", (max(1, num_gates),), np.int64, False)
        # flags is self-cleaning inside the C loop on the success path
        # but may be left dirty when the kernel bails out early, so
        # zero it on every (cheap, tiny) reuse.
        flags = _reusable("cext_flags", (max(1, num_gates),), np.uint8, True)
        cons_indptr, cons_gate = _consumer_csr(plan)
        # ctypes releases the GIL for the call, so concurrent worker
        # threads run native work in parallel.
        return int(
            self._fn(
                tables.fan_indptr.ctypes.data,
                tables.fan_nets.ctypes.data,
                tables.out_net.ctypes.data,
                tables.op.ctypes.data,
                tables.invert.ctypes.data,
                cons_indptr.ctypes.data,
                cons_gate.ctypes.data,
                plan.num_nets,
                num_words,
                row_stride,
                max_steps,
                planes3.shape[1],
                state.ctypes.data + t0 * 8,
                mask.ctypes.data + t0 * 8,
                planes3.ctypes.data + t0 * 8,
                dirty.ctypes.data,
                n_dirty,
                scratch.ctypes.data,
                active.ctypes.data,
                flags.ctypes.data,
            )
        )


def _consumer_csr(plan: CompiledPlan) -> Tuple[np.ndarray, np.ndarray]:
    """The plan's dirty-net consumer CSR as contiguous int64 (memoized)."""
    cached = getattr(plan, "_native_consumer_csr", None)
    if cached is None:
        cached = (
            np.ascontiguousarray(plan._consumer_indptr, dtype=np.int64),
            np.ascontiguousarray(plan._consumer_gate_ids, dtype=np.int64),
        )
        plan._native_consumer_csr = cached  # type: ignore[attr-defined]
    return cached


# ----------------------------------------------------------------------
# Backend selection
# ----------------------------------------------------------------------

_BACKEND_LOCK = threading.Lock()
_UNSET = object()
_BACKEND: object = _UNSET
_FALLBACK_LOGGED = False


def _probe_backend() -> Optional[object]:
    choice = os.environ.get("REPRO_NATIVE_BACKEND", "auto")
    if choice not in _BACKENDS:
        raise ConfigError(
            f"unknown REPRO_NATIVE_BACKEND value {choice!r}; "
            f"valid values are {', '.join(_BACKENDS)}"
        )
    if choice == "none":
        return None
    try:
        return _CExtBackend()
    except Exception:
        return None


def load_backend() -> Optional[object]:
    """The process-wide accelerator backend, probed once (or ``None``)."""
    global _BACKEND
    if _BACKEND is _UNSET:
        with _BACKEND_LOCK:
            if _BACKEND is _UNSET:
                _BACKEND = _probe_backend()
    return None if _BACKEND is _UNSET else _BACKEND  # type: ignore[return-value]


def reset_backend() -> None:
    """Forget the probed backend (tests flip env knobs between cases)."""
    global _BACKEND, _FALLBACK_LOGGED
    with _BACKEND_LOCK:
        _BACKEND = _UNSET
        _FALLBACK_LOGGED = False


def native_available() -> bool:
    """Whether this process can actually run the native tier."""
    return load_backend() is not None


def backend_name() -> Optional[str]:
    """``"cext"`` when available, else ``None``."""
    backend = load_backend()
    return None if backend is None else backend.name


def charge_accelerator():
    """The C ``gtot`` accumulator when available, else ``None``.

    Used by :func:`repro.sim.compiled.charge_planes` to run the exact
    integer part of the capacitance charge natively.  The numpy
    fallback computes the same exact integer totals, so energies are
    bit-identical either way.
    """
    backend = load_backend()
    return None if backend is None else backend.charge_gtot


def record_fallback() -> None:
    """Count (and log, once) a native -> compiled degradation."""
    global _FALLBACK_LOGGED
    _FALLBACK_TOTAL.inc()
    if not _FALLBACK_LOGGED:
        _FALLBACK_LOGGED = True
        _LOG.warning(
            "REPRO_SIM_KERNEL=native requested but the C kernel is "
            "unavailable (no C compiler, or REPRO_NATIVE_BACKEND=none); "
            "falling back to the compiled kernel"
        )


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------


def unit_delay_planes_native(
    plan: CompiledPlan,
    v1_words: np.ndarray,
    v2_words: np.ndarray,
    mask: np.ndarray,
    max_steps: Optional[int] = None,
) -> Tuple[List[np.ndarray], int]:
    """Native-loop twin of :meth:`CompiledPlan.unit_delay_planes`.

    Settling, the input-transition accumulation and the returned plane
    layout are the shared numpy code paths; only the integer wavefront
    loop runs natively.  The returned planes (views into one contiguous
    block) and plane count feed :func:`repro.sim.compiled.charge_planes`
    unchanged, so energies are float-identical to the compiled tier.
    """
    backend = load_backend()
    if backend is None:
        raise SimulationError("no native backend available")
    if max_steps is None:
        max_steps = plan.depth + 4
    v1_words = np.ascontiguousarray(v1_words, dtype=np.uint64)
    v2_words = np.ascontiguousarray(v2_words, dtype=np.uint64)
    num_words = v1_words.shape[1]
    mask = np.ascontiguousarray(mask, dtype=np.uint64)
    tables = native_tables(plan)

    # Settle at v1 — native topological evaluation writes the gate rows
    # in place; inputs and constants are seeded exactly as the numpy
    # settle does, so the state words are bit-identical to it.
    state = _reusable(
        "state", (plan.num_nets + 2, num_words), np.uint64, False
    )
    state[: plan.num_inputs] = v1_words & mask
    if plan.const0_idx.size:
        state[plan.const0_idx] = np.uint64(0)
    if plan.const1_idx.size:
        state[plan.const1_idx] = mask
    backend.settle(plan, tables, state, mask)
    state[plan.zeros_row] = np.uint64(0)
    state[plan.ones_row] = mask

    num_planes = max(1, int(max_steps + 1).bit_length())
    # Net-major counter block: every net's counter bits are contiguous,
    # which keeps the native ripple-carry on one cache line per net.
    # The per-plane views handed back are strided but content-identical
    # to the plane-major layout of the numpy kernels.  At least three
    # planes are allocated because the C kernel updates the first three
    # carry levels branchlessly; the logical overflow bound is enforced
    # on planes_used below.
    alloc_planes = max(3, num_planes)
    planes3 = _reusable(
        "planes3", (plan.num_nets, alloc_planes, num_words), np.uint64, True
    )
    planes = [planes3[:, k, :] for k in range(alloc_planes)]

    # Input transitions (same shared helper as the numpy kernels).
    v2_masked = v2_words & mask
    in_diff = state[: plan.num_inputs] ^ v2_masked
    dirty = np.flatnonzero(in_diff.any(axis=1))
    planes_used = accumulate_planes(planes, dirty, in_diff[dirty])
    state[: plan.num_inputs] = v2_masked

    # Tile the wavefront loop over word ranges: lanes are independent,
    # so per-tile relaxation writes exactly the same plane bits while
    # the per-tile working set stays cache-sized and calm tiles
    # stabilize early.
    dirty_buf = np.empty(max(1, plan.num_nets), dtype=np.int64)
    for t0 in range(0, num_words, _TILE_WORDS):
        t1 = min(t0 + _TILE_WORDS, num_words)
        tile_dirty = dirty[in_diff[dirty, t0:t1].any(axis=1)]
        dirty_buf[: tile_dirty.size] = tile_dirty
        rc = backend.run(
            plan,
            tables,
            state,
            mask,
            planes3,
            dirty_buf,
            int(tile_dirty.size),
            int(max_steps),
            t0,
            t1,
        )
        if rc == -1:
            raise SimulationError(
                "unit-delay simulation did not stabilize — "
                "invariant broken"
            )
        if rc == -2:
            raise SimulationError(
                "toggle counter overflow — plane allocation "
                "invariant broken"
            )
        planes_used = max(planes_used, int(rc))
    if planes_used > num_planes:
        # Counts outgrew the logical plane budget for max_steps; the
        # numpy kernels raise here, so the native tier must as well.
        raise SimulationError(
            "toggle counter overflow — plane allocation invariant broken"
        )
    return planes[:num_planes], planes_used
