"""Hierarchical spans: the pipeline's one event record.

The metrics registry answers "how much, in aggregate".  Spans answer
"what happened, in order, and where did the time go" by arranging timed
phases, with their attributes, into a tree that crosses every process
boundary the pipeline has:

    http.request            (server thread, parented on the client's
      job.queue_wait         traceparent header)
      job.claim
      job.run               (worker thread, re-attached from the job row)
        population.build    (this subtree in the job's worker process)
        sim.compile         (inside the plan cache, on a miss)
        estimator.run       (possibly in a pool child process)
          estimator.hyper_sample   (one per k)
            mle.fit
      job.commit

Each span's attributes carry what its phase computed; the load-bearing
one is ``estimator.hyper_sample``, which holds the paper's Figure 4
loop step by step: k, the fitted (α̂, β̂, μ̂) or the fallback reason,
the relative CI half-width and the cumulative unit count.  Events with
no duration (a task retry, a cache lookup) are zero-length spans from
:meth:`SpanRecorder.emit`.  The attribute schema of every span name
lives in ``docs/observability.md``.  :meth:`SpanRecorder.open` streams
each finished span to a JSONL file as one line — the ``--trace FILE``
format that ``repro report --metrics FILE`` reads back.

Design contract (same as the rest of :mod:`repro.obs`):

* **Disabled by default, single flag check.**  Every public entry point
  returns a shared null object after one attribute test; uninstrumented
  and instrumented-but-disabled code paths are indistinguishable at the
  2% level asserted by ``benchmarks/bench_obs_overhead.py``.
* **Bit-identical outputs.**  Span/trace IDs come from :func:`uuid.uuid4`
  and timing from ``time.perf_counter`` — the numpy RNG streams that
  drive the estimator are never touched, so enabling spans cannot change
  a single estimate.
* **Snapshot/merge.**  Pool worker processes record spans locally and
  ship them back with each task result exactly like metric deltas;
  failed attempts are discarded and retried attempts re-record, so the
  final tree reflects the attempts that produced the results.  Merged
  spans reach the JSONL sink like local ones; a worker never writes to
  the sink it inherited.

Context propagation uses a :class:`contextvars.ContextVar`, which is
per-thread by default — each service worker thread attaches its job's
context explicitly and HTTP handler threads never leak theirs.
"""

from __future__ import annotations

import json
import os
import threading
import time
import uuid
from collections import OrderedDict
from contextvars import ContextVar
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Union

__all__ = [
    "SpanContext",
    "Span",
    "SpanRecorder",
    "get_span_recorder",
    "jsonable",
    "new_trace_id",
    "new_span_id",
    "parse_traceparent",
    "build_span_tree",
    "to_chrome_trace",
    "render_span_waterfall",
]

#: Distinct traces retained in the in-memory buffer (LRU evicted).
DEFAULT_MAX_TRACES = 256
#: Finished spans retained per trace (oldest dropped beyond this).
DEFAULT_MAX_SPANS_PER_TRACE = 8192


def jsonable(value):
    """Best-effort JSON sanitizer for span attributes.

    Numpy scalars and arrays are unwrapped, non-finite floats become the
    strings ``"nan"``/``"inf"``/``"-inf"`` (JSON has no literal for
    them), and anything else unknown is ``str()``-ed.  Also used by
    :meth:`repro.experiments.base.ExperimentTable.to_dict`, so
    experiment checkpoints and span records share one JSON coercion.
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        if value != value:  # nan
            return "nan"
        if value in (float("inf"), float("-inf")):
            return "inf" if value > 0 else "-inf"
        return value
    if hasattr(value, "tolist"):  # numpy array
        return jsonable(value.tolist())
    if hasattr(value, "item"):  # numpy scalar
        return jsonable(value.item())
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    return str(value)


def new_trace_id() -> str:
    """A fresh 32-hex-digit trace id (W3C trace-context width)."""
    return uuid.uuid4().hex


def new_span_id() -> str:
    """A fresh 16-hex-digit span id (W3C trace-context width)."""
    return uuid.uuid4().hex[:16]


@dataclass(frozen=True)
class SpanContext:
    """The propagatable half of a span: which trace, which parent.

    ``span_id`` may be ``None`` for a context that names a trace without
    a live parent span (e.g. a job whose submitting request recorded no
    span); children parented on it become roots of the trace's tree.
    """

    trace_id: str
    span_id: Optional[str] = None

    def to_traceparent(self) -> str:
        """W3C ``traceparent`` header value (version 00, sampled)."""
        return f"00-{self.trace_id}-{self.span_id or new_span_id()}-01"


def parse_traceparent(header: Optional[str]) -> Optional[SpanContext]:
    """Parse a W3C ``traceparent`` header; ``None`` if absent/malformed."""
    if not header:
        return None
    parts = header.strip().lower().split("-")
    if len(parts) != 4:
        return None
    version, trace_id, span_id, flags = parts
    if len(version) != 2 or len(trace_id) != 32 or len(span_id) != 16 or len(flags) != 2:
        return None
    try:
        int(version, 16), int(trace_id, 16), int(span_id, 16), int(flags, 16)
    except ValueError:
        return None
    if version == "ff" or set(trace_id) == {"0"} or set(span_id) == {"0"}:
        return None
    return SpanContext(trace_id=trace_id, span_id=span_id)


class Span:
    """A live (unfinished) span.  Created by :meth:`SpanRecorder.start`."""

    __slots__ = (
        "trace_id",
        "span_id",
        "parent_id",
        "name",
        "start_ts",
        "attributes",
        "_start_mono",
        "_token",
    )

    def __init__(self, trace_id: str, span_id: str, parent_id: Optional[str], name: str, attributes: Dict[str, Any]):
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start_ts = time.time()
        self.attributes = attributes
        self._start_mono = time.perf_counter()
        self._token = None

    def set(self, **attributes: Any) -> None:
        """Attach attributes to the span before it finishes."""
        self.attributes.update(attributes)

    def context(self) -> SpanContext:
        return SpanContext(trace_id=self.trace_id, span_id=self.span_id)


class _NullSpan:
    """Shared no-op stand-in returned on every disabled fast path.

    Doubles as a context manager so ``with recorder.span(...)`` costs a
    single flag check when spans are off.
    """

    __slots__ = ()

    def set(self, **attributes: Any) -> None:
        pass

    def context(self) -> Optional[SpanContext]:
        return None

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class _ActiveSpan:
    """Context-manager wrapper pairing ``start`` with ``finish``."""

    __slots__ = ("_recorder", "_name", "_attributes", "_span")

    def __init__(self, recorder: "SpanRecorder", name: str, attributes: Dict[str, Any]):
        self._recorder = recorder
        self._name = name
        self._attributes = attributes
        self._span = None

    def __enter__(self):
        self._span = self._recorder.start(self._name, **self._attributes)
        return self._span if self._span is not None else _NULL_SPAN

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is None:
            self._recorder.finish(self._span)
        else:
            self._recorder.finish(
                self._span,
                status="error",
                error=f"{exc_type.__name__}: {exc}",
            )
        return False


class SpanRecorder:
    """Process-wide span buffer with an ambient current-span context.

    Finished spans are plain dicts grouped by ``trace_id`` in an LRU
    buffer; while a JSONL sink is open (:meth:`open`) each one is also
    written to it as one line.
    """

    def __init__(
        self,
        enabled: bool = False,
        max_traces: int = DEFAULT_MAX_TRACES,
        max_spans_per_trace: int = DEFAULT_MAX_SPANS_PER_TRACE,
    ):
        self._enabled = bool(enabled)
        self._max_traces = int(max_traces)
        self._max_spans = int(max_spans_per_trace)
        self._lock = threading.Lock()
        self._traces: "OrderedDict[str, List[dict]]" = OrderedDict()
        self._seq = 0
        self._sink = None
        self._current: "ContextVar[Optional[SpanContext]]" = ContextVar(
            "repro_current_span", default=None
        )

    # -- enablement -----------------------------------------------------
    @property
    def enabled(self) -> bool:
        return self._enabled

    def enable(self) -> None:
        self._enabled = True

    def disable(self) -> None:
        self._enabled = False

    def reset(self) -> None:
        """Drop all buffered spans (enablement and sink unchanged)."""
        with self._lock:
            self._traces.clear()

    # -- JSONL sink -----------------------------------------------------
    def open(self, path: Union[str, Path]) -> None:
        """Enable recording and write every finished span to ``path``,
        one JSON object per line (truncating the file).

        The file is unbuffered, so each line reaches the OS as it is
        written: a process forked later inherits no pending lines it
        could write a second time.
        """
        self.close()
        self._sink = open(path, "wb", buffering=0)
        self._enabled = True

    def close(self) -> None:
        """Close the sink, if open (enablement unchanged).

        Writes nothing, so a forked pool worker calls it to drop the
        sink it inherited.
        """
        with self._lock:
            sink, self._sink = self._sink, None
        if sink is not None:
            sink.close()

    # -- ambient context ------------------------------------------------
    def current_context(self) -> Optional[SpanContext]:
        return self._current.get()

    def attach(self, context: Optional[SpanContext]):
        """Set the ambient context for this thread; returns a reset token."""
        return self._current.set(context)

    def detach(self, token) -> None:
        try:
            self._current.reset(token)
        except ValueError:
            # Token from a different context (finished on another
            # thread); fall back to clearing the ambient slot.
            self._current.set(None)

    # -- recording ------------------------------------------------------
    def start(self, name: str, /, parent: Optional[SpanContext] = None, **attributes: Any) -> Optional[Span]:
        """Open a span (``None`` when disabled).

        The new span parents on ``parent`` when given, else on the
        ambient context; it becomes the ambient context until finished.
        """
        if not self._enabled:
            return None
        ctx = parent if parent is not None else self._current.get()
        if ctx is not None:
            trace_id, parent_id = ctx.trace_id, ctx.span_id
        else:
            trace_id, parent_id = new_trace_id(), None
        span = Span(trace_id, new_span_id(), parent_id, name, attributes)
        span._token = self._current.set(span.context())
        return span

    def finish(self, span: Optional[Span], status: str = "ok", **attributes: Any) -> None:
        """Close a span, restore the ambient context, buffer the record."""
        if span is None:
            return
        duration = time.perf_counter() - span._start_mono
        if attributes:
            span.attributes.update(attributes)
        if span._token is not None:
            self.detach(span._token)
            span._token = None
        record = {
            "trace_id": span.trace_id,
            "span_id": span.span_id,
            "parent_id": span.parent_id,
            "name": span.name,
            "start_ts": span.start_ts,
            "duration_s": duration,
            "status": status,
            "attributes": jsonable(span.attributes),
        }
        self._record(record)

    def span(self, name: str, /, **attributes: Any):
        """``with recorder.span("phase") as s:`` — starts on entry,
        finishes on exit (status ``error`` if the body raised)."""
        if not self._enabled:
            return _NULL_SPAN
        return _ActiveSpan(self, name, attributes)

    def emit(
        self,
        name: str,
        /,
        parent: Optional[SpanContext] = None,
        start_ts: Optional[float] = None,
        duration_s: float = 0.0,
        status: str = "ok",
        **attributes: Any,
    ) -> Optional[dict]:
        """Record a span retroactively from known timestamps.

        Used for phases observed after the fact — e.g. a job's queue
        wait, reconstructed from ``created_at``/``started_at`` once a
        worker claims it.  Does not touch the ambient context.
        """
        if not self._enabled:
            return None
        ctx = parent if parent is not None else self._current.get()
        if ctx is not None:
            trace_id, parent_id = ctx.trace_id, ctx.span_id
        else:
            trace_id, parent_id = new_trace_id(), None
        record = {
            "trace_id": trace_id,
            "span_id": new_span_id(),
            "parent_id": parent_id,
            "name": name,
            "start_ts": time.time() if start_ts is None else float(start_ts),
            "duration_s": float(duration_s),
            "status": status,
            "attributes": jsonable(attributes),
        }
        self._record(record)
        return record

    def _record(self, record: dict) -> None:
        line = None
        if self._sink is not None:
            line = (json.dumps(record, separators=(",", ":")) + "\n").encode()
        with self._lock:
            if line is not None and self._sink is not None:
                self._sink.write(line)
            self._seq += 1
            record["_seq"] = self._seq
            spans = self._traces.get(record["trace_id"])
            if spans is None:
                spans = []
                self._traces[record["trace_id"]] = spans
                while len(self._traces) > self._max_traces:
                    self._traces.popitem(last=False)
            else:
                self._traces.move_to_end(record["trace_id"])
            spans.append(record)
            if len(spans) > self._max_spans:
                del spans[0]

    # -- reading / shipping ---------------------------------------------
    @staticmethod
    def _public(record: dict) -> dict:
        return {k: v for k, v in record.items() if k != "_seq"}

    def spans_for_trace(self, trace_id: str) -> List[dict]:
        """Finished spans of one trace, in completion order."""
        with self._lock:
            records = list(self._traces.get(trace_id, ()))
        return [self._public(r) for r in records]

    def snapshot(self, reset: bool = False) -> List[dict]:
        """All buffered spans as a flat list (for shipping to a parent
        process); ``reset=True`` clears the buffer atomically."""
        with self._lock:
            records = [r for spans in self._traces.values() for r in spans]
            records.sort(key=lambda r: r["_seq"])
            if reset:
                self._traces.clear()
        return [self._public(r) for r in records]

    def merge(self, spans: Optional[Iterable[dict]]) -> None:
        """Fold spans shipped from another process into the buffer.

        Works while disabled (the aggregating parent may have recorded
        nothing itself), mirroring ``MetricsRegistry.merge``.
        """
        if not spans:
            return
        for record in spans:
            self._record(dict(record))

    # -- failed-attempt discard -----------------------------------------
    def marker(self) -> int:
        """An opaque high-water mark for :meth:`discard_after`."""
        with self._lock:
            return self._seq

    def discard_after(self, marker: int, trace_id: Optional[str] = None) -> int:
        """Drop spans recorded after ``marker`` (optionally only those of
        one trace) — the failed-attempt counterpart of the metrics
        baseline/restore dance.  Returns the number discarded."""
        dropped = 0
        with self._lock:
            for tid in list(self._traces):
                if trace_id is not None and tid != trace_id:
                    continue
                spans = self._traces[tid]
                kept = [r for r in spans if r["_seq"] <= marker]
                dropped += len(spans) - len(kept)
                if kept:
                    self._traces[tid] = kept
                else:
                    del self._traces[tid]
        return dropped


_GLOBAL_SPANS = SpanRecorder()


def _fresh_lock_after_fork() -> None:
    # A child forked while another thread held the lock would inherit it
    # held for good; whoever forks it resets the spans it inherited.
    _GLOBAL_SPANS._lock = threading.Lock()


os.register_at_fork(after_in_child=_fresh_lock_after_fork)


def get_span_recorder() -> SpanRecorder:
    """The process-wide span recorder (disabled until enabled)."""
    return _GLOBAL_SPANS


# -- presentation -------------------------------------------------------
def build_span_tree(spans: Iterable[dict]) -> List[dict]:
    """Arrange flat span records into a forest.

    Each node is a copy of its record with a ``children`` list (sorted
    by start time).  Spans whose parent is unknown — e.g. parented on a
    client-side span that was never shipped — become roots.
    """
    nodes = {}
    for record in spans:
        node = dict(record)
        node["children"] = []
        nodes[node["span_id"]] = node
    roots: List[dict] = []
    for node in nodes.values():
        parent = nodes.get(node.get("parent_id"))
        if parent is not None and parent is not node:
            parent["children"].append(node)
        else:
            roots.append(node)
    def sort(children: List[dict]) -> None:
        children.sort(key=lambda n: (n.get("start_ts") or 0.0, n["span_id"]))
        for child in children:
            sort(child["children"])
    sort(roots)
    return roots


def to_chrome_trace(spans: Iterable[dict]) -> dict:
    """Chrome trace-event JSON (``ph: "X"`` complete events, microsecond
    timestamps) — load the file at https://ui.perfetto.dev."""
    events = []
    for record in spans:
        attributes = dict(record.get("attributes") or {})
        attributes["span_id"] = record["span_id"]
        if record.get("parent_id"):
            attributes["parent_id"] = record["parent_id"]
        if record.get("status") and record["status"] != "ok":
            attributes["status"] = record["status"]
        events.append(
            {
                "name": record["name"],
                "ph": "X",
                "ts": round(float(record["start_ts"]) * 1e6, 3),
                "dur": round(float(record["duration_s"]) * 1e6, 3),
                "pid": 1,
                "tid": 1,
                "cat": "repro",
                "args": attributes,
            }
        )
    events.sort(key=lambda e: e["ts"])
    return {"traceEvents": events, "displayTimeUnit": "ms"}


_INTERESTING_ATTRS = ("endpoint", "method", "k", "circuit", "job_id", "num_pairs", "m")


def render_span_waterfall(spans: List[dict], width: int = 32) -> str:
    """A fixed-width text waterfall of one trace's span tree."""
    if not spans:
        return "(no spans)"
    t0 = min(float(s["start_ts"]) for s in spans)
    t1 = max(float(s["start_ts"]) + float(s["duration_s"]) for s in spans)
    total = max(t1 - t0, 1e-9)
    # One walk of the tree gives every row its indented label, and so
    # the label column width, in time linear in the span count.
    rows = []
    def walk(node: dict, depth: int) -> None:
        rows.append((node, "  " * depth + _span_label(node)))
        for child in node["children"]:
            walk(child, depth + 1)
    for root in build_span_tree(spans):
        walk(root, 0)
    label_width = 4 + max((len(label) for _, label in rows), default=0)
    lines = [
        f"trace {spans[0]['trace_id']}: {len(spans)} spans over {total:.3f}s"
    ]
    for node, label in rows:
        start = float(node["start_ts"]) - t0
        dur = float(node["duration_s"])
        left = min(int(width * start / total), width - 1)
        bar_len = max(1, min(int(round(width * dur / total)), width - left))
        bar = " " * left + "#" * bar_len
        status = "" if node.get("status", "ok") == "ok" else f"  !{node['status']}"
        lines.append(
            f"  {label:<{label_width}} {start:>8.3f}s {dur:>9.3f}s  "
            f"[{bar:<{width}}]{status}"
        )
    return "\n".join(lines)


def _span_label(record: dict) -> str:
    attributes = record.get("attributes") or {}
    extras = [
        f"{key}={attributes[key]}"
        for key in _INTERESTING_ATTRS
        if key in attributes
    ]
    return record["name"] + (f" ({', '.join(extras)})" if extras else "")
