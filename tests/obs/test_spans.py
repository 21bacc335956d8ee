"""Unit tests for the span layer: recorder, context propagation,
traceparent parsing, the JSONL sink, attribute sanitization, and the
presentation helpers."""

from __future__ import annotations

import gc
import json
import math
import threading
import time

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.obs import load_trace
from repro.obs.spans import (
    SpanContext,
    SpanRecorder,
    build_span_tree,
    get_span_recorder,
    new_span_id,
    new_trace_id,
    parse_traceparent,
    render_span_waterfall,
    to_chrome_trace,
)


@pytest.fixture
def recorder():
    r = SpanRecorder()
    r.enable()
    return r


class TestIdsAndTraceparent:
    def test_id_widths_are_w3c(self):
        assert len(new_trace_id()) == 32
        assert len(new_span_id()) == 16
        int(new_trace_id(), 16)
        int(new_span_id(), 16)

    def test_ids_are_unique(self):
        assert len({new_trace_id() for _ in range(100)}) == 100

    def test_roundtrip(self):
        ctx = SpanContext(trace_id=new_trace_id(), span_id=new_span_id())
        parsed = parse_traceparent(ctx.to_traceparent())
        assert parsed == ctx

    def test_header_format(self):
        ctx = SpanContext(trace_id="ab" * 16, span_id="cd" * 8)
        assert ctx.to_traceparent() == f"00-{'ab' * 16}-{'cd' * 8}-01"

    @pytest.mark.parametrize(
        "header",
        [
            None,
            "",
            "garbage",
            "00-abc-def-01",  # wrong widths
            "00-" + "g" * 32 + "-" + "1" * 16 + "-01",  # non-hex
            "ff-" + "1" * 32 + "-" + "2" * 16 + "-01",  # forbidden version
            "00-" + "0" * 32 + "-" + "2" * 16 + "-01",  # all-zero trace
            "00-" + "1" * 32 + "-" + "0" * 16 + "-01",  # all-zero span
            "00-" + "1" * 32 + "-" + "2" * 16,  # missing flags
        ],
    )
    def test_malformed_headers_rejected(self, header):
        assert parse_traceparent(header) is None

    def test_context_without_span_id_still_serializes(self):
        ctx = SpanContext(trace_id="ab" * 16)
        parsed = parse_traceparent(ctx.to_traceparent())
        assert parsed is not None and parsed.trace_id == "ab" * 16


class TestRecorder:
    def test_disabled_fast_path_records_nothing(self):
        r = SpanRecorder()
        assert r.start("x") is None
        with r.span("y") as span:
            span.set(a=1)
        assert r.emit("z") is None
        assert r.snapshot() == []

    def test_start_finish_records(self, recorder):
        span = recorder.start("phase", k=3)
        recorder.finish(span, extra="v")
        (record,) = recorder.snapshot()
        assert record["name"] == "phase"
        assert record["status"] == "ok"
        assert record["attributes"] == {"k": 3, "extra": "v"}
        assert record["parent_id"] is None
        assert record["duration_s"] >= 0.0

    def test_nesting_via_ambient_context(self, recorder):
        with recorder.span("outer"):
            with recorder.span("inner"):
                pass
        inner, outer = sorted(
            recorder.snapshot(), key=lambda r: r["name"]
        )
        assert inner["trace_id"] == outer["trace_id"]
        assert inner["parent_id"] == outer["span_id"]
        assert outer["parent_id"] is None
        # Ambient context restored after the tree finishes.
        assert recorder.current_context() is None

    def test_explicit_parent_wins_over_ambient(self, recorder):
        remote = SpanContext(trace_id=new_trace_id(), span_id=new_span_id())
        with recorder.span("ambient"):
            span = recorder.start("child", parent=remote)
            recorder.finish(span)
        child = next(r for r in recorder.snapshot() if r["name"] == "child")
        assert child["trace_id"] == remote.trace_id
        assert child["parent_id"] == remote.span_id

    def test_exception_marks_error_status(self, recorder):
        with pytest.raises(ValueError):
            with recorder.span("boom"):
                raise ValueError("bad")
        (record,) = recorder.snapshot()
        assert record["status"] == "error"
        assert "ValueError: bad" in record["attributes"]["error"]

    def test_emit_retroactive(self, recorder):
        parent = SpanContext(trace_id=new_trace_id(), span_id=new_span_id())
        record = recorder.emit(
            "job.queue_wait", parent=parent, start_ts=123.0, duration_s=4.5
        )
        assert record["start_ts"] == 123.0
        assert record["duration_s"] == 4.5
        assert record["trace_id"] == parent.trace_id
        # emit never touches the ambient context
        assert recorder.current_context() is None

    def test_attach_detach(self, recorder):
        ctx = SpanContext(trace_id=new_trace_id(), span_id=new_span_id())
        token = recorder.attach(ctx)
        assert recorder.current_context() == ctx
        with recorder.span("child"):
            pass
        recorder.detach(token)
        assert recorder.current_context() is None
        (record,) = recorder.snapshot()
        assert record["trace_id"] == ctx.trace_id

    def test_context_is_per_thread(self, recorder):
        seen = {}

        def worker():
            seen["ctx"] = recorder.current_context()

        ctx = SpanContext(trace_id=new_trace_id(), span_id=new_span_id())
        token = recorder.attach(ctx)
        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
        recorder.detach(token)
        assert seen["ctx"] is None

    def test_snapshot_reset_and_merge(self, recorder):
        with recorder.span("a"):
            pass
        shipped = recorder.snapshot(reset=True)
        assert recorder.snapshot() == []
        target = SpanRecorder()  # disabled, like an aggregating parent
        target.merge(shipped)
        merged = target.snapshot()
        assert [r["name"] for r in merged] == ["a"]
        assert "_seq" not in merged[0]

    def test_marker_discard_scoped_to_trace(self, recorder):
        with recorder.span("kept"):
            pass
        kept_trace = recorder.snapshot()[0]["trace_id"]
        marker = recorder.marker()
        # New spans on two traces: only the targeted one is dropped.
        recorder.emit("doomed", parent=SpanContext(trace_id="f" * 32))
        recorder.emit("other", parent=SpanContext(trace_id="e" * 32))
        assert recorder.discard_after(marker, trace_id="f" * 32) == 1
        names = {r["name"] for r in recorder.snapshot()}
        assert names == {"kept", "other"}
        assert recorder.spans_for_trace(kept_trace)

    def test_lru_eviction_of_traces(self):
        r = SpanRecorder(max_traces=2)
        r.enable()
        for i in range(3):
            r.emit("s", parent=SpanContext(trace_id=f"{i:032x}"))
        assert r.spans_for_trace(f"{0:032x}") == []
        assert r.spans_for_trace(f"{2:032x}")

    def test_span_emits_trace_event_when_tracer_enabled(self, tmp_path, recorder):
        # The trace file is the recorder's own sink: a span finished
        # while recording but before the sink opens is buffered only.
        with recorder.span("untraced"):
            pass
        path = tmp_path / "trace.jsonl"
        recorder.open(path)
        try:
            with recorder.span("traced"):
                pass
        finally:
            recorder.close()
        events = [
            json.loads(line)
            for line in path.read_text().splitlines()
            if line.strip()
        ]
        assert [e["name"] for e in events] == ["traced"]
        assert [s["name"] for s in recorder.snapshot()] == ["untraced", "traced"]

    def test_global_recorder_is_singleton(self):
        assert get_span_recorder() is get_span_recorder()


class TestJsonlSink:
    def test_open_enables_close_stops_writing(self, tmp_path):
        r = SpanRecorder()
        path = tmp_path / "t.jsonl"
        r.open(path)
        assert r.enabled
        with r.span("traced"):
            pass
        r.close()
        r.close()  # idempotent
        assert r.enabled
        with r.span("after"):  # after close: buffered, not written
            pass
        assert [s["name"] for s in load_trace(path)] == ["traced"]
        assert [s["name"] for s in r.snapshot()] == ["traced", "after"]

    def test_finished_spans_stream_to_file_and_parse(self, tmp_path):
        r = SpanRecorder()
        path = tmp_path / "run.jsonl"
        r.open(path)
        with r.span("estimator.run", population="c17"):
            with r.span("estimator.hyper_sample", k=1) as span:
                span.set(alpha=3.2)
        r.emit("task_retry", kind="run", index=0)
        r.close()
        records = load_trace(path)
        # one line per finished span, in completion order, exactly the
        # buffered records
        assert [s["name"] for s in records] == [
            "estimator.hyper_sample", "estimator.run", "task_retry",
        ]
        assert records == r.snapshot()
        hyper, run, retry = records
        assert hyper["parent_id"] == run["span_id"]
        assert hyper["attributes"] == {"k": 1, "alpha": 3.2}
        assert run["attributes"] == {"population": "c17"}
        assert retry["duration_s"] == 0.0
        for record in records:
            assert isinstance(record["start_ts"], float)

    def test_each_line_reaches_the_file_before_close(self, tmp_path):
        # A process forked mid-run must inherit no pending lines.
        r = SpanRecorder()
        path = tmp_path / "t.jsonl"
        r.open(path)
        with r.span("first"):
            pass
        assert path.read_text().count("\n") == 1
        r.close()

    def test_merged_spans_are_written(self, tmp_path, recorder):
        with recorder.span("child-side"):
            pass
        shipped = recorder.snapshot(reset=True)
        parent = SpanRecorder()
        path = tmp_path / "t.jsonl"
        parent.open(path)
        parent.merge(shipped)
        parent.close()
        assert load_trace(path) == shipped

    def test_load_trace_rejects_garbage(self, tmp_path, recorder):
        with recorder.span("ok"):
            pass
        good = json.dumps(recorder.snapshot()[0])
        path = tmp_path / "bad.jsonl"
        path.write_text(good + "\nnot json\n")
        with pytest.raises(ConfigError, match="bad.jsonl:2"):
            load_trace(path)
        path.write_text('["no", "span", "keys"]\n')
        with pytest.raises(ConfigError, match="not a span record"):
            load_trace(path)
        # the line format of traces written before 2.0.0
        path.write_text('{"ts": 1.0, "event": "hyper_sample", "k": 1}\n')
        with pytest.raises(ConfigError, match="bad.jsonl:1: .*not a span record"):
            load_trace(path)


class TestSanitization:
    def _attributes(self, recorder, **attributes):
        with recorder.span("s", **attributes):
            pass
        return recorder.snapshot()[0]["attributes"]

    def test_numpy_scalars_and_arrays(self, recorder):
        a = self._attributes(
            recorder,
            alpha=np.float64(3.5),
            k=np.int64(4),
            maxima=np.array([1.0, 2.0]),
        )
        assert a["alpha"] == 3.5 and isinstance(a["alpha"], float)
        assert a["k"] == 4 and isinstance(a["k"], int)
        assert a["maxima"] == [1.0, 2.0]
        json.dumps(a)  # fully JSON-able

    def test_nonfinite_floats_become_strings(self, recorder, tmp_path):
        recorder.open(tmp_path / "t.jsonl")
        a = self._attributes(recorder, a=math.nan, b=math.inf, c=-math.inf)
        recorder.close()
        assert (a["a"], a["b"], a["c"]) == ("nan", "inf", "-inf")

        def reject(constant):
            raise AssertionError(f"non-strict JSON literal {constant}")

        # the file stays strict-JSON parseable
        (line,) = (tmp_path / "t.jsonl").read_text().splitlines()
        json.loads(line, parse_constant=reject)

    def test_unknown_objects_fall_back_to_str(self, recorder):
        class Weird:
            def __repr__(self):
                return "<weird>"

        assert self._attributes(recorder, obj=Weird())["obj"] == "<weird>"


class TestPresentation:
    def _sample(self):
        r = SpanRecorder()
        r.enable()
        with r.span("root", endpoint="/v1/jobs"):
            with r.span("child", k=1):
                pass
            with r.span("child", k=2):
                pass
        return r.snapshot()

    def test_build_span_tree(self):
        spans = self._sample()
        (root,) = build_span_tree(spans)
        assert root["name"] == "root"
        assert [c["attributes"]["k"] for c in root["children"]] == [1, 2]

    def test_unknown_parent_becomes_root(self):
        spans = self._sample()
        orphans = [s for s in spans if s["name"] == "child"]
        roots = build_span_tree(orphans)
        assert len(roots) == 2

    def test_chrome_trace_shape(self):
        payload = to_chrome_trace(self._sample())
        assert payload["displayTimeUnit"] == "ms"
        events = payload["traceEvents"]
        assert len(events) == 3
        assert all(e["ph"] == "X" for e in events)
        assert events == sorted(events, key=lambda e: e["ts"])
        json.dumps(payload)  # must be serializable as-is

    def test_waterfall_renders_all_spans(self):
        text = render_span_waterfall(self._sample())
        assert "root" in text and text.count("child") == 2
        assert "3 spans" in text

    def test_waterfall_empty(self):
        assert render_span_waterfall([]) == "(no spans)"


def _synthetic_trace(num_spans: int) -> list:
    """One estimator run: a root, then (hyper-sample, fit) pairs."""
    trace_id = new_trace_id()
    root = {
        "trace_id": trace_id, "span_id": new_span_id(), "parent_id": None,
        "name": "estimator.run", "start_ts": 0.0,
        "duration_s": float(num_spans), "status": "ok", "attributes": {},
    }
    spans = [root]
    for k in range(1, num_spans // 2 + 1):
        hyper = dict(root, span_id=new_span_id(), parent_id=root["span_id"],
                     name="estimator.hyper_sample", start_ts=float(k),
                     duration_s=1.0, attributes={"k": k})
        fit = dict(hyper, span_id=new_span_id(), parent_id=hyper["span_id"],
                   name="mle.fit", attributes={"m": 10})
        spans.extend([hyper, fit])
    return spans[:num_spans]


def test_waterfall_render_scales_near_linearly():
    # Up to the per-trace cap of 8,192 spans: 4x the spans should take
    # about 4x the time; a quadratic render takes 16x.  Best of 3, with
    # the sizes alternated so a drift in host speed hits both alike.
    traces = {n: _synthetic_trace(n) for n in (2_048, 8_192)}
    times = {n: [] for n in traces}
    for _ in range(3):
        for n, spans in traces.items():
            gc.collect()
            start = time.perf_counter()
            render_span_waterfall(spans)
            times[n].append(time.perf_counter() - start)
    best = {n: min(samples) for n, samples in times.items()}
    assert best[8_192] / best[2_048] <= 7, times
