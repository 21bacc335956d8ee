"""``repro.obs`` — observability for the estimation pipeline.

Three zero-dependency layers (stdlib only; nothing here imports numpy
or scipy):

* :mod:`repro.obs.metrics` — process-wide registry of counters, gauges,
  timers and fixed-bucket histograms, with thread-safe recording and
  snapshot/merge aggregation across the ``run_many`` process pools;
* :mod:`repro.obs.spans` — hierarchical spans with W3C trace-context
  propagation, following one job across HTTP, queue, worker-thread and
  pool-process boundaries.  Spans are the one event record: their
  attributes carry what each phase computed (one
  ``estimator.hyper_sample`` span per Figure 4 iteration is the core
  signal), and an open JSONL sink streams them to a file;
* :mod:`repro.obs.export` — Prometheus text exposition and the human
  convergence-diagnostics report.

Everything is **off by default** and adds only a branch per call site
when off, so library behavior — including every random stream — is
bit-identical with observability enabled or disabled.  Turn it on via
``repro ... --trace FILE --metrics FILE``, the ``REPRO_TRACE``
environment variable, or programmatically::

    from repro.obs import get_registry, get_span_recorder

    get_registry().enable()
    get_span_recorder().open("run.jsonl")  # enables spans
    ...
    get_span_recorder().close()
    snapshot = get_registry().snapshot()
"""

from .export import (
    convergence_report,
    load_metrics_file,
    load_trace,
    phase_timings,
    render_prometheus,
    write_metrics_file,
)
from .metrics import (
    DEFAULT_ALPHA_BUCKETS,
    DEFAULT_K_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Timer,
    get_registry,
)
from .spans import (
    Span,
    SpanContext,
    SpanRecorder,
    build_span_tree,
    get_span_recorder,
    jsonable,
    parse_traceparent,
    render_span_waterfall,
    to_chrome_trace,
)

__all__ = [
    "Counter",
    "Gauge",
    "Timer",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "DEFAULT_ALPHA_BUCKETS",
    "DEFAULT_K_BUCKETS",
    "jsonable",
    "Span",
    "SpanContext",
    "SpanRecorder",
    "get_span_recorder",
    "parse_traceparent",
    "build_span_tree",
    "to_chrome_trace",
    "render_span_waterfall",
    "render_prometheus",
    "write_metrics_file",
    "load_metrics_file",
    "load_trace",
    "convergence_report",
    "phase_timings",
]
