"""Metrics as aggregates of spans: the one table that folds spans.

While the registry is on, each finished span is folded into it by the
rows of :data:`FOLDS` for its name (``mle_fits_total`` counts ``ok``
``mle.fit`` spans), where it was recorded: into the current attempt's
registry, which travels with the attempt's spans, so a merged span is
never folded twice.  :func:`fold_spans` over a ``--trace`` file
reproduces the span-derived part of the run's metrics.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Iterable, NamedTuple, Optional, Tuple

from .metrics import DEFAULT_ALPHA_BUCKETS, DEFAULT_K_BUCKETS, MetricsRegistry

__all__ = ["Fold", "FOLDS", "fold_span", "fold_spans", "span_number"]

#: Sub-ms static endpoints up through multi-second synchronous submits.
HTTP_BUCKETS = (0.001, 0.005, 0.02, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 10.0, 30.0)


class Fold(NamedTuple):
    """``value(record)``: what a span named ``span`` adds to ``metric``
    (``None``: nothing); ``labels(attributes)`` names the series."""

    span: str
    kind: str  #: ``counter``, ``timer`` or ``histogram``
    metric: str
    value: Callable[[dict], Optional[float]]
    labels: Callable[[dict], Dict[str, str]] = lambda attributes: {}
    buckets: Tuple[float, ...] = ()


def span_number(value) -> Optional[float]:
    """A span attribute as a float (JSON encodes non-finite ones as strings)."""
    if isinstance(value, str):
        return {"nan": math.nan, "inf": math.inf, "-inf": -math.inf}.get(value)
    return None if value is None else float(value)


def _one(record: dict) -> float:
    return 1.0


def _duration(record: dict) -> float:
    return float(record["duration_s"])


def _ok(value=_one, test=lambda attributes: True):
    """``value`` of an ``ok`` span whose attributes pass ``test``; rows
    without it count every span (runs started, time spent, failures)."""
    return lambda r: value(r) if r["status"] == "ok" and test(r["attributes"]) else None


def _attr(name: str):
    return lambda record: span_number(record["attributes"].get(name))


def _if(test):
    """One for each span, of any status, whose attributes pass ``test``."""
    return lambda record: 1.0 if test(record["attributes"]) else None


def _labels(*names: str):
    return lambda attributes: {name: attributes[name] for name in names}


def _rows(span: str, *rows) -> Tuple[Fold, ...]:
    return tuple(Fold(span, *row) for row in rows)


#: Every span-derived metric family, by the span it folds from.
FOLDS: Tuple[Fold, ...] = (
    *_rows("estimator.run",
           ("counter", "estimator_runs_total", _one),
           ("counter", "estimator_runs_converged_total",
            _ok(test=lambda a: a.get("converged"))),
           ("timer", "estimator_run_seconds", _duration),
           ("histogram", "estimator_k", _ok(_attr("k")), _labels(),
            DEFAULT_K_BUCKETS)),
    *_rows("estimator.hyper_sample",
           ("counter", "estimator_hyper_samples_total", _ok()),
           ("counter", "estimator_fallbacks_total",
            _ok(test=lambda a: a.get("fallback_reason") is not None)),
           ("counter", "estimator_units_total", _ok(_attr("units_used"))),
           ("counter", "estimator_nonregular_fits_total",
            _ok(test=lambda a: a.get("shape_gt2") is False)),
           ("timer", "estimator_hyper_sample_seconds", _duration),
           ("histogram", "estimator_alpha", _ok(_attr("alpha")), _labels(),
            DEFAULT_ALPHA_BUCKETS)),
    *_rows("mle.fit",
           ("counter", "mle_fits_total", _ok()),
           ("counter", "mle_fit_errors_total", _if(lambda a: "cause" in a),
            _labels("cause")),
           ("counter", "mle_refine_total", _ok(), lambda a: {"path": a["refine"]}),
           ("timer", "mle_fit_seconds", _duration)),
    *_rows("adaptive.pilot",
           ("counter", "adaptive_pilot_units_total", _ok(_attr("pilot_units")))),
    *_rows("adaptive.cv",
           ("counter", "adaptive_pilot_units_total", _ok(_attr("cv_units"))),
           ("counter", "adaptive_runs_total", _ok(), _labels("family")),
           ("histogram", "adaptive_chosen_n", _ok(_attr("n")), _labels(),
            (10.0, 30.0, 60.0, 100.0, 200.0))),
    *_rows("sim.compile",
           ("counter", "sim_compile_total", _ok()),
           ("timer", "sim_compile_seconds", _ok(_duration))),
    *_rows("population.build",
           ("counter", "population_pairs_built_total", _ok(_attr("num_pairs"))),
           ("timer", "population_build_seconds", _ok(_duration))),
    *_rows("population_cache",
           ("counter", "population_cache_hits_total", _if(lambda a: a["hit"])),
           ("counter", "population_cache_misses_total", _if(lambda a: not a["hit"])),
           ("timer", "population_cache_load_seconds",
            lambda r: _duration(r) if r["attributes"]["hit"] else None)),
    *_rows("experiment.run",
           ("timer", "experiment_seconds", _ok(_duration),
            lambda a: {"experiment": a["name"]})),
    *_rows("task_retry",
           ("counter", "parallel_retries_total", _one, _labels("kind", "cause"))),
    *_rows("pool_rebuild",
           ("counter", "parallel_pool_rebuilds_total", _one, _labels("kind", "cause"))),
    *_rows("parallel_degraded",
           ("counter", "parallel_serial_degradations_total", _one, _labels("kind"))),
    # A task checkpoint counts the results it loads; an experiment's is
    # recorded only when one is resumed.
    *_rows("checkpoint",
           ("counter", "checkpoint_results_total", _attr("loaded"),
            lambda a: {"kind": a["kind"], "status": "loaded"}),
           ("counter", "experiment_checkpoints_total",
            _if(lambda a: a["kind"] == "experiment"), lambda a: {"status": "loaded"})),
    *_rows("job.run",
           ("counter", "service_jobs_finished_total", _one, _labels("state")),
           ("timer", "service_job_seconds", _duration)),
    *_rows("http.request",
           ("counter", "service_http_responses_total", _one,
            lambda a: {"endpoint": a["endpoint"], "status": str(a["http_status"])}),
           ("histogram", "service_http_request_seconds", _duration,
            _labels("endpoint", "method"), HTTP_BUCKETS)),
)

_BY_SPAN: Dict[str, list] = {}
for _fold in FOLDS:
    _BY_SPAN.setdefault(_fold.span, []).append(_fold)


def fold_span(record: dict, registry: MetricsRegistry) -> None:
    """Add one finished span record to the metrics that fold from it."""
    for fold in _BY_SPAN.get(record["name"], ()):
        value = fold.value(record)
        if value is None:
            continue
        labels = fold.labels(record["attributes"])
        if fold.kind == "counter":
            registry.counter(fold.metric, **labels).inc(value)
        elif fold.kind == "timer":
            registry.timer(fold.metric, **labels).observe(value)
        else:
            registry.histogram(fold.metric, fold.buckets, **labels).observe(value)


def fold_spans(
    records: Iterable[dict], registry: Optional[MetricsRegistry] = None
) -> MetricsRegistry:
    """Fold span records into ``registry`` (a new enabled one by default)."""
    registry = MetricsRegistry(enabled=True) if registry is None else registry
    for record in records:
        fold_span(record, registry)
    return registry
