"""Zero-dependency metrics registry (counters, gauges, timers, histograms).

Most metrics are folded into the process-wide registry
(:func:`get_registry`) from finished spans (:mod:`repro.obs.fold`);
module-level handles record only what no span carries, such as the
simulation kernel's per-block counters.  The
registry is **disabled by default**: every record call first checks a
single shared flag and returns immediately, so an instrumented-but-idle
pipeline pays one attribute load + one branch per call site — measured
in :mod:`benchmarks.bench_obs_overhead` to be well under 1 % of a
hyper-sample's budget.  Nothing here ever touches a random stream, so
estimator output is bit-identical whether observability is on or off.

Concurrency model
-----------------
*Threads* share one registry guarded by a re-entrant lock (the
population builder records chunk timings from a thread pool).

*Attempts* (:class:`repro.obs.attempt.Attempt`) scope a unit of work:
while one is current, a handle of the process-wide registry records
into the attempt's own registry, which is later committed, shipped to
another process as a :meth:`MetricsRegistry.snapshot` and
:meth:`MetricsRegistry.merge`\\ d there, or dropped.  Snapshots are
plain JSON-able dicts, so they also serve as the on-disk metrics format.

Metric identity is ``(kind, name, labels)`` — Prometheus-style, e.g.
``registry.counter("mle_fit_errors_total", cause="degenerate")``.
"""

from __future__ import annotations

import bisect
import math
import os
import threading
import time
from contextvars import ContextVar
from typing import Dict, Iterable, List, Optional, Tuple

from ..errors import ConfigError

__all__ = [
    "Counter",
    "Gauge",
    "Timer",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "DEFAULT_ALPHA_BUCKETS",
    "DEFAULT_K_BUCKETS",
]

#: Buckets for the fitted Weibull shape α̂.  The ``le=2`` edge is the
#: paper's regularity boundary (Smith 1985: the MLE is asymptotically
#: normal only for α > 2), so the first two buckets literally count
#: non-regular fits.
DEFAULT_ALPHA_BUCKETS: Tuple[float, ...] = (1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 20.0)

#: Buckets for k, the hyper-samples a run needed before convergence.
DEFAULT_K_BUCKETS: Tuple[float, ...] = (2.0, 3.0, 5.0, 8.0, 13.0, 21.0, 34.0, 55.0, 100.0)

LabelItems = Tuple[Tuple[str, str], ...]

#: The :class:`repro.obs.attempt.Attempt` this context records into.
_ATTEMPT: "ContextVar[Optional[object]]" = ContextVar("repro_attempt", default=None)


def _label_items(labels: Dict[str, str]) -> LabelItems:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class _Metric:
    """Shared plumbing: every metric knows its registry's enabled flag."""

    kind = "metric"

    def __init__(self, registry: "MetricsRegistry", name: str, labels: LabelItems):
        self._registry = registry
        self.name = name
        self.labels = labels

    @property
    def enabled(self) -> bool:
        return self._registry._enabled

    def _target(self) -> "_Metric":
        """The series a record goes to: this one, or — for a handle of
        the process-wide registry inside an attempt — the attempt's."""
        attempt = _ATTEMPT.get()
        if attempt is None or self._registry is not _GLOBAL_REGISTRY:
            return self
        kwargs = {"bounds": self.bounds} if self.kind == "histogram" else {}
        return attempt.registry._get(self.kind, self.name, dict(self.labels), **kwargs)


class Counter(_Metric):
    """Monotonically increasing count (events, units, errors)."""

    kind = "counter"

    def __init__(self, registry, name, labels):
        super().__init__(registry, name, labels)
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if not self._registry._enabled:
            return
        target = self._target()
        with target._registry._lock:
            target._value += amount

    @property
    def value(self) -> float:
        return self._value

    def _to_snapshot(self) -> dict:
        return {"name": self.name, "labels": dict(self.labels), "value": self._value}

    def _reset(self) -> None:
        self._value = 0.0

    def _merge(self, data: dict) -> None:
        self._value += float(data["value"])


class Gauge(_Metric):
    """Last-written instantaneous value (pool sizes, config echoes)."""

    kind = "gauge"

    def __init__(self, registry, name, labels):
        super().__init__(registry, name, labels)
        self._value = 0.0

    def set(self, value: float) -> None:
        if not self._registry._enabled:
            return
        target = self._target()
        with target._registry._lock:
            target._value = float(value)

    @property
    def value(self) -> float:
        return self._value

    def _to_snapshot(self) -> dict:
        return {"name": self.name, "labels": dict(self.labels), "value": self._value}

    def _reset(self) -> None:
        self._value = 0.0

    def _merge(self, data: dict) -> None:
        self._value = float(data["value"])


class _TimerContext:
    __slots__ = ("_timer", "_start")

    def __init__(self, timer: "Timer"):
        self._timer = timer
        self._start = 0.0

    def __enter__(self) -> "_TimerContext":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        self._timer.observe(time.perf_counter() - self._start)
        return False


class _NullContext:
    """Shared do-nothing context — the disabled fast path of Timer.time()."""

    __slots__ = ()

    def __enter__(self) -> "_NullContext":
        return self

    def __exit__(self, *exc) -> bool:
        return False


_NULL_CONTEXT = _NullContext()


class Timer(_Metric):
    """Duration accumulator: count, total seconds, min, max."""

    kind = "timer"

    def __init__(self, registry, name, labels):
        super().__init__(registry, name, labels)
        self._count = 0
        self._total = 0.0
        self._min = math.inf
        self._max = -math.inf

    def time(self):
        """Context manager timing the enclosed block.

        Disabled registries get a shared null context — no
        ``perf_counter`` call, no allocation.
        """
        if not self._registry._enabled:
            return _NULL_CONTEXT
        return _TimerContext(self)

    def observe(self, seconds: float) -> None:
        if not self._registry._enabled:
            return
        target = self._target()
        with target._registry._lock:
            target._count += 1
            target._total += seconds
            if seconds < target._min:
                target._min = seconds
            if seconds > target._max:
                target._max = seconds

    @property
    def count(self) -> int:
        return self._count

    @property
    def total(self) -> float:
        return self._total

    @property
    def mean(self) -> float:
        return self._total / self._count if self._count else 0.0

    def _to_snapshot(self) -> dict:
        return {
            "name": self.name,
            "labels": dict(self.labels),
            "count": self._count,
            "total": self._total,
            "min": self._min if self._count else None,
            "max": self._max if self._count else None,
        }

    def _reset(self) -> None:
        self._count = 0
        self._total = 0.0
        self._min = math.inf
        self._max = -math.inf

    def _merge(self, data: dict) -> None:
        self._count += int(data["count"])
        self._total += float(data["total"])
        if data.get("min") is not None:
            self._min = min(self._min, float(data["min"]))
        if data.get("max") is not None:
            self._max = max(self._max, float(data["max"]))


class Histogram(_Metric):
    """Fixed-bucket histogram with Prometheus ``le`` semantics.

    ``bounds`` are the inclusive upper edges; one overflow bucket
    (``+Inf``) is appended implicitly.  A value lands in the first
    bucket whose bound it does not exceed (``v <= bound``).  NaN
    observations are dropped (they have no defined bucket); ``+inf``
    lands in the overflow bucket but is excluded from ``sum``.
    """

    kind = "histogram"

    def __init__(self, registry, name, labels, bounds: Tuple[float, ...]):
        super().__init__(registry, name, labels)
        if not bounds:
            raise ConfigError(f"histogram {name!r} needs at least one bucket bound")
        ordered = tuple(float(b) for b in bounds)
        if list(ordered) != sorted(set(ordered)):
            raise ConfigError(
                f"histogram {name!r} bounds must be strictly increasing"
            )
        if not all(math.isfinite(b) for b in ordered):
            raise ConfigError(f"histogram {name!r} bounds must be finite")
        self.bounds = ordered
        self._counts = [0] * (len(ordered) + 1)
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        if not self._registry._enabled:
            return
        value = float(value)
        if math.isnan(value):
            return
        idx = bisect.bisect_left(self.bounds, value)
        target = self._target()
        with target._registry._lock:
            target._counts[idx] += 1
            target._count += 1
            if math.isfinite(value):
                target._sum += value

    @property
    def count(self) -> int:
        return self._count

    @property
    def counts(self) -> List[int]:
        return list(self._counts)

    def _to_snapshot(self) -> dict:
        return {
            "name": self.name,
            "labels": dict(self.labels),
            "bounds": list(self.bounds),
            "counts": list(self._counts),
            "sum": self._sum,
            "count": self._count,
        }

    def _reset(self) -> None:
        self._counts = [0] * (len(self.bounds) + 1)
        self._sum = 0.0
        self._count = 0

    def _merge(self, data: dict) -> None:
        if list(data["bounds"]) != list(self.bounds):
            raise ConfigError(
                f"histogram {self.name!r}: cannot merge mismatched buckets "
                f"{data['bounds']} into {list(self.bounds)}"
            )
        for i, c in enumerate(data["counts"]):
            self._counts[i] += int(c)
        self._sum += float(data["sum"])
        self._count += int(data["count"])


_KINDS = {"counter": Counter, "gauge": Gauge, "timer": Timer, "histogram": Histogram}


class MetricsRegistry:
    """Process-wide metric store with snapshot/merge aggregation."""

    def __init__(self, enabled: bool = False):
        self._lock = threading.RLock()
        self._enabled = enabled
        self._metrics: Dict[Tuple[str, LabelItems], _Metric] = {}

    # -- lifecycle -----------------------------------------------------
    @property
    def enabled(self) -> bool:
        return self._enabled

    def enable(self) -> None:
        self._enabled = True

    def disable(self) -> None:
        self._enabled = False

    def reset(self) -> None:
        """Zero every metric's value (registrations are kept)."""
        with self._lock:
            for metric in self._metrics.values():
                metric._reset()

    # -- get-or-create accessors ---------------------------------------
    def _get(self, kind: str, name: str, labels: Dict[str, str], **kwargs) -> _Metric:
        key = (name, _label_items(labels))
        with self._lock:
            metric = self._metrics.get(key)
            if metric is None:
                metric = _KINDS[kind](self, name, key[1], **kwargs)
                self._metrics[key] = metric
            elif metric.kind != kind:
                raise ConfigError(
                    f"metric {name!r}{dict(key[1])} already registered as "
                    f"{metric.kind}, requested {kind}"
                )
            return metric

    def counter(self, name: str, **labels: str) -> Counter:
        return self._get("counter", name, labels)

    def gauge(self, name: str, **labels: str) -> Gauge:
        return self._get("gauge", name, labels)

    def timer(self, name: str, **labels: str) -> Timer:
        return self._get("timer", name, labels)

    def histogram(
        self, name: str, buckets: Iterable[float], **labels: str
    ) -> Histogram:
        return self._get("histogram", name, labels, bounds=tuple(buckets))

    def metrics(self) -> List[_Metric]:
        with self._lock:
            return list(self._metrics.values())

    # -- aggregation ---------------------------------------------------
    def snapshot(self, reset: bool = False) -> dict:
        """JSON-able dump of every recorded metric.

        Zero-valued metrics (registered handles that never fired) are
        omitted, so snapshots stay small and merges stay cheap.
        """
        snap: dict = {"counters": [], "gauges": [], "timers": [], "histograms": []}
        with self._lock:
            for metric in self._metrics.values():
                if isinstance(metric, Counter):
                    if metric._value != 0:
                        snap["counters"].append(metric._to_snapshot())
                elif isinstance(metric, Gauge):
                    if metric._value != 0:
                        snap["gauges"].append(metric._to_snapshot())
                elif isinstance(metric, Timer):
                    if metric._count:
                        snap["timers"].append(metric._to_snapshot())
                elif isinstance(metric, Histogram):
                    if metric._count:
                        snap["histograms"].append(metric._to_snapshot())
            if reset:
                for metric in self._metrics.values():
                    metric._reset()
        return snap

    def merge(self, snapshot: dict) -> None:
        """Fold a snapshot (e.g. from a worker process) into this registry.

        Merging works even while the registry is disabled, so a parent
        that only aggregates never records stray local metrics.
        """
        kinds = (
            ("counters", "counter"),
            ("gauges", "gauge"),
            ("timers", "timer"),
            ("histograms", "histogram"),
        )
        with self._lock:
            for section, kind in kinds:
                for data in snapshot.get(section, ()):
                    if kind == "histogram":
                        metric = self._get(
                            kind,
                            data["name"],
                            data["labels"],
                            bounds=tuple(data["bounds"]),
                        )
                    else:
                        metric = self._get(kind, data["name"], data["labels"])
                    metric._merge(data)


#: The process-wide registry all pipeline instrumentation hangs off.
_GLOBAL_REGISTRY = MetricsRegistry()


def _fresh_lock_after_fork() -> None:
    # A child forked while another thread held the lock would inherit it
    # held for good.  (The values it inherits are never shipped back: a
    # child's work runs in attempts.)
    _GLOBAL_REGISTRY._lock = threading.RLock()


os.register_at_fork(after_in_child=_fresh_lock_after_fork)


def get_registry() -> MetricsRegistry:
    """The process-wide metrics registry (disabled until enabled)."""
    return _GLOBAL_REGISTRY
