"""The HTTP surface: a threaded job server on the versioned v1 API.

Endpoints (JSON in, JSON out; see ``docs/api.md`` for curl examples)::

    POST   /v1/jobs              submit a job spec           -> 201 status
    GET    /v1/jobs              list jobs (?state= filter)  -> 200 list
    GET    /v1/jobs/{id}         status + per-k trajectory   -> 200 status
    GET    /v1/jobs/{id}/result  completed results           -> 200 results
    GET    /v1/jobs/{id}/events  server-sent-events stream   -> 200 SSE
    DELETE /v1/jobs/{id}         request cancellation        -> 202 status
    GET    /healthz              liveness + job counts       -> 200
    GET    /metrics              Prometheus text exposition  -> 200

Error envelope: ``{"error": {"status": <int>, "message": <str>}}`` with
400 for malformed specs/payloads, 404 for unknown jobs and paths, 409
for state conflicts (result of an unfinished job, cancelling a finished
one), and 429 + ``Retry-After`` when admission control rejects a submit
(bounded queue depth, per-tenant token-bucket rate limit, or per-tenant
active-job quota — the tenant is the ``X-API-Key`` request header,
anonymous when absent).

Built on ``http.server.ThreadingHTTPServer`` — one thread per request,
stdlib only — with the actual estimation work done by the
:class:`~repro.service.worker.WorkerPool` in forked worker processes,
so slow jobs never block status polls and N jobs run on N cores.
``port=0`` binds an ephemeral port (tests); the bound port is
``JobServer.port`` after :meth:`~JobServer.start`.
"""

from __future__ import annotations

import io
import json
import threading
import time
from math import ceil
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Optional, Union
from urllib.parse import parse_qs, urlparse

from ..errors import ConfigError, ReproError, SchemaError
from ..obs.export import render_prometheus
from ..obs.metrics import get_registry
from ..obs.spans import get_span_recorder, parse_traceparent
from ..sim.compiled import kernel_info
from ..schemas import (
    SCHEMA_VERSION,
    SERVICE_EVENTS_SCHEMA,
    SERVICE_TRACE_SCHEMA,
)
from .jobs import Job, JobSpec, JobState
from .store import DEFAULT_LEASE_TTL, SQLiteJobStore
from .worker import WorkerPool

__all__ = ["JobServer", "serve"]

#: Largest accepted request body (a job spec is a few hundred bytes).
MAX_BODY_BYTES = 1 << 20

#: Token buckets kept before stale entries are evicted.  Bucket keys are
#: raw ``X-API-Key`` values — attacker-chosen — so the map is bounded:
#: a client cycling random keys must not inflate server memory.
MAX_RATE_BUCKETS = 1024

#: Gauges recomputed from live server state on every ``/metrics`` scrape
#: (any stale registry-resident series with these names is dropped first).
_SCRAPE_GAUGES = frozenset(
    {
        "service_jobs",
        "service_queue_depth",
        "service_active_leases",
        "service_oldest_lease_age_seconds",
        "service_busy_workers",
        "service_worker_saturation",
        "service_queue_limit",
    }
)


def _endpoint_label(segments) -> str:
    """Collapse a request path to its route template so the per-endpoint
    histogram has bounded label cardinality (job ids never become labels)."""
    if segments == ["healthz"]:
        return "/healthz"
    if segments == ["metrics"]:
        return "/metrics"
    if len(segments) >= 2 and segments[0] == "v1" and segments[1] == "jobs":
        rest = segments[2:]
        if not rest:
            return "/v1/jobs"
        if len(rest) == 1:
            return "/v1/jobs/{id}"
        if rest[1:] == ["result"]:
            return "/v1/jobs/{id}/result"
        if rest[1:] == ["trace"]:
            return "/v1/jobs/{id}/trace"
        if rest[1:] == ["events"]:
            return "/v1/jobs/{id}/events"
    return "other"


class _ApiError(Exception):
    def __init__(self, status: int, message: str, headers: Optional[dict] = None):
        self.status = status
        self.message = message
        self.headers = dict(headers or {})
        super().__init__(message)


class _ReplyWriter(io.BufferedIOBase):
    """A handler's ``wfile``: holds what is written until ``flush``.

    ``_dispatch`` flushes once it has finished the request's span, so a
    client that has read a reply finds the request in ``/metrics``; the
    SSE stream flushes each event itself.
    """

    def __init__(self, sock):
        self._sock = sock
        self._held = bytearray()

    def write(self, data) -> int:
        self._held += data
        return len(data)

    def flush(self) -> None:
        held, self._held = self._held, bytearray()
        if held:
            self._sock.sendall(held)


class _Handler(BaseHTTPRequestHandler):
    """Routes requests against ``self.server.app`` (the JobServer)."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-service/1"

    # -- plumbing -------------------------------------------------------
    def setup(self) -> None:
        super().setup()
        self.wfile = _ReplyWriter(self.connection)

    def handle_expect_100(self) -> bool:
        # The interim reply must leave before the body is read.
        ok = super().handle_expect_100()
        self.wfile.flush()
        return ok

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if getattr(self.server, "verbose", False):
            super().log_message(format, *args)

    def _send_json(
        self, status: int, payload: dict, headers: Optional[dict] = None
    ) -> None:
        self._send_text(status, json.dumps(payload), "application/json", headers)

    def _send_text(
        self,
        status: int,
        text: str,
        content_type: str,
        headers: Optional[dict] = None,
    ) -> None:
        body = text.encode("utf-8")
        self._status = status
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, str(value))
        self.end_headers()
        self.wfile.write(body)

    def _read_body(self) -> dict:
        length = int(self.headers.get("Content-Length") or 0)
        if length > MAX_BODY_BYTES:
            raise _ApiError(400, f"request body exceeds {MAX_BODY_BYTES} bytes")
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise _ApiError(400, "request body must be a JSON object")
        try:
            data = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise _ApiError(400, f"request body is not valid JSON: {exc}")
        if not isinstance(data, dict):
            raise _ApiError(400, "request body must be a JSON object")
        return data

    def _dispatch(self, method: str) -> None:
        app = self.server.app  # type: ignore[attr-defined]
        parsed = urlparse(self.path)
        segments = [s for s in parsed.path.split("/") if s]
        endpoint = _endpoint_label(segments)
        spans = get_span_recorder()
        # W3C trace-context: a traceparent header joins the caller's
        # trace; its absence (or a malformed value) starts a new one.
        # The service_http_* metrics fold from this span.
        request_span = spans.start(
            "http.request",
            parent=parse_traceparent(self.headers.get("traceparent")),
            method=method,
            path=parsed.path,
            endpoint=endpoint,
        )
        self._status = 0
        try:
            try:
                self._route(app, method, segments, parse_qs(parsed.query))
            except _ApiError as exc:
                self._send_json(
                    exc.status,
                    {"error": {"status": exc.status, "message": exc.message}},
                    headers=exc.headers,
                )
            except (SchemaError, ConfigError) as exc:
                self._send_json(
                    400, {"error": {"status": 400, "message": str(exc)}}
                )
            except ReproError as exc:
                self._send_json(
                    500, {"error": {"status": 500, "message": str(exc)}}
                )
            except BrokenPipeError:
                pass  # client went away mid-response
            except Exception as exc:  # noqa: BLE001 — last-resort envelope
                self._send_json(
                    500,
                    {
                        "error": {
                            "status": 500,
                            "message": f"{type(exc).__name__}: {exc}",
                        }
                    },
                )
        finally:
            spans.finish(
                request_span,
                status="error" if self._status >= 500 else "ok",
                http_status=self._status,
            )
        try:
            self.wfile.flush()  # the reply leaves after its span ends
        except BrokenPipeError:
            pass  # client went away

    # -- routing --------------------------------------------------------
    def _route(self, app: "JobServer", method: str, segments, query) -> None:
        if segments == ["healthz"] and method == "GET":
            return self._send_json(200, app.health())
        if segments == ["metrics"] and method == "GET":
            return self._send_text(
                200, app.metrics_text(), "text/plain; version=0.0.4"
            )
        if len(segments) >= 2 and segments[0] == "v1" and segments[1] == "jobs":
            rest = segments[2:]
            if not rest:
                if method == "POST":
                    tenant = self.headers.get("X-API-Key") or None
                    app.admit(tenant)
                    job = app.store.submit(
                        JobSpec.from_dict(self._read_body()), tenant=tenant
                    )
                    return self._send_json(201, job.status_dict())
                if method == "GET":
                    state = (query.get("state") or [None])[0]
                    if state is not None and state not in JobState.ALL:
                        raise _ApiError(400, f"unknown state filter {state!r}")
                    jobs = app.store.list(state=state)
                    return self._send_json(
                        200, {"jobs": [j.status_dict() for j in jobs]}
                    )
                raise _ApiError(405, f"{method} not allowed on /v1/jobs")
            job = app.store.get(rest[0])
            if job is None:
                raise _ApiError(404, f"no such job {rest[0]!r}")
            if len(rest) == 1:
                if method == "GET":
                    return self._send_json(200, job.status_dict())
                if method == "DELETE":
                    try:
                        job = app.store.request_cancel(job.id)
                    except ConfigError as exc:
                        raise _ApiError(409, str(exc))
                    return self._send_json(202, job.status_dict())
                raise _ApiError(405, f"{method} not allowed on /v1/jobs/{{id}}")
            if rest[1:] == ["result"] and method == "GET":
                if job.state != JobState.COMPLETED:
                    raise _ApiError(
                        409,
                        f"job {job.id} is {job.state}, not completed"
                        + (f": {job.error}" if job.error else ""),
                    )
                return self._send_json(200, job.result_dict())
            if rest[1:] == ["trace"] and method == "GET":
                return self._send_json(200, app.job_trace(job))
            if rest[1:] == ["events"] and method == "GET":
                return self._serve_events(app, job)
        raise _ApiError(404, f"no route for {method} /{'/'.join(segments)}")

    # -- server-sent events ----------------------------------------------
    def _serve_events(self, app: "JobServer", job: Job) -> None:
        """Stream the job's progress as SSE until it settles.

        One ``state``/``progress``/``run`` event per visible change (the
        ``data:`` payload is the full schema-stamped status dict, so a
        consumer needs no side requests); the first event is always a
        snapshot and the last carries the terminal state.  Comment
        keepalives flow while nothing changes so idle proxies and client
        read timeouts don't sever a healthy stream.  The response is
        unframed (``Connection: close``) — one server thread per
        subscriber, same as a poll-loop client that never sleeps.
        """
        self._status = 200
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-cache")
        self.send_header("Connection", "close")
        self.close_connection = True
        self.end_headers()
        self.wfile.write(b"retry: 1000\n\n")
        seq = 0
        last_mark = None
        idle = 0.0
        while True:
            current = app.store.get(job.id) or job
            status = current.status_dict()
            mark = (
                status["state"],
                len(status["trajectory"]),
                status["completed_runs"],
            )
            if mark != last_mark:
                if last_mark is None or status["state"] != last_mark[0]:
                    kind = "state"
                elif len(status["trajectory"]) != last_mark[1]:
                    kind = "progress"
                else:
                    kind = "run"
                seq += 1
                payload = dict(status)
                payload["schema"] = SERVICE_EVENTS_SCHEMA
                payload["event"] = kind
                body = json.dumps(payload)
                self.wfile.write(
                    f"id: {seq}\nevent: {kind}\ndata: {body}\n\n".encode("utf-8")
                )
                self.wfile.flush()
                last_mark = mark
                idle = 0.0
            if status["state"] in JobState.TERMINAL:
                return
            if app.closing:
                return  # server shutting down: end the stream cleanly
            time.sleep(app.sse_poll_interval)
            idle += app.sse_poll_interval
            if idle >= app.sse_keepalive_interval:
                self.wfile.write(b": keepalive\n\n")
                self.wfile.flush()
                idle = 0.0

    # -- verbs ----------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch("POST")

    def do_DELETE(self) -> None:  # noqa: N802
        self._dispatch("DELETE")


class JobServer:
    """The estimation service: HTTP front end + worker pool + job store.

    ``start()``/``stop()`` give tests and embedders full lifecycle
    control; :func:`serve` wraps them for the CLI.  Starting the server
    enables the global metrics registry (the service is an observability
    consumer by design — ``/metrics`` is part of its API) and forks the
    ``workers`` worker processes; ``stop()`` ends and joins them.

    Durable state lives in a WAL-mode SQLite database
    (:class:`~repro.service.store.SQLiteJobStore`); a legacy
    ``jobs.jsonl`` found in ``state_dir`` is migrated into it once at
    startup.  ``memo=False`` disables content-keyed result memoization
    (every submission runs, even when an identical spec already
    completed).

    **Multi-replica.**  N servers may share one ``state_dir``: claims
    are atomic leases, expired leases are stolen by surviving replicas,
    and any replica serves status/results for any job.  ``replica_id``
    defaults to ``host:port`` — stable across restarts (a crash-restart
    reclaims its own leases immediately) and distinct between replicas
    (which must bind different ports).  ``lease_ttl=None`` disables
    lease expiry (single-replica semantics).

    **Admission control.**  ``max_queue_depth`` bounds the shared queue;
    ``rate_limit`` (submits/second, burst ``rate_burst``) and
    ``tenant_quota`` (active jobs) apply per tenant — the ``X-API-Key``
    header, anonymous when absent.  Rejections are 429 with a
    ``Retry-After`` header and are counted in
    ``service_admission_rejections_total{reason=...}``.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8000,
        state_dir: Union[str, Path] = ".repro_service",
        workers: int = 2,
        verbose: bool = False,
        memo: bool = True,
        replica_id: Optional[str] = None,
        lease_ttl: Optional[float] = DEFAULT_LEASE_TTL,
        max_queue_depth: Optional[int] = None,
        rate_limit: Optional[float] = None,
        rate_burst: Optional[int] = None,
        tenant_quota: Optional[int] = None,
    ):
        if max_queue_depth is not None and max_queue_depth < 0:
            raise ConfigError("max_queue_depth must be >= 0 (or None)")
        if rate_limit is not None and rate_limit <= 0:
            raise ConfigError("rate_limit must be positive (or None)")
        if tenant_quota is not None and tenant_quota < 1:
            raise ConfigError("tenant_quota must be >= 1 (or None)")
        self.host = host
        self.state_dir = Path(state_dir)
        # Bind before building the store: the resolved port is part of
        # the default replica identity (stable across restarts, distinct
        # between replicas sharing a state dir).
        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.app = self  # type: ignore[attr-defined]
        self._httpd.verbose = verbose  # type: ignore[attr-defined]
        self._httpd.daemon_threads = True
        self.port = self._httpd.server_address[1]
        self.replica_id = replica_id or f"{host}:{self.port}"
        self.store = SQLiteJobStore(
            self.state_dir, memo=memo,
            replica_id=self.replica_id, lease_ttl=lease_ttl,
        )
        self.pool = WorkerPool(
            self.store, num_workers=workers, listener=self._httpd.socket
        )
        self.max_queue_depth = max_queue_depth
        self.rate_limit = rate_limit
        self.rate_burst = (
            rate_burst
            if rate_burst is not None
            else (max(1, int(rate_limit)) if rate_limit is not None else 1)
        )
        self.tenant_quota = tenant_quota
        #: Seconds a 429 tells the client to back off when the wait is
        #: not rate-limiter-determined (queue full / quota reached).
        self.retry_after_seconds = 1
        #: SSE cadence: job-state poll period and idle keepalive period.
        self.sse_poll_interval = 0.05
        self.sse_keepalive_interval = 10.0
        self._admission_lock = threading.Lock()
        # tenant -> (tokens, last monotonic).  Keys are attacker-chosen
        # (the raw X-API-Key header), so the map is pruned past
        # _MAX_BUCKETS — it must never grow without bound.
        self._buckets: dict = {}
        self._thread: Optional[threading.Thread] = None
        self._started_at: Optional[float] = None
        self._closing = False

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    @property
    def closing(self) -> bool:
        return self._closing

    # -- admission control ----------------------------------------------
    def admit(self, tenant: Optional[str]) -> None:
        """Gate one ``POST /v1/jobs``; raises a 429 :class:`_ApiError`
        with a ``Retry-After`` header when the submit must back off.

        Checks, cheapest first: per-tenant token bucket (``rate_limit``
        tokens/second, capacity ``rate_burst``), per-tenant active-job
        quota, then the shared bounded queue.
        """
        if self.rate_limit is not None:
            now = time.monotonic()
            with self._admission_lock:
                tokens, last = self._buckets.get(
                    tenant, (float(self.rate_burst), now)
                )
                tokens = min(
                    float(self.rate_burst),
                    tokens + (now - last) * self.rate_limit,
                )
                if tokens < 1.0:
                    self._buckets[tenant] = (tokens, now)
                    retry = max(1, ceil((1.0 - tokens) / self.rate_limit))
                    self._reject("rate_limited", retry, tenant)
                self._buckets[tenant] = (tokens - 1.0, now)
                if len(self._buckets) > MAX_RATE_BUCKETS:
                    self._prune_buckets_locked(now)
        if self.tenant_quota is not None:
            if self.store.tenant_active_jobs(tenant) >= self.tenant_quota:
                self._reject("quota", self.retry_after_seconds, tenant)
        if self.max_queue_depth is not None:
            if self.store.queue_depth() >= self.max_queue_depth:
                self._reject("queue_full", self.retry_after_seconds, tenant)

    def _prune_buckets_locked(self, now: float) -> None:
        """Evict token buckets so the map stays bounded.

        First drops every bucket idle long enough to have refilled to
        full burst — indistinguishable from a fresh one, so eviction is
        semantically free.  If a flood of *recent* distinct keys still
        holds the map over the cap, the oldest are dropped too; those
        tenants restart from a full burst, a bounded over-admission
        that beats unbounded memory growth.
        """
        refill = self.rate_burst / self.rate_limit
        for key in [
            k
            for k, (_tokens, last) in self._buckets.items()
            if now - last >= refill
        ]:
            del self._buckets[key]
        excess = len(self._buckets) - MAX_RATE_BUCKETS
        if excess > 0:
            for key in sorted(
                self._buckets, key=lambda k: self._buckets[k][1]
            )[:excess]:
                del self._buckets[key]

    def _reject(self, reason: str, retry_after: int, tenant: Optional[str]) -> None:
        get_registry().counter(
            "service_admission_rejections_total", reason=reason
        ).inc()
        who = f"tenant {tenant!r}" if tenant else "anonymous"
        detail = {
            "rate_limited": f"rate limit exceeded for {who}",
            "quota": (
                f"active-job quota ({self.tenant_quota}) reached for {who}"
            ),
            "queue_full": (
                f"queue full ({self.max_queue_depth} job(s) queued)"
            ),
        }[reason]
        raise _ApiError(
            429,
            f"{detail}; retry after {retry_after}s",
            headers={"Retry-After": retry_after},
        )

    # -- payload builders (also used by the handler) --------------------
    def health(self) -> dict:
        counts = self.store.counts()
        lease = self.store.lease_info()
        memo = self.store.memo_stats()
        return {
            "status": "ok",
            "jobs": counts,
            "workers": self.pool.num_workers,
            "busy_workers": self.pool.busy_count(),
            "queue_depth": self.store.queue_depth(),
            "queue_limit": self.max_queue_depth,
            "active_leases": lease["active_leases"],
            "oldest_lease_age_seconds": lease["oldest_lease_age_seconds"],
            "replica_id": self.replica_id,
            "lease_ttl_seconds": self.store.lease_ttl,
            "rate_limit_per_second": self.rate_limit,
            "tenant_quota": self.tenant_quota,
            "memo_hit_ratio": memo["ratio"],
            "store_backend": self.store.backend,
            "sim_kernel": kernel_info(),
            "uptime_seconds": (
                time.time() - self._started_at if self._started_at else 0.0
            ),
        }

    def job_trace(self, job: Job) -> dict:
        """The job's span tree payload: durable spans persisted by the
        worker merged with whatever is still live in the recorder
        (deduplicated by span id, ordered by start time)."""
        merged = {}
        for record in self.store.stored_spans(job.id):
            merged[record["span_id"]] = record
        if job.trace_id is not None:
            for record in get_span_recorder().spans_for_trace(job.trace_id):
                merged[record["span_id"]] = record
        spans = sorted(merged.values(), key=lambda r: r.get("start_ts", 0.0))
        return {
            "schema_version": SCHEMA_VERSION,
            "schema": SERVICE_TRACE_SCHEMA,
            "id": job.id,
            "trace_id": job.trace_id,
            "state": job.state,
            "spans": spans,
        }

    def metrics_text(self) -> str:
        registry = get_registry()
        snapshot = registry.snapshot()
        # The job-state gauges are computed from the store per scrape
        # (not registry-resident), so all states are always present —
        # a dashboard sees queued=0, not a missing series.
        gauges = [
            g for g in snapshot.get("gauges", [])
            if g.get("name") not in _SCRAPE_GAUGES
        ]
        counts = self.store.counts()
        for state, count in counts.items():
            gauges.append(
                {
                    "name": "service_jobs",
                    "labels": {"state": state},
                    "value": float(count),
                }
            )
        lease = self.store.lease_info()
        busy = self.pool.busy_count()
        scrape = [
            ("service_queue_depth", float(self.store.queue_depth())),
            ("service_active_leases", float(lease["active_leases"])),
            (
                "service_oldest_lease_age_seconds",
                float(lease["oldest_lease_age_seconds"]),
            ),
            ("service_busy_workers", float(busy)),
            ("service_worker_saturation", busy / self.pool.num_workers),
        ]
        if self.max_queue_depth is not None:
            scrape.append(
                ("service_queue_limit", float(self.max_queue_depth))
            )
        for name, value in scrape:
            gauges.append({"name": name, "labels": {}, "value": value})
        snapshot["gauges"] = gauges
        return render_prometheus(snapshot)

    def telemetry_summary(self) -> str:
        """One line for the ``repro serve`` shutdown log."""
        counts = self.store.counts()
        memo = self.store.memo_stats()
        uptime = time.time() - self._started_at if self._started_at else 0.0
        finished = sum(
            counts.get(state, 0) for state in ("completed", "failed", "cancelled")
        )
        info = kernel_info()
        kernel = info["active"]
        if info["backend"]:
            kernel += f"/{info['backend']}"
        return (
            f"served {sum(counts.values())} job(s) in {uptime:.1f}s "
            f"({finished} finished: "
            f"{counts.get('completed', 0)} completed, "
            f"{counts.get('failed', 0)} failed, "
            f"{counts.get('cancelled', 0)} cancelled; "
            f"memo hit ratio {memo['ratio']:.2f}; "
            f"sim kernel {kernel})"
        )

    # -- lifecycle ------------------------------------------------------
    def start(self) -> "JobServer":
        get_registry().enable()
        get_span_recorder().enable()
        self._started_at = time.time()
        self.pool.start()
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-http",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        self._closing = True  # ends in-flight SSE streams at next poll
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(5.0)
            self._thread = None
        self.pool.stop()
        self.store.close()

    def __enter__(self) -> "JobServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


def serve(
    host: str = "127.0.0.1",
    port: int = 8000,
    state_dir: Union[str, Path] = ".repro_service",
    workers: int = 2,
    verbose: bool = False,
    memo: bool = True,
    replica_id: Optional[str] = None,
    lease_ttl: Optional[float] = DEFAULT_LEASE_TTL,
    max_queue_depth: Optional[int] = None,
    rate_limit: Optional[float] = None,
    rate_burst: Optional[float] = None,
    tenant_quota: Optional[int] = None,
) -> None:
    """Run the job server until interrupted (the ``repro serve`` entry)."""
    server = JobServer(
        host=host, port=port, state_dir=state_dir, workers=workers,
        verbose=verbose, memo=memo, replica_id=replica_id,
        lease_ttl=lease_ttl, max_queue_depth=max_queue_depth,
        rate_limit=rate_limit, rate_burst=rate_burst,
        tenant_quota=tenant_quota,
    )
    requeued = server.store.requeued_ids
    migrated = server.store.migrated_jobs
    server.start()
    print(f"repro service listening on {server.url}")
    print(f"state dir: {server.state_dir.resolve()}")
    ttl = "off" if lease_ttl is None else f"{lease_ttl:g}s"
    print(f"replica {server.replica_id} (lease ttl {ttl})")
    if migrated:
        print(
            f"migrated {migrated} job(s) from jobs.jsonl into jobs.db "
            "(log renamed to jobs.jsonl.migrated)"
        )
    if not memo:
        print("result memoization disabled (--no-memo)")
    if requeued:
        print(f"resumed {len(requeued)} unfinished job(s): {', '.join(requeued)}")
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        print("shutting down")
    finally:
        summary = server.telemetry_summary()
        server.stop()
        print(summary)
