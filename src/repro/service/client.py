"""Typed Python client for the estimation service (stdlib ``urllib``).

One class, three idioms::

    client = Client("http://127.0.0.1:8000")

    # Fire and forget
    job = client.submit("c432", seed=1)

    # Block until done, then fetch the deserialized result
    client.wait(job["id"])
    result = client.result(job["id"])          # EstimationResult
    print(result.summary())

    # Watch convergence live (one status dict per new hyper-sample)
    for status in client.stream(job["id"]):
        k = len(status["trajectory"])
        print(k, status["trajectory"][-1]["rel_half_width"] if k else None)

Every HTTP failure raises :class:`~repro.errors.ServiceError` carrying
the server's message and the status code (plus ``retry_after`` on a 429
admission rejection); payload schema versions are validated on receipt,
so a client never silently consumes a payload from an incompatible
future server.

**Replica resilience.**  Idempotent requests (every ``GET``) retry with
exponential backoff through transient connection failures, so a replica
bounce mid-:meth:`Client.wait` or mid-:meth:`Client.stream` is
invisible — the restarted (or surviving) replica picks the job up from
the shared store and the client's poll/stream simply resumes.  Submits
are *not* retried automatically (a retried ``POST`` could double-submit
under memoization-off servers); catch the :class:`ServiceError` and
resubmit if that's what you want.

:meth:`Client.stream` consumes the server's ``/events`` server-sent
-events endpoint (push; one event per state change / new hyper-sample /
completed run) and transparently falls back to status polling against
servers that predate SSE.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from typing import Iterator, List, Optional, Union

from ..errors import ServiceError
from ..obs.spans import SpanContext, get_span_recorder, new_span_id, new_trace_id
from ..schemas import check_schema_version, load_estimation_result

__all__ = ["Client"]

_TERMINAL = ("completed", "failed", "cancelled")
#: Keys an SSE event payload adds to the job status dict.
_EVENT_KEYS = ("schema", "event")
#: Shortest socket timeout of an events connection opened near its
#: deadline (the server's first frame arrives at once).
_MIN_READ_TIMEOUT = 0.05


class Client:
    """HTTP client bound to one service base URL.

    ``api_key`` (sent as ``X-API-Key``) names the tenant for per-tenant
    admission limits; ``retries``/``retry_backoff`` bound how long
    idempotent requests ride out a replica restart (backoff doubles per
    attempt: 0.2, 0.4, 0.8, ... seconds).
    """

    def __init__(
        self,
        base_url: str = "http://127.0.0.1:8000",
        timeout: float = 30.0,
        api_key: Optional[str] = None,
        retries: int = 5,
        retry_backoff: float = 0.2,
    ):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.api_key = api_key
        self.retries = max(0, int(retries))
        self.retry_backoff = retry_backoff

    # -- transport ------------------------------------------------------
    def _base_headers(self) -> dict:
        return {"X-API-Key": self.api_key} if self.api_key is not None else {}

    def _urlopen(
        self,
        request: urllib.request.Request,
        retryable: bool,
        timeout: Optional[float] = None,
    ):
        """``urlopen`` with bounded retry on transient transport faults.

        Retries only connection-level failures (refused, reset, dropped
        mid-restart) — an HTTP error response is a server answer, not a
        transport fault, and propagates immediately.  ``timeout``
        overrides the client's socket timeout for this connection.
        """
        if timeout is None:
            timeout = self.timeout
        attempt = 0
        while True:
            try:
                return urllib.request.urlopen(request, timeout=timeout)
            except urllib.error.HTTPError:
                raise
            except (urllib.error.URLError, ConnectionError, TimeoutError) as exc:
                attempt += 1
                if not retryable or attempt > self.retries:
                    reason = getattr(exc, "reason", exc)
                    raise ServiceError(
                        f"{request.get_method()} {request.selector} failed: "
                        f"{reason} (is the service running at "
                        f"{self.base_url}?)"
                    ) from None
                time.sleep(self.retry_backoff * (2 ** (attempt - 1)))

    @staticmethod
    def _http_error(method: str, path: str, exc: urllib.error.HTTPError):
        detail = exc.read().decode("utf-8", "replace")
        try:
            message = json.loads(detail)["error"]["message"]
        except Exception:
            message = detail or exc.reason
        retry_after: Optional[float] = None
        header = exc.headers.get("Retry-After") if exc.headers else None
        if header is not None:
            try:
                retry_after = float(header)
            except ValueError:
                pass
        return ServiceError(
            f"{method} {path} -> {exc.code}: {message}",
            status=exc.code,
            retry_after=retry_after,
        )

    def _request(
        self,
        method: str,
        path: str,
        body: Optional[dict] = None,
        raw: bool = False,
        headers: Optional[dict] = None,
    ):
        all_headers = self._base_headers()
        all_headers.update(headers or {})
        if body is not None:
            all_headers["Content-Type"] = "application/json"
        request = urllib.request.Request(
            self.base_url + path,
            method=method,
            data=json.dumps(body).encode("utf-8") if body is not None else None,
            headers=all_headers,
        )
        try:
            with self._urlopen(request, retryable=method == "GET") as response:
                payload = response.read()
        except urllib.error.HTTPError as exc:
            raise self._http_error(method, path, exc) from None
        if raw:
            return payload.decode("utf-8")
        return json.loads(payload)

    # -- job lifecycle --------------------------------------------------
    def submit(self, circuit_or_spec, config=None, **spec_kwargs) -> dict:
        """Submit a job; returns its status dict (``id``, ``state``, ...).

        Accepts a circuit name/path plus :class:`~repro.service.jobs.JobSpec`
        keyword fields, a ready :class:`~repro.service.jobs.JobSpec`, or a
        raw spec dict (for language-agnostic callers).  With a circuit
        argument, the estimator-selection knobs may be passed directly —
        ``submit("c432", method="auto")`` is shorthand for building an
        :class:`~repro.api.EstimatorConfig` with that ``method`` (plus
        ``pot_threshold_quantile``/``pot_batch_size`` if given).

        A memoizing server may return the job already ``completed`` with
        ``memo_hit: true`` — the spec matched an earlier completed job,
        so its (bit-identical) results were attached without running.
        :meth:`wait` and :meth:`stream` handle that transparently.
        """
        from .jobs import JobSpec  # lazy: keep client import-light

        if isinstance(circuit_or_spec, JobSpec):
            payload = circuit_or_spec.to_dict()
        elif isinstance(circuit_or_spec, dict):
            payload = dict(circuit_or_spec)
        else:
            method_kwargs = {
                key: spec_kwargs.pop(key)
                for key in ("method", "pot_threshold_quantile", "pot_batch_size")
                if key in spec_kwargs
            }
            if method_kwargs:
                if config is not None:
                    raise ValueError(
                        "pass estimator-selection knobs either inside config= "
                        "or as bare keywords, not both"
                    )
                from ..api import EstimatorConfig  # lazy: keep client import-light

                config = EstimatorConfig(**method_kwargs)
            if config is not None:
                spec_kwargs["config"] = config
            payload = JobSpec(circuit=str(circuit_or_spec), **spec_kwargs).to_dict()
        # Propagate W3C trace context: if this process records spans, the
        # submit becomes a child of the ambient trace; otherwise a fresh
        # (unrecorded) context still names the trace so the server-side
        # span tree is connected end to end.
        spans = get_span_recorder()
        with spans.span("client.submit", circuit=payload.get("circuit")):
            context = spans.current_context()
            if context is None or context.span_id is None:
                context = SpanContext(
                    trace_id=new_trace_id(), span_id=new_span_id()
                )
            status = self._request(
                "POST",
                "/v1/jobs",
                body=payload,
                headers={"traceparent": context.to_traceparent()},
            )
        check_schema_version(status, "job status payload")
        return status

    def status(self, job_id: str) -> dict:
        status = self._request("GET", f"/v1/jobs/{job_id}")
        check_schema_version(status, "job status payload")
        return status

    def results(self, job_id: str) -> List[object]:
        """All runs of a completed job as ``EstimationResult`` objects."""
        payload = self._request("GET", f"/v1/jobs/{job_id}/result")
        check_schema_version(payload, "job result payload")
        return [load_estimation_result(r) for r in payload["results"]]

    def result(self, job_id: str):
        """The single result of a completed one-run job (first run of a
        multi-run job)."""
        return self.results(job_id)[0]

    def result_payload(self, job_id: str) -> dict:
        """The raw result JSON exactly as served (archival/artifacts)."""
        payload = self._request("GET", f"/v1/jobs/{job_id}/result")
        check_schema_version(payload, "job result payload")
        return payload

    def cancel(self, job_id: str) -> dict:
        return self._request("DELETE", f"/v1/jobs/{job_id}")

    def jobs(self, state: Optional[str] = None) -> List[dict]:
        path = "/v1/jobs" + (f"?state={state}" if state else "")
        return self._request("GET", path)["jobs"]

    # -- waiting --------------------------------------------------------
    def wait(
        self,
        job_id: str,
        timeout: Optional[float] = None,
        poll_interval: float = 0.2,
    ) -> dict:
        """Block until the job reaches a terminal state; return its status
        (the dict :meth:`status` returns).

        Follows :meth:`stream`, so it returns as soon as the job settles;
        a server without the events endpoint is polled every
        ``poll_interval`` seconds.  Raises
        :class:`~repro.errors.ServiceError` if ``timeout`` (in seconds)
        elapses first — the job keeps running server-side.
        """
        for status in self.stream(job_id, poll_interval, timeout):
            pass
        return {k: v for k, v in status.items() if k not in _EVENT_KEYS}

    def stream(
        self,
        job_id: str,
        poll_interval: float = 0.2,
        timeout: Optional[float] = None,
    ) -> Iterator[dict]:
        """Yield a status dict whenever the job makes visible progress
        (new trajectory entry, completed run, or state change); the
        final yield is the terminal status.

        Prefers the server's ``GET /v1/jobs/{id}/events`` SSE endpoint
        (events are pushed, so latency is one server-side poll tick
        instead of ``poll_interval``) and reconnects through transient
        disconnects; a server without the endpoint gets plain status
        polling.  Either way every yielded dict has the same shape, and
        duplicates replayed across a reconnect are suppressed.
        """
        deadline = time.monotonic() + timeout if timeout is not None else None
        # Mutable so the SSE leg's progress survives a fallback to polling.
        last = [(None, -1, -1)]
        sse = self._stream_sse(job_id, deadline, timeout, last)
        if sse is not None:
            yield from sse
            return
        yield from self._stream_poll(job_id, poll_interval, deadline, timeout, last)

    def _stream_poll(
        self,
        job_id: str,
        poll_interval: float,
        deadline: Optional[float],
        timeout: Optional[float],
        last: list,
    ) -> Iterator[dict]:
        while True:
            status = self.status(job_id)
            mark = (
                status["state"],
                len(status["trajectory"]),
                status["completed_runs"],
            )
            if mark != last[0]:
                last[0] = mark
                yield status
            if status["state"] in _TERMINAL:
                return
            if deadline is not None and time.monotonic() >= deadline:
                raise ServiceError(
                    f"job {job_id} still {status['state']} after {timeout:g}s"
                )
            time.sleep(poll_interval)

    def _stream_sse(
        self,
        job_id: str,
        deadline: Optional[float],
        timeout: Optional[float],
        last: list,
    ):
        """The SSE leg of :meth:`stream`, or ``None`` when the server
        has no ``/events`` endpoint (fall back to polling).

        Returns a generator rather than being one so the
        capability probe (the first connection attempt) happens eagerly
        — a generator's body wouldn't run until first ``next()``.
        """
        path = f"/v1/jobs/{job_id}/events"

        def read_timeout() -> Optional[float]:
            # A job that sends no event (still queued) cannot hold the
            # stream past its deadline: reads give up there.
            if deadline is None:
                return None
            left = deadline - time.monotonic()
            return max(min(self.timeout, left), _MIN_READ_TIMEOUT)

        response = self._open_events(path, timeout=read_timeout())
        if response is None:
            return None

        def events() -> Iterator[dict]:
            conn = response
            attempt = 0
            while True:
                disconnected = False
                try:
                    for payload in self._parse_sse(conn, deadline):
                        attempt = 0  # healthy stream: reset retry budget
                        mark = (
                            payload["state"],
                            len(payload["trajectory"]),
                            payload["completed_runs"],
                        )
                        if mark != last[0]:
                            last[0] = mark
                            yield payload
                        if payload["state"] in _TERMINAL:
                            return
                        if (
                            deadline is not None
                            and time.monotonic() >= deadline
                        ):
                            raise ServiceError(
                                f"job {job_id} still {payload['state']} "
                                f"after {timeout:g}s"
                            )
                except (OSError, ValueError):
                    # Dropped mid-stream (replica killed, proxy reset) or
                    # a frame truncated by the cut: reconnect and let the
                    # mark dedup swallow the replayed snapshot.
                    disconnected = True
                finally:
                    conn.close()
                if not disconnected:
                    # Clean end without a terminal event: the server shut
                    # down gracefully mid-stream.  Reconnect (retried —
                    # another replica or a restart finishes the job).
                    pass
                if deadline is not None and time.monotonic() >= deadline:
                    raise ServiceError(
                        f"job {job_id} still {last[0][0] or 'unsettled'} "
                        f"after {timeout:g}s"
                    )
                attempt += 1
                if attempt > self.retries:
                    raise ServiceError(
                        f"event stream for job {job_id} lost and "
                        f"{self.retries} reconnects failed "
                        f"(is the service running at {self.base_url}?)"
                    )
                time.sleep(self.retry_backoff * (2 ** (attempt - 1)))
                conn = self._open_events(path, timeout=read_timeout())
                if conn is None:  # downgraded server mid-stream
                    yield from self._stream_poll(
                        job_id, 0.2, deadline, timeout, last
                    )
                    return

        return events()

    def _open_events(self, path: str, timeout: Optional[float] = None):
        """One SSE connection attempt; ``None`` means the server has no
        events endpoint (404/405) and the caller should poll instead.
        ``timeout`` bounds each read (default: the client's timeout).

        A 404 is ambiguous (unknown endpoint vs. unknown job) — polling
        resolves it: the status request re-raises a crisp 404 for a
        genuinely missing job.
        """
        headers = self._base_headers()
        headers["Accept"] = "text/event-stream"
        request = urllib.request.Request(self.base_url + path, headers=headers)
        try:
            return self._urlopen(request, retryable=True, timeout=timeout)
        except urllib.error.HTTPError as exc:
            exc.read()
            if exc.code in (404, 405):
                return None
            raise self._http_error("GET", path, exc) from None

    def _parse_sse(
        self, response, deadline: Optional[float] = None
    ) -> Iterator[dict]:
        """Decode ``data:`` frames off one SSE connection into validated
        status payloads; comments (keepalives) and other fields are
        skipped.  Ends when the server closes the stream, or at a
        keepalive after which the next one would come past ``deadline``
        (a ``time.monotonic()``): the caller then reconnects with reads
        that give up at the deadline."""
        data_lines: List[str] = []
        previous = time.monotonic()
        for raw in response:
            now = time.monotonic()
            gap, previous = now - previous, now
            line = raw.decode("utf-8").rstrip("\r\n")
            if not line:  # blank line: dispatch accumulated event
                if data_lines:
                    payload = json.loads("\n".join(data_lines))
                    data_lines = []
                    check_schema_version(payload, "job event payload")
                    yield payload
                continue
            if line.startswith(":"):  # keepalive comment, one silent gap
                if deadline is not None and now + gap >= deadline:
                    return
                continue
            if line.startswith("data:"):
                data_lines.append(line[5:].lstrip(" "))

    def trace(self, job_id: str) -> dict:
        """The job's span tree payload (``trace_id`` + flat ``spans``
        list; feed it to :func:`repro.obs.build_span_tree` or
        :func:`repro.obs.to_chrome_trace`)."""
        payload = self._request("GET", f"/v1/jobs/{job_id}/trace")
        check_schema_version(payload, "job trace payload")
        return payload

    # -- service introspection ------------------------------------------
    def health(self) -> dict:
        return self._request("GET", "/healthz")

    def metrics(self) -> str:
        """The raw Prometheus text exposition."""
        return self._request("GET", "/metrics", raw=True)
