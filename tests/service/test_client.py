"""Client-side behaviors: payload forms, wait/stream, failure modes."""

from __future__ import annotations

import json
import re
import threading
import time

import pytest

from repro.errors import ServiceError
from repro.schemas import SCHEMA_VERSION
from repro.service import Client
from repro.service.jobs import JobState

from .test_server import long_spec, wait_for

_COUNT = re.compile(
    r'^repro_service_http_request_seconds_count\{((?:[^"}]|"[^"]*")*)\}'
    r"\s+(\S+)$"
)


def status_requests(client) -> float:
    """``GET /v1/jobs/{id}`` requests the server has answered so far."""
    wanted = {"endpoint": "/v1/jobs/{id}", "method": "GET"}
    for line in client.metrics().splitlines():
        match = _COUNT.match(line)
        if match and dict(re.findall(r'(\w+)="([^"]*)"', match[1])) == wanted:
            return float(match[2])
    return 0.0


class TestSubmitForms:
    def test_submit_raw_dict(self, service, bench_path):
        _server, client = service
        job = client.submit(
            {
                "circuit": str(bench_path),
                "seed": 3,
                "population_size": 300,
                "config": {"max_hyper_samples": 10},
            }
        )
        status = client.wait(job["id"], timeout=30)
        assert status["state"] == JobState.COMPLETED

    def test_submit_kwargs_build_a_spec(self, service, bench_path):
        from repro.api import EstimatorConfig

        _server, client = service
        job = client.submit(
            str(bench_path),
            EstimatorConfig(max_hyper_samples=10),
            seed=3,
            population_size=300,
        )
        assert client.wait(job["id"], timeout=30)["state"] == JobState.COMPLETED

    def test_submit_method_shorthand(self, service, bench_path):
        # method= (and POT knobs) as bare keywords build the config.
        _server, client = service
        job = client.submit(
            str(bench_path),
            method="pot",
            pot_threshold_quantile=0.9,
            seed=3,
            population_size=300,
        )
        assert client.wait(job["id"], timeout=30)["state"] == JobState.COMPLETED
        result = client.result(job["id"])
        assert result.method == "pot"

    def test_submit_method_shorthand_conflicts_with_config(
        self, service, bench_path
    ):
        from repro.api import EstimatorConfig

        _server, client = service
        with pytest.raises(ValueError, match="not both"):
            client.submit(
                str(bench_path),
                EstimatorConfig(max_hyper_samples=10),
                method="auto",
            )

    def test_result_payload_is_versioned(self, service, quick_spec):
        _server, client = service
        job = client.submit(quick_spec)
        client.wait(job["id"], timeout=30)
        payload = client.result_payload(job["id"])
        assert payload["schema_version"] == SCHEMA_VERSION
        assert payload["id"] == job["id"]
        assert len(payload["results"]) == 1
        assert payload["results"][0]["schema_version"] == SCHEMA_VERSION


class TestWaitAndStream:
    def test_wait_timeout_raises_and_job_keeps_running(
        self, service, bench_path
    ):
        _server, client = service
        job = client.submit(long_spec(bench_path))
        try:
            with pytest.raises(ServiceError, match="still"):
                client.wait(job["id"], timeout=0.3, poll_interval=0.05)
            assert client.status(job["id"])["state"] in (
                JobState.QUEUED,
                JobState.RUNNING,
            )
        finally:
            client.cancel(job["id"])
            client.wait(job["id"], timeout=30)

    def test_wait_follows_the_event_stream(self, service, bench_path):
        # A job cancelled after 0.6 s: wait returns on the terminal event
        # without one status request (polling every 0.2 s made about 4).
        _server, client = service
        job = client.submit(long_spec(bench_path))
        client.status(job["id"])
        before = status_requests(client)
        assert before > 0
        cancel = threading.Timer(0.6, client.cancel, args=(job["id"],))
        cancel.start()
        try:
            status = client.wait(job["id"], timeout=30)
        finally:
            cancel.join()
        assert status["state"] == JobState.CANCELLED
        assert status_requests(client) == before
        assert status == client.status(job["id"])

    def test_wait_polls_a_server_without_events(
        self, service, quick_spec, monkeypatch
    ):
        _server, client = service
        monkeypatch.setattr(
            Client, "_open_events", lambda self, path, timeout=None: None
        )
        job = client.submit(quick_spec)
        before = status_requests(client)
        status = client.wait(job["id"], timeout=30, poll_interval=0.02)
        assert status["state"] == JobState.COMPLETED
        assert status_requests(client) > before

    def test_wait_timeout_on_a_queued_job(self, fabric, quick_spec):
        # A queued job sends no event after the first; the read deadline
        # still ends the wait on time.
        server = fabric(workers=1)
        server.pool.stop()
        client = Client(server.url, timeout=10.0)
        job = client.submit(quick_spec)
        start = time.monotonic()
        with pytest.raises(ServiceError, match="still queued after 0.3s"):
            client.wait(job["id"], timeout=0.3)
        assert time.monotonic() - start < 3.0

    def test_wait_timeout_between_keepalives(self, fabric, quick_spec):
        # Keepalives every 2 s reset each read; the wait must still end
        # at its 3 s deadline, not at the 4 s keepalive.
        server = fabric(workers=1)
        server.pool.stop()
        server.sse_keepalive_interval = 2.0
        client = Client(server.url, timeout=10.0)
        job = client.submit(quick_spec)
        start = time.monotonic()
        with pytest.raises(ServiceError, match="still queued after 3s"):
            client.wait(job["id"], timeout=3.0)
        assert time.monotonic() - start < 3.6

    def test_event_parsing_ends_at_a_keepalive_past_the_deadline(self):
        payload = json.dumps({"schema_version": SCHEMA_VERSION, "state": "queued"})
        frames = [b": keepalive\n", b"\n", f"data: {payload}\n".encode(), b"\n"]
        client = Client("http://127.0.0.1:9")
        assert [p["state"] for p in client._parse_sse(iter(frames))] == ["queued"]
        past = time.monotonic() - 1.0
        assert list(client._parse_sse(iter(frames), past)) == []

    def test_stream_yields_progress_then_terminal(self, service, bench_path):
        _server, client = service
        job = client.submit(long_spec(bench_path))
        wait_for(lambda: len(client.status(job["id"])["trajectory"]) >= 2)
        seen = []
        cancelled = False
        for status in client.stream(job["id"], poll_interval=0.02):
            seen.append(status)
            if len(status["trajectory"]) >= 3 and not cancelled:
                client.cancel(job["id"])
                cancelled = True
        assert seen[-1]["state"] == JobState.CANCELLED
        lengths = [len(s["trajectory"]) for s in seen]
        assert lengths == sorted(lengths)  # monotone progress

    def test_stream_of_quick_job_ends_completed(self, service, quick_spec):
        _server, client = service
        job = client.submit(quick_spec)
        statuses = list(client.stream(job["id"], poll_interval=0.02))
        assert statuses[-1]["state"] == JobState.COMPLETED


class TestTransportFailures:
    def test_unreachable_service_raises_service_error(self):
        client = Client("http://127.0.0.1:9", timeout=0.5)
        with pytest.raises(ServiceError, match="is the service running"):
            client.health()

    def test_http_error_carries_status_and_server_message(self, service):
        _server, client = service
        with pytest.raises(ServiceError) as exc:
            client.status("job-000000-none")
        assert exc.value.status == 404
        assert "no such job" in str(exc.value)
