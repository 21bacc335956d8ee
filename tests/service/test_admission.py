"""Admission control, the SSE event stream, and client resilience.

Queue-depth tests stop the server's worker pool first, so submitted
jobs stay queued and the bound is exercised deterministically instead
of racing worker claims.  SSE payloads are distinguishable from polled
ones by their ``event``/``schema`` keys, which is how these tests prove
which transport :meth:`Client.stream` actually used.
"""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.errors import ServiceError
from repro.schemas import SERVICE_EVENTS_SCHEMA
from repro.service import Client, JobServer
from repro.service.client import _TERMINAL


def spec_dict(quick_spec, **overrides):
    payload = quick_spec.to_dict()
    payload.update(overrides)
    return payload


class TestAdmissionControl:
    def test_queue_full_rejected_with_retry_after(self, fabric, quick_spec):
        server = fabric(workers=1, max_queue_depth=1, memo=False)
        server.pool.stop()  # nothing claims: submits stay queued
        client = Client(server.url, timeout=10.0)
        client.submit(spec_dict(quick_spec, seed=1))
        with pytest.raises(ServiceError, match="queue full") as exc_info:
            client.submit(spec_dict(quick_spec, seed=2))
        assert exc_info.value.status == 429
        assert exc_info.value.retry_after >= 1
        assert 'reason="queue_full"' in client.metrics()
        assert "service_queue_limit 1" in client.metrics()
        assert client.health()["queue_limit"] == 1

    def test_rate_limit_rejects_burst(self, fabric, quick_spec):
        server = fabric(workers=1, rate_limit=0.001, rate_burst=1)
        client = Client(server.url, timeout=10.0)
        client.submit(spec_dict(quick_spec, seed=1))  # spends the token
        with pytest.raises(ServiceError, match="rate limit") as exc_info:
            client.submit(spec_dict(quick_spec, seed=2))
        assert exc_info.value.status == 429
        # The bucket refills at 0.001/s: the hint reflects the real wait.
        assert exc_info.value.retry_after >= 100
        assert 'reason="rate_limited"' in client.metrics()

    def test_tenant_quota_isolates_tenants(self, fabric, quick_spec):
        server = fabric(workers=1, tenant_quota=1, memo=False)
        server.pool.stop()
        alice = Client(server.url, timeout=10.0, api_key="alice")
        bob = Client(server.url, timeout=10.0, api_key="bob")
        anon = Client(server.url, timeout=10.0)
        alice.submit(spec_dict(quick_spec, seed=1))
        with pytest.raises(ServiceError, match="quota") as exc_info:
            alice.submit(spec_dict(quick_spec, seed=2))
        assert exc_info.value.status == 429
        # Other tenants (and anonymous) are unaffected by alice's quota.
        bob.submit(spec_dict(quick_spec, seed=3))
        anon.submit(spec_dict(quick_spec, seed=4))

    def test_healthz_surfaces_fabric_config(self, fabric):
        server = fabric(
            workers=1, max_queue_depth=7, rate_limit=2.0,
            tenant_quota=3, lease_ttl=12.0, replica_id="edge-1",
        )
        health = Client(server.url, timeout=10.0).health()
        assert health["queue_limit"] == 7
        assert health["rate_limit_per_second"] == 2.0
        assert health["tenant_quota"] == 3
        assert health["lease_ttl_seconds"] == 12.0
        assert health["replica_id"] == "edge-1"

    def test_job_payloads_never_echo_api_key(self, fabric, quick_spec):
        # The tenant is a credential (the raw X-API-Key header) and the
        # status endpoints are unauthenticated: no job payload may ever
        # carry it back out.
        server = fabric(workers=1, memo=False)
        server.pool.stop()  # keep the job queued and inspectable
        client = Client(server.url, timeout=10.0, api_key="sk-secret")
        submitted = client.submit(spec_dict(quick_spec, seed=1))
        status = client.status(submitted["id"])
        for payload in (submitted, status):
            assert "tenant" not in payload
            assert "sk-secret" not in json.dumps(payload)

    def test_rate_buckets_stay_bounded_under_key_cycling(
        self, fabric, monkeypatch
    ):
        # The bucket map is keyed by the raw X-API-Key header: a client
        # cycling random keys must not grow server memory without bound.
        import repro.service.server as server_mod

        monkeypatch.setattr(server_mod, "MAX_RATE_BUCKETS", 8)
        server = fabric(workers=1, rate_limit=1000.0, rate_burst=1000)
        for i in range(50):
            server.admit(f"attacker-key-{i}")
        assert len(server._buckets) <= 8
        # The hottest key survives the prune with its spend intact.
        assert "attacker-key-49" in server._buckets

    def test_rate_bucket_prune_drops_refilled_entries_first(self, fabric):
        server = fabric(workers=1, rate_limit=10.0, rate_burst=5)
        server.admit("old-tenant")
        # Rewind the idle bucket past its refill horizon (burst/rate =
        # 0.5 s): it is indistinguishable from a fresh one, so pruning
        # it is semantically free.
        tokens, last = server._buckets["old-tenant"]
        server._buckets["old-tenant"] = (tokens, last - 1.0)
        with server._admission_lock:
            server._prune_buckets_locked(time.monotonic())
        assert "old-tenant" not in server._buckets

    def test_unlimited_by_default(self, fabric, quick_spec):
        server = fabric(workers=1, memo=False)
        server.pool.stop()
        client = Client(server.url, timeout=10.0)
        for seed in range(5):
            client.submit(spec_dict(quick_spec, seed=seed))
        assert client.health()["queue_depth"] == 5
        assert client.health()["queue_limit"] is None


class TestEventStream:
    def test_stream_uses_sse_and_ends_terminal(self, service, quick_spec):
        _, client = service
        job = client.submit(quick_spec)
        statuses = list(client.stream(job["id"], timeout=30))
        assert statuses, "stream yielded nothing"
        assert statuses[-1]["state"] == "completed"
        # Every payload came off the SSE wire (polled dicts have no
        # event/schema keys) and is schema-stamped.
        assert all(s["schema"] == SERVICE_EVENTS_SCHEMA for s in statuses)
        assert all(s["event"] in ("state", "progress", "run") for s in statuses)
        # Progress is monotone: the trajectory only ever grows.
        lengths = [len(s["trajectory"]) for s in statuses]
        assert lengths == sorted(lengths)
        assert lengths[-1] > 0

    def test_stream_falls_back_to_polling(
        self, service, quick_spec, monkeypatch
    ):
        _, client = service
        # An older server: no /events endpoint at all.
        monkeypatch.setattr(
            Client, "_open_events", lambda self, path, timeout=None: None
        )
        job = client.submit(quick_spec)
        statuses = list(client.stream(job["id"], timeout=30))
        assert statuses[-1]["state"] == "completed"
        assert all("event" not in s for s in statuses)

    def test_stream_unknown_job_raises_404(self, service):
        _, client = service
        with pytest.raises(ServiceError) as exc_info:
            list(client.stream("job-does-not-exist", timeout=10))
        assert exc_info.value.status == 404

    def test_events_endpoint_speaks_sse(self, service, quick_spec):
        _, client = service
        job = client.submit(quick_spec)
        response = client._open_events(f"/v1/jobs/{job['id']}/events")
        try:
            assert response.headers.get_content_type() == "text/event-stream"
            payloads = []
            for payload in client._parse_sse(response):
                payloads.append(payload)
                if payload["state"] in _TERMINAL:
                    break
        finally:
            response.close()
        assert payloads[0]["id"] == job["id"]
        assert payloads[-1]["state"] == "completed"


class TestClientResilience:
    def test_status_retries_through_replica_restart(self, fabric, quick_spec):
        server = fabric("state", workers=1)
        client = Client(server.url, timeout=10.0)
        job = client.submit(quick_spec)
        client.wait(job["id"], timeout=30)  # durable in jobs.db
        port = server.port
        server.stop()

        def relaunch():
            time.sleep(0.6)
            fabric("state", workers=1, port=port)

        restarter = threading.Thread(target=relaunch)
        restarter.start()
        try:
            # First attempts hit a dead port; the retry/backoff window
            # spans the restart, and the new replica serves the answer.
            status = client.status(job["id"])
        finally:
            restarter.join()
        assert status["state"] == "completed"

    def test_retries_exhausted_raise_service_error(self):
        client = Client(
            "http://127.0.0.1:9", timeout=0.5, retries=1, retry_backoff=0.01
        )
        with pytest.raises(ServiceError, match="is the service running"):
            client.status("whatever")

    def test_submit_is_never_retried(self, quick_spec):
        attempts = []

        class CountingClient(Client):
            def _urlopen(self, request, retryable):
                attempts.append(retryable)
                return super()._urlopen(request, retryable)

        client = CountingClient(
            "http://127.0.0.1:9", timeout=0.5, retries=3, retry_backoff=0.01
        )
        with pytest.raises(ServiceError):
            client.submit(quick_spec)
        assert attempts == [False]  # one transport call, not retried
