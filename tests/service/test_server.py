"""HTTP lifecycle tests: parity, errors, cancellation, metrics."""

from __future__ import annotations

import json
import socket
import time
import urllib.request

import numpy as np
import pytest

from repro.api import EstimatorConfig, build_population
from repro.errors import ServiceError
from repro.estimation.mc_estimator import MaxPowerEstimator
from repro.service.jobs import JobSpec, JobState


def long_spec(bench_path) -> JobSpec:
    """A job that cannot converge quickly (cancellation target)."""
    return JobSpec(
        circuit=str(bench_path),
        config=EstimatorConfig(error=1e-9, max_hyper_samples=200_000),
        seed=1,
        population_size=0,  # streaming: never runs out of units
    )


def wait_for(predicate, timeout=10.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(interval)
    raise AssertionError("condition not reached in time")


class TestBasics:
    def test_healthz(self, service):
        _server, client = service
        health = client.health()
        assert health["status"] == "ok"
        assert health["workers"] == 2
        assert set(health["jobs"]) == set(JobState.ALL)

    def test_submit_poll_result_parity_with_in_process_run(
        self, service, quick_spec
    ):
        _server, client = service
        job = client.submit(quick_spec)
        status = client.wait(job["id"], timeout=30)
        assert status["state"] == JobState.COMPLETED

        via_service = client.result(job["id"])
        population = build_population(
            quick_spec.circuit,
            population_size=quick_spec.population_size,
            seed=quick_spec.seed,
        )
        estimator = MaxPowerEstimator.from_config(population, quick_spec.config)
        in_process = estimator.run(
            rng=np.random.default_rng(quick_spec.seed + 1)
        )
        assert via_service.to_dict() == in_process.to_dict()

        # The served trajectory mirrors the run: one entry per k, ending
        # at the converged CI half-width.
        trajectory = status["trajectory"]
        assert len(trajectory) == in_process.k
        assert trajectory[-1]["cumulative_units"] == in_process.units_used
        assert trajectory[-1]["rel_half_width"] == pytest.approx(
            in_process.rel_half_width
        )

    def test_list_and_state_filter(self, service, quick_spec):
        _server, client = service
        job = client.submit(quick_spec)
        client.wait(job["id"], timeout=30)
        listed = client.jobs()
        assert job["id"] in {j["id"] for j in listed}
        completed = client.jobs(state="completed")
        assert job["id"] in {j["id"] for j in completed}
        assert client.jobs(state="failed") == []


class TestErrorMapping:
    def test_unknown_job_404(self, service):
        _server, client = service
        with pytest.raises(ServiceError) as exc:
            client.status("job-999999-dead")
        assert exc.value.status == 404

    def test_unknown_route_404(self, service):
        _server, client = service
        with pytest.raises(ServiceError) as exc:
            client._request("GET", "/v2/jobs")
        assert exc.value.status == 404

    def test_malformed_body_400(self, service):
        server, _client = service
        request = urllib.request.Request(
            server.url + "/v1/jobs", method="POST", data=b"not json"
        )
        with pytest.raises(urllib.error.HTTPError) as exc:
            urllib.request.urlopen(request)
        assert exc.value.code == 400

    def test_expect_100_continue_answered_before_the_body(self, service):
        # A reply is held until its request is done; the interim one
        # must still leave at once, or the client waits to send.
        server, _client = service
        head = (
            "POST /v1/jobs HTTP/1.1\r\nHost: localhost\r\n"
            "Content-Length: 2\r\nExpect: 100-continue\r\n\r\n"
        )
        with socket.create_connection(("127.0.0.1", server.port), timeout=5) as sock:
            sock.sendall(head.encode("ascii"))
            assert sock.recv(1024).startswith(b"HTTP/1.1 100 ")
            sock.sendall(b"{}")
            assert sock.recv(1024).startswith(b"HTTP/1.1 400 ")

    def test_spec_without_circuit_400(self, service):
        _server, client = service
        with pytest.raises(ServiceError) as exc:
            client.submit({"seed": 3})
        assert exc.value.status == 400
        assert "circuit" in str(exc.value)

    def test_invalid_spec_field_400(self, service):
        _server, client = service
        with pytest.raises(ServiceError) as exc:
            client.submit({"circuit": "c432", "num_runs": 0})
        assert exc.value.status == 400

    def test_bad_state_filter_400(self, service):
        _server, client = service
        with pytest.raises(ServiceError) as exc:
            client.jobs(state="bogus")
        assert exc.value.status == 400

    def test_result_of_unfinished_job_409(self, service, bench_path):
        _server, client = service
        job = client.submit(long_spec(bench_path))
        try:
            with pytest.raises(ServiceError) as exc:
                client.results(job["id"])
            assert exc.value.status == 409
        finally:
            client.cancel(job["id"])
            client.wait(job["id"], timeout=30)

    def test_cancel_of_finished_job_409(self, service, quick_spec):
        _server, client = service
        job = client.submit(quick_spec)
        client.wait(job["id"], timeout=30)
        with pytest.raises(ServiceError) as exc:
            client.cancel(job["id"])
        assert exc.value.status == 409


class TestCancellation:
    def test_running_job_cancels_mid_convergence(self, service, bench_path):
        _server, client = service
        job = client.submit(long_spec(bench_path))
        # Wait until it is demonstrably running (trajectory advancing).
        wait_for(lambda: len(client.status(job["id"])["trajectory"]) >= 3)
        cancelled = client.cancel(job["id"])
        assert cancelled["cancel_requested"] is True
        status = client.wait(job["id"], timeout=30)
        assert status["state"] == JobState.CANCELLED
        with pytest.raises(ServiceError) as exc:
            client.results(job["id"])
        assert exc.value.status == 409


class TestMetrics:
    def test_job_state_gauges_always_exported(self, service, quick_spec):
        _server, client = service
        job = client.submit(quick_spec)
        client.wait(job["id"], timeout=30)
        text = client.metrics()
        for state in JobState.ALL:
            assert f'repro_service_jobs{{state="{state}"}}' in text
        assert 'repro_service_jobs{state="completed"} 1' in text
        assert "repro_service_jobs_finished_total" in text
        assert "repro_service_job_seconds" in text


class TestMemoization:
    def test_identical_spec_served_from_memo_bit_identical(
        self, service, quick_spec
    ):
        from repro.obs.metrics import get_registry

        _server, client = service
        get_registry().reset()  # count this test's jobs only
        first = client.submit(quick_spec)
        client.wait(first["id"], timeout=30)
        first_payload = client.result_payload(first["id"])

        again = client.submit(quick_spec)
        status = client.wait(again["id"], timeout=30)
        assert status["state"] == JobState.COMPLETED
        assert status["memo_hit"] is True
        again_payload = client.result_payload(again["id"])
        assert again_payload["results"] == first_payload["results"]

        # Memoized-not-recomputed: exactly one job went through the
        # worker pool, and the memo counter recorded the second.
        text = client.metrics()
        assert "repro_service_memo_hits 1" in text
        assert (
            'repro_service_jobs_finished_total{state="completed"} 1' in text
        )
        assert 'repro_service_jobs{state="completed"} 2' in text


class TestConcurrency:
    def test_eight_concurrent_submissions_all_complete_deterministically(
        self, service, bench_path
    ):
        _server, client = service
        config = EstimatorConfig(max_hyper_samples=10)
        jobs = {}
        for seed in range(8):
            spec = JobSpec(
                circuit=str(bench_path),
                config=config,
                seed=seed,
                population_size=300,
            )
            jobs[seed] = client.submit(spec)["id"]
        for seed, job_id in jobs.items():
            status = client.wait(job_id, timeout=60)
            assert status["state"] == JobState.COMPLETED, status["error"]
        # Spot-check parity on two of them.
        for seed in (0, 7):
            population = build_population(
                str(bench_path), population_size=300, seed=seed
            )
            expected = MaxPowerEstimator.from_config(population, config).run(
                rng=np.random.default_rng(seed + 1)
            )
            served = client.result(jobs[seed])
            assert served.to_dict() == expected.to_dict()

    def test_ids_remain_unique_under_concurrent_submission(
        self, service, quick_spec
    ):
        import threading

        _server, client = service
        ids = []
        lock = threading.Lock()

        def submit():
            job = client.submit(quick_spec)
            with lock:
                ids.append(job["id"])

        threads = [threading.Thread(target=submit) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(set(ids)) == 8
        for job_id in ids:
            assert client.wait(job_id, timeout=60)["state"] == JobState.COMPLETED
