"""Worker processes: lifecycle, failure isolation and what crosses back.

Every ``repro serve`` worker is a forked process driven by a thread in
the server.  These tests pin the process hygiene (nothing outlives the
server, a worker holds no socket or pipe of the server's), the failure
path (a worker killed mid-job fails only that job and is replaced), and
that the metrics and spans recorded in a worker process reach
``/metrics`` and the job's trace as they did from a worker thread.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import repro
from repro.api import EstimatorConfig, build_population, estimate, run_many
from repro.obs import build_span_tree
from repro.obs.metrics import get_registry
from repro.service import Client
from repro.service import worker as worker_module
from repro.service.jobs import JobSpec, JobState

# Label values are quoted and may hold braces (endpoint="/v1/jobs/{id}").
_SAMPLE = re.compile(r'^([A-Za-z_:][\w:]*)(\{(?:[^"}]|"[^"]*")*\})?\s+(\S+)$')
_LABEL = re.compile(r'(\w+)="([^"]*)"')

#: Metric names and label keys ``/metrics`` exposes after a served
#: ``fixed`` job, a ``pot`` job and a 3-run job (label values omitted).
EXPOSED_SERIES = {
    "repro_checkpoint_results_total{kind,status}",
    "repro_estimator_alpha_bucket{le}",
    "repro_estimator_alpha_count{}",
    "repro_estimator_alpha_sum{}",
    "repro_estimator_hyper_sample_seconds_count{}",
    "repro_estimator_hyper_sample_seconds_max{}",
    "repro_estimator_hyper_sample_seconds_min{}",
    "repro_estimator_hyper_sample_seconds_sum{}",
    "repro_estimator_hyper_samples_total{}",
    "repro_estimator_k_bucket{le}",
    "repro_estimator_k_count{}",
    "repro_estimator_k_sum{}",
    "repro_estimator_nonregular_fits_total{}",
    "repro_estimator_run_seconds_count{}",
    "repro_estimator_run_seconds_max{}",
    "repro_estimator_run_seconds_min{}",
    "repro_estimator_run_seconds_sum{}",
    "repro_estimator_runs_converged_total{}",
    "repro_estimator_runs_total{}",
    "repro_estimator_units_total{}",
    "repro_mle_fit_seconds_count{}",
    "repro_mle_fit_seconds_max{}",
    "repro_mle_fit_seconds_min{}",
    "repro_mle_fit_seconds_sum{}",
    "repro_mle_fits_total{}",
    "repro_mle_refine_total{path}",
    "repro_population_build_chunk_seconds_count{}",
    "repro_population_build_chunk_seconds_max{}",
    "repro_population_build_chunk_seconds_min{}",
    "repro_population_build_chunk_seconds_sum{}",
    "repro_population_build_seconds_count{}",
    "repro_population_build_seconds_max{}",
    "repro_population_build_seconds_min{}",
    "repro_population_build_seconds_sum{}",
    "repro_population_pairs_built_total{}",
    "repro_service_active_leases{}",
    "repro_service_busy_workers{}",
    "repro_service_http_request_seconds_bucket{endpoint,le,method}",
    "repro_service_http_request_seconds_count{endpoint,method}",
    "repro_service_http_request_seconds_sum{endpoint,method}",
    "repro_service_http_responses_total{endpoint,status}",
    "repro_service_job_seconds_count{}",
    "repro_service_job_seconds_max{}",
    "repro_service_job_seconds_min{}",
    "repro_service_job_seconds_sum{}",
    "repro_service_jobs_finished_total{state}",
    "repro_service_jobs{state}",
    "repro_service_oldest_lease_age_seconds{}",
    "repro_service_population_cache_total{hit}",
    "repro_service_queue_depth{}",
    "repro_service_worker_saturation{}",
    "repro_sim_batch_eval_total{}",
    "repro_sim_compile_seconds_count{}",
    "repro_sim_compile_seconds_max{}",
    "repro_sim_compile_seconds_min{}",
    "repro_sim_compile_seconds_sum{}",
    "repro_sim_compile_total{}",
}


def samples(text: str):
    """``(name, {label: value}, value)`` per exposition sample line."""
    for line in text.splitlines():
        match = _SAMPLE.match(line)
        if match:
            name, labels, value = match.groups()
            yield name, dict(_LABEL.findall(labels or "")), float(value)


def sample(text: str, name: str, **labels) -> float:
    """One sample's value (0 when the series is absent)."""
    for sample_name, sample_labels, value in samples(text):
        if sample_name == name and sample_labels == labels:
            return value
    return 0.0


def process_state(pid: int):
    """The ``State:`` letter of ``/proc/<pid>/status`` (None once reaped)."""
    try:
        status = Path(f"/proc/{pid}/status").read_text()
    except FileNotFoundError:
        return None
    return re.search(r"^State:\s+(\S)", status, re.M).group(1)


def children_of(pid: int):
    """Process ids whose parent is ``pid`` (what ``pgrep -P`` lists)."""
    found = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            text = stat.read_text()
        except OSError:
            continue
        if int(text.rsplit(")", 1)[1].split()[1]) == pid:
            found.append(int(stat.parent.name))
    return sorted(found)


def socket_inodes(pid: int):
    """Inodes of the sockets ``pid`` holds open."""
    inodes = set()
    for fd in Path(f"/proc/{pid}/fd").iterdir():
        try:
            target = os.readlink(fd)
        except OSError:
            continue
        if target.startswith("socket:["):
            inodes.add(int(target[8:-1]))
    return inodes


def assert_workers_hold_no_server_handle(server) -> None:
    """No worker process holds the listening socket or a pipe end the
    server holds."""
    listener = os.fstat(server._httpd.socket.fileno()).st_ino
    pipes = {
        os.fstat(worker.conn.fileno()).st_ino
        for worker in server.pool._workers
    }
    for pid in server.pool.worker_pids():
        held = socket_inodes(pid)
        assert listener not in held
        # Each worker holds one end of its own pipe and no end the
        # server holds.
        assert not held & pipes


def wait_for(predicate, timeout=10.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(interval)
    raise AssertionError("condition not reached in time")


def endless_spec(bench_path) -> JobSpec:
    """A job that runs until it is cancelled or its worker dies."""
    return JobSpec(
        circuit=str(bench_path),
        config=EstimatorConfig(error=1e-9, max_hyper_samples=200_000),
        seed=1,
        population_size=0,
    )


class TestLifecycle:
    def test_stop_leaves_no_worker_process_alive(self, fabric):
        server = fabric(workers=2)
        pids = server.pool.worker_pids()
        assert len(pids) == 2
        assert set(pids) <= set(children_of(os.getpid()))
        for pid in pids:
            assert process_state(pid) not in (None, "Z")
        server.stop()
        for pid in pids:
            assert process_state(pid) is None  # exited and reaped
        assert server.pool.worker_pids() == []

    def test_workers_hold_no_server_socket_or_sibling_pipe(self, fabric):
        assert_workers_hold_no_server_handle(fabric(workers=2))

    def test_start_waits_for_workers_to_drop_server_handles(
        self, fabric, monkeypatch
    ):
        # A worker slow to close what it inherited holds the handles
        # until it has, so start() must wait for it.
        main = worker_module._worker_main

        def slow_main(conn, inherited):
            time.sleep(0.5)
            main(conn, inherited)

        monkeypatch.setattr(worker_module, "_worker_main", slow_main)
        assert_workers_hold_no_server_handle(fabric(workers=2))

    def test_killed_worker_fails_only_its_job_and_is_replaced(
        self, fabric, quick_spec, bench_path
    ):
        server = fabric(workers=1, lease_ttl=None)
        client = Client(server.url, timeout=10.0)
        job = client.submit(endless_spec(bench_path))
        wait_for(lambda: len(client.status(job["id"])["trajectory"]) >= 2)
        (victim,) = server.pool.worker_pids()
        os.kill(victim, signal.SIGKILL)

        status = client.wait(job["id"], timeout=10)
        assert status["state"] == JobState.FAILED
        assert status["error"].startswith("WorkerError: worker process")
        assert "exited with code -9" in status["error"]
        wait_for(lambda: client.health()["busy_workers"] == 0)
        (replacement,) = server.pool.worker_pids()
        assert replacement != victim

        again = client.submit(quick_spec)
        assert client.wait(again["id"], timeout=30)["state"] == "completed"
        expected = estimate(
            quick_spec.circuit,
            quick_spec.config,
            seed=quick_spec.seed,
            population_size=quick_spec.population_size,
        )
        assert client.result(again["id"]).to_dict() == expected.to_dict()

    def test_killed_server_takes_its_idle_workers_along(self, tmp_path):
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro", "serve", "--port", "0",
             "--state-dir", str(tmp_path / "state"), "--workers", "2"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=env,
            text=True,
        )
        try:
            line = proc.stdout.readline()
            match = re.search(r"listening on http://127\.0\.0\.1:(\d+)", line)
            assert match, line
            port = int(match.group(1))
            Client(f"http://127.0.0.1:{port}", timeout=10.0).health()
            workers = wait_for(lambda: len(children_of(proc.pid)) == 2 and
                               children_of(proc.pid))
        finally:
            proc.kill()
            proc.wait(10)
            proc.stdout.close()
        try:
            wait_for(
                lambda: all(
                    process_state(pid) in (None, "Z") for pid in workers
                ),
                timeout=5.0,
            )
        finally:
            for pid in workers:  # a failed run leaves no orphans behind
                if process_state(pid) not in (None, "Z"):
                    os.kill(pid, signal.SIGKILL)
        # No worker kept the listening socket: the port is free at once.
        rebound = ThreadingHTTPServer(("127.0.0.1", port), BaseHTTPRequestHandler)
        rebound.server_close()


class TestWhatCrossesBack:
    def test_metric_names_and_label_keys_unchanged(self, service, bench_path):
        _server, client = service
        get_registry().reset()  # only this test's jobs and requests
        specs = [
            JobSpec(circuit=str(bench_path),
                    config=EstimatorConfig(max_hyper_samples=10),
                    seed=3, population_size=400),
            JobSpec(circuit=str(bench_path),
                    config=EstimatorConfig(method="pot",
                                           pot_threshold_quantile=0.9,
                                           max_hyper_samples=10),
                    seed=4, population_size=400),
            JobSpec(circuit=str(bench_path),
                    config=EstimatorConfig(max_hyper_samples=8),
                    seed=5, num_runs=3, population_size=400),
        ]
        for spec in specs:
            job = client.submit(spec)
            assert client.wait(job["id"], timeout=60)["state"] == "completed"
        exposed = {
            f"{name}{{{','.join(sorted(labels))}}}"
            for name, labels, _value in samples(client.metrics())
        }
        assert exposed == EXPOSED_SERIES

    def test_worker_spans_nest_under_job_run_once_each(
        self, service, quick_spec
    ):
        _server, client = service
        job = client.submit(quick_spec)
        client.wait(job["id"], timeout=30)
        spans = client.trace(job["id"])["spans"]
        ids = [s["span_id"] for s in spans]
        assert len(ids) == len(set(ids))

        (root,) = build_span_tree(spans)

        def find(node, name):
            if node["name"] == name:
                return node
            for child in node["children"]:
                found = find(child, name)
                if found is not None:
                    return found
            return None

        def names(node):
            return [node["name"]] + [
                n for child in node["children"] for n in names(child)
            ]

        below = names(find(root, "job.run"))[1:]
        for name in ("population.build", "estimator.run",
                     "estimator.hyper_sample", "mle.fit"):
            assert name in below

    def test_a_cancelled_jobs_worker_spans_reach_its_trace(
        self, service, bench_path
    ):
        # A served job is one attempt, shipped back on every outcome.
        _server, client = service
        job = client.submit(endless_spec(bench_path))
        wait_for(lambda: client.status(job["id"])["trajectory"], timeout=30)
        client.cancel(job["id"])
        assert client.wait(job["id"], timeout=30)["state"] == "cancelled"
        spans = client.trace(job["id"])["spans"]
        by_name = {}
        for span in spans:
            by_name.setdefault(span["name"], []).append(span)
        (run,) = by_name["estimator.run"]
        assert run["status"] == "error"
        assert by_name["estimator.hyper_sample"]
        (job_run,) = by_name["job.run"]
        assert job_run["attributes"]["state"] == "cancelled"

    def test_served_methods_equal_in_process_estimate(self, service, bench_path):
        _server, client = service
        for method, quantile in (("fixed", None), ("auto", None), ("pot", 0.9)):
            config = EstimatorConfig(method=method, max_hyper_samples=10,
                                     pot_threshold_quantile=quantile)
            job = client.submit(str(bench_path), config, seed=6,
                                population_size=400)
            assert client.wait(job["id"], timeout=60)["state"] == "completed"
            expected = estimate(str(bench_path), config, seed=6,
                                population_size=400)
            assert client.result(job["id"]).to_dict() == expected.to_dict()

    def test_served_multi_run_job_equals_run_many(self, service, bench_path):
        _server, client = service
        spec = JobSpec(circuit=str(bench_path),
                       config=EstimatorConfig(max_hyper_samples=8),
                       seed=8, num_runs=4, population_size=400)
        job = client.submit(spec)
        assert client.wait(job["id"], timeout=60)["state"] == "completed"
        population = build_population(
            spec.circuit, population_size=spec.population_size, seed=spec.seed
        )
        expected = run_many(population, spec.num_runs, spec.config,
                            base_seed=spec.seed + 1)
        assert [r.to_dict() for r in client.results(job["id"])] == [
            r.to_dict() for r in expected
        ]

    def test_metrics_never_go_backwards_during_a_multi_run_job(
        self, service, quick_spec, bench_path
    ):
        # A served multi-run job scopes each run attempt's metrics; on a
        # worker thread that reset the server's own registry mid-attempt,
        # so a scrape could read less than had been recorded.
        _server, client = service
        for seed in (1, 2, 3):
            job = client.submit(
                JobSpec(circuit=quick_spec.circuit, config=quick_spec.config,
                        seed=seed, population_size=quick_spec.population_size)
            )
            assert client.wait(job["id"], timeout=30)["state"] == "completed"
        multi = client.submit(
            JobSpec(circuit=str(bench_path),
                    config=EstimatorConfig(max_hyper_samples=8),
                    seed=9, num_runs=20, population_size=400)
        )

        def read(text):
            return (
                sample(text, "repro_service_jobs_finished_total",
                       state="completed"),
                {
                    (labels["endpoint"], labels["status"]): value
                    for name, labels, value in samples(text)
                    if name == "repro_service_http_responses_total"
                },
            )

        def status_gets(text):
            return sample(text, "repro_service_http_request_seconds_count",
                          endpoint="/v1/jobs/{id}", method="GET")

        scrapes = 0
        last_completed, last_responses = read(client.metrics())
        scrapes += 1
        deadline = time.monotonic() + 60
        while last_completed < 4:
            assert time.monotonic() < deadline, "multi-run job never settled"
            time.sleep(0.01)
            completed, responses = read(client.metrics())
            scrapes += 1
            assert completed >= last_completed
            for key, value in last_responses.items():
                assert responses.get(key, 0.0) >= value, key
            last_completed, last_responses = completed, responses

        assert last_completed == 4
        # Every earlier scrape was answered and counted, exactly once.
        assert last_responses[("/metrics", "200")] == scrapes - 1
        assert last_responses[("/v1/jobs", "201")] == 4
        # The per-job series are read too: a status request after the
        # wait is counted under its route template.
        assert client.wait(multi["id"], timeout=30)["state"] == "completed"
        client.status(multi["id"])
        text = client.metrics()
        assert status_gets(text) > 0
        assert read(text)[1][("/v1/jobs/{id}", "200")] == status_gets(text)
