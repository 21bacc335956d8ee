"""Driving a live ``repro serve`` process: start/stop, timed
submit → result round trips, and the ``/metrics`` scrape."""

from __future__ import annotations

import re
import shutil
import subprocess
import time
from pathlib import Path
from typing import Dict, Optional

import harness
from harness import median

_URL = re.compile(r"listening on (http://\S+)")
_SAMPLE = re.compile(r"^([A-Za-z_:][\w:]*)(\{[^}]*\})?\s+(\S+)$")
_LABEL = re.compile(r'(\w+)="([^"]*)"')


class Server:
    """One ``python -m repro serve --port 0 --workers 2`` process on a
    fresh state directory inside the checkout."""

    def __init__(self, state_dir: Path):
        self.state_dir = state_dir
        self.proc: Optional[subprocess.Popen] = None
        self.url: Optional[str] = None

    def start(self, timeout: float = 60.0) -> float:
        """Start the server; return seconds until ``/healthz`` answers."""
        from repro.errors import ServiceError
        from repro.service import Client

        shutil.rmtree(self.state_dir, ignore_errors=True)
        self.state_dir.mkdir(parents=True)
        self.url = None
        log_path = self.state_dir / "serve.log"
        started = time.perf_counter()
        with open(log_path, "w") as log:
            self.proc = subprocess.Popen(
                [
                    harness.PYTHON, "-u", "-m", "repro", "serve",
                    "--port", "0",
                    "--state-dir", str(self.state_dir / "state"),
                    "--workers", "2",
                ],
                cwd=harness.ROOT,
                env=harness.program_env(),
                stdout=log,
                stderr=subprocess.STDOUT,
            )
        deadline = started + timeout
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                break
            if self.url is None:
                match = _URL.search(log_path.read_text())
                if match:
                    self.url = match.group(1)
            if self.url is not None:
                try:
                    Client(self.url, timeout=5.0, retries=0).health()
                    return time.perf_counter() - started
                except ServiceError:
                    pass
            time.sleep(0.005)
        log_text = log_path.read_text()
        self.stop()
        raise RuntimeError(f"repro serve did not come up:\n{log_text[-2000:]}")

    def stop(self) -> None:
        """Terminate the server and wait for it.  (SIGTERM, not SIGINT:
        a process started from a background shell ignores SIGINT.)"""
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc = None

    def client(self):
        from repro.service import Client

        return Client(self.url, timeout=150.0)


def round_trip(client, spec: dict) -> dict:
    """Submit ``spec``, wait for the terminal state over the event
    stream, fetch the result; the timings a user sees."""
    start = time.perf_counter()
    status = client.submit(spec)
    submitted = time.perf_counter()
    if status["state"] not in ("completed", "failed", "cancelled"):
        for status in client.stream(status["id"], timeout=150.0):
            pass
    finished = time.perf_counter()
    payload = None
    if status["state"] == "completed":
        payload = client.result_payload(status["id"])
    done = time.perf_counter()
    return {
        "latency_s": done - start,
        "submit_s": submitted - start,
        "result_s": done - finished,
        "status": status,
        "payload": payload,
    }


def scrape(client) -> Dict[str, float]:
    """``/metrics`` summed per sample name, plus ``name{k=v}`` entries."""
    totals: Dict[str, float] = {}
    for line in client.metrics().splitlines():
        match = _SAMPLE.match(line)
        if not match:
            continue
        name, labels, value = match.groups()
        keys = [name] + [f"{name}{{{k}={v}}}" for k, v in _LABEL.findall(labels or "")]
        for key in keys:
            totals[key] = totals.get(key, 0.0) + float(value)
    return totals


def service_layers(ops: list, hits: list, metrics: Dict[str, float], submits: int,
                   rejected: int) -> Dict[str, float]:
    """The service-layer metrics from completed round trips (``ops``:
    all of them, ``hits``: the memo-hit resubmits) and a scrape."""
    done = [op for op in ops if op["status"]["state"] == "completed"]
    misses = [op for op in done if not op["status"]["memo_hit"]]
    lookups = metrics.get("repro_service_population_cache_total", 0.0)
    invocations = metrics.get("repro_sim_kernel_invocations_total", 0.0)
    return {
        "http.submit_s": median(op["submit_s"] for op in done),
        "http.result_s": median(op["result_s"] for op in done),
        "job.queue_wait_s": median(
            op["status"]["started_at"] - op["status"]["created_at"] for op in misses
        ),
        "job.run_s": median(
            op["status"]["finished_at"] - op["status"]["started_at"] for op in misses
        ),
        "store.memo_hit_ratio": (
            metrics.get("repro_service_memo_hits", 0.0) / len(hits) if hits else 0.0
        ),
        "service.population_cache_hit_ratio": (
            metrics.get('repro_service_population_cache_total{hit=true}', 0.0)
            / lookups if lookups else 0.0
        ),
        "service.rejected_fraction": rejected / submits if submits else 0.0,
        "batch.jobs_per_invocation": (
            metrics.get("repro_sim_batch_jobs_sum", 0.0) / invocations
            if invocations else 0.0
        ),
    }


def job_spec(circuit: str, seed: int, population: int) -> dict:
    """The service job equivalent of ``repro estimate CIRCUIT --mode unit
    --population N --seed S`` (method ``fixed``)."""
    from repro.service.jobs import JobSpec

    return JobSpec(
        circuit=circuit, seed=seed, population_size=population, sim_mode="unit"
    ).to_dict()


def probe(circuit: str, seed: int, population: int, checks) -> tuple:
    """One miss and one memo-hit round trip of ``circuit``'s headline
    spec through a fresh server; returns the service-layer metrics and
    the miss's result record (for comparison with the in-process API)."""
    server = Server(harness.STATE / "service-probe")
    try:
        server.start()
        client = server.client()
        spec = job_spec(circuit, seed, population)
        miss = round_trip(client, spec)
        hit = round_trip(client, spec)
        for op in (miss, hit):
            checks.expect("service.job_completed", op["status"]["state"], "completed")
            if op["payload"] is None:
                raise RuntimeError(f"service probe job failed: {op['status']}")
        checks.expect(
            "service.memo_result_matches",
            hit["payload"]["results"],
            miss["payload"]["results"],
        )
        layers = service_layers([miss, hit], [hit], scrape(client), 2, 0)
    finally:
        server.stop()
    return layers, miss["payload"]["results"][0]
