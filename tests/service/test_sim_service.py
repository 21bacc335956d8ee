"""Service-side unit-delay simulation: identical bits, reported tier.

Each worker thread simulates its own job's population, concurrently
with the other workers.  These tests prove the service contract around
it: results are bit-identical to in-process runs — with concurrent jobs
simulating on both worker threads at once, and across a replica
steal-back re-run — and the resolved simulation kernel tier is
surfaced on ``/healthz`` and in the shutdown summary.
"""

from __future__ import annotations

import sqlite3
import json

import pytest

from repro.api import EstimatorConfig, estimate
from repro.service import Client
from repro.service.jobs import JobSpec
from repro.service.store import SQLiteJobStore
from repro.sim.compiled import KERNELS


def unit_spec(bench_path, seed=3, **overrides):
    base = dict(
        circuit=str(bench_path),
        config=EstimatorConfig(max_hyper_samples=10),
        seed=seed,
        population_size=400,
        sim_mode="unit",
    )
    base.update(overrides)
    return JobSpec(**base)


def committed_results(state_dir, job_id):
    with sqlite3.connect(state_dir / "jobs.db") as conn:
        row = conn.execute(
            "SELECT payload FROM results WHERE job_id = ?", (job_id,)
        ).fetchone()
    return json.loads(row[0]) if row is not None else None


class TestUnitJobBitIdentity:
    def test_concurrent_unit_jobs_bit_identical(self, fabric, bench_path):
        """Eight seeds race through two worker threads; every result
        must equal its solo in-process run exactly (per-job seed
        streams and accounting are untouched by concurrency)."""
        server = fabric("state", workers=2, lease_ttl=None)
        client = Client(server.url, timeout=10.0)
        seeds = list(range(8))
        jobs = [client.submit(unit_spec(bench_path, seed=s)) for s in seeds]
        for seed, job in zip(seeds, jobs):
            status = client.wait(job["id"], timeout=60)
            assert status["state"] == "completed"
            expected = estimate(
                str(bench_path),
                EstimatorConfig(max_hyper_samples=10),
                seed=seed,
                population_size=400,
                sim_mode="unit",
            )
            got = client.result(job["id"])
            assert got.estimate == expected.estimate
            assert got.to_dict() == expected.to_dict()

    def test_stolen_unit_job_bit_identical(
        self, fabric, tmp_path, bench_path
    ):
        """Replica steal-back: the survivor re-runs the unit-delay job
        and still lands on identical bits."""
        spec = unit_spec(bench_path)
        dead = SQLiteJobStore(
            tmp_path / "shared", replica_id="dead", lease_ttl=0.3
        )
        submitted = dead.submit(spec)
        assert dead.claim_next(timeout=0.01, owner="wd") is not None
        dead.close()

        survivor = fabric("shared", workers=2, lease_ttl=0.3)
        client = Client(survivor.url, timeout=10.0)
        status = client.wait(submitted.id, timeout=60)
        assert status["state"] == "completed"
        assert len(committed_results(tmp_path / "shared", submitted.id)) == 1

        expected = estimate(
            spec.circuit,
            spec.config,
            seed=spec.seed,
            population_size=spec.population_size,
            sim_mode="unit",
        )
        got = client.result(submitted.id)
        assert got.estimate == expected.estimate
        assert got.to_dict() == expected.to_dict()


class TestKernelSurfacing:
    def test_healthz_reports_sim_kernel(self, service):
        server, client = service
        health = client.health()
        info = health["sim_kernel"]
        assert info["requested"] in KERNELS
        assert info["active"] in ("compiled", "interp", "native")
        assert isinstance(info["fallback"], bool)

    def test_shutdown_summary_names_kernel(self, service):
        server, _ = service
        summary = server.telemetry_summary()
        assert "sim kernel" in summary
        assert any(tier in summary for tier in KERNELS)
