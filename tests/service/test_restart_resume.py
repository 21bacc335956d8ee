"""Kill-and-restart semantics: the acceptance bar of the service.

A job interrupted by a server death must, after restart on the same
state directory, finish with results bit-identical to an uninterrupted
execution — single-run jobs by deterministic re-run, multi-run jobs by
loading their per-run JSONL checkpoint and computing only the rest.

The "dead server" is a bare store with the restarted server's replica
id, so startup recovery reclaims its leases at once (another replica's
live lease would be left alone until it expired).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import EstimatorConfig, build_population, run_many
from repro.estimation.mc_estimator import MaxPowerEstimator
from repro.obs.metrics import get_registry
from repro.obs.spans import get_span_recorder
from repro.service import Client, JobServer
from repro.service.jobs import JobSpec, JobState
from repro.service.store import SQLiteJobStore

#: Replica id shared by the dead server and its restart.
REPLICA = "r0"


@pytest.fixture
def restartable(tmp_path):
    """State dir + registry/span babysitting for start/kill/start tests."""
    registry = get_registry()
    spans = get_span_recorder()
    was_enabled = registry.enabled
    spans_enabled = spans.enabled
    yield tmp_path / "state"
    if not was_enabled:
        registry.disable()
        registry.reset()
    if not spans_enabled:
        spans.disable()
        spans.reset()


def start_server(state_dir) -> JobServer:
    return JobServer(
        port=0, state_dir=state_dir, workers=1, replica_id=REPLICA
    ).start()


class TestSingleRunRestart:
    def test_queued_job_survives_restart_and_matches_in_process(
        self, restartable, bench_path
    ):
        spec = JobSpec(
            circuit=str(bench_path),
            config=EstimatorConfig(max_hyper_samples=10),
            seed=3,
            population_size=400,
        )
        # A server accepted the job and died before any worker touched it
        # (the store alone = the durable half of the server).
        store = SQLiteJobStore(restartable, replica_id=REPLICA)
        job = store.submit(spec)
        store.close()

        server = start_server(restartable)
        try:
            client = Client(server.url)
            status = client.wait(job.id, timeout=30)
            assert status["state"] == JobState.COMPLETED
            via_service = client.result(job.id)
        finally:
            server.stop()

        population = build_population(
            spec.circuit, population_size=spec.population_size, seed=spec.seed
        )
        in_process = MaxPowerEstimator.from_config(population, spec.config).run(
            rng=np.random.default_rng(spec.seed + 1)
        )
        assert via_service.to_dict() == in_process.to_dict()

    def test_mid_flight_job_requeues_and_matches(self, restartable, bench_path):
        spec = JobSpec(
            circuit=str(bench_path),
            config=EstimatorConfig(max_hyper_samples=10),
            seed=5,
            population_size=400,
        )
        store = SQLiteJobStore(restartable, replica_id=REPLICA)
        job = store.submit(spec)
        claimed = store.claim_next(timeout=0.1)  # marked running, then died
        assert claimed.id == job.id
        store.close()

        server = start_server(restartable)
        try:
            assert job.id in server.store.requeued_ids
            client = Client(server.url)
            assert client.wait(job.id, timeout=30)["state"] == JobState.COMPLETED
            via_service = client.result(job.id)
        finally:
            server.stop()

        population = build_population(
            spec.circuit, population_size=spec.population_size, seed=spec.seed
        )
        in_process = MaxPowerEstimator.from_config(population, spec.config).run(
            rng=np.random.default_rng(spec.seed + 1)
        )
        assert via_service.to_dict() == in_process.to_dict()


class TestMultiRunCheckpointResume:
    NUM_RUNS = 6

    def make_spec(self, bench_path) -> JobSpec:
        return JobSpec(
            circuit=str(bench_path),
            config=EstimatorConfig(max_hyper_samples=8),
            seed=2,
            num_runs=self.NUM_RUNS,
            population_size=400,
        )

    def test_killed_mid_job_resumes_from_checkpoint_bit_identical(
        self, restartable, bench_path
    ):
        spec = self.make_spec(bench_path)
        store = SQLiteJobStore(restartable, replica_id=REPLICA)
        job = store.submit(spec)
        store.claim_next(timeout=0.1)  # running when the server dies

        # Reproduce what the dead worker had done: two of six runs
        # finished and checkpointed (the crash interrupts run 3).
        population = build_population(
            spec.circuit, population_size=spec.population_size, seed=spec.seed
        )

        class Killed(RuntimeError):
            pass

        completed = []

        def die_after_two(index, _result):
            completed.append(index)
            if len(completed) == 2:
                raise Killed()

        with pytest.raises(Killed):
            run_many(
                population,
                self.NUM_RUNS,
                spec.config,
                base_seed=spec.seed + 1,
                checkpoint=store.run_checkpoint_path(job.id),
                on_result=die_after_two,
            )
        store.close()
        assert store.run_checkpoint_path(job.id).exists()

        registry = get_registry()
        registry.reset()
        server = start_server(restartable)
        try:
            client = Client(server.url)
            status = client.wait(job.id, timeout=60)
            assert status["state"] == JobState.COMPLETED
            assert status["completed_runs"] == self.NUM_RUNS
            via_service = client.results(job.id)
            metrics_text = client.metrics()
        finally:
            server.stop()

        # The two checkpointed runs were loaded, not recomputed.
        assert (
            'repro_checkpoint_results_total{kind="run",status="loaded"} 2'
            in metrics_text
        )

        uninterrupted = run_many(
            population, self.NUM_RUNS, spec.config, base_seed=spec.seed + 1
        )
        assert [r.to_dict() for r in via_service] == [
            r.to_dict() for r in uninterrupted
        ]

    def test_completed_runs_survive_kill_and_restart(
        self, restartable, bench_path
    ):
        # Regression: a completed job's progress used to replay as
        # completed_runs == 0 after a restart even though its results
        # were restored.
        spec = JobSpec(
            circuit=str(bench_path),
            config=EstimatorConfig(max_hyper_samples=8),
            seed=4,
            num_runs=3,
            population_size=400,
        )
        server = start_server(restartable)
        try:
            client = Client(server.url)
            job = client.submit(spec)
            status = client.wait(job["id"], timeout=60)
            assert status["completed_runs"] == 3
            payload = client.result_payload(job["id"])
        finally:
            server.stop()

        server = start_server(restartable)  # killed and restarted
        try:
            client = Client(server.url)
            status = client.status(job["id"])
            assert status["state"] == JobState.COMPLETED
            assert status["completed_runs"] == 3  # was 0 before the fix
            assert status["total_runs"] == 3
            assert server.store.requeued_ids == []
            assert client.result_payload(job["id"]) == payload
        finally:
            server.stop()

    def test_multi_run_job_reports_run_progress(self, restartable, bench_path):
        spec = self.make_spec(bench_path)
        server = start_server(restartable)
        try:
            client = Client(server.url)
            job = client.submit(spec)
            status = client.wait(job.get("id"), timeout=60)
            assert status["state"] == JobState.COMPLETED
            assert status["completed_runs"] == self.NUM_RUNS
            assert status["total_runs"] == self.NUM_RUNS
            assert len(client.results(job["id"])) == self.NUM_RUNS
        finally:
            server.stop()
