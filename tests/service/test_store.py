"""SQLite job store: lifecycle, memoization, atomic claims, migration.

Beyond the lifecycle every store needs, the store gives content-keyed
result memoization, tear-free terminal transitions, compare-and-swap
work claiming, and a one-shot import of a legacy ``jobs.jsonl`` event
log (built from literal v1 events, so the import is tested against a
frozen format).
"""

from __future__ import annotations

import json
import sqlite3

import pytest

from repro.api import EstimatorConfig
from repro.errors import ConfigError, SchemaError
from repro.obs.metrics import get_registry
from repro.schemas import SCHEMA_VERSION, fingerprint_job_spec
from repro.service import store as store_module
from repro.service.jobs import JobState
from repro.service.store import SQLiteJobStore

from .test_jobs import (
    cancel_requested,
    fake_result,
    flag_cancel_requested,
    make_spec,
    result,
    state,
    submitted,
    write_legacy_log,
)


@pytest.fixture
def metrics():
    """Enabled (and afterwards restored) global metrics registry."""
    registry = get_registry()
    was_enabled = registry.enabled
    registry.enable()
    registry.reset()
    yield registry
    if not was_enabled:
        registry.disable()
    registry.reset()


class TestLifecycle:
    def test_submit_claim_complete_roundtrip(self, tmp_path):
        store = SQLiteJobStore(tmp_path)
        job = store.submit(make_spec())
        assert job.state == JobState.QUEUED
        claimed = store.claim_next(timeout=0.01, owner="worker-0")
        assert claimed.id == job.id
        assert claimed.state == JobState.RUNNING
        assert claimed.lease_owner == "worker-0"
        store.mark_completed(claimed, [fake_result(2.5)])
        assert claimed.state == JobState.COMPLETED
        done = store.get(job.id)
        assert done.state == JobState.COMPLETED
        assert done.completed_runs == 1
        assert store.counts()[JobState.COMPLETED] == 1

    def test_claim_is_fifo(self, tmp_path):
        store = SQLiteJobStore(tmp_path)
        first = store.submit(make_spec(seed=1))
        store.submit(make_spec(seed=2))
        assert store.claim_next(timeout=0.01).id == first.id

    def test_claim_times_out_empty(self, tmp_path):
        assert SQLiteJobStore(tmp_path).claim_next(timeout=0.01) is None

    def test_claim_skips_cancelled_head_in_one_call(self, tmp_path):
        store = SQLiteJobStore(tmp_path)
        first = store.submit(make_spec(seed=1))
        second = store.submit(make_spec(seed=2))
        flag_cancel_requested(tmp_path, first.id)  # queued, unacknowledged
        claimed = store.claim_next(timeout=0.01)
        assert claimed is not None and claimed.id == second.id
        assert store.get(first.id).state == JobState.CANCELLED

    def test_claim_fails_unreadable_head_and_claims_next(self, tmp_path):
        # A queued row whose spec no longer loads used to make every
        # claim return None while the good job behind it waited forever.
        store = SQLiteJobStore(tmp_path)
        broken = store.submit(make_spec(seed=1))
        good = store.submit(make_spec(seed=2))
        with sqlite3.connect(tmp_path / "jobs.db") as probe:
            probe.execute(
                "UPDATE jobs SET spec = '{}' WHERE id = ?", (broken.id,)
            )
        claimed = store.claim_next(timeout=0.01)
        assert claimed is not None and claimed.id == good.id
        assert store.queue_depth() == 0
        with sqlite3.connect(tmp_path / "jobs.db") as probe:
            state, error = probe.execute(
                "SELECT state, error FROM jobs WHERE id = ?", (broken.id,)
            ).fetchone()
        assert state == JobState.FAILED
        assert error == "unreadable job spec"

    def test_cancel_queued_job_settles_immediately(self, tmp_path):
        store = SQLiteJobStore(tmp_path)
        job = store.submit(make_spec())
        assert store.request_cancel(job.id).state == JobState.CANCELLED
        assert store.get(job.id).state == JobState.CANCELLED
        assert store.claim_next(timeout=0.01) is None
        with pytest.raises(ConfigError, match="already"):
            store.request_cancel(job.id)
        with pytest.raises(KeyError):
            store.request_cancel("job-999999-dead")

    def test_commit_needs_a_claimed_attempt(self, tmp_path):
        # submit()'s object holds no lease: committing through it used
        # to lose the token CAS silently and write nothing.
        store = SQLiteJobStore(tmp_path)
        job = store.submit(make_spec())
        with pytest.raises(ConfigError, match="holds no lease"):
            store.mark_completed(job, [fake_result()])
        with pytest.raises(ConfigError, match="holds no lease"):
            store.mark_failed(job, "boom")
        assert store.get(job.id).state == JobState.QUEUED

    def test_status_dict_matches_legacy_fields(self, tmp_path):
        # The key set of GET /v1/jobs/{id} documented in docs/api.md.
        job = SQLiteJobStore(tmp_path).submit(make_spec())
        assert set(job.status_dict()) == {
            "schema_version",
            "id",
            "state",
            "spec",
            "created_at",
            "started_at",
            "finished_at",
            "error",
            "cancel_requested",
            "completed_runs",
            "total_runs",
            "memo_hit",
            "trace_id",
            "trajectory",
        }

    def test_terminal_transition_is_one_transaction(self, tmp_path):
        # The result row and the terminal state land atomically: at no
        # commit point can the database hold results beside a
        # non-terminal state (the JSONL log's torn-tail failure mode).
        store = SQLiteJobStore(tmp_path)
        store.submit(make_spec())
        job = store.claim_next(timeout=0.01)
        store.mark_completed(job, [fake_result(1.5)])
        with sqlite3.connect(tmp_path / "jobs.db") as probe:
            state, payload = probe.execute(
                "SELECT j.state, r.payload FROM jobs j "
                "JOIN results r ON r.job_id = j.id WHERE j.id = ?",
                (job.id,),
            ).fetchone()
        assert state == JobState.COMPLETED
        assert json.loads(payload)[0]["estimate"] == 1.5


class TestRestart:
    def test_completed_job_survives_restart_with_progress(self, tmp_path):
        store = SQLiteJobStore(tmp_path)
        job = store.submit(make_spec(num_runs=3))
        claimed = store.claim_next(timeout=0.01)
        store.mark_completed(
            claimed, [fake_result(v) for v in (1.0, 2.0, 3.0)]
        )
        store.close()

        reborn = SQLiteJobStore(tmp_path)
        again = reborn.get(job.id)
        assert again.state == JobState.COMPLETED
        assert [r.estimate for r in again.results] == [1.0, 2.0, 3.0]
        assert again.completed_runs == 3
        assert reborn.requeued_ids == []

    def test_unfinished_jobs_requeue_with_lease_cleared(self, tmp_path):
        # Stable replica id = crash-restart of the same replica: its own
        # leases are reclaimed immediately.  (A *different* replica's
        # live lease is left alone — see test_fabric.py.)
        store = SQLiteJobStore(tmp_path, replica_id="r1")
        queued = store.submit(make_spec(seed=1))
        store.claim_next(timeout=0.01, owner="worker-0")  # dies mid-run
        store.close()

        reborn = SQLiteJobStore(tmp_path, replica_id="r1")
        job = reborn.get(queued.id)
        assert job.state == JobState.QUEUED
        assert job.started_at is None and job.lease_owner is None
        assert reborn.requeued_ids == [queued.id]

    def test_cancel_requested_midflight_settles_as_cancelled(self, tmp_path):
        store = SQLiteJobStore(tmp_path)
        job = store.submit(make_spec())
        store.claim_next(timeout=0.01)
        store.request_cancel(job.id)  # worker never acknowledged
        store.close()

        reborn = SQLiteJobStore(tmp_path)
        assert reborn.get(job.id).state == JobState.CANCELLED
        assert reborn.requeued_ids == []

    def test_reopen_reads_no_job_history(self, tmp_path, monkeypatch):
        # Startup touches only unfinished rows, and listing or counting
        # jobs never parses a results payload.
        store = SQLiteJobStore(tmp_path)
        for seed in range(3):
            store.submit(make_spec(seed=seed))
            store.mark_completed(
                store.claim_next(timeout=0.01), [fake_result(float(seed))]
            )
        store.close()
        parsed = []
        real = store_module.load_estimation_result
        monkeypatch.setattr(
            store_module,
            "load_estimation_result",
            lambda payload: parsed.append(payload) or real(payload),
        )
        reborn = SQLiteJobStore(tmp_path)
        assert reborn._running == {}
        assert len(reborn.list()) == 3
        assert reborn.counts()[JobState.COMPLETED] == 3
        assert parsed == []

    def test_id_counter_continues_after_restart(self, tmp_path):
        store = SQLiteJobStore(tmp_path)
        first = store.submit(make_spec())
        store.close()
        second = SQLiteJobStore(tmp_path).submit(make_spec())
        assert int(second.id.split("-")[1]) == int(first.id.split("-")[1]) + 1


class TestMemoization:
    def complete_one(self, store, spec):
        job = store.submit(spec)
        store.mark_completed(store.claim_next(timeout=0.01), [fake_result(3.25)])
        return store.get(job.id)

    def test_identical_spec_settles_from_memo(self, tmp_path, metrics):
        store = SQLiteJobStore(tmp_path)
        first = self.complete_one(store, make_spec())
        again = store.submit(make_spec())
        assert again.state == JobState.COMPLETED
        assert again.memo_hit is True
        assert again.completed_runs == 1
        # Bit-identical payload, and the queue never saw the job.
        assert [r.to_dict() for r in again.results] == [
            r.to_dict() for r in first.results
        ]
        assert store.claim_next(timeout=0.01) is None
        assert metrics.counter("service_memo_hits").value == 1

    def test_memo_hits_survive_restart(self, tmp_path, metrics):
        store = SQLiteJobStore(tmp_path)
        first = self.complete_one(store, make_spec())
        store.close()
        reborn = SQLiteJobStore(tmp_path)
        again = reborn.submit(make_spec())
        assert again.memo_hit is True
        assert [r.to_dict() for r in again.results] == [
            r.to_dict() for r in first.results
        ]

    def test_different_seed_misses(self, tmp_path, metrics):
        store = SQLiteJobStore(tmp_path)
        self.complete_one(store, make_spec(seed=1))
        assert store.submit(make_spec(seed=2)).state == JobState.QUEUED
        assert metrics.counter("service_memo_hits").value == 0

    def test_non_semantic_config_knobs_do_not_key(self, tmp_path, metrics):
        # workers/retries/task_timeout change how a result is computed,
        # never what it is — exactly the --resume config-key exclusions.
        semantic = make_spec(config=EstimatorConfig(max_hyper_samples=10))
        tuned = make_spec(
            config=EstimatorConfig(
                max_hyper_samples=10, workers=4, retries=2, task_timeout=30.0
            )
        )
        assert fingerprint_job_spec(semantic) == fingerprint_job_spec(tuned)
        store = SQLiteJobStore(tmp_path)
        self.complete_one(store, semantic)
        assert store.submit(tuned).memo_hit is True

    def test_no_memo_store_always_runs(self, tmp_path, metrics):
        store = SQLiteJobStore(tmp_path, memo=False)
        self.complete_one(store, make_spec())
        again = store.submit(make_spec())
        assert again.state == JobState.QUEUED
        assert again.memo_hit is False
        assert metrics.counter("service_memo_hits").value == 0

    def test_failed_and_cancelled_jobs_never_memoize(self, tmp_path, metrics):
        store = SQLiteJobStore(tmp_path)
        store.submit(make_spec())
        store.mark_failed(store.claim_next(timeout=0.01), "boom")
        assert store.submit(make_spec()).state == JobState.QUEUED


def legacy_log(state_dir, variant="plain"):
    """A v1 jobs.jsonl: one completed job, one mid-flight when the
    process died, plus a torn tail or a job cancelled while queued."""
    events = [
        submitted("job-000001-aaaa", seed=1, t=100.0),
        state("job-000001-aaaa", "running", t=101.0),
        result("job-000001-aaaa", 4.5),
        state("job-000001-aaaa", "completed", t=102.0),
        submitted("job-000002-bbbb", seed=2, t=103.0),
        state("job-000002-bbbb", "running", t=104.0),
    ]
    tail = ""
    if variant == "torn_tail":
        tail = '{"event": "state", "id": "job-000002-bbbb'
    if variant == "cancelled_queued":
        events += [
            submitted("job-000003-cccc", seed=3, t=105.0),
            cancel_requested("job-000003-cccc", t=106.0),
        ]
    return write_legacy_log(state_dir, *events, tail=tail)


def expected_status(job_id, seed, created_at, job_state, **fields):
    """A migrated job's ``status_dict()``: the defaults of a job that
    never ran, overridden by ``fields``."""
    status = {
        "schema_version": SCHEMA_VERSION,
        "id": job_id,
        "state": job_state,
        "spec": make_spec(seed=seed).to_dict(),
        "created_at": created_at,
        "started_at": None,
        "finished_at": None,
        "error": None,
        "cancel_requested": False,
        "completed_runs": 0,
        "total_runs": 1,
        "memo_hit": False,
        "trace_id": None,
        "trajectory": [],
    }
    status.update(fields)
    return status


class TestMigration:
    @pytest.mark.parametrize(
        "variant",
        ["plain", "torn_tail", "cancelled_queued"],
        ids=["legacy-v1-header", "torn-tail", "cancelled-while-queued"],
    )
    def test_migrated_status_is_identical_to_legacy_replay(
        self, tmp_path, variant
    ):
        legacy_log(tmp_path, variant)
        expected = {
            "job-000001-aaaa": expected_status(
                "job-000001-aaaa", 1, 100.0, JobState.COMPLETED,
                started_at=101.0, finished_at=102.0, completed_runs=1,
            ),
            # Mid-flight when the process died: requeued, lease cleared.
            "job-000002-bbbb": expected_status(
                "job-000002-bbbb", 2, 103.0, JobState.QUEUED,
            ),
        }
        if variant == "cancelled_queued":
            expected["job-000003-cccc"] = expected_status(
                "job-000003-cccc", 3, 105.0, JobState.CANCELLED,
                finished_at=105.0, cancel_requested=True,
            )

        store = SQLiteJobStore(tmp_path)
        assert {j.id: j.status_dict() for j in store.list()} == expected
        assert store.requeued_ids == ["job-000002-bbbb"]
        assert store.migrated_jobs == len(expected)

    def test_header_less_log_is_read_as_v1(self, tmp_path):
        write_legacy_log(
            tmp_path,
            submitted("job-000001-aaaa", seed=1, t=100.0),
            result("job-000001-aaaa", 4.5),
            header=None,
        )
        store = SQLiteJobStore(tmp_path)
        assert store.migrated_jobs == 1
        job = store.get("job-000001-aaaa")
        assert job.state == JobState.COMPLETED
        assert job.results[0].estimate == 4.5

    def test_unknown_major_header_is_refused(self, tmp_path):
        log = write_legacy_log(
            tmp_path,
            submitted("job-000001-aaaa", seed=1, t=100.0),
            header={
                "schema": "repro.service_jobs/v1", "schema_version": "2.0"
            },
        )
        with pytest.raises(SchemaError, match="schema_version 2.0"):
            SQLiteJobStore(tmp_path)
        assert log.exists()  # not retired: nothing was imported
        assert not (tmp_path / "jobs.jsonl.migrated").exists()

    def test_tenant_survives_migration(self, tmp_path):
        # The per-tenant quota must count a migrated job against the
        # tenant that submitted it, not against the anonymous tenant.
        write_legacy_log(
            tmp_path,
            submitted("job-000001-aaaa", seed=1, t=100.0, tenant="key-A"),
        )
        store = SQLiteJobStore(tmp_path)
        assert store.get("job-000001-aaaa").tenant == "key-A"
        assert store.tenant_active_jobs("key-A") == 1
        assert store.tenant_active_jobs(None) == 0

    def test_log_is_retired_and_never_replayed_twice(self, tmp_path):
        legacy_log(tmp_path)
        store = SQLiteJobStore(tmp_path)
        jobs = {j.id for j in store.list()}
        store.close()
        assert not (tmp_path / "jobs.jsonl").exists()
        assert (tmp_path / "jobs.jsonl.migrated").exists()

        reborn = SQLiteJobStore(tmp_path)
        assert reborn.migrated_jobs == 0
        assert {j.id for j in reborn.list()} == jobs

    def test_migrated_results_and_counter_carry_over(self, tmp_path):
        legacy_log(tmp_path)
        store = SQLiteJobStore(tmp_path)
        completed = store.list(state=JobState.COMPLETED)
        assert len(completed) == 1
        assert store.get(completed[0].id).results[0].estimate == 4.5
        assert completed[0].completed_runs == 1
        fresh = store.submit(make_spec(seed=9))
        taken = {int(j.id.split("-")[1]) for j in store.list()} - {
            int(fresh.id.split("-")[1])
        }
        assert int(fresh.id.split("-")[1]) == max(taken) + 1

    def test_migrated_completed_job_memoizes(self, tmp_path, metrics):
        # The memo key carries across the import: a result computed
        # before the migration serves an identical spec submitted after.
        legacy_log(tmp_path)
        store = SQLiteJobStore(tmp_path)
        again = store.submit(make_spec(seed=1))
        assert again.memo_hit is True
        assert again.results[0].estimate == 4.5
        assert metrics.counter("service_memo_hits").value == 1
