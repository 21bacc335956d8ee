"""Job model, store lifecycle, and the legacy event-log settling rules.

The lifecycle tests run on :class:`SQLiteJobStore`, the service's only
store.  The replay tests write literal v1 ``jobs.jsonl`` event logs, the
format older servers wrote, and check how the store's one-shot
migration settles each job.
"""

from __future__ import annotations

import json
import sqlite3

import pytest

from repro.api import EstimatorConfig
from repro.errors import ConfigError
from repro.estimation.result import EstimationResult
from repro.service.jobs import JobSpec, JobState
from repro.service.store import SQLiteJobStore


def make_spec(**overrides) -> JobSpec:
    base = dict(circuit="c432", config=EstimatorConfig(), population_size=500)
    base.update(overrides)
    return JobSpec(**base)


def fake_result(estimate: float = 1.0) -> EstimationResult:
    return EstimationResult(
        estimate=estimate,
        interval=None,
        converged=True,
        error_bound=0.05,
        confidence=0.9,
        population_name="fake",
    )


# -- literal v1 jobs.jsonl events ------------------------------------------
#: Header line of a v1 log.
LOG_HEADER = {"schema": "repro.service_jobs/v1", "schema_version": "1.0"}


def submitted(job_id: str, seed: int, t: float, **extra) -> dict:
    """A ``submitted`` event whose spec loads as ``make_spec(seed=seed)``."""
    spec = {
        "schema_version": "1.0",
        "circuit": "c432",
        "seed": seed,
        "num_runs": 1,
        "population_size": 500,
        "activity": None,
        "sim_mode": "zero",
        "frequency_mhz": 50.0,
        "config": {
            "schema_version": "1.0",
            "n": 30,
            "m": 10,
            "error": 0.05,
            "confidence": 0.9,
            "min_hyper_samples": 2,
            "max_hyper_samples": 200,
            "finite_correction": None,
            "upper_bound": None,
            "workers": 1,
            "retries": 0,
            "task_timeout": None,
        },
    }
    return {"event": "submitted", "id": job_id, "t": t, "spec": spec, **extra}


def state(job_id: str, new_state: str, t: float, **extra) -> dict:
    return {
        "event": "state", "id": job_id, "state": new_state, "t": t, **extra
    }


def result(job_id: str, *estimates: float) -> dict:
    return {
        "event": "result",
        "id": job_id,
        "results": [
            {
                "schema": "repro.estimation_result/v1",
                "schema_version": "1.0",
                "estimate": estimate,
                "interval": None,
                "converged": True,
                "error_bound": 0.05,
                "confidence": 0.9,
                "units_used": 300,
                "population_name": "c432",
            }
            for estimate in estimates
        ],
    }


def cancel_requested(job_id: str, t: float) -> dict:
    return {"event": "cancel_requested", "id": job_id, "t": t}


def flag_cancel_requested(state_dir, job_id: str) -> None:
    """Set a row's ``cancel_requested`` flag straight in ``jobs.db`` — a
    cancel recorded while the job was leased, never acknowledged."""
    with sqlite3.connect(state_dir / "jobs.db") as conn:
        conn.execute(
            "UPDATE jobs SET cancel_requested = 1 WHERE id = ?", (job_id,)
        )


def write_legacy_log(state_dir, *events, header=LOG_HEADER, tail=""):
    """Write ``<state_dir>/jobs.jsonl``: the header (unless ``None``),
    one JSON object a line, then ``tail`` verbatim (a torn append)."""
    lines = ([header] if header is not None else []) + list(events)
    path = state_dir / "jobs.jsonl"
    path.write_text(
        "".join(json.dumps(line) + "\n" for line in lines) + tail,
        encoding="utf-8",
    )
    return path


class TestJobSpec:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"circuit": "  "},
            {"num_runs": 0},
            {"population_size": -5},
            {"sim_mode": "bogus"},
            {"frequency_mhz": 0.0},
            {"activity": 0.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigError):
            make_spec(**kwargs)


class TestJobStore:
    """Store lifecycle and security on :class:`SQLiteJobStore`."""

    def test_submit_assigns_unique_queued_ids(self, tmp_path):
        store = SQLiteJobStore(tmp_path)
        jobs = [store.submit(make_spec()) for _ in range(5)]
        assert len({job.id for job in jobs}) == 5
        assert all(job.state == JobState.QUEUED for job in jobs)
        assert store.counts()[JobState.QUEUED] == 5

    def test_claim_is_fifo_and_marks_running(self, tmp_path):
        store = SQLiteJobStore(tmp_path)
        first = store.submit(make_spec(seed=1))
        store.submit(make_spec(seed=2))
        claimed = store.claim_next(timeout=0.01)
        assert claimed.id == first.id
        assert claimed.state == JobState.RUNNING
        assert claimed.started_at is not None

    def test_claim_times_out_empty(self, tmp_path):
        assert SQLiteJobStore(tmp_path).claim_next(timeout=0.01) is None

    def test_cancel_queued_job_settles_immediately(self, tmp_path):
        store = SQLiteJobStore(tmp_path)
        job = store.submit(make_spec())
        assert store.request_cancel(job.id).state == JobState.CANCELLED
        assert store.get(job.id).state == JobState.CANCELLED
        assert store.claim_next(timeout=0.01) is None

    def test_cancel_terminal_job_conflicts(self, tmp_path):
        store = SQLiteJobStore(tmp_path)
        job = store.submit(make_spec())
        store.mark_completed(store.claim_next(timeout=0.01), [fake_result()])
        with pytest.raises(ConfigError, match="already"):
            store.request_cancel(job.id)

    def test_unknown_job_raises_key_error(self, tmp_path):
        with pytest.raises(KeyError):
            SQLiteJobStore(tmp_path).request_cancel("job-999999-dead")

    def test_list_filters_by_state(self, tmp_path):
        store = SQLiteJobStore(tmp_path)
        done = store.submit(make_spec(seed=1))
        store.submit(make_spec(seed=2))
        store.mark_completed(store.claim_next(timeout=0.01), [fake_result()])
        assert [j.id for j in store.list(state=JobState.COMPLETED)] == [done.id]
        assert len(store.list()) == 2

    def test_status_dict_is_versioned_and_json_able(self, tmp_path):
        store = SQLiteJobStore(tmp_path)
        job = store.submit(make_spec())
        payload = json.loads(json.dumps(job.status_dict()))
        assert payload["schema_version"]
        assert payload["spec"]["circuit"] == "c432"
        assert payload["state"] == JobState.QUEUED

    def test_status_dict_never_echoes_tenant_credential(self, tmp_path):
        # The tenant is the raw X-API-Key header, and status/list/SSE
        # are unauthenticated: the credential must never appear in any
        # serialized job payload.
        store = SQLiteJobStore(tmp_path)
        job = store.submit(make_spec(), tenant="sk-super-secret")
        assert job.tenant == "sk-super-secret"  # kept for quota checks
        payload = json.dumps(job.status_dict())
        assert "tenant" not in json.loads(payload)
        assert "sk-super-secret" not in payload


class TestReplay:
    """How the migration settles each job of a legacy log."""

    def test_completed_jobs_survive_restart_with_results(self, tmp_path):
        write_legacy_log(
            tmp_path,
            submitted("job-000001-aaaa", seed=1, t=100.0),
            state("job-000001-aaaa", "running", t=101.0),
            result("job-000001-aaaa", 2.5),
            state("job-000001-aaaa", "completed", t=102.0),
        )
        store = SQLiteJobStore(tmp_path)
        again = store.get("job-000001-aaaa")
        assert again.state == JobState.COMPLETED
        assert again.results[0].estimate == 2.5
        assert again.finished_at == 102.0
        assert store.requeued_ids == []

    def test_unfinished_jobs_requeue_in_submission_order(self, tmp_path):
        # Logged out of submission order: the queue follows the
        # submission time, not the line order.
        write_legacy_log(
            tmp_path,
            submitted("job-000002-bbbb", seed=2, t=101.0),
            submitted("job-000001-aaaa", seed=1, t=100.0),
            submitted("job-000003-cccc", seed=3, t=102.0),
            submitted("job-000004-dddd", seed=4, t=103.0),
            state("job-000004-dddd", "running", t=104.0),
            state("job-000002-bbbb", "running", t=105.0),
            state("job-000002-bbbb", "failed", t=106.0, error="boom"),
            state("job-000001-aaaa", "running", t=107.0),
        )
        store = SQLiteJobStore(tmp_path)
        unfinished = ["job-000001-aaaa", "job-000003-cccc", "job-000004-dddd"]
        assert store.requeued_ids == unfinished
        for job_id in unfinished:
            job = store.get(job_id)
            assert job.state == JobState.QUEUED and job.started_at is None
        failed = store.get("job-000002-bbbb")
        assert failed.state == JobState.FAILED
        assert failed.error == "boom"
        assert failed.finished_at == 106.0
        claimed = [store.claim_next(timeout=0.01).id for _ in unfinished]
        assert claimed == unfinished

    def test_cancel_requested_midflight_settles_as_cancelled(self, tmp_path):
        write_legacy_log(
            tmp_path,
            submitted("job-000001-aaaa", seed=1, t=100.0),
            state("job-000001-aaaa", "running", t=101.0),
            cancel_requested("job-000001-aaaa", t=102.0),
        )
        store = SQLiteJobStore(tmp_path)
        job = store.get("job-000001-aaaa")
        assert job.state == JobState.CANCELLED
        assert job.status_dict()["cancel_requested"] is True
        assert store.requeued_ids == []
        assert store.claim_next(timeout=0.01) is None

    def test_torn_tail_is_skipped(self, tmp_path):
        # A process killed mid-append leaves a partial last line; the
        # job's logged state before it still holds.
        write_legacy_log(
            tmp_path,
            submitted("job-000001-aaaa", seed=1, t=100.0),
            tail='{"event": "state", "id": "job-000001-aaaa", "sta',
        )
        store = SQLiteJobStore(tmp_path)
        assert store.migrated_jobs == 1
        assert store.get("job-000001-aaaa").state == JobState.QUEUED
        assert store.requeued_ids == ["job-000001-aaaa"]

    def test_id_counter_continues_after_restart(self, tmp_path):
        write_legacy_log(
            tmp_path,
            submitted("job-000007-aaaa", seed=1, t=100.0),
            submitted("job-000003-bbbb", seed=2, t=101.0),
        )
        fresh = SQLiteJobStore(tmp_path).submit(make_spec(seed=9))
        assert fresh.id.startswith("job-000008-")


class TestReplayRegressions:
    """Regression tests for the replay bugs the JSONL log papered over."""

    def test_replay_restores_completed_runs(self, tmp_path):
        # completed_runs used to replay as 0 even with results restored,
        # so GET /v1/jobs/{id} after a restart reported no progress.
        write_legacy_log(
            tmp_path,
            submitted("job-000001-aaaa", seed=1, t=100.0),
            state("job-000001-aaaa", "running", t=101.0),
            result("job-000001-aaaa", 1.0, 2.0, 3.0),
            state("job-000001-aaaa", "completed", t=102.0),
        )
        again = SQLiteJobStore(tmp_path).get("job-000001-aaaa")
        assert again.completed_runs == 3
        assert again.status_dict()["completed_runs"] == 3

    def test_crash_between_result_and_state_events_stays_completed(
        self, tmp_path
    ):
        # The old writer appended a result event, then a state event; a
        # crash between the two must not requeue (and re-run) the
        # finished job.
        write_legacy_log(
            tmp_path,
            submitted("job-000001-aaaa", seed=1, t=100.0),
            state("job-000001-aaaa", "running", t=101.0),
            result("job-000001-aaaa", 2.5),
        )
        store = SQLiteJobStore(tmp_path)
        again = store.get("job-000001-aaaa")
        assert again.state == JobState.COMPLETED
        assert again.results[0].estimate == 2.5
        assert again.completed_runs == 1
        assert store.requeued_ids == []
        assert store.claim_next(timeout=0.01) is None

    def test_claim_skips_cancelled_head_and_claims_next_in_one_call(
        self, tmp_path
    ):
        # A cancelled head-of-queue job used to make claim_next return
        # None, idling the worker slot for a full poll interval.
        store = SQLiteJobStore(tmp_path)
        first = store.submit(make_spec(seed=1))
        second = store.submit(make_spec(seed=2))
        flag_cancel_requested(tmp_path, first.id)  # queued, unacknowledged
        claimed = store.claim_next(timeout=0.01)
        assert claimed is not None and claimed.id == second.id
        assert claimed.state == JobState.RUNNING
        assert store.get(first.id).state == JobState.CANCELLED

    def test_counter_counts_jobs_dropped_for_unreadable_specs(self, tmp_path):
        # A job whose spec no longer loads is dropped from the import,
        # but its id must still advance the counter or fresh ids collide.
        unreadable = submitted("job-000005-aaaa", seed=1, t=100.0)
        unreadable["spec"] = {"schema_version": "1.0"}  # circuit lost
        write_legacy_log(
            tmp_path,
            submitted("job-000001-bbbb", seed=2, t=99.0),
            unreadable,
        )
        store = SQLiteJobStore(tmp_path)
        assert store.get("job-000005-aaaa") is None  # dropped
        assert store.migrated_jobs == 1
        fresh = store.submit(make_spec())
        assert fresh.id.startswith("job-000006-")

    def test_counts_tolerates_unknown_state_strings(self, tmp_path):
        store = SQLiteJobStore(tmp_path)
        job = store.submit(make_spec())
        with sqlite3.connect(tmp_path / "jobs.db") as conn:  # a corrupt row
            conn.execute(
                "UPDATE jobs SET state = 'zombie' WHERE id = ?", (job.id,)
            )
        counts = store.counts()  # KeyError before the fix
        assert counts["zombie"] == 1
        assert counts[JobState.QUEUED] == 0
