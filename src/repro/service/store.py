"""SQLite-backed durable job + result store (the service's only store).

A WAL-mode SQLite database (stdlib :mod:`sqlite3`) holds every job, its
results and its spans.  The ``jobs``/``results`` rows are the only
record of a job: every read goes to the database, so any replica
sharing it serves any job, and a reopened store reads no job history
until asked.  In memory the store keeps only the claim attempts this
process is executing — their live trajectory, run count and cancel
signal run ahead of the row until the attempt settles.

* **No event tearing.**  Every lifecycle transition — including
  "results arrived *and* the job is completed" — is one transaction, so
  a crash can never leave results on disk with a non-terminal state.
  The terminal commit also stores the attempt's per-k trajectory.
* **Atomic claiming.**  Workers claim work with a compare-and-swap
  ``UPDATE ... WHERE state = 'queued'`` lease keyed by owner, so the
  store is ready to sit under N server replicas without double-running
  a job.
* **Lease expiry + work stealing.**  Every claim mints a globally
  unique ``lease_token`` (one per claim *attempt*), stamps
  ``lease_expires_at = now + lease_ttl``, and records the claiming
  replica (``lease_replica``).  Workers renew the lease by heartbeat
  (:meth:`SQLiteJobStore.renew_lease`, every ``lease_ttl / 3``); a
  replica that dies mid-job simply stops renewing, and any replica's
  reaper (:meth:`SQLiteJobStore.reap_expired` — also run
  opportunistically on every claim poll) atomically flips the expired
  lease back to ``queued`` so a surviving replica re-runs the job.
  Re-runs are bit-identical by the estimator's seed contract, and
  terminal commits are compare-and-swapped on the attempt's own
  ``lease_token``, so a stale attempt can never double-commit, even
  when the *same* process re-claims the job while the old attempt is
  still unwinding: each claim hydrates a fresh :class:`Job`, so two
  attempts never share an object.  Each reclaim increments the
  ``service_lease_reclaims`` counter.  Startup recovery requeues only
  leases owned by this replica or already expired — never a live lease
  held by another replica sharing the database.
* **Result memoization.**  Every job row carries a
  ``spec_fingerprint`` — the content hash of its canonical
  :func:`~repro.schemas.dump_job_spec` payload
  (:func:`~repro.schemas.fingerprint_job_spec`, non-semantic config
  knobs excluded).  The estimator is deterministic given
  ``(circuit, config, seed)``, so a submitted spec whose fingerprint
  already has completed results transitions straight to ``completed``
  with those results, without ever touching the worker pool; each such
  settle increments the ``service_memo_hits`` counter.  ``memo=False``
  (CLI ``--no-memo``) disables the lookup, never the fingerprinting.
* **One-shot migration.**  A ``jobs.jsonl`` event log left in the
  state directory by an older server is read once through
  :func:`_replay_legacy_log` (torn tails skipped, result events
  terminal, dropped ids counted); every job and result is imported into
  the database, and the log is renamed to ``jobs.jsonl.migrated`` so it
  is never read twice.

Schema (``jobs.db``)::

    meta(key TEXT PRIMARY KEY, value TEXT)       -- schema tag + version
    jobs(id TEXT PRIMARY KEY, seq INTEGER, spec TEXT,
         spec_fingerprint TEXT, state TEXT, created_at REAL,
         started_at REAL, finished_at REAL, error TEXT,
         cancel_requested INTEGER, completed_runs INTEGER,
         memo_hit INTEGER, lease_owner TEXT,
         trace_id TEXT, parent_span_id TEXT,
         lease_replica TEXT, lease_expires_at REAL, tenant TEXT,
         lease_token TEXT, trajectory TEXT)
    results(job_id TEXT PRIMARY KEY, payload TEXT)  -- JSON result list
    spans(job_id TEXT PRIMARY KEY, payload TEXT)    -- JSON span records

The two trace columns carry each job's span context (captured from the
submitting request) across the queue, and ``trajectory`` holds the
settled attempt's per-k convergence records; databases created before a
column existed are migrated in place with guarded ``ALTER TABLE``\\ s.

Per-run checkpoints of multi-run jobs stay in their JSONL files
(``<job id>.runs.jsonl``) — they are the resume unit of the
fault-tolerant scheduler, not service state.
"""

from __future__ import annotations

import json
import sqlite3
import threading
import time
import uuid
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from ..errors import ConfigError
from ..obs.metrics import get_registry
from ..obs.spans import get_span_recorder, new_trace_id
from ..schemas import (
    SCHEMA_VERSION,
    SERVICE_DB_SCHEMA,
    SERVICE_LOG_SCHEMA,
    SERVICE_TRACE_SCHEMA,
    check_schema_version,
    dump_estimation_result,
    dump_job_spec,
    fingerprint_job_spec,
    load_estimation_result,
    load_job_spec,
)
from .jobs import Job, JobLease, JobSpec, JobState

__all__ = ["SQLiteJobStore"]

_METRICS = get_registry()

_SCHEMA_SQL = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS jobs (
    id               TEXT PRIMARY KEY,
    seq              INTEGER NOT NULL,
    spec             TEXT NOT NULL,
    spec_fingerprint TEXT NOT NULL,
    state            TEXT NOT NULL,
    created_at       REAL NOT NULL,
    started_at       REAL,
    finished_at      REAL,
    error            TEXT,
    cancel_requested INTEGER NOT NULL DEFAULT 0,
    completed_runs   INTEGER NOT NULL DEFAULT 0,
    memo_hit         INTEGER NOT NULL DEFAULT 0,
    lease_owner      TEXT,
    lease_replica    TEXT,
    lease_expires_at REAL,
    tenant           TEXT,
    lease_token      TEXT
);
CREATE INDEX IF NOT EXISTS jobs_by_state ON jobs (state, created_at, seq);
CREATE INDEX IF NOT EXISTS jobs_by_fingerprint
    ON jobs (spec_fingerprint, state);
CREATE TABLE IF NOT EXISTS results (
    job_id  TEXT PRIMARY KEY REFERENCES jobs (id),
    payload TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS spans (
    job_id  TEXT PRIMARY KEY REFERENCES jobs (id),
    payload TEXT NOT NULL
);
"""

#: Columns added after the first released database schema; applied with
#: guarded ``ALTER TABLE`` so existing stores upgrade in place.
_JOBS_COLUMN_MIGRATIONS = (
    ("trace_id", "TEXT"),
    ("parent_span_id", "TEXT"),
    ("lease_replica", "TEXT"),
    ("lease_expires_at", "REAL"),
    ("tenant", "TEXT"),
    ("lease_token", "TEXT"),
    ("trajectory", "TEXT"),
)

#: Default seconds a claimed job may go without a heartbeat before any
#: replica may steal its lease.  Three heartbeats fit in one TTL, so a
#: single delayed renewal never loses a live job.
DEFAULT_LEASE_TTL = 30.0


def _id_number(job_id: str) -> Optional[int]:
    """The numeric component of a ``job-000042-3f2a`` id (``None`` for
    ids minted some other way)."""
    parts = job_id.split("-")
    return int(parts[1]) if len(parts) > 1 and parts[1].isdigit() else None


def _replay_legacy_log(log_path: Path) -> Tuple[Dict[str, Job], int]:
    """Parse a legacy ``jobs.jsonl`` event log into settled jobs.

    Log layout (one JSON object per line; the header is optional)::

        {"schema": "repro.service_jobs/v1", "schema_version": "1.0"}
        {"event": "submitted", "id": "job-000001-3f2a", "t": ...,
         "spec": {...}, "tenant": "..."}
        {"event": "state", "id": "...", "state": "running", "t": ...}
        {"event": "state", "id": "...", "state": "failed", "t": ...,
         "error": "..."}
        {"event": "result", "id": "...", "results": [{...}, ...]}
        {"event": "cancel_requested", "id": "...", "t": ...}

    Returns ``(jobs, counter)`` where ``counter`` is the highest numeric
    id component seen in *any* event — including jobs dropped because
    their spec no longer loads — so ids minted after the import can
    never collide with ids already in the log.  Settling rules:

    * A line that does not parse (the torn tail of a process killed
      mid-append) is skipped.
    * A ``result`` event is terminal: its job is ``completed`` with
      ``completed_runs == len(results)`` even if the process died before
      appending the trailing ``state`` event.
    * A non-terminal job with a pending ``cancel_requested`` is finished
      off as ``cancelled`` rather than re-run.
    * Every other non-terminal job keeps its logged state; the store's
      startup recovery requeues it.
    """
    jobs: Dict[str, Job] = {}
    counter = 0
    with open(log_path, encoding="utf-8") as handle:
        for line_no, line in enumerate(handle):
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn tail from a mid-append kill
            if not isinstance(event, dict):
                continue
            if line_no == 0 and event.get("schema") == SERVICE_LOG_SCHEMA:
                check_schema_version(event, f"service log {log_path}")
                continue
            kind = event.get("event")
            job_id = event.get("id")
            number = _id_number(job_id) if isinstance(job_id, str) else None
            if number is not None:
                counter = max(counter, number)
            if kind == "submitted" and job_id:
                try:
                    spec = load_job_spec(event["spec"])
                except Exception:
                    continue  # unreadable spec: drop the job, keep the log
                jobs[job_id] = Job(job_id, spec, float(event.get("t", 0.0)))
                jobs[job_id].tenant = event.get("tenant")
            elif kind == "state" and job_id in jobs:
                job = jobs[job_id]
                job.state = event.get("state", job.state)
                if job.state == JobState.RUNNING:
                    job.started_at = float(event.get("t", 0.0))
                else:
                    job.finished_at = float(event.get("t", 0.0))
                if job.state == JobState.FAILED:
                    job.error = event.get("error")
            elif kind == "result" and job_id in jobs:
                job = jobs[job_id]
                job.results = [
                    load_estimation_result(r) for r in event.get("results", [])
                ]
                # The results made it to disk: the work is done, whether
                # or not the 'completed' state event was ever appended.
                job.state = JobState.COMPLETED
                job.completed_runs = len(job.results)
            elif kind == "cancel_requested" and job_id in jobs:
                jobs[job_id].cancel_event.set()
    for job in jobs.values():
        if job.terminal:
            job.finished_at = job.finished_at or job.created_at
            continue
        if job.results is not None:
            # A stale non-terminal state event after the result event.
            job.state = JobState.COMPLETED
            job.finished_at = job.finished_at or job.created_at
        elif job.cancel_event.is_set():
            job.state = JobState.CANCELLED
            job.finished_at = job.finished_at or job.created_at
    return jobs, counter


class SQLiteJobStore:
    """Thread-safe, durable job registry + FIFO queue on SQLite (WAL mode).

    Every :class:`Job` it hands out is hydrated from the database: a
    snapshot of the row, or — from :meth:`claim_next` — one claim
    attempt, whose ``trajectory``, ``completed_runs`` and
    ``cancel_event`` the worker drives live.  The store remembers only
    those attempts (``_running``) until they settle or lose their lease.
    """

    def __init__(
        self,
        state_dir: Union[str, Path],
        memo: bool = True,
        replica_id: Optional[str] = None,
        lease_ttl: Optional[float] = DEFAULT_LEASE_TTL,
    ):
        self.state_dir = Path(state_dir)
        self.state_dir.mkdir(parents=True, exist_ok=True)
        self.db_path = self.state_dir / "jobs.db"
        self.legacy_log_path = self.state_dir / "jobs.jsonl"
        self.memo = memo
        #: Identity of this store instance among replicas sharing the
        #: database.  Pass a stable id to reclaim your own leases
        #: immediately after a crash-restart; the random default means
        #: a restarted process waits for lease expiry instead.
        self.replica_id = replica_id or f"replica-{uuid.uuid4().hex[:8]}"
        if lease_ttl is not None and lease_ttl <= 0:
            raise ConfigError("lease_ttl must be positive (or None)")
        #: Seconds a claim lives without renewal; ``None`` disables
        #: expiry (single-replica deployments that prefer startup
        #: recovery semantics only).
        self.lease_ttl = lease_ttl
        self._lock = threading.RLock()
        self._queue_ready = threading.Condition(self._lock)
        #: Job id -> the claim attempt this process is executing.
        self._running: Dict[str, Job] = {}
        self._counter = 0
        self._requeued: List[str] = []
        self._migrated_jobs = 0
        self._closed = False
        self._conn = sqlite3.connect(
            str(self.db_path), check_same_thread=False, isolation_level=None
        )
        self._conn.row_factory = sqlite3.Row
        self._init_db()
        self._migrate_legacy_log()
        self._recover()

    # -- database plumbing ----------------------------------------------
    def _init_db(self) -> None:
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA synchronous=NORMAL")
        self._conn.execute("PRAGMA busy_timeout=5000")
        # executescript issues an implicit COMMIT, so it must run outside
        # _tx; the DDL is idempotent (IF NOT EXISTS throughout).
        self._conn.executescript(_SCHEMA_SQL)
        existing = {
            row["name"]
            for row in self._conn.execute("PRAGMA table_info(jobs)")
        }
        for column, ddl_type in _JOBS_COLUMN_MIGRATIONS:
            if column not in existing:
                self._conn.execute(
                    f"ALTER TABLE jobs ADD COLUMN {column} {ddl_type}"
                )
        with self._tx():
            row = self._conn.execute(
                "SELECT value FROM meta WHERE key = 'schema_version'"
            ).fetchone()
            if row is None:
                self._conn.executemany(
                    "INSERT INTO meta (key, value) VALUES (?, ?)",
                    [
                        ("schema", SERVICE_DB_SCHEMA),
                        ("schema_version", SCHEMA_VERSION),
                        ("counter", "0"),
                    ],
                )
            else:
                check_schema_version(
                    {"schema_version": row["value"]},
                    f"service database {self.db_path}",
                )

    @contextmanager
    def _tx(self):
        """One ``BEGIN IMMEDIATE`` transaction (the connection runs in
        autocommit otherwise, so every lifecycle write is explicit)."""
        self._conn.execute("BEGIN IMMEDIATE")
        try:
            yield self._conn
        except BaseException:
            self._conn.execute("ROLLBACK")
            raise
        else:
            self._conn.execute("COMMIT")

    def _persist_counter(self) -> None:
        self._conn.execute(
            "UPDATE meta SET value = ? WHERE key = 'counter'",
            (str(self._counter),),
        )

    # -- legacy-log migration -------------------------------------------
    def _migrate_legacy_log(self) -> None:
        """Import an existing ``jobs.jsonl`` once, then retire it."""
        if not self.legacy_log_path.exists():
            return
        jobs, counter = _replay_legacy_log(self.legacy_log_path)
        with self._tx():
            for seq, job in enumerate(
                sorted(jobs.values(), key=lambda j: (j.created_at, j.id)),
                start=1,
            ):
                number = _id_number(job.id)
                self._conn.execute(
                    "INSERT OR IGNORE INTO jobs (id, seq, spec, "
                    "spec_fingerprint, state, created_at, started_at, "
                    "finished_at, error, cancel_requested, completed_runs, "
                    "memo_hit, lease_owner, tenant) "
                    "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, 0, NULL, ?)",
                    (
                        job.id,
                        number if number is not None else seq,
                        json.dumps(dump_job_spec(job.spec), sort_keys=True),
                        fingerprint_job_spec(job.spec),
                        job.state,
                        job.created_at,
                        job.started_at,
                        job.finished_at,
                        job.error,
                        1 if job.cancel_event.is_set() else 0,
                        job.completed_runs,
                        job.tenant,
                    ),
                )
                if job.results is not None:
                    self._conn.execute(
                        "INSERT OR REPLACE INTO results (job_id, payload) "
                        "VALUES (?, ?)",
                        (
                            job.id,
                            json.dumps(
                                [dump_estimation_result(r) for r in job.results]
                            ),
                        ),
                    )
            row = self._conn.execute(
                "SELECT value FROM meta WHERE key = 'counter'"
            ).fetchone()
            self._counter = max(counter, int(row["value"]) if row else 0)
            self._persist_counter()
        self._migrated_jobs = len(jobs)
        self.legacy_log_path.rename(
            self.legacy_log_path.with_suffix(".jsonl.migrated")
        )

    # -- startup recovery -------------------------------------------------
    def _recover(self) -> None:
        """Settle or requeue the unfinished rows a dead process left.

        Reads only rows still ``queued`` or ``running``: a store opened
        over any amount of job history hydrates none of it.
        """
        with self._lock, self._tx():
            row = self._conn.execute(
                "SELECT MAX(seq) AS seq, "
                "(SELECT value FROM meta WHERE key = 'counter') AS counter "
                "FROM jobs"
            ).fetchone()
            self._counter = max(
                self._counter, int(row["counter"] or 0), int(row["seq"] or 0)
            )
            now = time.time()
            rows = self._conn.execute(
                "SELECT j.id, j.state, j.cancel_requested, j.lease_replica, "
                "j.lease_expires_at, r.payload AS results_payload "
                "FROM jobs j LEFT JOIN results r ON r.job_id = j.id "
                "WHERE j.state IN (?, ?) ORDER BY j.created_at, j.seq",
                (JobState.QUEUED, JobState.RUNNING),
            ).fetchall()
            for row in rows:
                if row["results_payload"] is not None:
                    # Defense in depth: results without a terminal state
                    # cannot happen through this store's transactions,
                    # but must never re-run work.
                    self._conn.execute(
                        "UPDATE jobs SET state = ?, completed_runs = ?, "
                        "finished_at = COALESCE(finished_at, ?) WHERE id = ?",
                        (JobState.COMPLETED,
                         len(json.loads(row["results_payload"])), now,
                         row["id"]),
                    )
                elif row["cancel_requested"]:
                    # Cancellation requested of a dead server: finish the
                    # job off, never re-run it.
                    self._conn.execute(
                        "UPDATE jobs SET state = ?, "
                        "finished_at = COALESCE(finished_at, ?) WHERE id = ?",
                        (JobState.CANCELLED, now, row["id"]),
                    )
                elif row["state"] == JobState.RUNNING and not (
                    row["lease_replica"] == self.replica_id
                    or row["lease_expires_at"] is None
                    or row["lease_expires_at"] <= now
                ):
                    # Live lease held by another replica sharing the
                    # database: requeueing it here would double-run the
                    # job.  Leave it running; the reaper reclaims it if
                    # its owner dies.
                    continue
                else:
                    self._conn.execute(
                        "UPDATE jobs SET state = ?, started_at = NULL, "
                        "lease_owner = NULL, lease_replica = NULL, "
                        "lease_expires_at = NULL, lease_token = NULL "
                        "WHERE id = ?",
                        (JobState.QUEUED, row["id"]),
                    )
                    self._requeued.append(row["id"])
            self._persist_counter()

    def _hydrate(
        self, row: sqlite3.Row, results_payload: Optional[str] = None
    ) -> Optional[Job]:
        """A fresh :class:`Job` from a ``jobs`` row (``None`` when its
        spec no longer loads); results are parsed only when their
        ``results_payload`` is passed."""
        try:
            spec = load_job_spec(json.loads(row["spec"]))
        except Exception:
            return None  # unreadable spec: leave the row, serve the rest
        job = Job(row["id"], spec, float(row["created_at"]))
        job.state = row["state"]
        job.started_at = row["started_at"]
        job.finished_at = row["finished_at"]
        job.error = row["error"]
        job.completed_runs = int(row["completed_runs"])
        job.memo_hit = bool(row["memo_hit"])
        job.lease_owner = row["lease_owner"]
        job.lease_replica = row["lease_replica"]
        job.lease_expires_at = row["lease_expires_at"]
        job.tenant = row["tenant"]
        job.trace_id = row["trace_id"]
        job.parent_span_id = row["parent_span_id"]
        if row["trajectory"]:
            job.trajectory = json.loads(row["trajectory"])
        if row["cancel_requested"]:
            job.cancel_event.set()
        if results_payload is not None:
            job.results = [
                load_estimation_result(r) for r in json.loads(results_payload)
            ]
        return job

    def _live(self, row: sqlite3.Row) -> Optional[Job]:
        """This process's attempt at the row's job, while the row says
        that attempt holds the lease."""
        job = self._running.get(row["id"])
        if job is not None and job.lease.token == row["lease_token"]:
            return job
        return None

    def _forget(self, job_id: str, lease: JobLease) -> None:
        """Drop ``lease``'s attempt from ``_running`` (it settled or lost
        its lease); a newer attempt at the same job stays."""
        job = self._running.get(job_id)
        if job is not None and job.lease is lease:
            del self._running[job_id]

    # -- migration / replay diagnostics ----------------------------------
    @property
    def requeued_ids(self) -> List[str]:
        """Jobs re-queued by startup recovery (restart diagnostics)."""
        return list(self._requeued)

    @property
    def migrated_jobs(self) -> int:
        """Jobs imported from a legacy ``jobs.jsonl`` at startup."""
        return self._migrated_jobs

    # -- job lifecycle ---------------------------------------------------
    def submit(self, spec: JobSpec, tenant: Optional[str] = None) -> Job:
        """Record a new job (settled at once on a memo hit) and return a
        snapshot of it.  The snapshot never changes: read later states
        through :meth:`get`, and settle only the object
        :meth:`claim_next` returns."""
        with self._lock:
            fingerprint = fingerprint_job_spec(spec)
            self._counter += 1
            job_id = f"job-{self._counter:06d}-{uuid.uuid4().hex[:4]}"
            job = Job(job_id, spec, time.time())
            job.tenant = tenant
            spans = get_span_recorder()
            if spans.enabled:
                # The job row carries the submitting request's trace
                # context through the queue so the worker that claims it
                # can graft its spans onto the same tree.
                context = spans.current_context()
                job.trace_id = context.trace_id if context else new_trace_id()
                job.parent_span_id = context.span_id if context else None
            memo_payload = None
            if self.memo:
                memo_row = self._conn.execute(
                    "SELECT r.payload FROM jobs j "
                    "JOIN results r ON r.job_id = j.id "
                    "WHERE j.spec_fingerprint = ? AND j.state = ? "
                    "ORDER BY j.finished_at, j.seq LIMIT 1",
                    (fingerprint, JobState.COMPLETED),
                ).fetchone()
                if memo_row is not None:
                    memo_payload = memo_row["payload"]
            spec_json = json.dumps(dump_job_spec(spec), sort_keys=True)
            if memo_payload is not None:
                # Deterministic estimator + identical fingerprint: the
                # earlier job's results ARE this job's results.  Settle
                # as completed without ever entering the queue.
                job.results = [
                    load_estimation_result(r)
                    for r in json.loads(memo_payload)
                ]
                job.state = JobState.COMPLETED
                job.completed_runs = len(job.results)
                job.finished_at = job.created_at
                job.memo_hit = True
                with self._tx():
                    self._insert_job(job, spec_json, fingerprint)
                    self._conn.execute(
                        "INSERT INTO results (job_id, payload) VALUES (?, ?)",
                        (job.id, memo_payload),
                    )
                    self._persist_counter()
                _METRICS.counter("service_memo_hits").inc()
                if spans.enabled:
                    memo_span = spans.emit(
                        "job.memo_settle",
                        parent=job.trace_context,
                        start_ts=job.created_at,
                        job_id=job.id,
                    )
                    if memo_span is not None:
                        self.save_spans(job.id, [memo_span])
            else:
                with self._tx():
                    self._insert_job(job, spec_json, fingerprint)
                    self._persist_counter()
            if not job.terminal:
                self._queue_ready.notify()
            return job

    def _insert_job(self, job: Job, spec_json: str, fingerprint: str) -> None:
        self._conn.execute(
            "INSERT INTO jobs (id, seq, spec, spec_fingerprint, state, "
            "created_at, started_at, finished_at, error, cancel_requested, "
            "completed_runs, memo_hit, lease_owner, trace_id, "
            "parent_span_id, tenant) "
            "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, NULL, ?, ?, ?)",
            (
                job.id,
                self._counter,
                spec_json,
                fingerprint,
                job.state,
                job.created_at,
                job.started_at,
                job.finished_at,
                job.error,
                1 if job.cancel_event.is_set() else 0,
                job.completed_runs,
                1 if job.memo_hit else 0,
                job.trace_id,
                job.parent_span_id,
                job.tenant,
            ),
        )

    def get(self, job_id: str) -> Optional[Job]:
        """Look a job up — across replicas.

        Returns this process's live attempt while it holds the job's
        lease (its trajectory and run count are ahead of the row), and a
        fresh snapshot of the database row, results included, otherwise
        — so any replica serves status and results for any job.
        """
        with self._lock:
            row = self._conn.execute(
                "SELECT j.*, r.payload AS results_payload "
                "FROM jobs j LEFT JOIN results r ON r.job_id = j.id "
                "WHERE j.id = ?",
                (job_id,),
            ).fetchone()
            if row is None:
                return None
            return self._live(row) or self._hydrate(row, row["results_payload"])

    def list(self, state: Optional[str] = None) -> List[Job]:
        """Every job in the database (or in ``state``), oldest first,
        without results; jobs this process is running show their live
        attempt."""
        sql, params = "SELECT * FROM jobs", ()
        if state is not None:
            sql, params = sql + " WHERE state = ?", (state,)
        with self._lock:
            rows = self._conn.execute(
                sql + " ORDER BY created_at, seq", params
            ).fetchall()
            jobs = [self._live(row) or self._hydrate(row) for row in rows]
        return [job for job in jobs if job is not None]

    def counts(self) -> Dict[str, int]:
        """Jobs per state, database-wide — all known states present,
        zeros included."""
        counts = {state: 0 for state in JobState.ALL}
        with self._lock:
            rows = self._conn.execute(
                "SELECT state, COUNT(*) AS n FROM jobs GROUP BY state"
            ).fetchall()
        for row in rows:
            counts[row["state"]] = int(row["n"])
        return counts

    def claim_next(
        self, timeout: float = 0.5, owner: Optional[str] = None
    ) -> Optional[Job]:
        """Atomically lease the oldest queued job and mark it running.

        The claim is a compare-and-swap ``UPDATE ... WHERE state =
        'queued'``: under N replicas sharing the database, exactly one
        claimant wins each job.  Each claim stamps ``lease_expires_at``
        (``now + lease_ttl``) and this store's ``replica_id``; expired
        leases of dead replicas are reaped opportunistically before
        looking for queued work, so work stealing needs no separate
        scheduler.  Jobs cancelled while queued, and jobs whose spec no
        longer loads, are settled and skipped in the same call — neither
        idles the worker slot for a poll interval.

        Returns a fresh :class:`Job` per claim attempt, carrying its own
        :class:`JobLease`: a steal-back re-run never shares a lease,
        trajectory or run count with a previous attempt that is still
        unwinding.
        """
        with self._lock:
            self._reap_expired_locked()
            if self._next_queued() is None:
                self._queue_ready.wait(timeout)
            while True:
                row = self._next_queued()
                if row is None:
                    return None
                job = self._hydrate(row)
                if job is None:
                    # A spec that no longer loads can never run: fail the
                    # row rather than wedge the queue behind it.
                    self._settle_queued(
                        row["id"], JobState.FAILED, "unreadable job spec"
                    )
                    continue
                if job.cancel_event.is_set():
                    self._settle_queued(job.id, JobState.CANCELLED)
                    continue
                now = time.time()
                expires = (
                    now + self.lease_ttl if self.lease_ttl is not None else None
                )
                token = uuid.uuid4().hex
                with self._tx():
                    cursor = self._conn.execute(
                        "UPDATE jobs SET state = ?, started_at = ?, "
                        "lease_owner = ?, lease_replica = ?, "
                        "lease_expires_at = ?, lease_token = ? "
                        "WHERE id = ? AND state = ?",
                        (JobState.RUNNING, now, owner, self.replica_id,
                         expires, token, job.id, JobState.QUEUED),
                    )
                if cursor.rowcount != 1:
                    continue  # lost the lease race to another claimant
                job.state = JobState.RUNNING
                job.started_at = now
                job.lease_owner = owner
                job.lease_replica = self.replica_id
                job.lease_expires_at = expires
                job.lease = JobLease(token, owner)
                self._running[job.id] = job
                return job

    def _next_queued(self) -> Optional[sqlite3.Row]:
        return self._conn.execute(
            "SELECT * FROM jobs WHERE state = ? "
            "ORDER BY created_at, seq LIMIT 1",
            (JobState.QUEUED,),
        ).fetchone()

    def _settle_queued(
        self, job_id: str, state: str, error: Optional[str] = None
    ) -> None:
        """Settle a job no worker holds (compare-and-swap on ``queued``:
        a claim that wins the race keeps the job)."""
        with self._tx():
            self._conn.execute(
                "UPDATE jobs SET state = ?, finished_at = ?, error = ? "
                "WHERE id = ? AND state = ?",
                (state, time.time(), error, job_id, JobState.QUEUED),
            )

    # -- lease lifecycle --------------------------------------------------
    @property
    def heartbeat_interval(self) -> Optional[float]:
        """How often workers should renew their leases (``lease_ttl / 3``
        — three missed beats, not one, lose a live job)."""
        return None if self.lease_ttl is None else self.lease_ttl / 3.0

    def renew_lease(self, job: Job, lease: Optional[JobLease] = None) -> bool:
        """Heartbeat: push the job's lease expiry out by ``lease_ttl``.

        The renewal is a compare-and-swap on the claim attempt's own
        ``lease_token`` (``lease`` — captured by the worker at claim
        time; defaults to ``job.lease``): it succeeds only while that
        exact attempt still holds the running lease.  A failed renewal
        means the lease expired and was reclaimed — the attempt's
        ``lost`` flag is set so the in-flight run's progress hooks
        unwind promptly *without committing anything* (the terminal
        commit is CAS-guarded on the same token), and the store forgets
        the attempt.

        A successful renewal also folds in a ``cancel_requested`` flag
        written by another replica, so cross-replica cancellation
        propagates at heartbeat granularity.
        """
        with self._lock:
            if lease is None:
                lease = job.lease
            if lease is None or lease.lost:
                return False
            if job.terminal or job.state != JobState.RUNNING:
                # Settled locally (this attempt committed): nothing to
                # renew, nothing lost.
                return True
            if self.lease_ttl is None:
                return True
            expires = time.time() + self.lease_ttl
            with self._tx():
                cursor = self._conn.execute(
                    "UPDATE jobs SET lease_expires_at = ? "
                    "WHERE id = ? AND state = ? AND lease_token IS ?",
                    (expires, job.id, JobState.RUNNING, lease.token),
                )
            if cursor.rowcount != 1:
                lease.lost = True
                self._forget(job.id, lease)
                return False
            job.lease_expires_at = expires
            row = self._conn.execute(
                "SELECT cancel_requested FROM jobs WHERE id = ?", (job.id,)
            ).fetchone()
            if row is not None and row["cancel_requested"]:
                job.cancel_event.set()
            return True

    def reap_expired(self) -> List[str]:
        """Reclaim every expired lease back to ``queued`` (work stealing).

        Safe to run on any replica at any time: each reclaim is a
        compare-and-swap conditioned on the lease still being expired, so
        a concurrent renewal or terminal commit wins cleanly.  Returns
        the reclaimed job ids; each one increments the
        ``service_lease_reclaims`` counter.
        """
        with self._lock:
            return self._reap_expired_locked()

    def _reap_expired_locked(self) -> List[str]:
        now = time.time()
        rows = self._conn.execute(
            "SELECT id FROM jobs WHERE state = ? "
            "AND lease_expires_at IS NOT NULL AND lease_expires_at <= ?",
            (JobState.RUNNING, now),
        ).fetchall()
        reclaimed: List[str] = []
        for row in rows:
            with self._tx():
                cursor = self._conn.execute(
                    "UPDATE jobs SET state = ?, started_at = NULL, "
                    "lease_owner = NULL, lease_replica = NULL, "
                    "lease_expires_at = NULL, lease_token = NULL "
                    "WHERE id = ? AND state = ? "
                    "AND lease_expires_at IS NOT NULL "
                    "AND lease_expires_at <= ?",
                    (JobState.QUEUED, row["id"], JobState.RUNNING, now),
                )
            if cursor.rowcount != 1:
                continue  # renewed or settled between select and swap
            reclaimed.append(row["id"])
            job = self._running.pop(row["id"], None)
            if job is not None:
                # This process held the expired lease: poison the attempt
                # so its progress hooks unwind without committing.
                job.lease.lost = True
            _METRICS.counter("service_lease_reclaims").inc()
        if reclaimed:
            self._queue_ready.notify_all()
        return reclaimed

    def _settle(
        self,
        job: Job,
        state: str,
        lease: Optional[JobLease] = None,
        error: Optional[str] = None,
        results: Optional[List[object]] = None,
    ) -> bool:
        """Move a claimed job to a terminal state in one transaction —
        with its results when completing, and the attempt's trajectory —
        the write that must never tear.

        The transition is a compare-and-swap on the committing attempt's
        own ``lease_token`` (``lease`` — captured by the worker at claim
        time; defaults to ``job.lease``): an attempt whose lease expired
        and was stolen — by another replica *or* by a re-claim in this
        very process — can never double-commit.  Returns whether the
        commit happened; on a lost lease the attempt is poisoned
        instead.  An object that holds no lease (a snapshot from
        :meth:`submit`, :meth:`get` or :meth:`list`) raises
        :class:`~repro.errors.ConfigError`: it could commit nothing.
        """
        if lease is None:
            lease = job.lease
        if lease is None:
            raise ConfigError(
                f"job {job.id} holds no lease: settle the object "
                "claim_next() returned"
            )
        runs = len(results) if results is not None else job.completed_runs
        now = time.time()
        with self._tx():
            cursor = self._conn.execute(
                "UPDATE jobs SET state = ?, finished_at = ?, error = ?, "
                "completed_runs = ?, trajectory = ?, "
                "lease_expires_at = NULL, lease_token = NULL "
                "WHERE id = ? AND state = ? AND lease_token IS ?",
                (state, now, error, runs, json.dumps(job.trajectory),
                 job.id, JobState.RUNNING, lease.token),
            )
            committed = cursor.rowcount == 1
            if committed and results is not None:
                self._conn.execute(
                    "INSERT OR REPLACE INTO results (job_id, payload) "
                    "VALUES (?, ?)",
                    (
                        job.id,
                        json.dumps(
                            [dump_estimation_result(r) for r in results]
                        ),
                    ),
                )
        self._forget(job.id, lease)
        if not committed:
            lease.lost = True
            return False
        if results is not None:
            job.results = list(results)
        job.completed_runs = runs
        job.state = state
        job.finished_at = now
        job.error = error
        return True

    def mark_completed(
        self, job: Job, results: List[object], lease: Optional[JobLease] = None
    ) -> None:
        with self._lock:
            self._settle(job, JobState.COMPLETED, lease, results=list(results))

    def mark_failed(
        self, job: Job, error: str, lease: Optional[JobLease] = None
    ) -> None:
        with self._lock:
            self._settle(job, JobState.FAILED, lease, error=error)

    def mark_cancelled(self, job: Job, lease: Optional[JobLease] = None) -> None:
        with self._lock:
            self._settle(job, JobState.CANCELLED, lease)

    def request_cancel(self, job_id: str) -> Job:
        """Flag a job for cancellation and return it as it now stands
        (raises ``KeyError`` if unknown,
        :class:`~repro.errors.ConfigError` if already terminal).

        A queued job settles as ``cancelled`` in the transaction that
        records the request (CAS-guarded on ``queued``: a job a worker
        already claimed gets only the flag).  A job this process runs
        sees the request at its next progress hook; one running on
        another replica sharing the database, when that replica's next
        heartbeat renewal folds the flag in.
        """
        with self._lock:
            with self._tx():
                row = self._conn.execute(
                    "SELECT state FROM jobs WHERE id = ?", (job_id,)
                ).fetchone()
                if row is None:
                    raise KeyError(job_id)
                if row["state"] in JobState.TERMINAL:
                    raise ConfigError(
                        f"job {job_id} is already {row['state']}; "
                        "nothing to cancel"
                    )
                self._conn.execute(
                    "UPDATE jobs SET cancel_requested = 1 WHERE id = ?",
                    (job_id,),
                )
                self._conn.execute(
                    "UPDATE jobs SET state = ?, finished_at = ? "
                    "WHERE id = ? AND state = ?",
                    (JobState.CANCELLED, time.time(), job_id,
                     JobState.QUEUED),
                )
            live = self._running.get(job_id)
            if live is not None:
                live.cancel_event.set()
            return self.get(job_id)

    # -- span persistence -------------------------------------------------
    def save_spans(self, job_id: str, spans: List[dict]) -> None:
        """Durably attach a job's finished span records (idempotent —
        the last write wins, which is what retried jobs want)."""
        payload = json.dumps(
            {
                "schema": SERVICE_TRACE_SCHEMA,
                "schema_version": SCHEMA_VERSION,
                "spans": list(spans),
            }
        )
        with self._lock:
            with self._tx():
                self._conn.execute(
                    "INSERT OR REPLACE INTO spans (job_id, payload) "
                    "VALUES (?, ?)",
                    (job_id, payload),
                )

    def stored_spans(self, job_id: str) -> List[dict]:
        """A job's persisted span records (empty when none were saved)."""
        with self._lock:
            row = self._conn.execute(
                "SELECT payload FROM spans WHERE job_id = ?", (job_id,)
            ).fetchone()
        if row is None:
            return []
        payload = json.loads(row["payload"])
        check_schema_version(payload, f"span payload for {job_id}")
        return payload["spans"]

    # -- telemetry introspection ------------------------------------------
    @property
    def backend(self) -> str:
        return "sqlite"

    def lease_info(self) -> Dict[str, object]:
        """Active-lease telemetry for ``/healthz`` and the gauges.

        Counts leases database-wide (every replica's, not just this
        process's).  Ages are clamped to >= 0: ``started_at`` is wall
        clock, so a backwards clock step must never surface a negative
        age in ``/healthz`` or the ``service_oldest_lease_age_seconds``
        gauge.
        """
        now = time.time()
        with self._lock:
            rows = self._conn.execute(
                "SELECT started_at FROM jobs WHERE state = ?",
                (JobState.RUNNING,),
            ).fetchall()
        ages = [
            max(0.0, now - row["started_at"])
            for row in rows
            if row["started_at"] is not None
        ]
        return {
            "active_leases": len(rows),
            "oldest_lease_age_seconds": max(ages) if ages else 0.0,
        }

    def queue_depth(self) -> int:
        """Jobs currently queued, database-wide (the admission-control
        signal — includes jobs submitted through other replicas)."""
        with self._lock:
            row = self._conn.execute(
                "SELECT COUNT(*) AS n FROM jobs WHERE state = ?",
                (JobState.QUEUED,),
            ).fetchone()
        return int(row["n"])

    def tenant_active_jobs(self, tenant: Optional[str]) -> int:
        """Non-terminal jobs submitted by ``tenant``, database-wide
        (the per-tenant quota signal; ``None`` = anonymous)."""
        with self._lock:
            row = self._conn.execute(
                "SELECT COUNT(*) AS n FROM jobs "
                "WHERE tenant IS ? AND state IN (?, ?)",
                (tenant, JobState.QUEUED, JobState.RUNNING),
            ).fetchone()
        return int(row["n"])

    def memo_stats(self) -> Dict[str, object]:
        """Memo effectiveness over every job in the database."""
        with self._lock:
            row = self._conn.execute(
                "SELECT COUNT(*) AS jobs, COALESCE(SUM(memo_hit), 0) AS hits "
                "FROM jobs"
            ).fetchone()
        total, hits = int(row["jobs"]), int(row["hits"])
        return {
            "hits": hits,
            "jobs": total,
            "ratio": (hits / total) if total else 0.0,
        }

    def run_checkpoint_path(self, job_id: str) -> Path:
        """Per-run JSONL checkpoint for a multi-run job (resume unit)."""
        return self.state_dir / f"{job_id}.runs.jsonl"

    def wake_all(self) -> None:
        """Wake every worker blocked in :meth:`claim_next` (shutdown)."""
        with self._lock:
            self._queue_ready.notify_all()

    def close(self) -> None:
        with self._lock:
            if not self._closed:
                self._closed = True
                self._conn.close()
