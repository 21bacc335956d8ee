"""Worker pool: drains the job queue through the estimation pipeline.

Each worker is a pair: a thread in the server process that claims one
job at a time from the :class:`~repro.service.store.SQLiteJobStore`,
and a forked, single-threaded *worker process* that executes it.  The
estimator's Figure-4 loop is Python that holds the GIL, so N worker
threads would run at about serial speed; N processes run N jobs on N
cores.  The pool forks its processes in :meth:`WorkerPool.start`,
before it starts any thread.

The thread keeps everything that touches the store or the server's
state — the claim, the lease, the settle, SSE progress and
``/metrics`` — and relays the job to its process over a pipe:

* Single-run jobs call :meth:`MaxPowerEstimator.run` with a ``progress``
  hook that sends each per-k trajectory entry to the thread.  The
  thread appends it to the job's live trajectory — or, once a cancel
  was requested or the lease was lost, sends "stop", and the process
  unwinds with :class:`JobCancelledError` at its next hyper-sample.
  The process never waits for an answer: a pipe round trip per
  hyper-sample cost about 0.3 ms, 5–8 % of a c880 job.  A restart
  re-runs single-run jobs from scratch — deterministic, so still
  bit-identical.
* Multi-run jobs go through the fault-tolerant
  :func:`repro.api.run_many` facade with a per-job JSONL checkpoint and
  ``resume=True``; every completed run is relayed the same way.  Runs
  completed before a server kill are loaded back, never recomputed,
  and the scheduler's seed contract keeps the final result list
  bit-identical to an uninterrupted execution.

A job runs in its process as one :class:`~repro.obs.Attempt`.  The
last message of a job carries its results — or its exception's type
name and message, so a job fails with the same ``"{type}: {message}"``
error either way — and the exported attempt, on every outcome, so a
failed job's spans still reach its trace.  The thread merges it
(:func:`~repro.obs.merge_attempt`) before it settles the job, so
``/metrics`` and the job's trace hold the worker-side activity from the
moment the job settles.

When the store's leases expire (a ``lease_ttl`` is set, the default),
the pool also runs one *lease keeper* thread: it
renews the lease of every in-flight claim attempt each
``store.heartbeat_interval`` seconds — independent of estimator
progress, so a long fit step can't silently lose a healthy job — and
reaps expired leases of dead replicas back to ``queued`` (work
stealing).  Every claim hands the worker a fresh
:class:`~repro.service.jobs.Job` carrying its own
:class:`~repro.service.jobs.JobLease`, trajectory and run count, so
when a reaped job is re-claimed by another thread of the same pool
while the old attempt is still unwinding, the two attempts cannot
interfere.  A worker whose lease was reclaimed observes ``lease.lost``
in its progress relay, unwinds without committing (the store's
terminal commit is CAS-guarded on the lease token anyway), and is
counted under ``service_jobs_finished_total{state="lease_lost"}``.

Each worker process caches populations (small LRU keyed on the exact
build arguments), so repeated jobs against the same circuit on the same
process skip the simulation of tens of thousands of vector pairs.  The
cache key includes the build seed, so it can never alias two different
populations.

A worker process closes the server's listening socket and every pipe
end but its own, never touches the server's SQLite connection, and
exits when its pipe closes: at once when idle, at its next message when
busy — so a killed server leaves no workers behind.  A worker process
that dies mid-job fails only that job, with an error naming its exit
code, and the pool forks a replacement.
"""

from __future__ import annotations

import atexit
import multiprocessing
import signal
import threading
from collections import OrderedDict
from multiprocessing.connection import Connection
from multiprocessing.connection import wait as wait_ready
from typing import List, NamedTuple, Optional

import numpy as np

from ..api import build_population, run_many
from ..errors import JobCancelledError, WorkerError
from ..estimation.adaptive import build_estimator
from ..obs import Attempt, get_registry, get_span_recorder, merge_attempt
from ..sim.native import load_backend
from .jobs import Job
from .store import SQLiteJobStore

__all__ = ["WorkerPool"]

# A job's execution is a ``job.run`` span (``service_job_seconds`` and
# ``service_jobs_finished_total`` fold from it); the population cache and
# lease renewals record no span, so they keep counters.
_METRICS = get_registry()
_SPANS = get_span_recorder()

#: Populations kept per worker process; a handful covers a benchmark sweep.
_POPULATION_CACHE_SIZE = 8

_FORK = multiprocessing.get_context("fork")


def _trajectory_entry(hs, interval, cumulative_units: int) -> dict:
    """One per-k live status record (field names match the
    ``estimator.hyper_sample`` span and ``HyperSample.to_dict``)."""
    fit = hs.fit
    return {
        "k": hs.index,
        "estimate": hs.estimate,
        "alpha": fit.alpha if fit is not None else None,
        "beta": fit.beta if fit is not None else None,
        "mu": fit.mu if fit is not None else None,
        "rel_half_width": interval.rel_half_width if interval else None,
        "mean_estimate": interval.mean if interval else None,
        "cumulative_units": cumulative_units,
    }


# ----------------------------------------------------------------------
# Worker-process side
# ----------------------------------------------------------------------

#: The thread's one message to a busy worker process: unwind the job.
_STOP = "stop"


def _relay(conn, message) -> None:
    """Send one progress message to the worker thread, without waiting.

    A "stop" the thread sent since the last message unwinds the job with
    :class:`JobCancelledError`; a closed pipe means the server is gone,
    so the process exits.
    """
    try:
        if conn.poll():
            conn.recv()
            raise JobCancelledError("job stopped by the server")
        conn.send(message)
    except (EOFError, OSError):
        raise SystemExit(0)


def _population_for(populations: "OrderedDict[tuple, object]", spec):
    key = (
        spec.circuit,
        spec.population_size,
        spec.activity,
        spec.sim_mode,
        spec.frequency_mhz,
        spec.seed,
    )
    population = populations.get(key)
    if population is not None:
        populations.move_to_end(key)
        _METRICS.counter("service_population_cache_total", hit="true").inc()
        return population
    population = build_population(
        spec.circuit,
        population_size=spec.population_size,
        activity=spec.activity,
        sim_mode=spec.sim_mode,
        frequency_mhz=spec.frequency_mhz,
        seed=spec.seed,
        workers=spec.config.workers,
    )
    populations[key] = population
    while len(populations) > _POPULATION_CACHE_SIZE:
        populations.popitem(last=False)
    _METRICS.counter("service_population_cache_total", hit="false").inc()
    return population


def _run_job(conn, populations, spec, checkpoint) -> List[object]:
    population = _population_for(populations, spec)
    if spec.num_runs == 1:
        # The config's method field picks the engine (fixed block
        # maxima, POT, or the adaptive controller) — all share the
        # run(rng, progress) contract, so cancellation and the live
        # trajectory work identically.
        estimator = build_estimator(population, spec.config)

        def progress(hs, interval, cumulative_units):
            entry = _trajectory_entry(hs, interval, cumulative_units)
            _relay(conn, ("progress", entry))

        result = estimator.run(
            rng=np.random.default_rng(spec.seed + 1), progress=progress
        )
        return [result]
    return run_many(
        population,
        spec.num_runs,
        spec.config,
        base_seed=spec.seed + 1,
        checkpoint=checkpoint,
        resume=True,
        on_result=lambda index, result: _relay(conn, ("run", index)),
    )


def _worker_main(conn, inherited) -> None:
    """A worker process: run the jobs its thread sends until the pipe
    closes.  Each job's span context arrives with it; the job runs as an
    attempt, which goes back with its outcome."""
    # Ctrl-C reaches the whole process group; shutting down is the
    # server's call, and it ends its workers with SIGTERM.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    for handle in inherited:
        handle.close()
    # The fork kept the server's recording switches; drop its trace
    # sink without writing, since the server writes the spans it merges.
    _SPANS.close()
    populations: "OrderedDict[tuple, object]" = OrderedDict()
    while True:
        try:
            request = conn.recv()
        except (EOFError, OSError):
            return  # the server closed the pipe, or died
        if request == _STOP:
            continue  # sent after the job's last progress message
        spec, checkpoint, context = request
        token = _SPANS.attach(context)
        with Attempt() as attempt:
            try:
                results = _run_job(conn, populations, spec, checkpoint)
            except Exception as exc:  # noqa: BLE001 — reported to the thread
                outcome = ("failed", type(exc).__name__, str(exc))
            else:
                outcome = ("done", results)
        _SPANS.detach(token)
        try:
            conn.send(outcome + (attempt.export(),))
        except OSError:
            return


# ----------------------------------------------------------------------
# Server side
# ----------------------------------------------------------------------

class _JobFailed(Exception):
    """A job's exception in its worker process, by type name and message
    (the exception itself need not pickle)."""

    def __init__(self, error: str):
        super().__init__(error)
        self.error = error


class _PoolStopped(Exception):
    """The pool ended the job's worker process while stopping; the job
    is left to restart recovery or lease expiry, as after a crash."""


class _Worker(NamedTuple):
    """One worker process and the server's end of its pipe."""

    process: multiprocessing.process.BaseProcess
    conn: Connection


class WorkerPool:
    """``num_workers`` worker processes, each driven by a thread that
    drains one :class:`SQLiteJobStore`.

    ``listener`` is the server's listening socket, which each worker
    process closes after the fork.
    """

    def __init__(
        self, store: SQLiteJobStore, num_workers: int = 2, listener=None
    ):
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        self.store = store
        self.num_workers = num_workers
        self._listener = listener
        self._stop = threading.Event()
        self._threads: List[threading.Thread] = []
        self._workers: List[Optional[_Worker]] = [None] * num_workers
        #: Serialises forks, so a new process never inherits a pipe it
        #: cannot know to close, and keeps stop() from racing a refork.
        self._fork_lock = threading.Lock()
        #: ``index``: the worker slot of the current worker thread.
        self._local = threading.local()
        self._busy_lock = threading.Lock()
        self._busy = 0
        #: In-flight claim attempts, keyed by (job id, lease token) and
        #: holding (job, lease) — what the lease keeper renews.  Keyed
        #: per *attempt*, not per job: when a reaped job is re-claimed
        #: by another thread of this pool while the old attempt is
        #: still unwinding, the old attempt's cleanup must pop its own
        #: entry, never the live re-run's.
        self._active: dict = {}

    def busy_count(self) -> int:
        """Worker processes currently executing a job (saturation gauge)."""
        with self._busy_lock:
            return self._busy

    def worker_pids(self) -> List[int]:
        """Process ids of the live worker processes."""
        with self._fork_lock:
            return [w.process.pid for w in self._workers if w is not None]

    # -- lifecycle ------------------------------------------------------
    def start(self) -> None:
        # Probe the C library once here, so every worker process
        # inherits it loaded.
        load_backend()
        with self._fork_lock:
            for index in range(self.num_workers):
                self._fork_locked(index)
        for index in range(self.num_workers):
            thread = threading.Thread(
                target=self._loop, args=(index,),
                name=f"repro-worker-{index}", daemon=True,
            )
            thread.start()
            self._threads.append(thread)
        if self.store.heartbeat_interval is not None:
            keeper = threading.Thread(
                target=self._lease_keeper, name="repro-lease-keeper",
                daemon=True,
            )
            keeper.start()
            self._threads.append(keeper)
        # Interpreter exit joins child processes, and these wait on
        # their pipes: a pool never stopped would hang the exit.
        atexit.register(self.stop)

    def stop(self, timeout: float = 5.0) -> None:
        """Stop claiming, end every worker process and join it.  A job
        still running stays ``running`` in the store, as after a crash."""
        atexit.unregister(self.stop)
        with self._fork_lock:
            self._stop.set()
            workers = [w for w in self._workers if w is not None]
            self._workers = [None] * self.num_workers
        self.store.wake_all()
        for worker in workers:
            worker.process.terminate()
        for thread in self._threads:
            thread.join(timeout)
        self._threads.clear()
        for worker in workers:
            worker.process.join(timeout)
            worker.conn.close()

    def _fork_locked(self, index: int) -> None:
        """Fork the worker process of slot ``index`` (``_fork_lock`` held)."""
        ours, theirs = _FORK.Pipe()
        inherited = [ours] + [w.conn for w in self._workers if w is not None]
        if self._listener is not None:
            inherited.append(self._listener)
        process = _FORK.Process(
            target=_worker_main,
            args=(theirs, inherited),
            name=f"repro-worker-{index}",
        )
        process.start()
        theirs.close()
        self._workers[index] = _Worker(process, ours)

    # -- lease keeper ---------------------------------------------------
    def _lease_keeper(self) -> None:
        """Heartbeat + reaper: renew this pool's in-flight leases and
        reclaim expired ones (any replica's) every heartbeat interval."""
        interval = self.store.heartbeat_interval
        while not self._stop.wait(interval):
            with self._busy_lock:
                active = list(self._active.values())
            for job, lease in active:
                renewed = self.store.renew_lease(job, lease)
                _METRICS.counter(
                    "service_lease_renewals_total",
                    outcome="ok" if renewed else "lost",
                ).inc()
            self.store.reap_expired()

    # -- execution ------------------------------------------------------
    def _loop(self, index: int) -> None:
        # The claim is an atomic store-side lease keyed by this thread's
        # name; memo-settled jobs complete at submit time and are never
        # handed out here.
        self._local.index = index
        owner = threading.current_thread().name
        while not self._stop.is_set():
            job = self.store.claim_next(timeout=0.2, owner=owner)
            if job is None:
                continue
            self._execute(job)

    def _execute(self, job: Job) -> None:
        lease = job.lease
        active_key = (job.id, lease.token)
        with self._busy_lock:
            self._busy += 1
            self._active[active_key] = (job, lease)
        # Re-attach the trace context the job carried through the queue so
        # the job's spans nest under its trace even though a different
        # thread than the HTTP handler claims it.
        context = job.trace_context
        token = _SPANS.attach(context)
        if context is not None and job.started_at is not None:
            _SPANS.emit(
                "job.queue_wait",
                parent=context,
                start_ts=job.created_at,
                duration_s=max(0.0, job.started_at - job.created_at),
                job_id=job.id,
            )
            _SPANS.emit(
                "job.claim",
                parent=context,
                start_ts=job.started_at,
                job_id=job.id,
                lease_owner=job.lease_owner,
            )
        run_span = _SPANS.start(
            "job.run",
            job_id=job.id,
            circuit=job.spec.circuit,
            num_runs=job.spec.num_runs,
        )
        try:
            try:
                results = self._run(job, lease)
            except _PoolStopped:
                pass
            except JobCancelledError:
                self._settle(
                    job,
                    lease,
                    run_span,
                    "cancelled",
                    lambda j: self.store.mark_cancelled(j, lease=lease),
                )
            except Exception as exc:  # noqa: BLE001 — job isolation boundary
                if isinstance(exc, _JobFailed):
                    message = exc.error
                else:
                    message = f"{type(exc).__name__}: {exc}"
                self._settle(
                    job,
                    lease,
                    run_span,
                    "failed",
                    lambda j: self.store.mark_failed(j, message, lease=lease),
                    error=message,
                )
            else:
                self._settle(
                    job,
                    lease,
                    run_span,
                    "completed",
                    lambda j: self.store.mark_completed(j, results, lease=lease),
                )
        finally:
            _SPANS.detach(token)
            with self._busy_lock:
                self._busy -= 1
                self._active.pop(active_key, None)

    def _settle(
        self, job: Job, lease, run_span, state: str, commit, error=None
    ) -> None:
        """Finish the job's run span, commit its terminal state, and
        persist the trace so it survives a server restart.

        An attempt whose lease was lost mid-run (expired and reclaimed
        by the reaper — this attempt no longer owns the job) is never
        committed: the store's token CAS would reject the write anyway,
        the re-run owns the lifecycle now, and the abandoned attempt's
        ``job.run`` span ends with ``state="lease_lost"``.
        """
        if not lease.lost:
            with _SPANS.span("job.commit", job_id=job.id, state=state):
                commit(job)
        if lease.lost:
            # Either detected before the commit or discovered by the
            # commit's own lease CAS: nothing was written.
            state = "lease_lost"
            error = None
        if run_span is not None:
            attrs = {"state": state}
            if error is not None:
                attrs["error"] = error
            _SPANS.finish(
                run_span,
                status="error" if state == "failed" else "ok",
                **attrs,
            )
        if _SPANS.enabled and job.trace_id is not None:
            records = _SPANS.spans_for_trace(job.trace_id)
            if records:
                self.store.save_spans(job.id, records)

    def _run(self, job: Job, lease) -> List[object]:
        """Run ``job`` on this thread's worker process: take in its
        progress, tell it to stop once the job is cancelled or the lease
        is lost, and merge its exported attempt when it ends."""
        index = self._local.index
        worker = self._workers[index]
        if worker is not None and not worker.process.is_alive():
            self._replace(index, worker)  # it died idle: the job is unharmed
            worker = self._workers[index]
        if worker is None:
            raise _PoolStopped()
        request = (
            job.spec,
            self.store.run_checkpoint_path(job.id),
            _SPANS.current_context(),
        )
        stopping = False
        try:
            worker.conn.send(request)
            while True:
                ready = wait_ready([worker.conn, worker.process.sentinel])
                if worker.conn not in ready:
                    raise EOFError
                message = worker.conn.recv()
                kind = message[0]
                if kind in ("progress", "run"):
                    if stopping:
                        continue
                    if job.cancel_event.is_set() or lease.lost:
                        # The process sees it at its next message.
                        stopping = True
                        worker.conn.send(_STOP)
                    elif kind == "progress":
                        job.trajectory.append(message[1])
                    else:
                        job.completed_runs += 1
                    continue
                merge_attempt(message[-1])
                if kind == "done" and not stopping:
                    if job.spec.num_runs == 1:
                        job.completed_runs = 1
                    return message[1]
                if stopping or message[1] == JobCancelledError.__name__:
                    raise JobCancelledError(f"job {job.id} cancelled")
                _kind, type_name, text, _exported = message
                raise _JobFailed(f"{type_name}: {text}")
        except (EOFError, OSError):
            if not self._replace(index, worker):
                raise _PoolStopped() from None
            raise WorkerError(
                f"worker process {worker.process.pid} exited with code "
                f"{worker.process.exitcode} mid-job"
            ) from None

    def _replace(self, index: int, worker: _Worker) -> bool:
        """Reap a dead worker process and fork its replacement (False
        when the pool is stopping instead)."""
        worker.process.join(5.0)
        if worker.process.exitcode is None:
            worker.process.kill()
            worker.process.join()
        worker.conn.close()
        with self._fork_lock:
            if self._stop.is_set():
                return False
            self._fork_locked(index)
        return True
