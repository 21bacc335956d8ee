"""Worker pool: drains the job queue through the estimation pipeline.

Each worker is a thread that claims one job at a time from the
:class:`~repro.service.store.SQLiteJobStore` and executes it:

* Single-run jobs call :meth:`MaxPowerEstimator.run` directly with a
  ``progress`` hook, so the job's per-k convergence trajectory updates
  live and a cancel request aborts between hyper-samples.  A restart
  re-runs them from scratch — deterministic, so still bit-identical.
* Multi-run jobs go through the fault-tolerant
  :func:`repro.api.run_many` facade with a per-job JSONL checkpoint and
  ``resume=True``: runs completed before a server kill are loaded back,
  never recomputed, and the scheduler's seed contract keeps the final
  result list bit-identical to an uninterrupted execution.

When the store's leases expire (a ``lease_ttl`` is set, the default),
the pool also runs one *lease keeper* thread: it
renews the lease of every in-flight claim attempt each
``store.heartbeat_interval`` seconds — independent of estimator
progress, so a long fit step can't silently lose a healthy job — and
reaps expired leases of dead replicas back to ``queued`` (work
stealing).  Each worker captures its claim attempt's
:class:`~repro.service.jobs.JobLease` when it picks the job up; all
per-attempt bookkeeping (the in-flight registry the keeper renews, the
abort checks in the progress hooks, the terminal commit's CAS token)
goes through that captured lease, never through mutable fields of the
shared job object — so when a reaped job is re-claimed by another
thread of the same pool while the old attempt is still unwinding, the
two attempts cannot interfere.  A worker whose lease was reclaimed
observes ``lease.lost`` in its progress hooks, unwinds without
committing (the store's terminal commit is CAS-guarded on the lease
token anyway), and is counted under
``service_jobs_finished_total{state="lease_lost"}``.

Populations are cached per worker pool (small LRU keyed on the exact
build arguments) so repeated jobs against the same circuit skip the
simulation of tens of thousands of vector pairs.  The cache key includes
the build seed, so it can never alias two different populations.  A
population build simulates on the worker thread that claimed the job;
the C wavefront loop releases the GIL, so two workers' simulation calls
run at the same time.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import List, Optional

import numpy as np

from ..api import build_population, run_many
from ..errors import JobCancelledError
from ..estimation.adaptive import build_estimator
from ..obs.metrics import get_registry
from ..obs.spans import get_span_recorder
from .jobs import Job
from .store import SQLiteJobStore

__all__ = ["WorkerPool"]

_METRICS = get_registry()
_SPANS = get_span_recorder()
_JOB_TIMER = _METRICS.timer("service_job_seconds")

#: Populations kept per pool; a handful covers a benchmark sweep.
_POPULATION_CACHE_SIZE = 8


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


class WorkerPool:
    """``num_workers`` daemon threads draining one :class:`SQLiteJobStore`."""

    def __init__(self, store: SQLiteJobStore, num_workers: int = 2):
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        self.store = store
        self.num_workers = num_workers
        self._stop = threading.Event()
        self._threads: List[threading.Thread] = []
        self._cache_lock = threading.Lock()
        self._populations: "OrderedDict[tuple, object]" = OrderedDict()
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
        """Worker threads currently executing a job (saturation gauge)."""
        with self._busy_lock:
            return self._busy

    # -- lifecycle ------------------------------------------------------
    def start(self) -> None:
        for i in range(self.num_workers):
            thread = threading.Thread(
                target=self._loop, name=f"repro-worker-{i}", daemon=True
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

    def stop(self, timeout: float = 5.0) -> None:
        self._stop.set()
        self.store.wake_all()
        for thread in self._threads:
            thread.join(timeout)
        self._threads.clear()

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
    def _loop(self) -> None:
        # The claim is an atomic store-side lease keyed by this thread's
        # name; memo-settled jobs complete at submit time and are never
        # handed out here.
        owner = threading.current_thread().name
        while not self._stop.is_set():
            job = self.store.claim_next(timeout=0.2, owner=owner)
            if job is None:
                continue
            self._execute(job)

    def _population_for(self, job: Job):
        spec = job.spec
        key = (
            spec.circuit,
            spec.population_size,
            spec.activity,
            spec.sim_mode,
            spec.frequency_mhz,
            spec.seed,
        )
        with self._cache_lock:
            if key in self._populations:
                self._populations.move_to_end(key)
                _METRICS.counter("service_population_cache_total", hit="true").inc()
                return self._populations[key]
        # Build outside the lock: population simulation is the slow part
        # and two workers building the same key just race benignly.
        population = build_population(
            spec.circuit,
            population_size=spec.population_size,
            activity=spec.activity,
            sim_mode=spec.sim_mode,
            frequency_mhz=spec.frequency_mhz,
            seed=spec.seed,
            workers=spec.config.workers,
        )
        with self._cache_lock:
            self._populations[key] = population
            while len(self._populations) > _POPULATION_CACHE_SIZE:
                self._populations.popitem(last=False)
            _METRICS.counter("service_population_cache_total", hit="false").inc()
        return population

    def _execute(self, job: Job) -> None:
        # Capture this attempt's lease before anything else: the shared
        # job object's `lease` is swapped by a steal-back re-claim, and
        # every check/commit below must be against *this* attempt's.
        lease = job.lease
        active_key = (job.id, lease.token if lease is not None else None)
        with self._busy_lock:
            self._busy += 1
            self._active[active_key] = (job, lease)
        # Re-attach the trace context the job carried through the queue so
        # estimator/fit/population spans nest under this job's trace even
        # though a different thread than the HTTP handler runs it.
        tracing = _SPANS.enabled and job.trace_id is not None
        context = job.trace_context if tracing else None
        token = _SPANS.attach(context) if tracing else None
        run_span = None
        if tracing:
            if job.started_at is not None:
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
                with _JOB_TIMER.time():
                    results = self._run(job, lease)
            except JobCancelledError:
                self._settle(
                    job,
                    lease,
                    run_span,
                    "cancelled",
                    lambda j: self.store.mark_cancelled(j, lease=lease),
                )
            except Exception as exc:  # noqa: BLE001 — job isolation boundary
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
            if token is not None:
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
        the re-run owns the lifecycle now, and the abandoned attempt is
        counted as ``state="lease_lost"``.  All checks are against the
        *captured* lease, never ``job.lease`` — a same-pool re-claim
        swaps the latter.
        """
        lost = lease is not None and lease.lost
        if not lost:
            with _SPANS.span("job.commit", job_id=job.id, state=state):
                commit(job)
            lost = lease is not None and lease.lost
        if lost:
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
        _METRICS.counter("service_jobs_finished_total", state=state).inc()
        if _SPANS.enabled and job.trace_id is not None:
            records = _SPANS.spans_for_trace(job.trace_id)
            if records:
                self.store.save_spans(job.id, records)

    def _run(self, job: Job, lease) -> List[object]:
        spec = job.spec
        population = self._population_for(job)
        lost = (lambda: lease.lost) if lease is not None else (lambda: False)
        if spec.num_runs == 1:
            # The config's method field picks the engine (fixed block
            # maxima, POT, or the adaptive controller) — all share the
            # run(rng, progress) contract, so cancellation and the live
            # trajectory work identically.
            estimator = build_estimator(population, spec.config)
            # Capture this attempt's buffer: a steal-back re-run swaps in
            # a fresh list on job.trajectory, and a still-unwinding old
            # attempt must keep writing to its own orphaned one.
            trajectory = job.trajectory

            def progress(hs, interval, cumulative_units):
                if job.cancel_event.is_set() or lost():
                    raise JobCancelledError(f"job {job.id} cancelled")
                trajectory.append(
                    _trajectory_entry(hs, interval, cumulative_units)
                )

            result = estimator.run(
                rng=np.random.default_rng(spec.seed + 1), progress=progress
            )
            if job.lease is lease:
                job.completed_runs = 1
            return [result]

        # Per-attempt run counter, published to the shared job only
        # while this attempt still owns it: an orphaned old attempt
        # bumping job.completed_runs would make status/SSE over-report
        # the live re-run's progress (and emit spurious run events).
        completed = 0

        def on_result(index: int, result) -> None:
            nonlocal completed
            if job.cancel_event.is_set() or lost():
                raise JobCancelledError(f"job {job.id} cancelled")
            completed += 1
            if job.lease is lease:
                job.completed_runs = completed

        return run_many(
            population,
            spec.num_runs,
            spec.config,
            base_seed=spec.seed + 1,
            checkpoint=self.store.run_checkpoint_path(job.id),
            resume=True,
            on_result=on_result,
        )
