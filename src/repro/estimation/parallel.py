"""Parallel drivers for repeated estimation runs.

The paper's experiments (Tables 1-4, Figure 2) repeat the whole
iterative estimator — or single hyper-samples — 100 times per circuit.
Each repetition is independent, so the loop shards across processes.

Stream-splitting contract
-------------------------
Run *i* of ``num_runs`` always draws from
``np.random.default_rng(np.random.SeedSequence(base_seed).spawn(num_runs)[i])``.
The child seed sequences depend only on ``(base_seed, num_runs)``, never
on the worker count, scheduling order, retries, or resumes: a retried
task re-submits the *same* spawned ``SeedSequence`` and rebuilds its
generator from scratch, so a serial run (``workers=1``), a parallel run,
a run that crashed and retried, and a checkpoint-resumed run all produce
*bit-for-bit identical* estimates for the same ``base_seed``.

Worker processes are forked and get the estimator through the pool
initializer, so each worker inherits it, population arrays included,
and nothing pickles it.  The estimator need not be picklable: a
:class:`~repro.vectors.population.StreamingPopulation` closed over
local lambdas runs in parallel as well.  Each task (its index,
attempt and seeds) and its result are still pickled.

Fault tolerance
---------------
Tasks are scheduled one future at a time, two per worker in flight so
no worker idles while the parent merges a result and submits the next
task.  The pool runs tasks in submission order, so a task's timeout
clock starts when it becomes one of the ``workers`` oldest unfinished
tasks — when it starts running — never while it waits in the queue.
This makes four failure modes recoverable:

* **Worker exceptions** — a task that raises is retried up to
  ``retries`` times with exponential backoff
  (``backoff * 2**attempt``, capped at 5 s); exhausted retries raise
  :class:`~repro.errors.WorkerError` with the task index and cause.
* **Hangs** — with ``task_timeout`` set, a task that exceeds it has its
  whole pool killed and rebuilt (a hung worker cannot be cancelled);
  the hung task consumes a retry, innocent in-flight tasks are
  re-submitted at their current attempt.  Exhausted retries raise
  :class:`~repro.errors.TaskTimeoutError`.  Timeouts are not enforced
  on the ``workers=1`` in-process path.
* **Broken pools** — ``BrokenProcessPool`` (a worker died hard) causes
  a pool rebuild with every incomplete task re-submitted, no retry
  consumed (the victim cannot be attributed).
* **Repeated pool failures** — after ``MAX_POOL_REBUILDS`` broken-pool
  recoveries the driver degrades gracefully to in-process serial
  execution of the remaining tasks (retries still honored, timeouts
  unenforceable; the retry budget restarts for the remaining tasks).

Checkpointing (``checkpoint=<path>``) streams every completed result to
a JSONL file the moment it finishes; ``resume=True`` loads completed
task indices back (validated against the seed contract) and only runs
the rest.  See :mod:`repro.estimation.checkpoint` for the file format.

Observability contract
----------------------
Every attempt of a task runs as a :class:`repro.obs.Attempt`, which
holds the spans and metrics recorded under it.  On the in-process path
a successful attempt commits them and a failed one is dropped; in a
pool worker a successful attempt is exported with the task's result and
the parent merges it, while a failed one is dropped before the error
crosses the process boundary.  So what ``run_many`` /
``hyper_sample_many`` record aggregates identically for any worker
count *and any retry history*, and the process-wide registry is never
reset to get there.  The scheduler's own events are point spans
(``task_retry``, ``pool_rebuild``, ``parallel_degraded``,
``checkpoint``) from which the ``parallel_*`` and
``checkpoint_results_total`` metrics fold; only the timeouts and the
checkpoint writes, which no span records, keep counters (documented in
``docs/robustness.md``).  Trace recording is parent-process only; the
initializer closes any inherited sink.
"""

from __future__ import annotations

import multiprocessing
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import ConfigError, TaskTimeoutError, WorkerError
from ..obs.attempt import Attempt, merge_attempt
from ..obs.metrics import get_registry
from ..obs.spans import get_span_recorder
from .checkpoint import open_checkpoint
from .mc_estimator import MaxPowerEstimator
from .result import EstimationResult, HyperSample

__all__ = [
    "check_execution_settings",
    "spawn_run_seeds",
    "run_many",
    "hyper_sample_many",
    "current_task",
    "TaskContext",
    "DEFAULT_BACKOFF",
    "MAX_POOL_REBUILDS",
]

SeedLike = Union[int, Sequence[int], np.random.SeedSequence]

#: First-retry backoff delay in seconds (doubles per attempt, capped).
DEFAULT_BACKOFF = 0.05

#: Exponential-backoff ceiling in seconds.
_BACKOFF_CAP_S = 5.0

#: Broken-pool recoveries tolerated before degrading to serial execution.
MAX_POOL_REBUILDS = 3

# Per-process slot for the estimator, set by the pool initializer.
_WORKER_ESTIMATOR: Optional[MaxPowerEstimator] = None

_METRICS = get_registry()
_SPANS = get_span_recorder()

#: Pool workers are forked, so they inherit the parent's recording
#: switches (metrics and spans on or off).
_FORK = multiprocessing.get_context("fork")


@dataclass(frozen=True)
class TaskContext:
    """Identity of the task currently executing in this process.

    Exposed via :func:`current_task` so instrumentation (and the test
    suite's fault injectors) can tell *which* repetition and attempt an
    ``estimator.run`` call belongs to, on both the worker and the
    in-process execution paths.
    """

    index: int  #: 0-based task index within the batch.
    attempt: int  #: 0-based attempt number (0 = first try).


_CURRENT_TASK: Optional[TaskContext] = None


def current_task() -> Optional[TaskContext]:
    """The :class:`TaskContext` being executed, or ``None`` outside one."""
    return _CURRENT_TASK


def _set_task(index: int, attempt: int) -> None:
    global _CURRENT_TASK
    _CURRENT_TASK = TaskContext(index=index, attempt=attempt)


def _clear_task() -> None:
    global _CURRENT_TASK
    _CURRENT_TASK = None


def spawn_run_seeds(
    base_seed: SeedLike, num_runs: int
) -> List[np.random.SeedSequence]:
    """Child seed sequences for ``num_runs`` independent repetitions.

    ``base_seed`` may be an int, a sequence of ints, or an existing
    :class:`numpy.random.SeedSequence`.
    """
    if num_runs < 1:
        raise ConfigError("num_runs must be >= 1")
    if isinstance(base_seed, np.random.SeedSequence):
        root = base_seed
    else:
        root = np.random.SeedSequence(base_seed)
    return root.spawn(num_runs)


def _seed_key(base_seed: SeedLike, num_runs: int) -> str:
    """Stable identity of the spawned stream family, for checkpoints."""
    if isinstance(base_seed, np.random.SeedSequence):
        root = base_seed
    else:
        root = np.random.SeedSequence(base_seed)
    return f"entropy={root.entropy};spawn_key={root.spawn_key};n={num_runs}"


# ----------------------------------------------------------------------
# Worker-process side
# ----------------------------------------------------------------------

def _init_worker(estimator: MaxPowerEstimator, span_context) -> None:
    global _WORKER_ESTIMATOR
    # The forked worker inherits the estimator, not a pickled copy: its
    # BitParallelSimulator comes with the circuit's compiled plan, so
    # every task dispatched to this process reuses that plan instead of
    # re-freezing the netlist.
    _WORKER_ESTIMATOR = estimator
    # A forked worker records as its parent does, and each task's records
    # travel back in its exported attempt.  The parent's ambient span
    # context (e.g. the service's job.run span) is re-attached so
    # worker-side spans graft onto the same tree.  The child also
    # inherits the parent's open JSONL sink: drop it without writing,
    # since merged spans reach the file via the parent.
    _SPANS.close()
    _SPANS.attach(span_context)


def _require_estimator() -> MaxPowerEstimator:
    if _WORKER_ESTIMATOR is None:
        raise WorkerError(
            "worker estimator slot was never initialized — the pool "
            "initializer did not run in this process"
        )
    return _WORKER_ESTIMATOR


def _guarded(index: int, attempt: int, call: Callable[[], object]):
    """Run one attempt in a worker: scope its records, wrap its errors.

    Returns the result with the exported :class:`~repro.obs.Attempt`.
    A failed attempt's records are dropped here (the retry will
    re-record them), and the original exception is re-raised as a
    picklable :class:`~repro.errors.WorkerError` so it always survives
    the trip back through the pool.
    """
    _set_task(index, attempt)
    try:
        with Attempt() as scope:
            result = call()
    except WorkerError:
        raise
    except Exception as exc:
        raise WorkerError(
            f"task {index} attempt {attempt}: {type(exc).__name__}: {exc}",
            index=index,
            attempt=attempt,
            cause_type=type(exc).__name__,
        ) from None
    finally:
        _clear_task()
    return result, scope.export()


def _run_task(task):
    index, attempt, seed_seq = task
    return _guarded(
        index,
        attempt,
        lambda: _require_estimator().run(np.random.default_rng(seed_seq)),
    )


def _hyper_task(task):
    index, attempt, payload = task
    hyper_index, seed_seq = payload
    return _guarded(
        index,
        attempt,
        lambda: _require_estimator().hyper_sample(
            hyper_index, np.random.default_rng(seed_seq)
        ),
    )


# ----------------------------------------------------------------------
# Parent-process scheduler
# ----------------------------------------------------------------------

def _backoff_delay(backoff: float, attempt: int) -> float:
    return min(backoff * (2.0 ** attempt), _BACKOFF_CAP_S) if backoff > 0 else 0.0


def _handle_failure(
    kind: str,
    index: int,
    attempt: int,
    retries: int,
    backoff: float,
    exc: Optional[BaseException] = None,
    timeout: Optional[float] = None,
) -> None:
    """Account one failed attempt; sleep the backoff; raise if exhausted."""
    timed_out = timeout is not None
    if timed_out:
        _METRICS.counter("parallel_task_timeouts_total", kind=kind).inc()
    if attempt >= retries:
        if timed_out:
            raise TaskTimeoutError(
                f"{kind} task {index} exceeded the {timeout:g}s task timeout "
                f"on every one of its {attempt + 1} attempt(s)",
                index=index,
                attempt=attempt,
                cause_type="timeout",
            )
        raise WorkerError(
            f"{kind} task {index} failed after {attempt + 1} attempt(s): {exc}",
            index=index,
            attempt=attempt,
            cause_type=getattr(exc, "cause_type", None) or type(exc).__name__,
        ) from exc
    cause = "timeout" if timed_out else "error"
    _SPANS.emit(
        "task_retry",
        kind=kind,
        index=index,
        attempt=attempt,
        cause=cause,
        detail=f"timeout {timeout:g}s" if timed_out else str(exc),
    )
    delay = _backoff_delay(backoff, attempt)
    if delay:
        time.sleep(delay)


def _run_serial(
    local_fn: Callable[[object], object],
    items: Sequence[Tuple[int, object]],
    *,
    kind: str,
    retries: int,
    backoff: float,
    on_result: Callable[[int, object], None],
) -> None:
    """In-process execution with the same retry semantics as the pool:
    each attempt is an :class:`~repro.obs.Attempt`, committed when it
    succeeds and dropped when it fails."""
    for index, payload in items:
        attempt = 0
        while True:
            _set_task(index, attempt)
            try:
                with Attempt() as scope:
                    result = local_fn(payload)
                break
            except Exception as exc:
                _handle_failure(kind, index, attempt, retries, backoff, exc=exc)
                attempt += 1
            finally:
                _clear_task()
        scope.commit()
        on_result(index, result)


def _run_pool(
    worker_fn,
    estimator: MaxPowerEstimator,
    items: Sequence[Tuple[int, object]],
    workers: int,
    *,
    kind: str,
    retries: int,
    task_timeout: Optional[float],
    backoff: float,
    on_result: Callable[[int, object], None],
) -> List[Tuple[int, object]]:
    """Future-per-task scheduler with retries, timeouts and pool recovery.

    Returns the tasks left unfinished when degrading to serial execution
    (empty on normal completion).
    """
    pending = deque((index, 0, payload) for index, payload in items)
    #: Unfinished tasks in submission order, each with the deadline its
    #: timeout clock set (``None`` until it is among the running ones).
    inflight: Dict[Future, Tuple[int, int, object, Optional[float]]] = {}
    workers = min(workers, len(items))
    window = 2 * workers
    rebuilds = 0
    pool: Optional[ProcessPoolExecutor] = None

    def build() -> ProcessPoolExecutor:
        # Forked workers inherit the recording switches; the ambient
        # context (e.g. the service's job.run span) captured here carries
        # the trace across the process boundary, including every rebuilt
        # pool.
        return ProcessPoolExecutor(
            max_workers=workers,
            mp_context=_FORK,
            initializer=_init_worker,
            initargs=(estimator, _SPANS.current_context()),
        )

    def recycle(kill: bool, cause: str) -> None:
        nonlocal pool
        for index, attempt, payload, _deadline in inflight.values():
            pending.appendleft((index, attempt, payload))
        inflight.clear()
        if pool is not None:
            if kill:
                # A hung worker never returns; terminate the processes
                # before shutdown so the rebuild does not wait on them.
                for proc in list(getattr(pool, "_processes", {}).values()):
                    proc.terminate()
            pool.shutdown(wait=False, cancel_futures=True)
            pool = None
        _SPANS.emit("pool_rebuild", kind=kind, cause=cause)

    def start_clocks() -> None:
        # The ``workers`` oldest unfinished tasks are the running ones.
        now = time.monotonic()
        for future in islice(inflight, workers):
            index, attempt, payload, deadline = inflight[future]
            if deadline is None:
                inflight[future] = (index, attempt, payload, now + task_timeout)

    try:
        pool = build()
        while pending or inflight:
            if pool is None:
                pool = build()
            broken = False
            while pending and len(inflight) < window:
                index, attempt, payload = pending.popleft()
                try:
                    future = pool.submit(worker_fn, (index, attempt, payload))
                except BrokenProcessPool:
                    pending.appendleft((index, attempt, payload))
                    broken = True
                    break
                inflight[future] = (index, attempt, payload, None)
            if not broken and inflight:
                wait_timeout = None
                if task_timeout is not None:
                    start_clocks()
                    wait_timeout = max(
                        0.0,
                        min(
                            d for *_rest, d in inflight.values()
                            if d is not None
                        )
                        - time.monotonic(),
                    )
                done, _ = wait(
                    set(inflight),
                    timeout=wait_timeout,
                    return_when=FIRST_COMPLETED,
                )
                for future in done:
                    index, attempt, payload, _deadline = inflight.pop(future)
                    try:
                        result, exported = future.result()
                    except BrokenProcessPool:
                        # The victim cannot be attributed: re-submit at
                        # the same attempt, no retry consumed.
                        pending.appendleft((index, attempt, payload))
                        broken = True
                    except Exception as exc:
                        _handle_failure(
                            kind, index, attempt, retries, backoff, exc=exc
                        )
                        pending.append((index, attempt + 1, payload))
                    else:
                        merge_attempt(exported)
                        on_result(index, result)
            if broken:
                rebuilds += 1
                recycle(kill=False, cause="broken")
                if rebuilds > MAX_POOL_REBUILDS:
                    remaining = [(i, p) for i, _a, p in pending]
                    pending.clear()
                    return remaining
                continue
            if task_timeout is None or not inflight:
                continue
            now = time.monotonic()
            hung = [
                future
                for future, (_i, _a, _p, deadline) in inflight.items()
                if deadline is not None and now >= deadline and not future.done()
            ]
            if not hung:
                continue
            for future in hung:
                index, attempt, payload, _deadline = inflight.pop(future)
                _handle_failure(
                    kind, index, attempt, retries, backoff, timeout=task_timeout
                )
                pending.append((index, attempt + 1, payload))
            recycle(kill=True, cause="timeout")
    finally:
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)
    return []


def _drive(
    estimator: MaxPowerEstimator,
    items: List[Tuple[int, object]],
    workers: int,
    *,
    kind: str,
    worker_fn,
    local_fn: Callable[[object], object],
    retries: int,
    task_timeout: Optional[float],
    backoff: float,
    checkpoint: Optional[Union[str, Path]],
    resume: bool,
    checkpoint_kind: str,
    seed_key: str,
    from_dict: Callable[[dict], object],
    observer: Optional[Callable[[int, object], None]] = None,
) -> List[object]:
    """Shared fault-tolerant driver behind ``run_many``/``hyper_sample_many``."""
    total = len(items)
    results: Dict[int, object] = {}
    writer = None
    if checkpoint is not None:
        loaded, writer = open_checkpoint(
            checkpoint,
            kind=checkpoint_kind,
            key=seed_key,
            total=total,
            resume=resume,
            from_dict=from_dict,
        )
        results.update(loaded)
        _SPANS.emit(
            "checkpoint",
            kind=kind,
            action="resume" if resume else "start",
            path=str(checkpoint),
            loaded=len(loaded),
            total=total,
        )
        if observer is not None:
            # Checkpoint-loaded results reach the observer too, in index
            # order, so a caller's progress view is complete on resume.
            for index in sorted(loaded):
                observer(index, loaded[index])

    def on_result(index: int, result: object) -> None:
        results[index] = result
        if writer is not None:
            writer.write(index, result)
            _METRICS.counter(
                "checkpoint_results_total", kind=kind, status="written"
            ).inc()
        if observer is not None:
            observer(index, result)

    todo = [(index, payload) for index, payload in items if index not in results]
    try:
        if todo and workers == 1:
            _run_serial(
                local_fn, todo, kind=kind, retries=retries, backoff=backoff,
                on_result=on_result,
            )
        elif todo:
            remaining = _run_pool(
                worker_fn, estimator, todo, workers, kind=kind,
                retries=retries, task_timeout=task_timeout, backoff=backoff,
                on_result=on_result,
            )
            if remaining:
                _SPANS.emit(
                    "parallel_degraded", kind=kind, remaining=len(remaining)
                )
                _run_serial(
                    local_fn, remaining, kind=kind, retries=retries,
                    backoff=backoff, on_result=on_result,
                )
    finally:
        if writer is not None:
            writer.close()
    missing = [index for index, _payload in items if index not in results]
    if missing:
        raise WorkerError(
            f"parallel {kind} gather incomplete: {len(results)}/{total} "
            f"results; missing task indices {missing[:8]}"
        )
    return [results[index] for index, _payload in items]


def check_execution_settings(
    workers: int, retries: int, task_timeout: Optional[float]
) -> None:
    """Validate the execution settings the drivers, the
    :class:`~repro.api.EstimatorConfig` and the experiment config share."""
    if workers < 1:
        raise ConfigError("workers must be >= 1")
    if retries < 0:
        raise ConfigError("retries must be >= 0")
    if task_timeout is not None and task_timeout <= 0:
        raise ConfigError("task_timeout must be positive (or None)")


def _check_fault_options(
    backoff: float, checkpoint: Optional[Union[str, Path]], resume: bool
) -> None:
    if backoff < 0:
        raise ConfigError("backoff must be >= 0")
    if resume and checkpoint is None:
        raise ConfigError("resume=True requires a checkpoint path")


def run_many(
    estimator: MaxPowerEstimator,
    num_runs: int,
    base_seed: SeedLike = 0,
    workers: int = 1,
    *,
    retries: int = 0,
    task_timeout: Optional[float] = None,
    backoff: float = DEFAULT_BACKOFF,
    checkpoint: Optional[Union[str, Path]] = None,
    resume: bool = False,
    on_result: Optional[Callable[[int, EstimationResult], None]] = None,
) -> List[EstimationResult]:
    """Repeat ``estimator.run`` ``num_runs`` times, optionally sharded
    across ``workers`` processes.

    Results come back ordered by run index and are identical for any
    ``workers`` value and any crash/retry/resume history (see the module
    docstring for the seed and fault-tolerance contracts).

    Parameters
    ----------
    retries:
        Extra attempts per task after a worker exception or timeout.
    task_timeout:
        Seconds before an in-flight task is declared hung, its pool
        killed, and the task retried (multi-worker runs only).
    backoff:
        First-retry delay in seconds; doubles per attempt, capped at 5 s.
    checkpoint:
        JSONL path; every completed run streams there immediately.
    resume:
        Load already-checkpointed runs instead of recomputing them.
    on_result:
        ``on_result(index, result)`` fires in the parent process for
        every completed run — including checkpoint-loaded ones on
        resume — in completion (not index) order.  Raising from it
        aborts the batch; the service uses this for live job progress
        and cancellation.  Purely observational: it never touches the
        RNG streams, so results are unchanged by its presence.
    """
    check_execution_settings(workers, retries, task_timeout)
    _check_fault_options(backoff, checkpoint, resume)
    seeds = spawn_run_seeds(base_seed, num_runs)
    if (
        workers == 1
        and retries == 0
        and task_timeout is None
        and checkpoint is None
        and on_result is None
    ):
        return [estimator.run(np.random.default_rng(s)) for s in seeds]
    return _drive(
        estimator,
        list(enumerate(seeds)),
        workers,
        kind="run",
        worker_fn=_run_task,
        local_fn=lambda seed_seq: estimator.run(np.random.default_rng(seed_seq)),
        retries=retries,
        task_timeout=task_timeout,
        backoff=backoff,
        checkpoint=checkpoint,
        resume=resume,
        checkpoint_kind="run_many",
        seed_key=_seed_key(base_seed, num_runs),
        from_dict=EstimationResult.from_dict,
        observer=on_result,
    )


def hyper_sample_many(
    estimator: MaxPowerEstimator,
    count: int,
    base_seed: SeedLike = 0,
    workers: int = 1,
    *,
    retries: int = 0,
    task_timeout: Optional[float] = None,
    backoff: float = DEFAULT_BACKOFF,
    checkpoint: Optional[Union[str, Path]] = None,
    resume: bool = False,
    on_result: Optional[Callable[[int, HyperSample], None]] = None,
) -> List[HyperSample]:
    """Draw ``count`` independent hyper-samples (Figure 2 style),
    optionally sharded across ``workers`` processes.

    Hyper-sample *i* (1-based index) uses the *i*-th spawned child
    stream; results are ordered and independent of the worker count and
    of any crash/retry/resume history, exactly as in :func:`run_many`
    (whose fault-tolerance parameters — and ``on_result`` progress hook
    — apply unchanged here).
    """
    check_execution_settings(workers, retries, task_timeout)
    _check_fault_options(backoff, checkpoint, resume)
    seeds = spawn_run_seeds(base_seed, count)
    items = [(i, (i + 1, seeds[i])) for i in range(count)]
    if (
        workers == 1
        and retries == 0
        and task_timeout is None
        and checkpoint is None
        and on_result is None
    ):
        return [
            estimator.hyper_sample(hyper_index, np.random.default_rng(seed_seq))
            for _index, (hyper_index, seed_seq) in items
        ]
    return _drive(
        estimator,
        items,
        workers,
        kind="hyper",
        worker_fn=_hyper_task,
        local_fn=lambda payload: estimator.hyper_sample(
            payload[0], np.random.default_rng(payload[1])
        ),
        retries=retries,
        task_timeout=task_timeout,
        backoff=backoff,
        checkpoint=checkpoint,
        resume=resume,
        checkpoint_kind="hyper_sample_many",
        seed_key=_seed_key(base_seed, count),
        from_dict=HyperSample.from_dict,
        observer=on_result,
    )
