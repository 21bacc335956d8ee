"""Picklable fault injectors for the parallel-driver tests.

These wrappers must live in an importable module (not a test body): the
pool ships the estimator to workers by pickling a *reference* to its
class, so a locally defined class would not survive the trip.

Injection is keyed off :func:`repro.estimation.parallel.current_task`,
which the scheduler sets on both the worker and the in-process execution
paths, so one wrapper drives every code path deterministically.

Hard crashes (``os._exit``) and hangs fire only in child processes
(``os.getpid() != parent_pid``): when the driver degrades to in-process
serial execution after repeated pool failures, the parent must be able
to finish the batch.
"""

from __future__ import annotations

import os
import time
from typing import Optional

from repro.estimation import parallel
from repro.obs.metrics import get_registry


class InjectedCrash(RuntimeError):
    """Deterministic failure raised by :class:`FaultyEstimator`."""


class FaultyEstimator:
    """Wrap an estimator; fail deterministically on chosen (index, attempt).

    Parameters
    ----------
    inner:
        The real estimator whose ``run``/``hyper_sample`` do the work.
    crash_indices:
        Task indices that raise :class:`InjectedCrash` (or hard-kill the
        worker when ``hard=True``).
    hang_indices:
        Task indices that sleep ``hang_seconds`` (child processes only).
    max_attempt:
        Inject only while ``attempt <= max_attempt``; ``None`` injects on
        every attempt (for retry-exhaustion tests).  Default 0: only the
        first attempt fails, so one retry recovers.
    count_metric:
        When set, increment this counter *before* any injection — lets
        tests prove that a failed attempt's partial metrics are discarded
        (the final total must count successful attempts only).
    after_run:
        Inject after the inner ``run`` instead of before it, so a failed
        attempt has already recorded a whole run.
    """

    def __init__(
        self,
        inner,
        *,
        crash_indices=(),
        hang_indices=(),
        hang_seconds: float = 60.0,
        hard: bool = False,
        max_attempt: Optional[int] = 0,
        count_metric: Optional[str] = None,
        after_run: bool = False,
    ):
        self.inner = inner
        self.crash_indices = frozenset(crash_indices)
        self.hang_indices = frozenset(hang_indices)
        self.hang_seconds = hang_seconds
        self.hard = hard
        self.max_attempt = max_attempt
        self.count_metric = count_metric
        self.after_run = after_run
        self.parent_pid = os.getpid()

    def _inject(self) -> None:
        if self.count_metric:
            get_registry().counter(self.count_metric).inc()
        task = parallel.current_task()
        if task is None:
            return
        if self.max_attempt is not None and task.attempt > self.max_attempt:
            return
        in_child = os.getpid() != self.parent_pid
        if task.index in self.hang_indices and in_child:
            time.sleep(self.hang_seconds)
        if task.index in self.crash_indices:
            if self.hard:
                if in_child:
                    os._exit(1)  # kill the worker: BrokenProcessPool
                return
            raise InjectedCrash(
                f"injected crash at task {task.index} attempt {task.attempt}"
            )

    def run(self, rng):
        if not self.after_run:
            self._inject()
        result = self.inner.run(rng)
        if self.after_run:
            self._inject()
        return result

    def hyper_sample(self, index, rng):
        self._inject()
        return self.inner.hyper_sample(index, rng)


class RecordingEstimator:
    """Record every (index, attempt) seen; optionally crash some of them.

    Only meaningful on the ``workers=1`` in-process path (worker-process
    copies would record into their own memory).
    """

    def __init__(self, inner, *, crash_once_indices=()):
        self.inner = inner
        self.contexts = []
        self.crash_once_indices = frozenset(crash_once_indices)

    def run(self, rng):
        task = parallel.current_task()
        self.contexts.append((task.index, task.attempt) if task else None)
        if task and task.attempt == 0 and task.index in self.crash_once_indices:
            raise InjectedCrash(f"injected crash at task {task.index}")
        return self.inner.run(rng)
