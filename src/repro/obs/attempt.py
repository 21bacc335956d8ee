"""Attempts: a unit of work whose records are kept, shipped or dropped
as a whole.

A ``run_many`` task, a retry of it, a served job: each runs as an
:class:`Attempt`, held in a context variable, so it follows the code
under it (threads too, when started with
``contextvars.copy_context().run``) and nothing else.  While it is
current, every finished span and every record through a handle of the
process-wide registry goes into the attempt.  Then it is **committed**
(an in-process success: into the enclosing attempt, or the process
registry, span buffer and ``--trace`` sink), **exported** (a pool task
or a served job: :meth:`Attempt.export` for the parent process to
:func:`merge_attempt`), or **dropped** (a failure: the retry records
its work once).  Nothing resets the process-wide registry, so no total
another thread reads ever goes backwards.
"""

from __future__ import annotations

import threading
from typing import List, Optional

from .metrics import _ATTEMPT, MetricsRegistry, get_registry
from .spans import get_span_recorder

__all__ = ["Attempt", "merge_attempt"]


class Attempt:
    """``with Attempt() as attempt:`` records into the attempt; leaving
    the block publishes nothing.  Then :meth:`commit`, :meth:`export`,
    or neither (drop)."""

    def __init__(self):
        #: Folded spans and handle records (always enabled: the process
        #: registry's flag decides what is recorded).
        self.registry = MetricsRegistry(enabled=True)
        self._spans: List[dict] = []
        self._lock = threading.Lock()
        self._parent: Optional["Attempt"] = None
        self._token = None

    def __enter__(self) -> "Attempt":
        self._parent = _ATTEMPT.get()
        self._token = _ATTEMPT.set(self)
        return self

    def __exit__(self, *exc) -> bool:
        _ATTEMPT.reset(self._token)
        return False

    def add_spans(self, records: List[dict]) -> None:
        """Hold finished span records until the attempt is published."""
        with self._lock:
            self._spans.extend(records)

    def export(self) -> Optional[dict]:
        """``{"metrics": <registry snapshot>, "spans": [<records>]}``,
        or ``None`` when nothing was recorded."""
        with self._lock:
            spans = list(self._spans)
        metrics = self.registry.snapshot()
        if not spans and not any(metrics.values()):
            return None
        return {"metrics": metrics, "spans": spans}

    def commit(self) -> None:
        """Publish into the attempt current when this one was entered,
        or into the process."""
        _merge(self._parent, self.export())


def merge_attempt(payload: Optional[dict]) -> None:
    """Publish an attempt exported by another process into this
    context's current attempt, or into the process."""
    _merge(_ATTEMPT.get(), payload)


def _merge(target: Optional[Attempt], payload: Optional[dict]) -> None:
    if not payload:
        return
    if target is not None:
        target.registry.merge(payload["metrics"])
        target.add_spans(payload["spans"])
    else:
        # Works while disabled; the spans were folded where recorded.
        get_registry().merge(payload["metrics"])
        get_span_recorder().merge(payload["spans"])
