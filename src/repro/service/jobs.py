"""Job model for the estimation service.

A job is one estimation request: a circuit/population description plus
an :class:`~repro.api.EstimatorConfig`, repeated ``num_runs`` times.
:class:`JobSpec` is the immutable request, :class:`Job` its mutable
lifecycle record (:class:`JobState`), and :class:`JobLease` one claim
attempt's identity.  Persistence lives in
:class:`~repro.service.store.SQLiteJobStore`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import List, Optional

from ..api import EstimatorConfig
from ..errors import ConfigError
from ..schemas import (
    SCHEMA_VERSION,
    dump_estimation_result,
    dump_job_spec,
    load_job_spec,
)

__all__ = ["JobState", "JobSpec", "Job", "JobLease"]


class JobState:
    """Lifecycle states of a job (plain strings on the wire)."""

    QUEUED = "queued"
    RUNNING = "running"
    COMPLETED = "completed"
    FAILED = "failed"
    CANCELLED = "cancelled"

    #: States a job never leaves.
    TERMINAL = frozenset({COMPLETED, FAILED, CANCELLED})

    #: Every state, in lifecycle order (metrics export all of them).
    ALL = (QUEUED, RUNNING, COMPLETED, FAILED, CANCELLED)


class JobLease:
    """One claim attempt's identity: the token minted by the store at
    claim time, plus a process-local ``lost`` flag.

    Every claim — including a steal-back re-claim of a job whose
    previous attempt is still unwinding in another thread of the same
    process — allocates a fresh instance.  Workers capture the instance
    when they pick the job up and hand it back to ``renew_lease`` and
    the ``mark_*`` commits, so a stale attempt compares (and poisons)
    only its *own* token: it can neither pass the new attempt's lease
    CAS nor un-poison itself when the job is re-claimed.
    """

    __slots__ = ("token", "owner", "lost")

    def __init__(self, token: str, owner: Optional[str]):
        self.token = token
        self.owner = owner
        self.lost = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"JobLease(token={self.token!r}, owner={self.owner!r}, lost={self.lost})"


@dataclass(frozen=True)
class JobSpec:
    """What to estimate: the full, self-contained job description.

    Mirrors the arguments of :func:`repro.api.estimate` /
    :func:`repro.api.run_many` one-to-one.  Seed contract: the
    population is built with ``seed`` and the estimator streams derive
    from ``seed + 1`` — identical to ``repro estimate CIRCUIT --seed s``
    and to ``estimate(circuit, config, seed=s)``, which is what makes
    service results bit-identical to in-process ones.
    """

    circuit: str
    config: EstimatorConfig = field(default_factory=EstimatorConfig)
    seed: int = 0
    num_runs: int = 1
    population_size: int = 20_000
    activity: Optional[float] = None
    sim_mode: str = "zero"
    frequency_mhz: float = 50.0

    def __post_init__(self) -> None:
        if not str(self.circuit).strip():
            raise ConfigError("job spec needs a non-empty circuit")
        if self.num_runs < 1:
            raise ConfigError("num_runs must be >= 1")
        if self.population_size < 0:
            raise ConfigError("population_size must be >= 0 (0 = streaming)")
        if self.sim_mode not in ("zero", "unit"):
            raise ConfigError("sim_mode must be 'zero' or 'unit'")
        if self.frequency_mhz <= 0:
            raise ConfigError("frequency_mhz must be positive")
        if self.activity is not None and not 0.0 < self.activity < 1.0:
            raise ConfigError("activity must be in (0, 1)")

    def to_dict(self) -> dict:
        return dump_job_spec(self)

    @classmethod
    def from_dict(cls, data: dict) -> "JobSpec":
        return load_job_spec(data)


class Job:
    """One submitted job: spec plus lifecycle state.

    The store hands out either a snapshot of the job's database row,
    which never changes after it is read, or — from ``claim_next`` — one
    claim attempt.  The worker drives an attempt's ``trajectory``,
    ``completed_runs`` and ``cancel_event`` (the cooperative
    cancellation signal its progress hooks check) and settles it
    through the store's ``mark_*`` methods.
    """

    def __init__(self, job_id: str, spec: JobSpec, created_at: float):
        self.id = job_id
        self.spec = spec
        self.state = JobState.QUEUED
        self.created_at = created_at
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self.error: Optional[str] = None
        self.results: Optional[List[object]] = None  # EstimationResult list
        self.cancel_event = threading.Event()
        #: Per-hyper-sample convergence trajectory (single-run jobs): k,
        #: α̂/β̂/μ̂, rel CI half-width, cumulative units — the view of
        #: the paper's Figure 4 loop, live while an attempt runs and
        #: stored with the job when it settles.
        self.trajectory: List[dict] = []
        #: Completed-run count (multi-run jobs).
        self.completed_runs = 0
        #: True when the job was settled from a memoized result of an
        #: earlier identical spec instead of running.
        self.memo_hit = False
        #: Worker thread that claimed the job.
        self.lease_owner: Optional[str] = None
        #: Replica (store instance) holding the lease, and when the
        #: lease lapses unless the worker heartbeat renews it first.
        self.lease_replica: Optional[str] = None
        self.lease_expires_at: Optional[float] = None
        #: The claim attempt this object is (a fresh :class:`JobLease`
        #: per claim; ``None`` on snapshots).  Process-local.
        self.lease: Optional[JobLease] = None
        #: Tenant (API-key header) the job was submitted under, for
        #: per-tenant admission quotas; ``None`` = anonymous.
        self.tenant: Optional[str] = None
        #: Span context captured from the submitting request (None when
        #: tracing was off at submission): which trace the job belongs
        #: to and which span — usually the server's ``http.request`` —
        #: its own spans parent on.
        self.trace_id: Optional[str] = None
        self.parent_span_id: Optional[str] = None

    @property
    def terminal(self) -> bool:
        return self.state in JobState.TERMINAL

    @property
    def lease_lost(self) -> bool:
        """Whether this claim attempt lost its lease (expired and
        reclaimed, probably by another replica).  A re-claim is a new
        object with a fresh lease; the orphaned attempt keeps its own
        poisoned :class:`JobLease`."""
        return self.lease is not None and self.lease.lost

    @property
    def trace_context(self):
        """The job's :class:`~repro.obs.spans.SpanContext` (or ``None``)."""
        if self.trace_id is None:
            return None
        from ..obs.spans import SpanContext  # lazy: keep jobs import-light

        return SpanContext(trace_id=self.trace_id, span_id=self.parent_span_id)

    def status_dict(self) -> dict:
        """JSON-able status payload served by ``GET /v1/jobs/{id}``.

        Deliberately omits ``tenant``: it is the submitter's raw
        ``X-API-Key`` credential, and the status/list/SSE endpoints are
        unauthenticated — echoing it would let any client harvest every
        tenant's key.
        """
        return {
            "schema_version": SCHEMA_VERSION,
            "id": self.id,
            "state": self.state,
            "spec": self.spec.to_dict(),
            "created_at": self.created_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "error": self.error,
            "cancel_requested": self.cancel_event.is_set(),
            "completed_runs": self.completed_runs,
            "total_runs": self.spec.num_runs,
            "memo_hit": self.memo_hit,
            "trace_id": self.trace_id,
            "trajectory": list(self.trajectory),
        }

    def result_dict(self) -> dict:
        """JSON-able result payload served by ``GET /v1/jobs/{id}/result``."""
        if self.results is None:
            raise ConfigError(f"job {self.id} has no results (state={self.state})")
        return {
            "schema_version": SCHEMA_VERSION,
            "id": self.id,
            "num_runs": self.spec.num_runs,
            "results": [dump_estimation_result(r) for r in self.results],
        }
