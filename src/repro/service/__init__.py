"""Estimation-as-a-service: a concurrent job server over HTTP.

The paper's estimator as a long-lived service: clients ``POST`` job
specs to ``/v1/jobs``, poll per-k convergence status, and fetch results
that are **bit-identical** to an in-process
:meth:`~repro.estimation.mc_estimator.MaxPowerEstimator.run` with the
same seed and config — including after the server is killed mid-job and
restarted (jobs checkpoint through the fault-tolerant JSONL layer of
:mod:`repro.estimation.parallel` and resume on startup).

Zero dependencies beyond the standard library: the server is a
``http.server.ThreadingHTTPServer``, the client is ``urllib``, and the
one durable job/result store is WAL-mode ``sqlite3``
(:class:`~repro.service.store.SQLiteJobStore`) with content-keyed
result memoization — resubmitting an identical ``(circuit, config,
seed, ...)`` spec is served from the stored result without re-running.
A ``jobs.jsonl`` event log left by an older server is imported into it
once at startup.

Server side::

    repro serve --port 8000 --state-dir .repro_service

Client side::

    from repro.service import Client
    client = Client("http://127.0.0.1:8000")
    job = client.submit("c432", seed=1, population_size=2000)
    status = client.wait(job["id"])
    result = client.result(job["id"])

See ``docs/api.md`` for the endpoint table and payload schemas.
"""

from .client import Client
from .jobs import Job, JobSpec, JobState
from .server import JobServer, serve
from .store import SQLiteJobStore
from .worker import WorkerPool

__all__ = [
    "Client",
    "Job",
    "JobSpec",
    "JobState",
    "SQLiteJobStore",
    "JobServer",
    "WorkerPool",
    "serve",
]
