"""Versioned (de)serializers for every JSON payload the library emits.

One module owns the wire format: estimation results and their nested
records (:class:`~repro.evt.mle.WeibullFit`,
:class:`~repro.evt.confidence.MeanInterval`,
:class:`~repro.estimation.result.HyperSample`,
:class:`~repro.estimation.result.EstimationResult`), the
:class:`~repro.api.EstimatorConfig` request object, and the job-service
spec.  Checkpoint files, ``--metrics`` exports, the HTTP service, and
the CLI JSON output all serialize through these functions, so a result
persisted anywhere round-trips through ``load_*`` into the same object.

Versioning policy
-----------------
Every payload carries ``"schema_version": "<major>.<minor>"``
(:data:`SCHEMA_VERSION`).

* **Minor** bumps add fields; readers ignore fields they do not know,
  so any ``1.x`` payload loads in any ``1.y`` build.
* **Major** bumps change or remove fields; loaders reject a payload
  whose major version differs from :data:`SCHEMA_MAJOR` with a
  :class:`~repro.errors.SchemaError`.
* Payloads written before versioning existed (no ``schema_version``
  key) are accepted as major version 1.

The dataclasses keep their ``to_dict``/``from_dict`` methods for
convenience; those methods delegate here.
"""

from __future__ import annotations

import hashlib
import json
from typing import Optional, Tuple

import numpy as np

from .errors import SchemaError

__all__ = [
    "SCHEMA_VERSION",
    "SCHEMA_MAJOR",
    "RESULT_SCHEMA",
    "CHECKPOINT_SCHEMA",
    "SERVICE_LOG_SCHEMA",
    "SERVICE_DB_SCHEMA",
    "SERVICE_TRACE_SCHEMA",
    "SERVICE_EVENTS_SCHEMA",
    "parse_schema_version",
    "check_schema_version",
    "stamp",
    "dump_weibull_fit",
    "load_weibull_fit",
    "dump_mean_interval",
    "load_mean_interval",
    "dump_hyper_sample",
    "load_hyper_sample",
    "dump_adaptive_decision",
    "load_adaptive_decision",
    "dump_estimation_result",
    "load_estimation_result",
    "dump_estimator_config",
    "load_estimator_config",
    "dump_job_spec",
    "load_job_spec",
    "fingerprint_job_spec",
    "NON_SEMANTIC_CONFIG_KNOBS",
]

#: Version stamped into every payload this build writes.
#: 1.1 added the estimator-selection fields: ``method``/``pot_*`` on
#: configs, ``method``/``decision`` on results (minor bump — 1.0
#: readers ignore them, 1.0 payloads load with ``method="fixed"``).
SCHEMA_VERSION = "1.1"

#: Major version this build can read.
SCHEMA_MAJOR = 1

#: Type tag of serialized :class:`EstimationResult` payloads
#: (previously lived in :mod:`repro.estimation.result`).
RESULT_SCHEMA = "repro.estimation_result/v1"

#: Type tag of the checkpoint-file header line (previously lived in
#: :mod:`repro.estimation.checkpoint`).
CHECKPOINT_SCHEMA = "repro.checkpoint/v1"

#: Type tag of the legacy ``jobs.jsonl`` job-log header (read once when
#: the SQLite store imports the log).
SERVICE_LOG_SCHEMA = "repro.service_jobs/v1"

#: Type tag of the job server's SQLite store (``meta`` table).
SERVICE_DB_SCHEMA = "repro.service_jobs_db/v1"

#: Type tag of persisted/served span-tree payloads
#: (``GET /v1/jobs/{id}/trace`` and the ``spans`` table).
SERVICE_TRACE_SCHEMA = "repro.service_trace/v1"

#: Type tag of the server-sent-event stream served by
#: ``GET /v1/jobs/{id}/events`` (each event's ``data:`` payload).
SERVICE_EVENTS_SCHEMA = "repro.service_events/v1"


def parse_schema_version(version: str) -> Tuple[int, int]:
    """Split ``"major.minor"`` into ints; raise :class:`SchemaError` on junk."""
    if not isinstance(version, str):
        raise SchemaError(
            f"schema_version must be a string, got {type(version).__name__} "
            f"{version!r}"
        )
    parts = version.split(".")
    try:
        if len(parts) != 2:
            raise ValueError(version)
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise SchemaError(
            f"malformed schema_version {version!r} (expected 'major.minor', "
            f"e.g. {SCHEMA_VERSION!r})"
        ) from None


def check_schema_version(payload: dict, what: str = "payload") -> None:
    """Validate a payload's declared ``schema_version`` against this build.

    Missing ``schema_version`` is accepted (pre-versioning payloads are
    major version 1 by definition).  An unknown *major* version raises
    :class:`~repro.errors.SchemaError` with an actionable message; minor
    version skew is allowed in both directions.
    """
    if not isinstance(payload, dict):
        raise SchemaError(f"{what} is not a JSON object: {type(payload).__name__}")
    raw = payload.get("schema_version")
    if raw is None:
        return
    major, _minor = parse_schema_version(raw)
    if major != SCHEMA_MAJOR:
        raise SchemaError(
            f"{what} has schema_version {raw}, but this build reads major "
            f"version {SCHEMA_MAJOR} (writes {SCHEMA_VERSION}); upgrade the "
            "library or regenerate the payload"
        )


def stamp(payload: dict) -> dict:
    """Return ``payload`` with this build's ``schema_version`` stamped in."""
    payload["schema_version"] = SCHEMA_VERSION
    return payload


# ----------------------------------------------------------------------
# WeibullFit
# ----------------------------------------------------------------------

def dump_weibull_fit(fit) -> dict:
    """JSON-able form of a :class:`~repro.evt.mle.WeibullFit`."""
    return stamp(
        {
            "alpha": fit.alpha,
            "beta": fit.beta,
            "mu": fit.mu,
            "loglik": fit.loglik,
            "method": fit.method,
            "shape_gt2": fit.shape_gt2,
        }
    )


def load_weibull_fit(data: dict):
    check_schema_version(data, "WeibullFit payload")
    from .evt.distributions import GeneralizedWeibull
    from .evt.mle import WeibullFit

    dist = GeneralizedWeibull(
        alpha=float(data["alpha"]),
        beta=float(data["beta"]),
        mu=float(data["mu"]),
    )
    return WeibullFit(
        distribution=dist,
        loglik=float(data["loglik"]),
        method=str(data["method"]),
        shape_gt2=bool(data["shape_gt2"]),
    )


# ----------------------------------------------------------------------
# MeanInterval
# ----------------------------------------------------------------------

def dump_mean_interval(interval) -> dict:
    """JSON-able form of a :class:`~repro.evt.confidence.MeanInterval`."""
    return stamp(
        {
            "mean": interval.mean,
            "half_width": interval.half_width,
            "level": interval.level,
            "k": interval.k,
            "std": interval.std,
        }
    )


def load_mean_interval(data: dict):
    check_schema_version(data, "MeanInterval payload")
    from .evt.confidence import MeanInterval

    return MeanInterval(
        mean=float(data["mean"]),
        half_width=float(data["half_width"]),
        level=float(data["level"]),
        k=int(data["k"]),
        std=float(data["std"]),
    )


# ----------------------------------------------------------------------
# HyperSample
# ----------------------------------------------------------------------

def dump_hyper_sample(hs) -> dict:
    """JSON-able form of a :class:`~repro.estimation.result.HyperSample`."""
    return stamp(
        {
            "index": hs.index,
            "maxima": np.asarray(hs.maxima, dtype=np.float64).tolist(),
            "fit": dump_weibull_fit(hs.fit) if hs.fit is not None else None,
            "estimate": hs.estimate,
            "units_used": hs.units_used,
            "fallback_reason": hs.fallback_reason,
        }
    )


def load_hyper_sample(data: dict):
    check_schema_version(data, "HyperSample payload")
    from .estimation.result import HyperSample

    fit = data.get("fit")
    return HyperSample(
        index=int(data["index"]),
        maxima=np.asarray(data["maxima"], dtype=np.float64),
        fit=load_weibull_fit(fit) if fit is not None else None,
        estimate=float(data["estimate"]),
        units_used=int(data["units_used"]),
        fallback_reason=data.get("fallback_reason"),
    )


# ----------------------------------------------------------------------
# AdaptiveDecision
# ----------------------------------------------------------------------

def dump_adaptive_decision(decision) -> dict:
    """JSON-able form of an
    :class:`~repro.estimation.result.AdaptiveDecision`."""
    return stamp(
        {
            "chosen_n": decision.chosen_n,
            "chosen_m": decision.chosen_m,
            "family": decision.family,
            "cv_score_weibull": decision.cv_score_weibull,
            "cv_score_pot": decision.cv_score_pot,
            "pilot_units": decision.pilot_units,
            "candidate_ns": [int(n) for n in decision.candidate_ns],
            "pilot_fallback_rate": decision.pilot_fallback_rate,
        }
    )


def load_adaptive_decision(data: dict):
    check_schema_version(data, "AdaptiveDecision payload")
    from .estimation.result import AdaptiveDecision

    return AdaptiveDecision(
        chosen_n=int(data["chosen_n"]),
        chosen_m=int(data["chosen_m"]),
        family=str(data["family"]),
        cv_score_weibull=float(data["cv_score_weibull"]),
        cv_score_pot=float(data["cv_score_pot"]),
        pilot_units=int(data["pilot_units"]),
        candidate_ns=[int(n) for n in data.get("candidate_ns", ())],
        pilot_fallback_rate=float(data.get("pilot_fallback_rate", 0.0)),
    )


# ----------------------------------------------------------------------
# EstimationResult
# ----------------------------------------------------------------------

def dump_estimation_result(result) -> dict:
    """JSON-able dump of an
    :class:`~repro.estimation.result.EstimationResult`, fits included."""
    return stamp(
        {
            "schema": RESULT_SCHEMA,
            "estimate": result.estimate,
            "interval": (
                dump_mean_interval(result.interval) if result.interval else None
            ),
            "converged": result.converged,
            "error_bound": result.error_bound,
            "confidence": result.confidence,
            "units_used": result.units_used,
            "population_name": result.population_name,
            "population_size": result.population_size,
            "k": result.k,
            "ci_trajectory": [float(w) for w in result.ci_trajectory],
            "hyper_samples": [dump_hyper_sample(hs) for hs in result.hyper_samples],
            "method": result.method,
            "decision": (
                dump_adaptive_decision(result.decision)
                if result.decision is not None
                else None
            ),
        }
    )


def load_estimation_result(data: dict):
    check_schema_version(data, "EstimationResult payload")
    from .estimation.result import EstimationResult

    interval = data.get("interval")
    return EstimationResult(
        estimate=float(data["estimate"]),
        interval=(
            load_mean_interval(interval) if interval is not None else None
        ),
        converged=bool(data["converged"]),
        error_bound=float(data["error_bound"]),
        confidence=float(data["confidence"]),
        hyper_samples=[
            load_hyper_sample(hs) for hs in data.get("hyper_samples", ())
        ],
        units_used=int(data["units_used"]),
        population_name=str(data.get("population_name", "")),
        population_size=(
            int(data["population_size"])
            if data.get("population_size") is not None
            else None
        ),
        ci_trajectory=[float(w) for w in data.get("ci_trajectory", ())],
        # Pre-1.1 payloads carry neither field: every result then was
        # the paper's fixed block-maxima estimator.
        method=str(data.get("method", "fixed")),
        decision=(
            load_adaptive_decision(data["decision"])
            if data.get("decision") is not None
            else None
        ),
    )


# ----------------------------------------------------------------------
# EstimatorConfig
# ----------------------------------------------------------------------

def dump_estimator_config(config) -> dict:
    """JSON-able form of a :class:`~repro.api.EstimatorConfig`."""
    return stamp(
        {
            "n": config.n,
            "m": config.m,
            "error": config.error,
            "confidence": config.confidence,
            "min_hyper_samples": config.min_hyper_samples,
            "max_hyper_samples": config.max_hyper_samples,
            "finite_correction": config.finite_correction,
            "upper_bound": config.upper_bound,
            "workers": config.workers,
            "retries": config.retries,
            "task_timeout": config.task_timeout,
            "method": config.method,
            "pot_threshold_quantile": config.pot_threshold_quantile,
            "pot_batch_size": config.pot_batch_size,
        }
    )


def load_estimator_config(data: dict):
    check_schema_version(data, "EstimatorConfig payload")
    from .api import EstimatorConfig

    kwargs = {}
    for name, cast in (
        ("n", int),
        ("m", int),
        ("error", float),
        ("confidence", float),
        ("min_hyper_samples", int),
        ("max_hyper_samples", int),
        ("workers", int),
        ("retries", int),
    ):
        if data.get(name) is not None:
            kwargs[name] = cast(data[name])
    if data.get("finite_correction") is not None:
        kwargs["finite_correction"] = bool(data["finite_correction"])
    if data.get("upper_bound") is not None:
        kwargs["upper_bound"] = float(data["upper_bound"])
    if data.get("task_timeout") is not None:
        kwargs["task_timeout"] = float(data["task_timeout"])
    # Pre-1.1 payloads have no "method": they all meant the paper's
    # fixed block-maxima estimator (the dataclass default).
    if data.get("method") is not None:
        kwargs["method"] = str(data["method"])
    if data.get("pot_threshold_quantile") is not None:
        kwargs["pot_threshold_quantile"] = float(data["pot_threshold_quantile"])
    if data.get("pot_batch_size") is not None:
        kwargs["pot_batch_size"] = int(data["pot_batch_size"])
    return EstimatorConfig(**kwargs)


# ----------------------------------------------------------------------
# Service job spec
# ----------------------------------------------------------------------

def dump_job_spec(spec) -> dict:
    """JSON-able form of a :class:`~repro.service.jobs.JobSpec`."""
    return stamp(
        {
            "circuit": spec.circuit,
            "seed": spec.seed,
            "num_runs": spec.num_runs,
            "population_size": spec.population_size,
            "activity": spec.activity,
            "sim_mode": spec.sim_mode,
            "frequency_mhz": spec.frequency_mhz,
            "config": dump_estimator_config(spec.config),
        }
    )


#: Config knobs excluded from job-spec fingerprints.  They change how a
#: result is computed (parallelism, retry policy) but never what it is —
#: the same exclusions experiment ``--resume`` applies to its config key.
NON_SEMANTIC_CONFIG_KNOBS = ("workers", "retries", "task_timeout")


def fingerprint_job_spec(spec) -> str:
    """Content hash of a job spec: the result-memoization key.

    Two specs share a fingerprint iff the paper's deterministic seed
    contract guarantees them bit-identical results: the canonical
    :func:`dump_job_spec` payload is hashed with ``schema_version``
    stamps and :data:`NON_SEMANTIC_CONFIG_KNOBS` stripped.  The 1.1
    estimator-selection fields are *semantic* — a different ``method``
    (or POT policy) is a different result — and key the hash whenever
    they deviate from their defaults; at their defaults
    (``method="fixed"``, no POT policy) they are dropped from the
    canonical form, so every fingerprint a 1.0 build wrote — and the
    memoized results stored under it — stays valid.
    """
    payload = dump_job_spec(spec)
    payload.pop("schema_version", None)
    config = dict(payload.get("config") or {})
    config.pop("schema_version", None)
    for knob in NON_SEMANTIC_CONFIG_KNOBS:
        config.pop(knob, None)
    if config.get("method") == "fixed":
        config.pop("method", None)
    for knob in ("pot_threshold_quantile", "pot_batch_size"):
        if config.get(knob) is None:
            config.pop(knob, None)
    payload["config"] = config
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def load_job_spec(data: dict):
    check_schema_version(data, "JobSpec payload")
    from .api import EstimatorConfig
    from .service.jobs import JobSpec

    if "circuit" not in data:
        raise SchemaError("JobSpec payload is missing the 'circuit' field")
    config = data.get("config")
    activity: Optional[float] = (
        float(data["activity"]) if data.get("activity") is not None else None
    )
    return JobSpec(
        circuit=str(data["circuit"]),
        seed=int(data.get("seed", 0)),
        num_runs=int(data.get("num_runs", 1)),
        population_size=int(data.get("population_size", 20_000)),
        activity=activity,
        sim_mode=str(data.get("sim_mode", "zero")),
        frequency_mhz=float(data.get("frequency_mhz", 50.0)),
        config=(
            load_estimator_config(config)
            if config is not None
            else EstimatorConfig()
        ),
    )
