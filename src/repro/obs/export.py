"""Exporters: Prometheus text format and a human convergence report.

Two consumers of the observability data:

* machines — :func:`render_prometheus` turns a registry snapshot into
  the Prometheus text exposition format (``repro_`` prefix, cumulative
  ``_bucket{le=...}`` histogram series, ``_count``/``_sum`` for timers);
* humans — :func:`convergence_report` summarizes either a metrics
  snapshot or the span records of a ``--trace`` JSONL file into the
  diagnostics that matter for the
  paper's iterative procedure: convergence rate, the k distribution,
  fallback and non-regular (α̂ ≤ 2) fit rates, the CI half-width
  trajectory, and where wall-clock went.

:func:`write_metrics_file` picks the format from the file suffix
(``.json`` → snapshot JSON that :func:`load_metrics_file` and
``repro report --metrics`` can read back; anything else → Prometheus
text).
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from ..errors import ConfigError
from ..schemas import SCHEMA_VERSION, check_schema_version
from .fold import span_number

__all__ = [
    "render_prometheus",
    "write_metrics_file",
    "load_metrics_file",
    "load_trace",
    "convergence_report",
    "phase_timings",
]

_PREFIX = "repro_"


def _sanitize(name: str) -> str:
    return "".join(c if c.isalnum() or c == "_" else "_" for c in name)


def _escape_label_value(value: object) -> str:
    return str(value).replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _labels_fragment(labels: Dict[str, str], extra: str = "") -> str:
    parts = [
        f'{_sanitize(k)}="{_escape_label_value(v)}"' for k, v in sorted(labels.items())
    ]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def _fmt(value: float) -> str:
    if value != value:
        return "NaN"
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    return repr(float(value)) if not float(value).is_integer() else str(int(value))


#: ``# HELP`` strings for the metric families the pipeline records.
#: Unknown families fall back to a generic line so every exposition is
#: still spec-complete.
_HELP: Dict[str, str] = {
    "estimator_runs_total": "Figure 4 estimation runs started (every method)",
    "estimator_runs_converged_total": "Runs whose CI half-width met the error target",
    "estimator_hyper_samples_total": "Hyper-samples (Weibull block maxima or POT batches) drawn",
    "estimator_fallbacks_total": "Hyper-samples that fell back to the observed maximum",
    "estimator_units_total": "Simulated vector pairs consumed by estimation",
    "estimator_nonregular_fits_total": "Weibull fits in the non-regular MLE regime (alpha <= 2)",
    "estimator_run_seconds": "Wall-clock time of full estimation runs",
    "estimator_hyper_sample_seconds": "Wall-clock time per hyper-sample",
    "estimator_alpha": "Fitted generalized-Weibull shape parameter alpha (Weibull rounds only)",
    "estimator_k": "Hyper-samples needed per run (k at termination)",
    "mle_fits_total": "Successful profile-MLE Weibull fits",
    "mle_fit_errors_total": "Profile-MLE fits that raised FitError",
    "mle_refine_total": "MLE grid refinement outcomes by path",
    "mle_fit_seconds": "Wall-clock time of profile-MLE fits",
    "adaptive_runs_total": "Auto-method decisions, by the estimator family chosen",
    "adaptive_pilot_units_total": "Vector pairs the auto method's pilot and cross-validation drew",
    "adaptive_chosen_n": "Block size n chosen by the auto method's pilot",
    "population_build_seconds": "Wall-clock time to build a finite population",
    "population_build_chunk_seconds": "Wall-clock time per simulated population chunk",
    "population_pairs_built_total": "Vector pairs simulated into populations",
    "population_streamed_units_total": "Vector pairs streamed without materialization",
    "population_cache_hits_total": "On-disk population cache hits",
    "population_cache_misses_total": "On-disk population cache misses",
    "population_memcache_hits_total": "In-memory population cache hits",
    "population_cache_load_seconds": "Wall-clock time to load a cached population",
    "sim_compile_total": "Circuit compilations into struct-of-arrays plans",
    "sim_compile_seconds": "Wall-clock time of circuit compilation",
    "sim_plan_cache_hits_total": "Compiled-plan cache hits",
    "sim_batch_eval_total": "Batched gate-level evaluations",
    "sim_steps_total": "Simulated vector-pair steps",
    "sim_active_levels": "Distinct circuit levels active per numpy-loop unit-delay step",
    "parallel_retries_total": "Task retries after crashes, hangs or worker loss",
    "parallel_task_timeouts_total": "Tasks that exceeded their deadline",
    "parallel_pool_rebuilds_total": "Process-pool kill/rebuild cycles",
    "parallel_serial_degradations_total": "Batches that degraded to serial execution",
    "checkpoint_results_total": "Checkpoint results loaded or written",
    "experiment_seconds": "Wall-clock time per experiment",
    "experiment_checkpoints_total": "Experiment checkpoint events",
    "service_jobs": "Jobs in the job store's database (all replicas), by state",
    "service_jobs_finished_total": "Jobs finished by the worker pool, by terminal state",
    "service_job_seconds": "Wall-clock time jobs spend executing",
    "service_memo_hits": "Submissions settled from the content-keyed result memo",
    "service_population_cache_total": "Worker-process population cache lookups by outcome",
    "service_http_request_seconds": "HTTP request latency by endpoint and method",
    "service_http_responses_total": "HTTP responses by endpoint and status code",
    "service_queue_depth": "Jobs waiting in the queued state",
    "service_active_leases": "Jobs currently leased to worker threads",
    "service_oldest_lease_age_seconds": "Age of the oldest active job lease",
    "service_busy_workers": "Worker processes currently executing a job",
    "service_worker_saturation": "Busy fraction of the worker pool (0..1)",
    "service_queue_limit": "Configured admission bound on queued jobs",
    "service_lease_reclaims": "Expired job leases reclaimed back to the queue",
    "service_lease_renewals_total": "Heartbeat lease renewals, by outcome (ok or lost)",
    "service_admission_rejections_total": "Submissions rejected with 429, by reason",
}

_KIND_NOUN = {
    "counter": "cumulative count",
    "gauge": "gauge",
    "summary": "timing summary",
    "histogram": "distribution histogram",
}


def _help_text(name: str, base: str, kind: str) -> str:
    text = _HELP.get(base)
    if text is None and base.endswith(("_min", "_max")) and base[:-4] in _HELP:
        word = "Minimum" if base.endswith("_min") else "Maximum"
        text = f"{word} single observation of {base[:-4]}"
    if text is None:
        text = f"{_KIND_NOUN.get(kind, kind)} recorded by the repro pipeline"
    return f"# HELP {name} {text}"


def render_prometheus(snapshot: dict, prefix: str = _PREFIX) -> str:
    """Render a :meth:`MetricsRegistry.snapshot` as Prometheus text.

    Spec-compliant exposition: every family gets exactly one ``# HELP``
    and one ``# TYPE`` line with all its samples contiguous beneath them
    (labeled series of one name are grouped even when the snapshot
    interleaves them); timers render as ``summary`` families restricted
    to the ``_count``/``_sum`` series the spec allows, with the observed
    extrema as separate ``<name>_min``/``<name>_max`` gauge families;
    histograms render cumulative ``_bucket{le=...}`` series with the
    implicit ``+Inf`` bucket, ``_sum`` and ``_count``.
    """
    # family name -> {"kind", "base", "lines"} in first-seen order.
    families: "Dict[str, dict]" = {}

    def family(name: str, base: str, kind: str) -> List[str]:
        fam = families.get(name)
        if fam is None:
            fam = {"kind": kind, "base": base, "lines": []}
            families[name] = fam
        return fam["lines"]

    for item in snapshot.get("counters", ()):
        base = _sanitize(item["name"])
        name = prefix + base
        family(name, base, "counter").append(
            f"{name}{_labels_fragment(item['labels'])} {_fmt(item['value'])}"
        )
    for item in snapshot.get("gauges", ()):
        base = _sanitize(item["name"])
        name = prefix + base
        family(name, base, "gauge").append(
            f"{name}{_labels_fragment(item['labels'])} {_fmt(item['value'])}"
        )
    for item in snapshot.get("timers", ()):
        base = _sanitize(item["name"])
        name = prefix + base
        frag = _labels_fragment(item["labels"])
        lines = family(name, base, "summary")
        lines.append(f"{name}_count{frag} {_fmt(item['count'])}")
        lines.append(f"{name}_sum{frag} {_fmt(item['total'])}")
        for stat in ("min", "max"):
            if item.get(stat) is not None:
                family(f"{name}_{stat}", f"{base}_{stat}", "gauge").append(
                    f"{name}_{stat}{frag} {_fmt(item[stat])}"
                )
    for item in snapshot.get("histograms", ()):
        base = _sanitize(item["name"])
        name = prefix + base
        lines = family(name, base, "histogram")
        cumulative = 0
        for bound, count in zip(item["bounds"], item["counts"]):
            cumulative += count
            frag = _labels_fragment(item["labels"], f'le="{_fmt(bound)}"')
            lines.append(f"{name}_bucket{frag} {cumulative}")
        cumulative += item["counts"][-1]
        frag = _labels_fragment(item["labels"], 'le="+Inf"')
        lines.append(f"{name}_bucket{frag} {cumulative}")
        frag = _labels_fragment(item["labels"])
        lines.append(f"{name}_sum{frag} {_fmt(item['sum'])}")
        lines.append(f"{name}_count{frag} {_fmt(item['count'])}")

    out: List[str] = []
    for name, fam in families.items():
        out.append(_help_text(name, fam["base"], fam["kind"]))
        out.append(f"# TYPE {name} {fam['kind']}")
        out.extend(fam["lines"])
    return "\n".join(out) + "\n"


def write_metrics_file(path: Union[str, Path], snapshot: dict) -> Path:
    """Write a snapshot to disk — ``.json`` snapshot or Prometheus text.

    The JSON form carries the library-wide ``schema_version``
    (:mod:`repro.schemas`), which :func:`load_metrics_file` validates.
    """
    path = Path(path)
    if path.suffix == ".json":
        payload = {"schema_version": SCHEMA_VERSION, **snapshot}
        path.write_text(json.dumps(payload, indent=2) + "\n")
    else:
        path.write_text(render_prometheus(snapshot))
    return path


def load_metrics_file(path: Union[str, Path]) -> dict:
    """Read back a ``.json`` snapshot written by :func:`write_metrics_file`."""
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path} is not a JSON metrics snapshot ({exc}); "
            "use the .json metrics format or pass a trace .jsonl file"
        ) from None
    if not isinstance(data, dict) or "counters" not in data:
        raise ConfigError(f"{path} does not look like a metrics snapshot")
    check_schema_version(data, f"metrics snapshot {path}")
    # Strip the wire-format stamp so the loaded dict has the registry's
    # native snapshot shape (merge/round-trip with live snapshots).
    data.pop("schema_version", None)
    return data


def load_trace(path: Union[str, Path]) -> List[dict]:
    """Parse a ``--trace`` JSONL file into a list of span records."""
    records: List[dict] = []
    path = Path(path)
    for line_no, line in enumerate(path.read_text().splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}:{line_no}: invalid trace line ({exc})") from None
        if not isinstance(record, dict) or "span_id" not in record or "name" not in record:
            raise ConfigError(f"{path}:{line_no}: trace line is not a span record")
        records.append(record)
    return records


def phase_timings(snapshot: dict) -> Dict[str, dict]:
    """Extract the timer section as ``{name: {count, total, mean}}``.

    Labeled timers are keyed ``name{k=v,...}``; this is the per-phase
    wall-clock summary the ``BENCH_*.json`` artifacts embed.
    """
    phases: Dict[str, dict] = {}
    for item in snapshot.get("timers", ()):
        key = item["name"] + _labels_fragment(item["labels"])
        count = int(item["count"])
        total = float(item["total"])
        phases[key] = {
            "count": count,
            "total_s": total,
            "mean_s": total / count if count else 0.0,
        }
    return phases


# ----------------------------------------------------------------------
# Convergence diagnostics report
# ----------------------------------------------------------------------

def _counter_value(snapshot: dict, name: str) -> float:
    return sum(
        item["value"]
        for item in snapshot.get("counters", ())
        if item["name"] == name
    )


def _counter_by_label(snapshot: dict, name: str, label: str) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for item in snapshot.get("counters", ()):
        if item["name"] == name:
            key = item["labels"].get(label, "")
            out[key] = out.get(key, 0.0) + item["value"]
    return out


def _histogram(snapshot: dict, name: str) -> Optional[dict]:
    for item in snapshot.get("histograms", ()):
        if item["name"] == name:
            return item
    return None


def _pct(num: float, den: float) -> str:
    return f"{num / den:.1%}" if den else "n/a"


def _metrics_section(snapshot: dict) -> List[str]:
    lines = ["== metrics =="]
    runs = _counter_value(snapshot, "estimator_runs_total")
    converged = _counter_value(snapshot, "estimator_runs_converged_total")
    hypers = _counter_value(snapshot, "estimator_hyper_samples_total")
    fallbacks = _counter_value(snapshot, "estimator_fallbacks_total")
    units = _counter_value(snapshot, "estimator_units_total")
    nonregular = _counter_value(snapshot, "estimator_nonregular_fits_total")
    # One k observation per run; hyper-samples drawn outside a run (the
    # adaptive pilot's) count as hyper-samples but not toward any k.
    k_hist = _histogram(snapshot, "estimator_k")
    in_runs = k_hist["sum"] if k_hist and k_hist["count"] else None
    alpha = _histogram(snapshot, "estimator_alpha")
    fits = alpha["count"] if alpha else 0
    if runs:
        line = f"runs: {runs:.0f} ({_pct(converged, runs)} converged"
        if in_runs is not None:
            line += f", avg k = {in_runs / k_hist['count']:.1f}"
        lines.append(line + ")")
    if hypers:
        head = f"hyper-samples: {hypers:.0f}"
        if in_runs is not None and hypers > in_runs:
            head += f", {hypers - in_runs:.0f} outside runs"
        rates = f"fallback-to-max rate {_pct(fallbacks, hypers)}"
        if fits:
            rates += (
                f", non-regular fits (alpha<=2) {_pct(nonregular, fits)} "
                f"of {fits:.0f} Weibull fits"
            )
        lines.append(f"{head} ({rates})")
        lines.append(f"units drawn by all hyper-samples: {units:.0f}")
    if fits:
        mean = alpha["sum"] / fits
        le2 = sum(
            c for b, c in zip(alpha["bounds"], alpha["counts"]) if b <= 2.0
        )
        lines.append(
            f"alpha-hat: mean {mean:.2f} over {fits} fits, "
            f"{_pct(le2, fits)} at alpha <= 2 "
            "(Smith-regularity boundary)"
        )
    fit_errors = _counter_by_label(snapshot, "mle_fit_errors_total", "cause")
    if fit_errors:
        causes = ", ".join(
            f"{cause or 'unknown'}: {count:.0f}"
            for cause, count in sorted(fit_errors.items())
        )
        lines.append(f"mle fit errors: {causes}")
    hits = _counter_value(snapshot, "population_cache_hits_total")
    misses = _counter_value(snapshot, "population_cache_misses_total")
    if hits or misses:
        lines.append(
            f"population cache: {hits:.0f} hits / {misses:.0f} misses "
            f"({_pct(hits, hits + misses)} hit rate)"
        )
    phases = phase_timings(snapshot)
    if phases:
        lines.append("wall-clock by phase:")
        width = max(len(k) for k in phases)
        for key, info in sorted(
            phases.items(), key=lambda kv: -kv[1]["total_s"]
        ):
            lines.append(
                f"  {key:<{width}}  total {info['total_s']:.3f}s  "
                f"x{info['count']}  mean {info['mean_s'] * 1e3:.2f}ms"
            )
    if len(lines) == 1:
        lines.append("(no estimation metrics recorded)")
    return lines


def _trace_section(spans: Sequence[dict]) -> List[str]:
    lines = ["== trace =="]
    runs = sorted(
        (s for s in spans if s["name"] == "estimator.run"),
        key=lambda s: s["start_ts"],
    )
    hypers = [s for s in spans if s["name"] == "estimator.hyper_sample"]
    if not runs and not hypers:
        lines.append("(no estimation events in trace)")
        return lines
    finished = [s["attributes"] for s in runs if s.get("status") == "ok"]
    if finished:
        converged = sum(1 for a in finished if a.get("converged"))
        ks = [a.get("k", 0) for a in finished]
        units = [a.get("units_used", 0) for a in finished]
        lines.append(
            f"runs: {len(finished)} ({converged} converged), "
            f"k: min {min(ks)} / max {max(ks)}, "
            f"units: min {min(units)} / max {max(units)}"
        )
    if hypers:
        attrs = [s["attributes"] for s in hypers]
        fallbacks = [a for a in attrs if a.get("fallback_reason")]
        alphas = [span_number(a["alpha"]) for a in attrs if a.get("alpha") is not None]
        alphas = [a for a in alphas if a is not None and math.isfinite(a)]
        lines.append(
            f"hyper-samples: {len(hypers)}, fallbacks: {len(fallbacks)}"
        )
        if alphas:
            nonreg = sum(1 for a in alphas if a <= 2.0)
            lines.append(
                f"alpha-hat: min {min(alphas):.2f} / "
                f"mean {sum(alphas) / len(alphas):.2f} / max {max(alphas):.2f}"
                f" ({nonreg} fits at alpha <= 2)"
            )
    # Per-run CI half-width trajectory: the convergence picture of
    # Figure 4.  Hyper-sample spans are children of their run's span;
    # runs are numbered in start order.
    by_run: Dict[str, List[dict]] = {s["span_id"]: [] for s in runs}
    for s in hypers:
        if s.get("parent_id") in by_run:
            by_run[s["parent_id"]].append(s["attributes"])
    for number, run_attrs in enumerate(by_run.values(), 1):
        if not run_attrs:
            continue
        widths = []
        for a in sorted(run_attrs, key=lambda a: a.get("k", 0)):
            w = span_number(a.get("rel_half_width"))
            widths.append("--" if w is None or not math.isfinite(w) else f"{w:.3f}")
        trajectory = " ".join(widths[:12]) + (" ..." if len(widths) > 12 else "")
        lines.append(f"  run-{number}: rel CI half-width by k: {trajectory}")
    return lines


def convergence_report(
    snapshot: Optional[dict] = None,
    trace_events: Optional[Sequence[dict]] = None,
) -> str:
    """Human-readable convergence diagnostics.

    ``trace_events`` are span records, as :func:`load_trace` returns
    them.  Either input may be omitted; the report renders whatever is
    available.  This is what ``repro report --metrics FILE`` prints.
    """
    if snapshot is None and trace_events is None:
        raise ConfigError("convergence_report needs a snapshot or trace spans")
    lines = ["convergence diagnostics"]
    if snapshot is not None:
        lines.extend(_metrics_section(snapshot))
    if trace_events is not None:
        lines.extend(_trace_section(trace_events))
    return "\n".join(lines)
