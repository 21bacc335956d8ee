"""Command-line interface: ``repro-power`` / ``python -m repro``.

Subcommands
-----------
``suite``
    List the built-in ISCAS85-like circuits with their profiles.
``info CIRCUIT``
    Structural and timing report of a circuit (built-in name or a
    ``.bench``/``.v`` file path).
``estimate CIRCUIT``
    Run the paper's maximum-power estimation on a freshly generated
    population (finite pool or streaming).
``experiment NAME``
    Run a registered paper experiment (table1..4, figure1/2, ablations)
    and print the resulting table.
``serve``
    Run the estimation job service (HTTP API on ``/v1/jobs``; see
    ``docs/api.md``).
``submit CIRCUIT``
    Submit an estimation job to a running service and (by default) wait
    for and print its result.
``trace JOB``
    Fetch a job's span trace from a running service and render it as a
    text waterfall; ``--export FILE`` writes Chrome trace-event JSON
    (openable at https://ui.perfetto.dev).

Observability
-------------
``estimate``, ``experiment`` and ``delay`` accept ``--trace FILE``
(the pipeline's spans, one JSON object per line) and
``--metrics FILE`` (metrics dump: ``.json`` snapshot or Prometheus
text).  Setting the ``REPRO_TRACE`` environment variable traces any
command to that path.  ``report --metrics FILE`` reads either artifact
back and prints the convergence-diagnostics summary.

Fault tolerance
---------------
``experiment`` accepts ``--retries`` / ``--task-timeout`` (recover from
crashed or hung estimation workers; results are bit-identical with or
without failures) and ``--checkpoint DIR`` / ``--resume`` (persist each
completed experiment and skip it on restart).  ``REPRO_RETRIES``,
``REPRO_TASK_TIMEOUT``, ``REPRO_CHECKPOINT`` and ``REPRO_RESUME`` are
the environment equivalents.  See ``docs/robustness.md``.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import Optional, Sequence

from .api import _load_circuit
from .errors import ConfigError, ReproError
from .netlist.generators import ISCAS85_PROFILES, available_circuits

__all__ = ["main", "build_parser"]


def _add_method_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--method",
        choices=("fixed", "auto", "pot"),
        default="fixed",
        help=(
            "estimator selection: the paper's fixed block-maxima "
            "schedule (default), peaks-over-threshold, or the adaptive "
            "controller (pilot-tuned n/m + family cross-validation)"
        ),
    )
    parser.add_argument(
        "--pot-threshold",
        type=float,
        default=None,
        help=(
            "POT exceedance threshold quantile in [0.5, 1); required "
            "with --method pot, optional override with --method auto"
        ),
    )
    parser.add_argument(
        "--pot-batch",
        type=int,
        default=None,
        help="units per POT round (default: n*m worth of units)",
    )


def _method_config_kwargs(args: argparse.Namespace) -> dict:
    """EstimatorConfig kwargs for the method flags (omitted = defaults,
    so 'fixed' configs stay identical to pre-method ones)."""
    kwargs = {}
    if args.method != "fixed":
        kwargs["method"] = args.method
    if args.pot_threshold is not None:
        kwargs["pot_threshold_quantile"] = args.pot_threshold
    if args.pot_batch is not None:
        kwargs["pot_batch_size"] = args.pot_batch
    return kwargs


def _add_obs_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace",
        type=Path,
        default=None,
        help=(
            "write the pipeline's spans to FILE, one JSON object per line "
            "(REPRO_TRACE env sets a default for every command)"
        ),
    )
    parser.add_argument(
        "--metrics",
        type=Path,
        default=None,
        help=(
            "write pipeline metrics on exit (.json snapshot, "
            "otherwise Prometheus text format)"
        ),
    )


class _ObsSession:
    """Per-invocation observability wiring for the CLI.

    :meth:`start` enables the metrics registry and opens the span sink
    before the command runs; :meth:`finish` flushes both afterwards —
    including on error, so a failing run still leaves a usable trace
    behind.
    """

    def __init__(self, args: argparse.Namespace):
        from .obs import get_registry, get_span_recorder

        self._registry = get_registry()
        self._spans = get_span_recorder()
        self.trace_path = getattr(args, "trace", None)
        if self.trace_path is None and os.environ.get("REPRO_TRACE"):
            self.trace_path = Path(os.environ["REPRO_TRACE"])
        self.metrics_path = getattr(args, "metrics", None)
        self._was_enabled = self._registry.enabled
        self._spans_were_enabled = self._spans.enabled
        self._started = False

    def start(self) -> None:
        """Check both output paths, then turn recording on.

        Raises :class:`ConfigError` for an unwritable path, before the
        command computes anything.
        """
        if self.metrics_path is not None and not self.metrics_path.parent.is_dir():
            raise ConfigError(
                f"cannot write metrics to {self.metrics_path}: "
                f"{self.metrics_path.parent} is not a directory"
            )
        if self.trace_path is not None:
            try:
                self._spans.open(self.trace_path)
            except OSError as exc:
                raise ConfigError(
                    f"cannot write trace to {self.trace_path}: {exc.strerror}"
                ) from None
        if self.trace_path is not None or self.metrics_path is not None:
            self._registry.enable()
        self._started = True

    def finish(self) -> None:
        from .obs import write_metrics_file

        if not self._started:
            return
        if self.metrics_path is not None:
            path = write_metrics_file(
                self.metrics_path, self._registry.snapshot()
            )
            print(f"metrics written to {path}", file=sys.stderr)
        if self.trace_path is not None:
            self._spans.close()
            print(f"trace written to {self.trace_path}", file=sys.stderr)
            if not self._spans_were_enabled:
                self._spans.disable()
                self._spans.reset()
        # Restore the registry so repeated in-process main() calls (the
        # test suite, notebooks) don't leak enablement across commands.
        if not self._was_enabled and (
            self.trace_path is not None or self.metrics_path is not None
        ):
            self._registry.disable()
            self._registry.reset()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-power",
        description=(
            "Statistical maximum power estimation via extreme order "
            "statistics (Qiu/Wu/Pedram, DAC 1998)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("suite", help="list built-in benchmark circuits")

    info = sub.add_parser("info", help="circuit structure/timing report")
    info.add_argument("circuit", help="suite name or .bench/.v path")

    est = sub.add_parser("estimate", help="estimate maximum power")
    est.add_argument("circuit", help="suite name or .bench/.v path")
    est.add_argument(
        "--population",
        type=int,
        default=20_000,
        help="finite pool size (0 = streaming/infinite population)",
    )
    est.add_argument(
        "--mode",
        choices=("zero", "unit"),
        default="zero",
        help="power simulation mode",
    )
    est.add_argument(
        "--activity",
        type=float,
        default=None,
        help=(
            "per-line transition probability constraint (category I.2); "
            "omit for unconstrained high-activity pairs"
        ),
    )
    est.add_argument("--error", type=float, default=0.05, help="epsilon")
    est.add_argument(
        "--confidence", type=float, default=0.90, help="confidence level l"
    )
    _add_method_flags(est)
    est.add_argument("--seed", type=int, default=0, help="random seed")
    est.add_argument(
        "--frequency-mhz", type=float, default=50.0, help="clock frequency"
    )
    est.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker threads for the pool simulation (same result)",
    )
    _add_obs_flags(est)

    exp = sub.add_parser("experiment", help="run a paper experiment")
    exp.add_argument("name", help="experiment id (or 'all')")
    exp.add_argument(
        "--output-dir",
        type=Path,
        default=None,
        help="also save .txt/.csv artifacts here",
    )
    exp.add_argument(
        "--workers",
        type=int,
        default=None,
        help=(
            "worker processes for population builds and the repeated "
            "estimation loops (default: REPRO_WORKERS or 1); results "
            "are identical for any value"
        ),
    )
    exp.add_argument(
        "--retries",
        type=int,
        default=None,
        help=(
            "extra attempts per estimation task after a worker crash or "
            "timeout (default: REPRO_RETRIES or 0); retried tasks reuse "
            "their seed stream, so results are unchanged"
        ),
    )
    exp.add_argument(
        "--task-timeout",
        type=float,
        default=None,
        help=(
            "seconds before a hung parallel estimation task is killed "
            "and retried (default: REPRO_TASK_TIMEOUT or no timeout)"
        ),
    )
    exp.add_argument(
        "--checkpoint",
        type=Path,
        default=None,
        help=(
            "directory for per-experiment checkpoints (default: "
            "REPRO_CHECKPOINT, or <output-dir>/.checkpoints when "
            "--resume is given); completed experiments stream there"
        ),
    )
    exp.add_argument(
        "--resume",
        action="store_true",
        default=False,
        help=(
            "skip experiments already checkpointed under the same "
            "configuration (REPRO_RESUME=1 is equivalent); a killed "
            "sweep restarted with --resume re-runs only unfinished work"
        ),
    )
    _add_obs_flags(exp)

    srv = sub.add_parser("serve", help="run the estimation job service")
    srv.add_argument("--host", default="127.0.0.1", help="bind address")
    srv.add_argument("--port", type=int, default=8000, help="bind port")
    srv.add_argument(
        "--state-dir",
        type=Path,
        default=Path(".repro_service"),
        help=(
            "durable state: SQLite job/result store (jobs.db) + per-job "
            "run checkpoints; restarting with the same directory resumes "
            "unfinished jobs, and a legacy jobs.jsonl found here is "
            "migrated into the database once"
        ),
    )
    srv.add_argument(
        "--workers", type=int, default=2,
        help="job worker processes (forked; one job each at a time)",
    )
    srv.add_argument(
        "--no-memo",
        action="store_true",
        help=(
            "disable content-keyed result memoization (by default a spec "
            "identical to an already-completed one is served from the "
            "stored result without re-running)"
        ),
    )
    srv.add_argument(
        "--verbose", action="store_true", help="log every HTTP request"
    )
    srv.add_argument(
        "--replica-id", default=None,
        help=(
            "stable identity of this replica in a multi-replica fabric "
            "(several servers sharing one --state-dir); defaults to "
            "host:port, which is stable across restarts and distinct "
            "between replicas on different ports"
        ),
    )
    srv.add_argument(
        "--lease-ttl", type=float, default=None, metavar="SECONDS",
        help=(
            "running-job lease time-to-live; a replica that misses "
            "heartbeats this long has its jobs reclaimed (stolen) by a "
            "surviving replica (default: 30)"
        ),
    )
    srv.add_argument(
        "--max-queue-depth", type=int, default=None, metavar="N",
        help=(
            "bound the shared job queue; submits beyond it get 429 + "
            "Retry-After instead of unbounded backlog (default: unbounded)"
        ),
    )
    srv.add_argument(
        "--rate-limit", type=float, default=None, metavar="PER_SECOND",
        help=(
            "per-tenant token-bucket submit rate (tenant = X-API-Key "
            "header, anonymous when absent); over-rate submits get 429"
        ),
    )
    srv.add_argument(
        "--rate-burst", type=float, default=None, metavar="TOKENS",
        help="token-bucket capacity (default: max(1, rate-limit))",
    )
    srv.add_argument(
        "--tenant-quota", type=int, default=None, metavar="N",
        help=(
            "max queued+running jobs per tenant; submits beyond it get "
            "429 until earlier jobs settle (default: unlimited)"
        ),
    )

    sb = sub.add_parser("submit", help="submit a job to a running service")
    sb.add_argument("circuit", help="suite name or .bench/.v path")
    sb.add_argument(
        "--url",
        default=os.environ.get("REPRO_SERVICE_URL", "http://127.0.0.1:8000"),
        help="service base URL (default: REPRO_SERVICE_URL or local :8000)",
    )
    sb.add_argument(
        "--population", type=int, default=20_000,
        help="finite pool size (0 = streaming/infinite population)",
    )
    sb.add_argument(
        "--activity", type=float, default=None,
        help="per-line transition probability constraint (category I.2)",
    )
    sb.add_argument(
        "--mode", choices=("zero", "unit"), default="zero",
        help="power simulation mode",
    )
    sb.add_argument(
        "--frequency-mhz", type=float, default=50.0, help="clock frequency"
    )
    sb.add_argument("--error", type=float, default=0.05, help="epsilon")
    sb.add_argument(
        "--confidence", type=float, default=0.90, help="confidence level l"
    )
    _add_method_flags(sb)
    sb.add_argument("--seed", type=int, default=0, help="random seed")
    sb.add_argument(
        "--runs", type=int, default=1, help="independent repetitions"
    )
    sb.add_argument(
        "--api-key",
        default=os.environ.get("REPRO_API_KEY"),
        help=(
            "tenant credential sent as X-API-Key (default: REPRO_API_KEY); "
            "scopes the server's per-tenant rate limit and quota"
        ),
    )
    sb.add_argument(
        "--no-wait", dest="wait", action="store_false", default=True,
        help="print the job id and return without waiting",
    )
    sb.add_argument(
        "--watch", action="store_true",
        help="stream per-hyper-sample convergence while waiting",
    )
    sb.add_argument(
        "--json", action="store_true",
        help="print the raw result payload JSON instead of the summary",
    )

    tc = sub.add_parser(
        "trace", help="render a job's span trace from a running service"
    )
    tc.add_argument("job", help="job id (as printed by submit)")
    tc.add_argument(
        "--url",
        default=os.environ.get("REPRO_SERVICE_URL", "http://127.0.0.1:8000"),
        help="service base URL (default: REPRO_SERVICE_URL or local :8000)",
    )
    tc.add_argument(
        "--export",
        type=Path,
        default=None,
        help=(
            "also write the trace as Chrome trace-event JSON "
            "(open it at https://ui.perfetto.dev)"
        ),
    )
    tc.add_argument(
        "--json", action="store_true",
        help="print the raw trace payload JSON instead of the waterfall",
    )
    tc.add_argument(
        "--width", type=int, default=48,
        help="waterfall bar width in characters",
    )

    rep = sub.add_parser(
        "report",
        help=(
            "per-net workload power report, or (--metrics) convergence "
            "diagnostics from a trace/metrics file"
        ),
    )
    rep.add_argument(
        "circuit",
        nargs="?",
        default=None,
        help="suite name or .bench/.v path (omit with --metrics)",
    )
    rep.add_argument(
        "--metrics",
        type=Path,
        default=None,
        dest="metrics_in",
        help=(
            "read a trace .jsonl or metrics .json file and print the "
            "convergence-diagnostics report instead"
        ),
    )
    rep.add_argument("--pairs", type=int, default=5000, help="workload size")
    rep.add_argument("--top", type=int, default=10, help="nets to list")
    rep.add_argument("--seed", type=int, default=0)
    rep.add_argument(
        "--activity", type=float, default=None,
        help="per-line transition probability (default: uniform random)",
    )

    tr = sub.add_parser(
        "transform", help="apply a netlist transform and write .bench"
    )
    tr.add_argument("circuit", help="suite name or .bench/.v path")
    tr.add_argument(
        "kind",
        choices=("nand", "sop", "two-input", "const-prop", "sweep", "buffer"),
        help="transformation to apply",
    )
    tr.add_argument("output", type=Path, help="output .bench path")
    tr.add_argument(
        "--max-fanout", type=int, default=8, help="for the buffer transform"
    )
    tr.add_argument(
        "--no-verify", action="store_true",
        help="skip the equivalence check",
    )

    dl = sub.add_parser(
        "delay", help="statistical maximum dynamic delay (paper §V)"
    )
    dl.add_argument("circuit", help="suite name or .bench/.v path")
    dl.add_argument("--error", type=float, default=0.05)
    dl.add_argument("--confidence", type=float, default=0.90)
    dl.add_argument("--n", type=int, default=20, help="block size")
    dl.add_argument("--m", type=int, default=5, help="blocks per round")
    dl.add_argument("--seed", type=int, default=0)
    dl.add_argument(
        "--max-rounds", type=int, default=10,
        help="hyper-sample budget (event-driven sim is per-pair costly)",
    )
    _add_obs_flags(dl)

    wv = sub.add_parser(
        "wave", help="simulate one vector pair and dump a VCD waveform"
    )
    wv.add_argument("circuit", help="suite name or .bench/.v path")
    wv.add_argument("output", type=Path, help="output .vcd path")
    wv.add_argument(
        "--vectors", default=None,
        help="comma-separated bit strings 'v1,v2' (default: random)",
    )
    wv.add_argument("--seed", type=int, default=0)
    return parser


def _cmd_suite() -> int:
    print(f"{'name':8} {'PI':>4} {'PO':>4} {'gates':>6} {'depth':>6}  function")
    for name in available_circuits():
        profile = ISCAS85_PROFILES[name]
        print(
            f"{name:8} {profile.num_inputs:>4} {profile.num_outputs:>4} "
            f"{profile.num_gates:>6} {profile.depth:>6}  {profile.function}"
        )
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    from .sim.sta import StaticTimingAnalyzer

    circuit = _load_circuit(args.circuit)
    stats = circuit.stats()
    print(stats)
    report = StaticTimingAnalyzer(circuit).run()
    print(f"static critical delay: {report.max_delay:.1f} (unit-delay levels)")
    print(
        "critical path:",
        " -> ".join(report.critical_path[:8])
        + (" ..." if len(report.critical_path) > 8 else ""),
    )
    return 0


def _cmd_estimate(args: argparse.Namespace) -> int:
    import numpy as np

    from .api import EstimatorConfig, build_population
    from .estimation.adaptive import build_estimator

    config = EstimatorConfig(
        error=args.error,
        confidence=args.confidence,
        workers=args.workers,
        **_method_config_kwargs(args),
    )
    pop = build_population(
        args.circuit,
        population_size=args.population,
        activity=args.activity,
        sim_mode=args.mode,
        frequency_mhz=args.frequency_mhz,
        seed=args.seed,
        workers=args.workers,
    )
    if args.population > 0:
        print(
            f"pool of {pop.size} pairs simulated; actual max = "
            f"{pop.actual_max_power * 1e3:.4f} mW"
        )
    estimator = build_estimator(pop, config)
    result = estimator.run(rng=np.random.default_rng(args.seed + 1))
    if result.decision is not None:
        d = result.decision
        print(
            f"adaptive: n={d.chosen_n} m={d.chosen_m} family={d.family} "
            f"(cv weibull={d.cv_score_weibull:.4f} pot={d.cv_score_pot:.4f}, "
            f"pilot {d.pilot_units} units)"
        )
    print(result.summary())
    if args.population > 0:
        rel = result.relative_error(pop.actual_max_power)
        print(f"relative error vs pool maximum: {rel:+.2%}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .service import serve

    kwargs = {}
    if args.lease_ttl is not None:
        # 0 disables leasing entirely (single-replica, no heartbeats).
        kwargs["lease_ttl"] = args.lease_ttl or None
    serve(
        host=args.host,
        port=args.port,
        state_dir=args.state_dir,
        workers=args.workers,
        verbose=args.verbose,
        memo=not args.no_memo,
        replica_id=args.replica_id,
        max_queue_depth=args.max_queue_depth,
        rate_limit=args.rate_limit,
        rate_burst=args.rate_burst,
        tenant_quota=args.tenant_quota,
        **kwargs,
    )
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    import json as _json

    from .api import EstimatorConfig
    from .service import Client, JobSpec

    spec = JobSpec(
        circuit=args.circuit,
        config=EstimatorConfig(
            error=args.error,
            confidence=args.confidence,
            **_method_config_kwargs(args),
        ),
        seed=args.seed,
        num_runs=args.runs,
        population_size=args.population,
        activity=args.activity,
        sim_mode=args.mode,
        frequency_mhz=args.frequency_mhz,
    )
    client = Client(args.url, api_key=args.api_key)
    job = client.submit(spec)
    print(f"submitted {job['id']} to {args.url}", file=sys.stderr)
    if not args.wait:
        print(job["id"])
        return 0
    if args.watch:
        status = job
        for status in client.stream(job["id"]):
            if status["trajectory"]:
                entry = status["trajectory"][-1]
                rhw = entry["rel_half_width"]
                rhw_s = "n/a" if rhw is None else f"{rhw:.3%}"
                print(
                    f"  k={entry['k']} estimate={entry['estimate']:.4g} "
                    f"rel_half_width={rhw_s} "
                    f"units={entry['cumulative_units']}",
                    file=sys.stderr,
                )
            elif status["total_runs"] > 1 and status["completed_runs"]:
                print(
                    f"  runs {status['completed_runs']}"
                    f"/{status['total_runs']}",
                    file=sys.stderr,
                )
    else:
        status = client.wait(job["id"])
    if status["state"] != "completed":
        detail = f": {status['error']}" if status.get("error") else ""
        print(f"error: job {job['id']} {status['state']}{detail}", file=sys.stderr)
        return 1
    if args.json:
        print(_json.dumps(client.result_payload(job["id"]), indent=2))
    else:
        for result in client.results(job["id"]):
            print(result.summary())
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    import json as _json

    from .obs import render_span_waterfall, to_chrome_trace
    from .service import Client

    client = Client(args.url)
    payload = client.trace(args.job)
    spans = payload["spans"]
    if args.json:
        print(_json.dumps(payload, indent=2))
    elif not spans:
        print(
            f"no spans recorded for job {payload['id']} "
            f"(trace_id={payload['trace_id']})"
        )
    else:
        print(
            f"job {payload['id']}  trace {payload['trace_id']}  "
            f"state {payload['state']}  {len(spans)} span(s)"
        )
        print(render_span_waterfall(spans, width=args.width))
    if args.export is not None:
        with open(args.export, "w", encoding="utf-8") as handle:
            _json.dump(to_chrome_trace(spans), handle, indent=2)
        print(
            f"chrome trace written to {args.export} "
            "(open at https://ui.perfetto.dev)",
            file=sys.stderr,
        )
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from .experiments import run_all, run_experiment
    from .experiments.config import default_config

    config = default_config()
    overrides = {}
    if args.workers is not None:
        overrides["workers"] = args.workers
    if args.retries is not None:
        overrides["retries"] = args.retries
    if args.task_timeout is not None:
        overrides["task_timeout"] = args.task_timeout
    if overrides:
        config = config.with_overrides(**overrides)
    checkpoint = args.checkpoint
    if checkpoint is None and os.environ.get("REPRO_CHECKPOINT"):
        checkpoint = Path(os.environ["REPRO_CHECKPOINT"])
    resume = args.resume or os.environ.get("REPRO_RESUME", "").lower() in (
        "1",
        "true",
        "yes",
    )
    if args.name == "all":
        tables = run_all(
            config=config,
            output_dir=args.output_dir,
            checkpoint_dir=checkpoint,
            resume=resume,
        )
        for table in tables:
            print(table.render())
            print()
        return 0
    if resume and checkpoint is None and args.output_dir is not None:
        checkpoint = args.output_dir / ".checkpoints"
    table = run_experiment(
        args.name, config, checkpoint_dir=checkpoint, resume=resume
    )
    if args.output_dir is not None:
        table.save(args.output_dir)
    print(table.render())
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    import numpy as np

    from .analysis.report import power_report
    from .vectors.generators import (
        random_vector_pairs,
        transition_prob_vector_pairs,
    )

    if args.metrics_in is not None:
        return _cmd_report_metrics(args.metrics_in)
    if args.circuit is None:
        print(
            "error: report needs a circuit (or --metrics FILE)",
            file=sys.stderr,
        )
        return 1
    circuit = _load_circuit(args.circuit)
    rng = np.random.default_rng(args.seed)
    if args.activity is None:
        v1, v2 = random_vector_pairs(args.pairs, circuit.num_inputs, rng)
    else:
        v1, v2 = transition_prob_vector_pairs(
            args.pairs, circuit.num_inputs, args.activity, rng=rng
        )
    report = power_report(circuit, v1, v2)
    print(report.render(top_count=args.top))
    return 0


def _cmd_report_metrics(path: Path) -> int:
    """Convergence diagnostics from a trace .jsonl or metrics .json."""
    import json

    from .obs import convergence_report, load_metrics_file, load_trace

    first_line = ""
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                first_line = line.strip()
                break
    try:
        head = json.loads(first_line) if first_line else {}
    except json.JSONDecodeError:
        head = {}
    # A trace is JSON Lines; an indented .json snapshot's first line does
    # not parse.  load_trace rejects the "event" lines of pre-2.0 traces.
    if isinstance(head, dict) and ("span_id" in head or "event" in head):
        print(convergence_report(trace_events=load_trace(path)))
    else:
        print(convergence_report(snapshot=load_metrics_file(path)))
    return 0


def _cmd_transform(args: argparse.Namespace) -> int:
    from .netlist.bench import dump_bench
    from .netlist.equivalence import check_equivalence
    from .netlist.transforms import (
        buffer_high_fanout,
        decompose_to_two_input,
        expand_xor_to_and_or,
        expand_xor_to_nand,
        propagate_constants,
        sweep_dangling,
    )

    circuit = _load_circuit(args.circuit)
    transforms = {
        "nand": expand_xor_to_nand,
        "sop": expand_xor_to_and_or,
        "two-input": decompose_to_two_input,
        "const-prop": propagate_constants,
        "sweep": sweep_dangling,
        "buffer": lambda c: buffer_high_fanout(c, max_fanout=args.max_fanout),
    }
    result = transforms[args.kind](circuit)
    if not args.no_verify:
        verdict = check_equivalence(circuit, result)
        mode = "exhaustively" if verdict.exhaustive else "by random simulation"
        if not verdict.equivalent:
            print(
                f"error: transform broke equivalence "
                f"(counterexample {verdict.counterexample})",
                file=sys.stderr,
            )
            return 1
        print(f"equivalence verified {mode} ({verdict.vectors_checked} vectors)")
    dump_bench(result, args.output)
    print(
        f"{circuit.num_gates} -> {result.num_gates} gates, "
        f"written to {args.output}"
    )
    return 0


def _cmd_delay(args: argparse.Namespace) -> int:
    from .estimation.delay_estimator import MaxDelayEstimator

    circuit = _load_circuit(args.circuit)
    estimator = MaxDelayEstimator(
        circuit,
        n=args.n,
        m=args.m,
        error=args.error,
        confidence=args.confidence,
        max_hyper_samples=args.max_rounds,
    )
    result = estimator.run(rng=args.seed)
    static = estimator.static_bound()
    print(result.summary(quantity="D_max", unit="ps"))
    print(
        f"static timing bound: {static:.1f} ps "
        f"(estimate/STA = {result.estimate / static:.2f})"
    )
    return 0


def _cmd_wave(args: argparse.Namespace) -> int:
    import numpy as np

    from .sim.delay import LibraryDelay
    from .sim.event_sim import EventDrivenSimulator
    from .sim.vcd import dump_vcd

    circuit = _load_circuit(args.circuit)
    if args.vectors:
        parts = args.vectors.split(",")
        if len(parts) != 2:
            print("error: --vectors needs 'bits,bits'", file=sys.stderr)
            return 1
        v1 = [int(b) for b in parts[0].strip()]
        v2 = [int(b) for b in parts[1].strip()]
    else:
        rng = np.random.default_rng(args.seed)
        v1 = list(rng.integers(0, 2, size=circuit.num_inputs))
        v2 = list(rng.integers(0, 2, size=circuit.num_inputs))
    sim = EventDrivenSimulator(circuit, LibraryDelay())
    result = sim.simulate_pair(v1, v2, record_waveforms=True)
    dump_vcd(circuit, result, args.output)
    print(
        f"{result.total_toggles()} transitions, settles at "
        f"{result.settle_time:.0f} ps -> {args.output}"
    )
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    obs_session = _ObsSession(args)
    try:
        obs_session.start()
        if args.command == "suite":
            return _cmd_suite()
        if args.command == "info":
            return _cmd_info(args)
        if args.command == "estimate":
            return _cmd_estimate(args)
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "submit":
            return _cmd_submit(args)
        if args.command == "trace":
            return _cmd_trace(args)
        if args.command == "experiment":
            return _cmd_experiment(args)
        if args.command == "report":
            return _cmd_report(args)
        if args.command == "transform":
            return _cmd_transform(args)
        if args.command == "delay":
            return _cmd_delay(args)
        if args.command == "wave":
            return _cmd_wave(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        obs_session.finish()
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
