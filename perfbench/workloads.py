"""The three workloads.  Each returns ``(attempted, failed, metrics)``.

With tracing off the metrics are the end-to-end ones every workload
reports under the same names:

* ``setup_s`` — median of several set-ups, each until the first timed
  operation could start;
* ``op_s.p50`` — median time of the workload's headline operation;
* ``ops_per_s`` — completed operations per second of measuring time.

All three are wall times normalised to a nominal host speed by a
:class:`harness.ReferenceLoop` timed before and after each operation
(or each set-up, or each service round): on a shared host the raw wall
times of the same work differ by up to twofold from minute to minute.
Each workload also prints its own metrics, in raw wall seconds, under
the names used in the benchmark's README (``cli_wall_s``,
``estimate_s.fixed``, ...).  With tracing on the metrics are the
per-layer ones of :mod:`layers`.
"""

from __future__ import annotations

import json
import math
import random
import re
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Tuple

import harness
import layers
import server_ops
from harness import METHODS, STATE, median, report

HERE = harness.ROOT / "perfbench"
_ESTIMATE = re.compile(r"P_max≈(\S+) W")
_WARM_NATIVE = (
    "from repro.sim.native import native_available\n"
    "raise SystemExit(0 if native_available() else 3)"
)


@dataclass(frozen=True)
class Scale:
    """Input sizes; ``TINY`` is the smoke test's scale."""

    cli_circuit: str = "c7552"
    repeat_circuit: str = "c3540"
    service_circuit: str = "c880"
    population: int = 20_000
    cli_seeds: Tuple[int, ...] = (3, 4, 5)
    repeat_seeds: Tuple[int, ...] = tuple(range(8))
    scaling_gates: Tuple[int, ...] = (500, 1000, 2000)
    setup_repeats: int = 5
    import_repeats: int = 3


FULL = Scale()
TINY = Scale(
    cli_circuit="c432", repeat_circuit="c432", service_circuit="c432",
    population=2000, cli_seeds=(3, 4), repeat_seeds=(0, 1),
    scaling_gates=(100, 200, 400), setup_repeats=2, import_repeats=1,
)

#: Seed of the repeat workload's pool.
POOL_SEED = 1

Metrics = Dict[str, Tuple[float, str]]


def _rotate(values: Tuple[int, ...], seed: int) -> List[int]:
    k = seed % len(values)
    return list(values[k:] + values[:k])


def _end_to_end(
    ref: harness.ReferenceLoop, setup: List[float], op_s: List[float], ops_per_s: float
) -> Metrics:
    """The result metrics; every argument is already normalised."""
    ref.report()
    report("setup_s", median(setup), "s", f"normalised, median of {len(setup)} set-ups")
    report("op_s.p50", median(op_s), "s", f"normalised, median of {len(op_s)}")
    report("ops_per_s", ops_per_s, "1/s", "normalised")
    return {
        "setup_s": (median(setup), "s"),
        "op_s.p50": (median(op_s), "s"),
        "ops_per_s": (ops_per_s, "1/s"),
    }


def _common_layers(scale: Scale) -> Tuple[float, float]:
    """Workload-independent layer probes: import time, setup scaling."""
    import_s = layers.import_probe(scale.import_repeats)
    exponent, rows = layers.scaling_probe(scale.scaling_gates)
    for gates, seconds, calls in rows:
        report(f"scaling probe {gates} gates", seconds, "s", f"{calls} fanout_map calls")
    return import_s, exponent


def _print_layers(metrics: Metrics) -> Metrics:
    for name, (value, unit) in metrics.items():
        report(name, value, unit)
    return metrics


# -- cli_c7552 -----------------------------------------------------------
def run_cli(seed: int, seconds: float, trace: bool, scale: Scale, checks) -> tuple:
    """Closed loop, one client: each operation is a fresh
    ``python -m repro estimate CIRCUIT --mode unit --population N --seed S``
    process.  Set-up warms the native kernel's compiled extension."""
    ref = harness.ReferenceLoop()
    setup = []
    before = ref.measure()
    for _ in range(scale.setup_repeats):
        start = time.perf_counter()
        proc = harness.run_python(["-c", _WARM_NATIVE])
        wall = time.perf_counter() - start
        after = ref.measure()
        setup.append(ref.scale(wall, before, after))
        before = after
        if proc.returncode not in (0, 3):
            raise RuntimeError(f"native warm-up failed: {proc.stderr}")
    seeds = _rotate(scale.cli_seeds, seed)
    walls: List[float] = []
    scaled: List[float] = []
    wall_by_seed: Dict[int, float] = {}
    summary_by_seed: Dict[int, str] = {}
    attempted = failed = 0
    start = time.perf_counter()
    # Traced runs time each seed once; untraced runs cycle the seeds
    # until the measuring time is up.
    while attempted < len(seeds) if trace else (
        not attempted or time.perf_counter() - start < seconds
    ):
        op_seed = seeds[attempted % len(seeds)]
        attempted += 1
        op_start = time.perf_counter()
        proc = harness.run_python(
            ["-m", "repro", "estimate", scale.cli_circuit, "--mode", "unit",
             "--population", str(scale.population), "--seed", str(op_seed)]
        )
        wall = time.perf_counter() - op_start
        after = ref.measure()
        lines = [ln for ln in proc.stdout.splitlines() if _ESTIMATE.search(ln)]
        value = float(_ESTIMATE.search(lines[0]).group(1)) if lines else math.nan
        ok = checks.expect("cli.exit_code", proc.returncode, 0)
        ok &= checks.expect("cli.finite_estimate", math.isfinite(value), True)
        scaled_wall = ref.scale(wall, before, after)
        before = after
        if not ok:
            failed += 1
            print(proc.stderr[-2000:])
            continue
        walls.append(wall)
        scaled.append(scaled_wall)
        wall_by_seed.setdefault(op_seed, wall)
        summary_by_seed.setdefault(op_seed, lines[0])
    report("cli_wall_s", median(walls), "s", f"median of {len(walls)} CLI runs")
    if not trace:
        return attempted, failed, _end_to_end(
            ref, setup, scaled, len(scaled) / sum(scaled) if scaled else 0.0
        )

    parts, ratios, coverage, results = [], [], [], {}
    for op_seed in seeds:
        start = time.perf_counter()
        proc = harness.run_python(
            [str(HERE / "layers.py"), "cli-op", scale.cli_circuit, str(op_seed),
             str(scale.population)]
        )
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            raise RuntimeError(f"traced estimate failed: {proc.stderr}")
        op = json.loads(proc.stdout.splitlines()[-1])
        checks.expect("cli.matches_api", summary_by_seed.get(op_seed), op["summary"])
        results[op_seed] = op["result"]
        parts.append(op["data"])
        traced_wall = wall - op["probe_s"]
        samples = op["data"]["samples"]
        layer_sum = op["import_s"] + op["data"]["runs"][0]["run_s"] + sum(
            samples[key][0]
            for key in ("netlist.build_s", "power.analyzer_setup_s",
                        "sim.population_build_s")
        )
        coverage.append(layer_sum / traced_wall)
        if op_seed in wall_by_seed:
            ratios.append(traced_wall / wall_by_seed[op_seed])
    service, service_result = server_ops.probe(
        scale.cli_circuit, seeds[0], scale.population, checks
    )
    checks.expect("service.matches_api", service_result, results[seeds[0]])
    import_s, exponent = _common_layers(scale)
    metrics = layers.layer_metrics(
        layers.merge(parts), import_s=import_s, scaling_exp=exponent,
        service=service, overhead=median(ratios), coverage=median(coverage),
    )
    return attempted, failed, _print_layers(metrics)


# -- repeat_c3540 --------------------------------------------------------
def run_repeat(seed: int, seconds: float, trace: bool, scale: Scale, checks) -> tuple:
    """A Table-1-style repeated experiment, in-process and serial: one
    pool built in set-up, then ``build_estimator(pop, cfg).run(rng=s)``
    cycling fixed → auto → pot over a fixed estimator-seed list (the
    workload seed rotates where the cycle starts).  Whole passes, at
    least two: each estimation is deterministic work, timed as the
    median of its passes (raw for the report lines, normalised for the
    result metrics), and a method's time is the median of those over the
    seed list."""
    ref = harness.ReferenceLoop()
    setup = []
    before = ref.measure()
    for _ in range(scale.setup_repeats):
        start = time.perf_counter()
        pool = layers.build_pool(scale.repeat_circuit, scale.population, POOL_SEED)
        wall = time.perf_counter() - start
        after = ref.measure()
        setup.append(ref.scale(wall, before, after))
        before = after
    ops = [(m, s) for s in _rotate(scale.repeat_seeds, seed) for m in METHODS]
    walls: Dict[tuple, List[float]] = {op: [] for op in ops}
    scaled: Dict[tuple, List[float]] = {op: [] for op in ops}
    results = []
    pass_walls: List[float] = []
    start = time.perf_counter()
    while len(pass_walls) < 2 or (
        not trace and time.perf_counter() - start < seconds
    ):
        pass_start = time.perf_counter()
        for op in ops:
            result, elapsed = layers.run_method(pool, *op)
            after = ref.measure()
            walls[op].append(elapsed)
            scaled[op].append(ref.scale(elapsed, before, after))
            before = after
            results.append((op, result))
        pass_walls.append(time.perf_counter() - pass_start)

    first: Dict[tuple, dict] = {}
    failed = 0
    for op, result in results:
        record = json.loads(result.to_json())
        ok = checks.expect(
            "repeat.finite_estimate", math.isfinite(result.estimate), True
        )
        if op in first:
            ok &= checks.expect("repeat.deterministic", record, first[op])
        first.setdefault(op, record)
        failed += not ok
    def per_method(samples: Dict[tuple, List[float]]) -> Dict[str, List[float]]:
        return {
            m: [median(v) for (method, _), v in samples.items() if method == m]
            for m in METHODS
        }

    times = per_method(walls)
    for method in METHODS:
        report(f"estimate_s.{method}", median(times[method]), "s",
               f"median over {len(times[method])} seeds of the median of "
               f"{len(pass_walls)} passes")
    if not trace:
        normalised = per_method(scaled)
        pass_s = sum(sum(v) for v in normalised.values())
        return len(results), failed, _end_to_end(
            ref, setup, normalised["fixed"], len(ops) / pass_s
        )

    with layers.LayerTrace() as traced:
        traced_start = time.perf_counter()
        for method, op_seed in ops:
            result, _ = layers.run_method(pool, method, op_seed, traced)
            ok = checks.expect(
                "repeat.traced_matches_untraced",
                json.loads(result.to_json()),
                first[(method, op_seed)],
            )
            failed += not ok
        traced_wall = time.perf_counter() - traced_start
    with layers.LayerTrace() as built:
        layers.build_pool(scale.repeat_circuit, scale.population, POOL_SEED)
    service, service_result = server_ops.probe(
        scale.repeat_circuit, POOL_SEED, scale.population, checks
    )
    api_result, _ = layers.run_method(pool, "fixed", POOL_SEED + 1)
    checks.expect("service.matches_api", service_result, json.loads(api_result.to_json()))
    import_s, exponent = _common_layers(scale)
    metrics = layers.layer_metrics(
        layers.merge([traced.export(), built.export()]),
        import_s=import_s, scaling_exp=exponent, service=service,
        overhead=traced_wall / min(
            sum(walls[op][i] for op in ops) for i in range(len(pass_walls))
        ),
        coverage=sum(r["run_s"] for r in traced.runs) / traced_wall,
    )
    return len(results) + len(ops), failed, _print_layers(metrics)


# -- service_c880 --------------------------------------------------------
def run_service(seed: int, seconds: float, trace: bool, scale: Scale, checks) -> tuple:
    """A ``repro serve --workers 2`` process on a fresh state dir and two
    closed-loop client threads.  Three of every four submits are cache
    misses; the fourth resubmits a spec the same thread already
    completed, a memo hit, chosen by the workload seed.

    The load comes in identical rounds, each on a fresh server: client
    ``i`` submits misses with job seeds ``1000 + 3i``, ``+1``, ``+2``,
    then one memo hit.  The cost of a job varies about twofold with its
    seed, so every round repeats the same jobs and a run measures the
    code, not the seeds.  Each server start is a set-up sample.  Between
    rounds, with the server idle, the client process times the reference
    loop five times, and each round's latencies and wall time are
    normalised by the median loop times around it."""
    from repro.errors import ServiceError
    from repro.sim.native import native_available

    # The server's workers load the native kernel's compiled extension
    # from the checkout's cache; build it once (per checkout) up front,
    # as users do once per machine, so no timed job pays the compile.
    native_available()
    ref = harness.ReferenceLoop()
    server = server_ops.Server(STATE / "service")
    lock = threading.Lock()
    ops: List[dict] = []
    counts = {"attempted": 0, "failed": 0, "rejected": 0}
    rngs = [random.Random(seed * 2 + index) for index in range(2)]
    setup: List[float] = []
    #: Per round: wall time and the reference-loop times around it.
    rounds: List[Tuple[float, float, float]] = []
    scraped: Dict[str, float] = {}

    def reference() -> float:
        return median(ref.measure() for _ in range(5))

    def client_round(index: int, round_index: int) -> None:
        client, rng = server.client(), rngs[index]
        completed: List[dict] = []
        for i in range(4):
            original = rng.choice(completed) if i == 3 and completed else None
            if original is not None:
                spec = original["status"]["spec"]
            else:
                spec = server_ops.job_spec(
                    scale.service_circuit, 1000 + 3 * index + i, scale.population
                )
            with lock:
                counts["attempted"] += 1
            try:
                op = server_ops.round_trip(client, spec)
            except ServiceError as exc:
                print(f"submit failed: {exc}")
                with lock:
                    counts["failed"] += 1
                    counts["rejected"] += exc.status == 429
                continue
            op["round"] = round_index
            op["hit"] = original is not None
            ok = checks.expect(
                "service.job_completed", op["status"]["state"], "completed"
            )
            if op["hit"]:
                ok &= checks.expect("service.memo_hit", op["status"]["memo_hit"], True)
                ok &= checks.expect(
                    "service.memo_result_matches",
                    op["payload"] and op["payload"]["results"],
                    original["payload"]["results"],
                )
            elif op["payload"] is not None:
                completed.append(op)
            with lock:
                ops.append(op)
                counts["failed"] += not ok

    before = reference()
    measured = 0.0
    while len(rounds) < scale.setup_repeats or measured < seconds:
        try:
            wall = server.start()
            after = reference()
            setup.append(ref.scale(wall, before, after))
            before = after
            round_start = time.perf_counter()
            threads = [
                threading.Thread(target=client_round, args=(i, len(rounds)), daemon=True)
                for i in range(2)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=150.0)
            if any(thread.is_alive() for thread in threads):
                raise RuntimeError("service client threads did not finish")
            wall = time.perf_counter() - round_start
            after = reference()
            rounds.append((wall, before, after))
            measured += wall
            before = after
            if trace:
                for key, value in server_ops.scrape(server.client()).items():
                    scraped[key] = scraped.get(key, 0.0) + value
        finally:
            server.stop()
    done =[op for op in ops if op["payload"] is not None]
    misses = [op for op in done if not op["hit"]]
    hits = [op for op in done if op["hit"]]

    miss_latency = [op["latency_s"] for op in misses]
    report("miss_latency_s.p50", median(miss_latency), "s", f"{len(misses)} misses")
    high = harness.tail(miss_latency)
    if high is not None:
        report("miss_latency_s.tail", high[0], "s",
               f"p{high[1]:.1f}, {len(misses)} misses")
    else:
        report("miss_latency_s.tail", "n/a", "s", f"needs 11 misses, have {len(misses)}")
    report("hit_latency_s.p50", median(op["latency_s"] for op in hits), "s",
           f"{len(hits)} hits")
    report("jobs_per_s", len(done) / sum(r[0] for r in rounds), "1/s",
           f"{len(done)} jobs in {len(rounds)} rounds")

    # One miss checked against the in-process API for the same spec.
    checked = misses[0]
    ref_seed = checked["status"]["spec"]["seed"]
    untraced_walls = []
    for _ in range(2 if trace else 1):
        ref_start = time.perf_counter()
        pool = layers.build_pool(scale.service_circuit, scale.population, ref_seed)
        api_result, _ = layers.run_method(pool, "fixed", ref_seed + 1)
        untraced_walls.append(time.perf_counter() - ref_start)
    api_record = json.loads(api_result.to_json())
    attempted, failed = counts["attempted"], counts["failed"]
    failed += not checks.expect(
        "service.matches_api", checked["payload"]["results"][0], api_record
    )
    if not trace:
        scaled = [ref.scale(op["latency_s"], *rounds[op["round"]][1:]) for op in misses]
        # Jobs per second of each round, median over rounds: a burst of
        # host load that slows one round does not move it.
        per_round = [
            sum(op["round"] == r for op in done) / ref.scale(*rounds[r])
            for r in range(len(rounds))
        ]
        return attempted, failed, _end_to_end(ref, setup, scaled, median(per_round))

    parts, traced_walls = [], []
    for _ in range(2):
        with layers.LayerTrace() as traced:
            traced_start = time.perf_counter()
            traced_pool = layers.build_pool(
                scale.service_circuit, scale.population, ref_seed
            )
            layers.run_method(traced_pool, "fixed", ref_seed + 1, traced)
            traced_walls.append(time.perf_counter() - traced_start)
        parts.append(traced.export())
    parts.append(layers.probe_methods(traced_pool, ref_seed + 1))
    service = server_ops.service_layers(
        ops, hits, scraped, counts["attempted"], counts["rejected"]
    )
    accounted = sum(
        op["submit_s"] + op["result_s"]
        + op["status"]["finished_at"] - op["status"]["created_at"]
        for op in misses
    )
    import_s, exponent = _common_layers(scale)
    metrics = layers.layer_metrics(
        layers.merge(parts),
        import_s=import_s, scaling_exp=exponent, service=service,
        overhead=min(traced_walls) / min(untraced_walls),
        coverage=accounted / sum(miss_latency),
    )
    return attempted, failed, _print_layers(metrics)


WORKLOADS = {
    "cli_c7552": run_cli,
    "repeat_c3540": run_repeat,
    "service_c880": run_service,
}
