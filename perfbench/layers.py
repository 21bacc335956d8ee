"""Per-layer measurement for the traced runs.

:class:`LayerTrace` times the benchmark's own calls into each layer's
public functions — ``build_circuit``, the ``PowerAnalyzer``
constructor, ``FinitePopulation.build``, the Weibull-MLE and GPD fit
functions the estimators import — by wrapping them while it is active,
and enables the program's metrics registry (``sim_compile_seconds``,
``mle_fits_total``, ``mle_fit_errors_total``).  Nothing under ``src/``
is changed; every wrapper is removed on exit.

Run as a script, ``layers.py cli-op CIRCUIT SEED POPULATION`` performs
the traced counterpart of one ``repro estimate`` call in a fresh
interpreter and prints its layer data as one JSON line.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

import harness
from harness import METHODS, median

_CONFIGS: dict = {}


def config_for(method: str):
    """The estimator configuration each workload uses for ``method``."""
    if method not in _CONFIGS:
        from repro.api import EstimatorConfig

        extra = {"pot_threshold_quantile": 0.9} if method == "pot" else {}
        _CONFIGS[method] = EstimatorConfig(method=method, **extra)
    return _CONFIGS[method]


class LayerTrace:
    """Collects per-call layer timings while active (see module doc)."""

    def __init__(self) -> None:
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self.runs: List[dict] = []
        self.counters: Dict[str, float] = {}
        self._fanout_calls = 0
        self._undo: List[Tuple[object, str, object]] = []

    def _patch(self, owner, name: str, replacement) -> None:
        self._undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, replacement)

    def _timed(self, key: str, fn):
        samples = self.samples[key]

        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                samples.append(time.perf_counter() - start)

        return wrapper

    def __enter__(self) -> "LayerTrace":
        import repro.estimation.adaptive as adaptive
        import repro.estimation.mc_estimator as mc_estimator
        import repro.estimation.pot as pot
        import repro.netlist.generators as generators
        from repro.netlist.circuit import Circuit
        from repro.obs.metrics import get_registry
        from repro.sim.power import PowerAnalyzer
        from repro.vectors.population import FinitePopulation

        registry = get_registry()
        registry.reset()
        registry.enable()
        trace = self
        self._patch(
            generators,
            "build_circuit",
            self._timed("netlist.build_s", generators.build_circuit),
        )

        fanout_map = Circuit.fanout_map

        def counting_fanout_map(circuit):
            trace._fanout_calls += 1
            return fanout_map(circuit)

        self._patch(Circuit, "fanout_map", counting_fanout_map)

        analyzer_init = PowerAnalyzer.__init__

        def timed_init(analyzer, *args, **kwargs):
            calls = trace._fanout_calls
            start = time.perf_counter()
            analyzer_init(analyzer, *args, **kwargs)
            trace.samples["power.analyzer_setup_s"].append(
                time.perf_counter() - start
            )
            trace.samples["netlist.fanout_map_calls"].append(
                trace._fanout_calls - calls
            )

        self._patch(PowerAnalyzer, "__init__", timed_init)

        population_build = vars(FinitePopulation)["build"].__func__

        def timed_build(cls, *args, **kwargs):
            start = time.perf_counter()
            population = population_build(cls, *args, **kwargs)
            trace.samples["sim.population_build_s"].append(
                time.perf_counter() - start
            )
            trace.samples["sim.pairs"].append(population.size)
            return population

        self._patch(FinitePopulation, "build", classmethod(timed_build))
        for module in (mc_estimator, adaptive):
            self._patch(
                module, "fit_weibull_mle",
                self._timed("mle.fit_s", module.fit_weibull_mle),
            )
        for module in (pot, adaptive):
            self._patch(module, "fit_gpd", self._timed("gpd.fit_s", module.fit_gpd))
        return self

    def __exit__(self, *exc) -> None:
        from repro.obs.metrics import get_registry

        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()
        registry = get_registry()
        snapshot = registry.snapshot()
        registry.reset()
        registry.disable()
        counts = defaultdict(float)
        for counter in snapshot["counters"]:
            counts[counter["name"]] += counter["value"]
        for timer in snapshot["timers"]:
            if timer["name"] == "sim_compile_seconds":
                counts["sim_compile_seconds"] += timer["total"]
                counts["sim_compile_count"] += timer["count"]
        self.counters = dict(counts)

    def export(self) -> dict:
        """JSON-able layer data (merge several with :func:`merge`)."""
        return {
            "samples": {k: list(v) for k, v in self.samples.items()},
            "runs": list(self.runs),
            "counters": dict(self.counters),
        }


def merge(parts: List[dict]) -> dict:
    merged = {"samples": defaultdict(list), "runs": [], "counters": defaultdict(float)}
    for part in parts:
        for key, values in part["samples"].items():
            merged["samples"][key].extend(values)
        merged["runs"].extend(part["runs"])
        for key, value in part["counters"].items():
            merged["counters"][key] += value
    return merged


def run_method(population, method: str, seed: int, trace: Optional[LayerTrace] = None):
    """One ``build_estimator(pop, cfg).run(rng=seed)``; returns the
    result and its wall time (recorded in ``trace`` when given)."""
    import numpy as np

    from repro.api import build_estimator

    fits = len(trace.samples["mle.fit_s"]) if trace else 0
    gpd_fits = len(trace.samples["gpd.fit_s"]) if trace else 0
    start = time.perf_counter()
    result = build_estimator(population, config_for(method)).run(
        rng=np.random.default_rng(seed)
    )
    elapsed = time.perf_counter() - start
    if trace is not None:
        trace.runs.append(
            {
                "method": method,
                "seed": seed,
                "run_s": elapsed,
                "mle_fits": len(trace.samples["mle.fit_s"]) - fits,
                "gpd_fits": len(trace.samples["gpd.fit_s"]) - gpd_fits,
                "units": result.units_used,
                "k": result.k,
                "pilot_units": (
                    result.decision.pilot_units if result.decision else None
                ),
            }
        )
    return result, elapsed


def build_pool(circuit: str, population: int, seed: int):
    """The exact population ``repro estimate --mode unit`` builds."""
    from repro.api import build_population

    return build_population(
        circuit, population_size=population, sim_mode="unit", seed=seed
    )


def probe_methods(population, seed: int, methods=("auto", "pot")) -> dict:
    """Traced single runs of ``methods`` on an already-built pool, so
    every workload reports every estimation layer."""
    with LayerTrace() as trace:
        for method in methods:
            run_method(population, method, seed, trace)
    return trace.export()


def import_probe(repeats: int = 3) -> float:
    """Fresh-interpreter ``import repro.api`` minus a bare interpreter
    (median of ``repeats`` pairs)."""
    diffs = []
    for _ in range(repeats):
        walls = []
        for code in ("import repro.api", "pass"):
            start = time.perf_counter()
            proc = harness.run_python(["-c", code])
            walls.append(time.perf_counter() - start)
            if proc.returncode != 0:
                raise RuntimeError(f"python -c {code!r} failed: {proc.stderr}")
        diffs.append(walls[0] - walls[1])
    return median(diffs)


def scaling_probe(gates=(500, 1000, 2000), repeats: int = 3) -> Tuple[float, List[tuple]]:
    """Analyzer set-up time over ``random_layered_circuit`` sizes (best
    of ``repeats``); returns the log–log slope and ``(gates, seconds,
    fanout_map calls)`` rows."""
    from repro.netlist.generators.random_dag import random_layered_circuit
    from repro.sim.power import PowerAnalyzer

    # A fresh circuit object per timing: the analyzer memoizes its
    # compiled plan and fanout map on the circuit.
    circuits = [
        random_layered_circuit(
            f"rnd{g}", num_inputs=64, num_outputs=32, num_gates=g, depth=20, seed=g
        )
        for _ in range(repeats)
        for g in gates
    ]
    with LayerTrace() as trace:
        for circuit in circuits:
            PowerAnalyzer(circuit, mode="unit")
    timed = trace.samples["power.analyzer_setup_s"]
    seconds = [min(timed[i::len(gates)]) for i in range(len(gates))]
    calls = trace.samples["netlist.fanout_map_calls"][: len(gates)]
    rows = list(zip(gates, seconds, calls))
    return harness.loglog_slope(list(gates), seconds), rows


SERVICE_LAYERS = (
    ("http.submit_s", "s"),
    ("http.result_s", "s"),
    ("job.queue_wait_s", "s"),
    ("job.run_s", "s"),
    ("store.memo_hit_ratio", "ratio"),
    ("service.population_cache_hit_ratio", "ratio"),
    ("service.rejected_fraction", "ratio"),
    ("batch.jobs_per_invocation", "ratio"),
)


def layer_metrics(
    data: dict,
    *,
    import_s: float,
    scaling_exp: float,
    service: Dict[str, float],
    overhead: float,
    coverage: float,
) -> Dict[str, Tuple[float, str]]:
    """The per-layer metrics every traced run prints (the
    ``per_layer`` list of ``BENCHMARK.json``)."""
    samples, runs, counters = data["samples"], data["runs"], data["counters"]
    build_s = samples["sim.population_build_s"]
    out: Dict[str, Tuple[float, str]] = {
        "import.api_s": (import_s, "s"),
        "netlist.build_s": (median(samples["netlist.build_s"]), "s"),
        "netlist.fanout_map_calls": (
            max(samples["netlist.fanout_map_calls"]), "count"
        ),
        "power.analyzer_setup_s": (median(samples["power.analyzer_setup_s"]), "s"),
        "power.setup_scaling_exp": (scaling_exp, "ratio"),
        "sim.plan_compile_s": (
            counters.get("sim_compile_seconds", 0.0)
            / max(1.0, counters.get("sim_compile_count", 0.0)),
            "s",
        ),
        "sim.population_build_s": (median(build_s), "s"),
        "sim.pairs_per_s": (sum(samples["sim.pairs"]) / sum(build_s), "1/s"),
    }
    for method in METHODS:
        mine = [r for r in runs if r["method"] == method]
        out[f"estimation.run_s.{method}"] = (median(r["run_s"] for r in mine), "s")
        out[f"estimation.units_per_estimate.{method}"] = (
            median(r["units"] for r in mine), "count"
        )
        out[f"estimation.hyper_samples_per_estimate.{method}"] = (
            median(r["k"] for r in mine), "count"
        )
        out[f"mle.fits_per_estimate.{method}"] = (
            median(r["mle_fits"] for r in mine), "count"
        )
        out[f"gpd.fits_per_estimate.{method}"] = (
            median(r["gpd_fits"] for r in mine), "count"
        )
    out["adaptive.pilot_units"] = (
        median(r["pilot_units"] for r in runs if r["method"] == "auto"), "count"
    )
    out["mle.fit_s"] = (median(samples["mle.fit_s"]), "s")
    out["mle.fit_error_ratio"] = (
        counters.get("mle_fit_errors_total", 0.0)
        / max(1.0, counters.get("mle_fits_total", 0.0)),
        "ratio",
    )
    out["gpd.fit_s"] = (median(samples["gpd.fit_s"]), "s")
    for name, unit in SERVICE_LAYERS:
        out[name] = (service[name], unit)
    out["trace.overhead_ratio"] = (overhead, "ratio")
    out["trace.wall_coverage"] = (coverage, "ratio")
    return out


def _cli_op(circuit: str, seed: int, population: int, started: float) -> dict:
    """The traced counterpart of ``repro estimate CIRCUIT --mode unit
    --population N --seed S``: same population, same estimator seed
    (``S + 1``), layers timed; then traced auto/pot probes on the pool."""
    import repro.api  # noqa: F401  (timed: the import layer)

    import_s = time.perf_counter() - started
    with LayerTrace() as trace:
        pool = build_pool(circuit, population, seed)
        result, _ = run_method(pool, "fixed", seed + 1, trace)
    main_s = time.perf_counter() - started
    probe_start = time.perf_counter()
    probes = probe_methods(pool, seed + 1)
    return {
        "summary": result.summary(),
        "result": json.loads(result.to_json()),
        "import_s": import_s,
        "main_s": main_s,
        "probe_s": time.perf_counter() - probe_start,
        "data": merge([trace.export(), probes]),
    }


if __name__ == "__main__":
    _started = time.perf_counter()
    harness.prepare_process()
    if len(sys.argv) != 5 or sys.argv[1] != "cli-op":
        raise SystemExit("usage: layers.py cli-op CIRCUIT SEED POPULATION")
    print(
        json.dumps(
            _cli_op(sys.argv[2], int(sys.argv[3]), int(sys.argv[4]), _started)
        )
    )
