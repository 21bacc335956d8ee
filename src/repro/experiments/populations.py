"""Population construction and caching for the experiment suite.

Three population kinds mirror the paper's Section IV setups:

* ``"unconstrained"`` — random high-activity pairs (avg switching
  activity > 0.3), |V| = ``unconstrained_size`` (Tables 1-2, Figures
  1-2);
* ``"high"`` — per-line transition probability 0.7,
  |V| = ``constrained_size`` (Table 3);
* ``"low"`` — per-line transition probability 0.3 (Table 4).

The whole pool is simulated once with the configured ground-truth
simulator ("the whole population is simulated using PowerMill" step) and
cached as ``.npz``; the cache key hashes every input that affects the
power values so stale entries can never be served.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Callable, Dict, Tuple

import numpy as np

from ..errors import ConfigError
from ..netlist.generators import build_circuit
from ..obs.metrics import get_registry
from ..obs.spans import get_span_recorder
from ..sim.power import PowerAnalyzer
from ..vectors.generators import (
    high_activity_vector_pairs,
    transition_prob_vector_pairs,
)
from ..vectors.population import FinitePopulation
from .config import ExperimentConfig

__all__ = ["POPULATION_KINDS", "population_seed", "build_population", "get_population"]

POPULATION_KINDS = ("unconstrained", "high", "low")

#: Version salt for the on-disk cache key.  Bump whenever the sampling
#: pipeline changes the pool contents for a given seed (e.g. the move to
#: chunked SeedSequence-spawned builds), so stale entries from an older
#: pipeline are never served.
_PIPELINE_VERSION = "build-v2"

_MEMORY_CACHE: Dict[Tuple, FinitePopulation] = {}

_METRICS = get_registry()
_SPANS = get_span_recorder()
_CACHE_HITS = _METRICS.counter("population_cache_hits_total")
_CACHE_MISSES = _METRICS.counter("population_cache_misses_total")
_MEMCACHE_HITS = _METRICS.counter("population_memcache_hits_total")
_CACHE_LOAD_TIMER = _METRICS.timer("population_cache_load_seconds")


def population_seed(config: ExperimentConfig, circuit: str, kind: str) -> int:
    """Deterministic per-population seed derived from the base seed."""
    digest = hashlib.sha256(
        f"{config.seed}/{circuit}/{kind}".encode()
    ).digest()
    return int.from_bytes(digest[:4], "little")


def _cache_path(
    config: ExperimentConfig, circuit: str, kind: str, size: int
) -> Path:
    key = hashlib.sha256(
        "/".join(
            [
                _PIPELINE_VERSION,
                circuit,
                kind,
                str(size),
                config.sim_mode,
                f"{config.frequency_hz:.6g}",
                str(population_seed(config, circuit, kind)),
            ]
        ).encode()
    ).hexdigest()[:16]
    return config.cache_dir / f"pop_{circuit}_{kind}_{size}_{key}.npz"


def _generator_for(
    kind: str, num_inputs: int
) -> Callable[[int, np.random.Generator], Tuple[np.ndarray, np.ndarray]]:
    if kind == "unconstrained":
        return lambda n, rng: high_activity_vector_pairs(
            n, num_inputs, min_activity=0.3, rng=rng
        )
    if kind == "high":
        return lambda n, rng: transition_prob_vector_pairs(
            n, num_inputs, 0.7, rng=rng
        )
    if kind == "low":
        return lambda n, rng: transition_prob_vector_pairs(
            n, num_inputs, 0.3, rng=rng
        )
    raise ConfigError(f"unknown population kind {kind!r}")


def build_population(
    config: ExperimentConfig, circuit_name: str, kind: str
) -> FinitePopulation:
    """Simulate (or reuse from cache) one experiment population."""
    if kind not in POPULATION_KINDS:
        raise ConfigError(
            f"kind must be one of {POPULATION_KINDS}, got {kind!r}"
        )
    size = (
        config.unconstrained_size
        if kind == "unconstrained"
        else config.constrained_size
    )
    path = _cache_path(config, circuit_name, kind, size)
    if path.exists():
        _CACHE_HITS.inc()
        _SPANS.emit("population_cache", hit=True, path=str(path))
        with _CACHE_LOAD_TIMER.time():
            return FinitePopulation.load(path)
    _CACHE_MISSES.inc()
    _SPANS.emit("population_cache", hit=False, path=str(path))

    circuit = build_circuit(circuit_name)
    analyzer = PowerAnalyzer(
        circuit, frequency_hz=config.frequency_hz, mode=config.sim_mode
    )
    pop = FinitePopulation.build(
        _generator_for(kind, circuit.num_inputs),
        analyzer.powers_for_pairs,
        num_pairs=size,
        seed=population_seed(config, circuit_name, kind),
        name=f"{circuit_name}-{kind}",
        metadata={
            "circuit": circuit_name,
            "kind": kind,
            "sim_mode": config.sim_mode,
            "frequency_hz": config.frequency_hz,
        },
        workers=config.workers,
    )
    config.cache_dir.mkdir(parents=True, exist_ok=True)
    written = pop.save(path)
    assert written == path, "cache key must carry the .npz suffix"
    return pop


def get_population(
    config: ExperimentConfig, circuit_name: str, kind: str
) -> FinitePopulation:
    """Memoized (process-local) wrapper around :func:`build_population`."""
    key = (
        config.seed,
        config.sim_mode,
        config.unconstrained_size,
        config.constrained_size,
        f"{config.frequency_hz:.6g}",
        circuit_name,
        kind,
    )
    pop = _MEMORY_CACHE.get(key)
    if pop is None:
        pop = build_population(config, circuit_name, kind)
        _MEMORY_CACHE[key] = pop
    else:
        _MEMCACHE_HITS.inc()
    return pop
