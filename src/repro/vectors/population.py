"""Vector-pair populations — the sampling universe of the estimators.

The paper defines the *population* V as a set of input vector pairs;
the power values of its units form the distribution F whose right
endpoint is the quantity to estimate.  Two concrete kinds:

* :class:`FinitePopulation` — a pre-simulated pool (the experimental
  setup of the paper: 160k/80k pairs simulated once, then sampled with
  replacement).  Knows its exact maximum, so estimator error can be
  measured, and exposes the qualified-unit portion Y used in the SRS
  efficiency analysis.
* :class:`StreamingPopulation` — an effectively infinite population:
  each sample generates fresh vector pairs from a generator function
  and simulates them on demand (this is "random vector generation" in
  the paper's category I.1 flow).

Both implement the tiny :class:`PowerPopulation` interface the
estimators consume: ``sample_powers(n, rng)`` plus an optional finite
size.  Finite pools can be saved/loaded as ``.npz`` for caching.
"""

from __future__ import annotations

import abc
import contextvars
import json
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from ..errors import PopulationError
from ..obs.metrics import get_registry
from ..obs.spans import get_span_recorder
from .generators import RngLike, as_rng

__all__ = [
    "PowerPopulation",
    "FinitePopulation",
    "StreamingPopulation",
    "DEFAULT_BUILD_CHUNK",
]

PairGenerator = Callable[[int, np.random.Generator], Tuple[np.ndarray, np.ndarray]]
PowerFunction = Callable[[np.ndarray, np.ndarray], np.ndarray]

#: Pairs simulated per independent chunk in :meth:`FinitePopulation.build`.
#: The chunk decomposition is part of the reproducibility contract, so it
#: must not depend on the worker count.
DEFAULT_BUILD_CHUNK = 4096

# A build is a ``population.build`` span (``population_build_seconds``
# and ``population_pairs_built_total`` fold from it); these handles
# count what no span records.
_METRICS = get_registry()
_SPANS = get_span_recorder()
_CHUNK_TIMER = _METRICS.timer("population_build_chunk_seconds")
_STREAMED_TOTAL = _METRICS.counter("population_streamed_units_total")


def _as_power_array(values: np.ndarray, expected: int) -> np.ndarray:
    """Cast a power-function output to float64 and validate its shape."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.shape != (expected,):
        raise PopulationError(
            f"power function returned shape {arr.shape}, "
            f"expected ({expected},)"
        )
    return arr


class PowerPopulation(abc.ABC):
    """Sampling interface over per-vector-pair power values."""

    #: Human-readable population name (used in reports).
    name: str = "population"

    @abc.abstractmethod
    def sample_powers(self, n: int, rng: RngLike = None) -> np.ndarray:
        """Draw ``n`` unit power values (with replacement)."""

    def sample_block_maxima(
        self, n: int, m: int, rng: RngLike = None
    ) -> np.ndarray:
        """Draw ``m`` block maxima of block size ``n`` in one batch.

        The hot path of the estimator: all ``n * m`` units are drawn in
        a *single* vectorized :meth:`sample_powers` call and reduced to
        per-block maxima, instead of ``m`` tiny per-block draws.

        Stream contract: this consumes the RNG exactly as one
        ``sample_powers(n * m, rng)`` call, so block-maxima draws are
        bit-for-bit reproducible for a given seed regardless of which
        concrete population (or override) serves them.
        """
        if n < 1 or m < 1:
            raise PopulationError("n and m must be >= 1")
        draws = np.asarray(
            self.sample_powers(n * m, rng), dtype=np.float64
        )
        return draws.reshape(m, n).max(axis=1)

    @property
    def size(self) -> Optional[int]:
        """Number of distinct units, or ``None`` when infinite."""
        return None

    @property
    def actual_max_power(self) -> Optional[float]:
        """True maximum power, when known (finite pools only)."""
        return None


class FinitePopulation(PowerPopulation):
    """Pre-simulated finite pool of vector pairs with known powers.

    Parameters
    ----------
    powers:
        Power value (watts) of every unit.
    v1, v2:
        Optional ``(N, num_inputs)`` bit matrices of the underlying
        pairs; kept for provenance and for vector-level baselines.
    name:
        Report label.
    metadata:
        Free-form provenance (circuit, generator settings, seed, ...).
    """

    def __init__(
        self,
        powers: np.ndarray,
        v1: Optional[np.ndarray] = None,
        v2: Optional[np.ndarray] = None,
        name: str = "population",
        metadata: Optional[Dict[str, object]] = None,
    ):
        powers = np.asarray(powers, dtype=np.float64)
        if powers.ndim != 1 or powers.size == 0:
            raise PopulationError("powers must be a non-empty 1-D array")
        if not np.isfinite(powers).all():
            raise PopulationError("powers must be finite")
        if (v1 is None) != (v2 is None):
            raise PopulationError("provide both v1 and v2 or neither")
        if v1 is not None:
            v1 = np.asarray(v1, dtype=np.uint8)
            v2 = np.asarray(v2, dtype=np.uint8)
            if v1.shape != v2.shape or v1.shape[0] != powers.size:
                raise PopulationError("vector matrices disagree with powers")
        self.powers = powers
        self.v1 = v1
        self.v2 = v2
        self.name = name
        self.metadata = dict(metadata or {})

    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        return int(self.powers.size)

    @property
    def actual_max_power(self) -> float:
        return float(self.powers.max())

    @property
    def mean_power(self) -> float:
        return float(self.powers.mean())

    def qualified_portion(self, epsilon: float = 0.05) -> float:
        """Fraction of units within ``epsilon`` of the true maximum.

        This is the paper's *Y* (Table 1 column 2): units whose power is
        at least ``(1 - epsilon) * actual_max``.
        """
        if not 0 < epsilon < 1:
            raise PopulationError("epsilon must be in (0, 1)")
        threshold = (1.0 - epsilon) * self.actual_max_power
        return float((self.powers >= threshold).mean())

    def sample_powers(self, n: int, rng: RngLike = None) -> np.ndarray:
        if n < 1:
            raise PopulationError("n must be >= 1")
        gen = as_rng(rng)
        idx = gen.integers(0, self.size, size=n)
        return self.powers[idx]

    def sample_block_maxima(
        self, n: int, m: int, rng: RngLike = None
    ) -> np.ndarray:
        """Batched block maxima: one index draw, one gather, one reduce.

        Consumes the RNG identically to ``sample_powers(n * m, rng)``
        (a single ``integers`` call), so it is bit-for-bit equivalent to
        the generic :meth:`PowerPopulation.sample_block_maxima` path.
        Subclasses that override :meth:`sample_powers` (e.g. to count or
        transform draws) keep that behavior: the generic path is used
        for them so every unit still flows through their override.
        """
        if type(self).sample_powers is not FinitePopulation.sample_powers:
            return super().sample_block_maxima(n, m, rng)
        if n < 1 or m < 1:
            raise PopulationError("n and m must be >= 1")
        gen = as_rng(rng)
        idx = gen.integers(0, self.size, size=n * m)
        return self.powers[idx].reshape(m, n).max(axis=1)

    def sample_units(
        self, n: int, rng: RngLike = None
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sample units returning ``(powers, v1, v2)`` rows.

        Requires the pool to have stored vectors.
        """
        if self.v1 is None:
            raise PopulationError("population stores no vectors")
        gen = as_rng(rng)
        idx = gen.integers(0, self.size, size=n)
        return self.powers[idx], self.v1[idx], self.v2[idx]

    # ------------------------------------------------------------------
    def save(self, path: Union[str, Path]) -> Path:
        """Persist to ``.npz`` (powers, vectors, JSON-encoded metadata).

        ``np.savez_compressed`` silently appends ``.npz`` to suffix-less
        paths, which used to break a ``save(p)`` / ``load(p)`` round
        trip; the suffix is therefore normalized here and the *actual*
        written path returned.
        """
        path = Path(path)
        if path.suffix != ".npz":
            path = path.with_name(path.name + ".npz")
        arrays = {
            "powers": self.powers,
            "meta": np.frombuffer(
                json.dumps({"name": self.name, **self.metadata}).encode(),
                dtype=np.uint8,
            ),
        }
        if self.v1 is not None:
            arrays["v1"] = self.v1
            arrays["v2"] = self.v2
        np.savez_compressed(path, **arrays)
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "FinitePopulation":
        """Load a pool previously written by :meth:`save`.

        Accepts the suffix-less path that was handed to :meth:`save`.
        """
        path = Path(path)
        if not path.exists() and path.suffix != ".npz":
            path = path.with_name(path.name + ".npz")
        with np.load(path) as data:
            meta = json.loads(bytes(data["meta"]).decode())
            name = meta.pop("name", "population")
            v1 = data["v1"] if "v1" in data else None
            v2 = data["v2"] if "v2" in data else None
            return cls(
                powers=data["powers"], v1=v1, v2=v2, name=name, metadata=meta
            )

    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        pair_generator: PairGenerator,
        power_function: PowerFunction,
        num_pairs: int,
        seed: int,
        name: str = "population",
        metadata: Optional[Dict[str, object]] = None,
        workers: int = 1,
        chunk_size: Optional[int] = None,
    ) -> "FinitePopulation":
        """Generate ``num_pairs`` pairs, simulate them, and wrap the pool.

        ``pair_generator(count, rng)`` must return the two bit matrices;
        ``power_function(v1, v2)`` the per-pair powers (e.g.
        :meth:`repro.sim.power.PowerAnalyzer.powers_for_pairs`).  The
        power output is cast to float64 and shape-validated per chunk,
        so int- or float32-returning power functions produce the same
        pools as the streaming path.

        Stream-splitting contract: the pool is simulated in independent
        chunks of ``chunk_size`` pairs (default
        :data:`DEFAULT_BUILD_CHUNK`); chunk *i* draws from
        ``np.random.default_rng(np.random.SeedSequence(seed).spawn(C)[i])``
        and the chunks are concatenated in order.  The decomposition
        depends only on ``(num_pairs, chunk_size, seed)`` — never on
        ``workers`` — so a serial build and a parallel build of the same
        pool are bit-for-bit identical.

        ``workers > 1`` simulates chunks on a thread pool; the heavy
        lifting (bit-parallel simulation, numpy RNG) releases the GIL,
        and threads keep arbitrary closures usable as generators/power
        functions (no pickling requirement); each chunk runs in a copy of
        the caller's context, so what it records nests under the
        ``population.build`` span and lands in the caller's attempt.
        When ``power_function`` is
        a :class:`~repro.sim.power.PowerAnalyzer` bound method, the
        circuit's struct-of-arrays plan is compiled once and shared by
        every chunk (and every thread) — the per-chunk cost is pure
        batched evaluation.
        """
        if num_pairs < 1:
            raise PopulationError("num_pairs must be >= 1")
        if workers < 1:
            raise PopulationError("workers must be >= 1")
        if chunk_size is None:
            chunk_size = DEFAULT_BUILD_CHUNK
        if chunk_size < 1:
            raise PopulationError("chunk_size must be >= 1")
        counts = [chunk_size] * (num_pairs // chunk_size)
        if num_pairs % chunk_size:
            counts.append(num_pairs % chunk_size)
        children = np.random.SeedSequence(seed).spawn(len(counts))

        def simulate_chunk(
            count: int, seed_seq: np.random.SeedSequence
        ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
            # Chunk timings record from pool threads too — the registry
            # lock serializes the (tiny) bookkeeping, not the simulation.
            with _CHUNK_TIMER.time():
                rng = np.random.default_rng(seed_seq)
                v1, v2 = pair_generator(count, rng)
                powers = _as_power_array(power_function(v1, v2), count)
            return v1, v2, powers

        with _SPANS.span(
            "population.build",
            name=name,
            num_pairs=num_pairs,
            chunks=len(counts),
            chunk_size=chunk_size,
            workers=workers,
        ) as span:
            start = time.perf_counter()
            if workers == 1 or len(counts) == 1:
                parts: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = [
                    simulate_chunk(c, s) for c, s in zip(counts, children)
                ]
            else:
                with ThreadPoolExecutor(
                    max_workers=min(workers, len(counts))
                ) as pool:
                    futures = [
                        pool.submit(contextvars.copy_context().run, simulate_chunk, c, s)
                        for c, s in zip(counts, children)
                    ]
                    parts = [future.result() for future in futures]
            elapsed = time.perf_counter() - start
            v1 = np.concatenate([p[0] for p in parts])
            v2 = np.concatenate([p[1] for p in parts])
            powers = np.concatenate([p[2] for p in parts])
            span.set(seconds=elapsed)
        meta = {"seed": seed, "chunk_size": chunk_size, **(metadata or {})}
        return cls(powers=powers, v1=v1, v2=v2, name=name, metadata=meta)


class StreamingPopulation(PowerPopulation):
    """Infinite population: fresh vector pairs simulated per sample.

    This is the paper's category-I.1 production mode — "the sampling
    technique is replaced by the random vector generation" — where no
    pre-simulated pool exists and |V| is treated as infinite.
    """

    def __init__(
        self,
        pair_generator: PairGenerator,
        power_function: PowerFunction,
        name: str = "streaming",
    ):
        self._generate = pair_generator
        self._power = power_function
        self.name = name
        self.units_simulated = 0

    def sample_powers(self, n: int, rng: RngLike = None) -> np.ndarray:
        if n < 1:
            raise PopulationError("n must be >= 1")
        gen = as_rng(rng)
        v1, v2 = self._generate(n, gen)
        powers = _as_power_array(self._power(v1, v2), n)
        # Count the unit budget only after the simulation succeeded; a
        # raising power function must not inflate ``units_simulated``.
        self.units_simulated += n
        _STREAMED_TOTAL.inc(n)
        return powers

    def sample_block_maxima(
        self, n: int, m: int, rng: RngLike = None
    ) -> np.ndarray:
        """Batched block maxima: one generator call simulates all
        ``n * m`` fresh pairs, then blocks are reduced in one pass.

        RNG consumption is identical to ``sample_powers(n * m, rng)``.
        """
        if n < 1 or m < 1:
            raise PopulationError("n and m must be >= 1")
        return self.sample_powers(n * m, rng).reshape(m, n).max(axis=1)
