"""The unified public API: one config object, one facade.

Historically every entry point grew its own kwarg list — the
:class:`~repro.estimation.mc_estimator.MaxPowerEstimator` constructor,
the :func:`~repro.estimation.parallel.run_many` driver, the CLI flags —
and they drifted.  This module collapses them onto a single versioned
:class:`EstimatorConfig` dataclass and an :func:`estimate` facade;
the CLI ``estimate`` command, the programmatic API, and the
:mod:`repro.service` job server all consume the same object, so a
config serialized anywhere (HTTP job spec, checkpoint, CLI JSON) means
the same thing everywhere.

Quick start::

    from repro.api import EstimatorConfig, estimate

    config = EstimatorConfig(error=0.05, confidence=0.90)
    result = estimate("c432", config, seed=1, population_size=20_000)
    print(result.summary())

Seed contract
-------------
``estimate(circuit, config, seed=s)`` builds the population with seed
``s`` and runs the estimator with RNG seed ``s + 1`` — exactly what
``repro estimate CIRCUIT --seed s`` has always done, so CLI output, API
output, and service job results are bit-identical for the same inputs.
``estimate(population, config, seed=s)`` (pre-built population) runs
the estimator with RNG seed ``s`` directly, matching
``MaxPowerEstimator(pop, ...).run(rng=s)``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, List, Optional, Union

from .errors import ConfigError
from .estimation.adaptive import build_estimator
from .estimation.mc_estimator import MaxPowerEstimator, check_run_settings
from .estimation.parallel import (
    SeedLike,
    hyper_sample_many as _hyper_sample_many,
    run_many as _run_many,
)
from .estimation.result import EstimationResult, HyperSample
from .evt.block_maxima import DEFAULT_NUM_SAMPLES, DEFAULT_SAMPLE_SIZE
from .netlist.circuit import Circuit
from .vectors.population import (
    FinitePopulation,
    PowerPopulation,
    StreamingPopulation,
)

__all__ = [
    "EstimatorConfig",
    "build_estimator",
    "build_population",
    "estimate",
    "run_many",
    "hyper_sample_many",
]


@dataclass(frozen=True)
class EstimatorConfig:
    """Every knob of one estimation, statistical and operational.

    The statistical fields mirror
    :class:`~repro.estimation.mc_estimator.MaxPowerEstimator` (and are
    validated by the same check, so a bad config fails at construction,
    not deep inside a worker); the execution fields mirror the
    fault-tolerant :func:`repro.estimation.parallel.run_many` scheduler.

    Attributes
    ----------
    method:
        Estimator selection — the one switch that used to be four
        disconnected entry points (``MaxPowerEstimator``, the tuner,
        the POT estimator, ad-hoc experiment code):

        * ``"fixed"`` (default) — the paper's block-maxima Weibull MLE
          with this config's explicit ``n``/``m``.
        * ``"pot"`` — peaks-over-threshold/GPD endpoint estimation;
          requires a threshold policy (``pot_threshold_quantile``).
        * ``"auto"`` — the adaptive controller
          (:class:`~repro.estimation.adaptive.AdaptiveMaxPowerEstimator`):
          a seed-deterministic pilot chooses n, m, and the family, then
          hands off to the chosen engine.  Explicit ``n``/``m``
          overrides are rejected — the controller owns them.
    n, m:
        Block size and blocks per hyper-sample (paper: 30 and 10).
    error, confidence:
        Target relative error ε and confidence level l.
    min_hyper_samples, max_hyper_samples:
        Convergence window of the iterative loop (Figure 4).
    finite_correction:
        §3.4 quantile correction toggle; ``None`` = apply exactly when
        the population reports a finite size.
    upper_bound:
        Optional physical ceiling on the metric; every method clips its
        fitted round estimates to it.
    pot_threshold_quantile:
        POT threshold policy: exceedances above this empirical batch
        quantile feed the GPD fit.  Required for ``method="pot"``;
        optional override of the ``"auto"`` controller's 0.90 default;
        rejected for ``"fixed"`` (it would silently do nothing).
    pot_batch_size:
        Units per POT round (defaults to n·m worth of units).  Same
        method gating as ``pot_threshold_quantile``.
    workers:
        Worker processes for repeated-run drivers and population builds.
    retries:
        Extra attempts per parallel task after a crash or timeout.
    task_timeout:
        Seconds before a hung parallel task is killed and retried.
    """

    n: int = DEFAULT_SAMPLE_SIZE
    m: int = DEFAULT_NUM_SAMPLES
    error: float = 0.05
    confidence: float = 0.90
    min_hyper_samples: int = 2
    max_hyper_samples: int = 200
    finite_correction: Optional[bool] = None
    upper_bound: Optional[float] = None
    workers: int = 1
    retries: int = 0
    task_timeout: Optional[float] = None
    method: str = "fixed"
    pot_threshold_quantile: Optional[float] = None
    pot_batch_size: Optional[int] = None

    def __post_init__(self) -> None:
        if self.method not in ("fixed", "auto", "pot"):
            raise ConfigError(
                f"unknown method {self.method!r}: expected 'fixed', "
                "'auto', or 'pot'"
            )
        if self.n < 2:
            raise ConfigError("sample size n must be >= 2")
        if self.m < 3:
            raise ConfigError("need m >= 3 block maxima for the MLE")
        check_run_settings(self)
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        if self.retries < 0:
            raise ConfigError("retries must be >= 0")
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise ConfigError("task_timeout must be positive (or None)")
        # Cross-field constraints for the method switch: fail loudly at
        # construction, not deep inside a worker mid-run.
        if self.method == "auto" and (
            self.n != DEFAULT_SAMPLE_SIZE or self.m != DEFAULT_NUM_SAMPLES
        ):
            raise ConfigError(
                "method='auto' chooses the block size n and hyper-sample "
                "size m itself; drop the n/m overrides, or use "
                "method='fixed' to pin them"
            )
        if self.method == "pot" and self.pot_threshold_quantile is None:
            raise ConfigError(
                "method='pot' requires a threshold policy: set "
                "pot_threshold_quantile (e.g. 0.90 keeps the top 10% of "
                "each batch as exceedances)"
            )
        if self.method == "fixed" and (
            self.pot_threshold_quantile is not None
            or self.pot_batch_size is not None
        ):
            raise ConfigError(
                "pot_threshold_quantile/pot_batch_size have no effect "
                "with method='fixed'; use method='pot' (or 'auto', where "
                "they override the controller's POT defaults)"
            )
        if self.pot_threshold_quantile is not None and not (
            0.5 <= self.pot_threshold_quantile < 1.0
        ):
            raise ConfigError("pot_threshold_quantile must be in [0.5, 1)")
        if self.pot_batch_size is not None and self.pot_batch_size < 20:
            raise ConfigError("pot_batch_size must be >= 20")

    def with_overrides(self, **kwargs) -> "EstimatorConfig":
        """Functional update (frozen dataclass)."""
        return replace(self, **kwargs)

    def to_dict(self) -> dict:
        """Versioned JSON-able form (see :mod:`repro.schemas`)."""
        from .schemas import dump_estimator_config

        return dump_estimator_config(self)

    @classmethod
    def from_dict(cls, data: dict) -> "EstimatorConfig":
        from .schemas import load_estimator_config

        return load_estimator_config(data)


def _load_circuit(spec: Union[str, Circuit]) -> Circuit:
    """Resolve a circuit argument: instance, suite name, or file path."""
    if isinstance(spec, Circuit):
        return spec
    from .netlist.bench import load_bench
    from .netlist.generators import build_circuit
    from .netlist.verilog import load_verilog

    path = Path(str(spec))
    if path.suffix == ".bench" and path.exists():
        return load_bench(path)
    if path.suffix in (".v", ".verilog") and path.exists():
        return load_verilog(path)
    return build_circuit(str(spec))


def build_population(
    circuit: Union[str, Circuit],
    *,
    population_size: int = 20_000,
    activity: Optional[float] = None,
    sim_mode: str = "zero",
    frequency_mhz: float = 50.0,
    seed: int = 0,
    workers: int = 1,
) -> PowerPopulation:
    """Build the vector-pair power population the paper estimates over.

    ``population_size > 0`` simulates a finite pool (categories I.1/I.2
    of the paper's experimental setup); ``population_size == 0`` returns
    a streaming (infinite) population that simulates on demand.
    ``activity`` switches from unconstrained high-activity pairs to
    per-line transition-probability pairs (category I.2).

    This is the exact construction ``repro estimate`` performs, factored
    out so the CLI, the :func:`estimate` facade, and the job service
    produce bit-identical populations for the same arguments.
    """
    import numpy as np

    from .sim.power import PowerAnalyzer
    from .vectors.generators import (
        high_activity_vector_pairs,
        transition_prob_vector_pairs,
    )

    if population_size < 0:
        raise ConfigError("population_size must be >= 0 (0 = streaming)")
    if sim_mode not in ("zero", "unit"):
        raise ConfigError("sim_mode must be 'zero' or 'unit'")
    if frequency_mhz <= 0:
        raise ConfigError("frequency_mhz must be positive")
    if activity is not None and not 0.0 < activity < 1.0:
        raise ConfigError("activity must be in (0, 1)")
    circuit = _load_circuit(circuit)
    analyzer = PowerAnalyzer(
        circuit,
        frequency_hz=frequency_mhz * 1e6,
        mode=sim_mode,
    )
    if activity is None:
        def generate(count: int, rng: np.random.Generator):
            return high_activity_vector_pairs(
                count, circuit.num_inputs, rng=rng
            )
        constraint = "unconstrained (activity > 0.3)"
    else:
        def generate(count: int, rng: np.random.Generator):
            return transition_prob_vector_pairs(
                count, circuit.num_inputs, activity, rng=rng
            )
        constraint = f"per-line transition probability {activity}"

    if population_size > 0:
        return FinitePopulation.build(
            generate,
            analyzer.powers_for_pairs,
            num_pairs=population_size,
            seed=seed,
            name=f"{circuit.name} [{constraint}]",
            workers=workers,
        )
    return StreamingPopulation(
        generate,
        analyzer.powers_for_pairs,
        name=f"{circuit.name} [{constraint}, streaming]",
    )


def estimate(
    circuit_or_population: Union[str, Circuit, PowerPopulation],
    config: Optional[EstimatorConfig] = None,
    *,
    seed: int = 0,
    population_size: int = 20_000,
    activity: Optional[float] = None,
    sim_mode: str = "zero",
    frequency_mhz: float = 50.0,
    progress: Optional[Callable] = None,
) -> EstimationResult:
    """Estimate maximum power in one call — the library's front door.

    Accepts a suite circuit name, a ``.bench``/``.v`` path, a
    :class:`~repro.netlist.circuit.Circuit`, or a pre-built
    :class:`~repro.vectors.population.PowerPopulation`; everything else
    comes from ``config`` (see the module docstring for the seed
    contract).  ``progress`` is forwarded to the estimator's run and
    fires once per hyper-sample (see
    :func:`~repro.estimation.mc_estimator.run_sequential`).
    """
    import numpy as np

    config = config if config is not None else EstimatorConfig()
    if isinstance(circuit_or_population, PowerPopulation):
        population = circuit_or_population
        run_seed = seed
    else:
        population = build_population(
            circuit_or_population,
            population_size=population_size,
            activity=activity,
            sim_mode=sim_mode,
            frequency_mhz=frequency_mhz,
            seed=seed,
            workers=config.workers,
        )
        run_seed = seed + 1
    estimator = build_estimator(population, config)
    return estimator.run(rng=np.random.default_rng(run_seed), progress=progress)


def run_many(
    population: PowerPopulation,
    num_runs: int,
    config: Optional[EstimatorConfig] = None,
    base_seed: SeedLike = 0,
    *,
    checkpoint: Optional[Union[str, Path]] = None,
    resume: bool = False,
    on_result: Optional[Callable[[int, EstimationResult], None]] = None,
) -> List[EstimationResult]:
    """Repeat the full estimation ``num_runs`` times under one config.

    Thin facade over :func:`repro.estimation.parallel.run_many`: the
    config supplies the estimator parameters *and* the execution policy
    (``workers``/``retries``/``task_timeout``), so callers hold one
    object instead of two kwarg lists.  All the scheduler's guarantees
    (bit-identical results for any worker count and failure history,
    JSONL checkpointing, resume) apply unchanged — for every
    ``config.method``, including ``"auto"`` (each run performs its own
    pilot from its spawned seed stream, so the adaptive decision is as
    deterministic as the estimates).
    """
    config = config if config is not None else EstimatorConfig()
    estimator = build_estimator(population, config)
    return _run_many(
        estimator,
        num_runs,
        base_seed=base_seed,
        workers=config.workers,
        retries=config.retries,
        task_timeout=config.task_timeout,
        checkpoint=checkpoint,
        resume=resume,
        on_result=on_result,
    )


def hyper_sample_many(
    population: PowerPopulation,
    count: int,
    config: Optional[EstimatorConfig] = None,
    base_seed: SeedLike = 0,
    *,
    checkpoint: Optional[Union[str, Path]] = None,
    resume: bool = False,
    on_result: Optional[Callable[[int, HyperSample], None]] = None,
) -> List[HyperSample]:
    """Draw ``count`` independent hyper-samples under one config
    (facade over :func:`repro.estimation.parallel.hyper_sample_many`).

    Hyper-samples are a block-maxima concept, so this driver requires
    ``config.method == "fixed"``; the adaptive and POT methods have no
    standalone hyper-sample primitive to repeat.
    """
    config = config if config is not None else EstimatorConfig()
    if config.method != "fixed":
        raise ConfigError(
            "hyper_sample_many requires method='fixed' (a hyper-sample "
            f"is a block-maxima primitive); got method={config.method!r}"
        )
    estimator = MaxPowerEstimator.from_config(population, config)
    return _hyper_sample_many(
        estimator,
        count,
        base_seed=base_seed,
        workers=config.workers,
        retries=config.retries,
        task_timeout=config.task_timeout,
        checkpoint=checkpoint,
        resume=resume,
        on_result=on_result,
    )
