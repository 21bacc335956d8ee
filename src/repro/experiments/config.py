"""Experiment configuration and scaling.

The paper's setup (|V| = 160k unconstrained / 80k constrained, 100
estimation runs per circuit, nine circuits) takes tens of minutes in
pure Python, so experiments run at a reduced default scale and switch to
full paper scale via the environment::

    REPRO_SCALE=paper pytest benchmarks/ --benchmark-only

Populations are cached on disk after first simulation; the cache key
includes every input that affects the power values.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional, Tuple

from ..errors import ConfigError
from ..estimation.parallel import check_execution_settings

__all__ = ["ExperimentConfig", "default_config", "PAPER_CIRCUITS"]

#: Circuit order used by every table in the paper.
PAPER_CIRCUITS: Tuple[str, ...] = (
    "c1355",
    "c1908",
    "c2670",
    "c3540",
    "c432",
    "c5315",
    "c6288",
    "c7552",
    "c880",
)


@dataclass(frozen=True)
class ExperimentConfig:
    """All knobs of the experiment harness.

    Attributes
    ----------
    scale:
        ``"ci"`` (default, minutes), ``"paper"`` (full sizes), or
        ``"smoke"`` (seconds; used by the benchmark suite's default
        runs).
    unconstrained_size, constrained_size:
        |V| for the category I.1 / I.2 populations.
    num_runs:
        Repetitions of the estimator per circuit (the paper uses 100).
    srs_budgets:
        SRS unit budgets compared in Table 2.
    circuits:
        Which suite circuits to include.
    sim_mode:
        Ground-truth power mode (``"zero"``/``"unit"``); see DESIGN.md
        for why zero-delay is the experiments' default.
    frequency_hz, error, confidence, n, m:
        Passed to the analyzers/estimators (paper values by default).
    cache_dir:
        Where simulated populations are stored (``REPRO_CACHE`` env
        overrides; defaults to ``.repro_cache`` under the CWD).
    seed:
        Base seed; per-population seeds derive deterministically.
    workers:
        Worker processes/threads for population simulation and the
        repeated estimation loops (``REPRO_WORKERS`` env overrides;
        default 1 = serial).  Results are identical for any value —
        per-run/per-chunk RNG streams are spawned from the base seed
        independently of the worker count.
    retries:
        Extra attempts per estimation task after a worker crash or
        timeout (``REPRO_RETRIES`` env overrides; default 0).  Retried
        tasks re-use their spawned seed stream, so results are
        identical with or without failures.
    task_timeout:
        Seconds before an in-flight parallel estimation task is
        declared hung, its pool killed and the task retried
        (``REPRO_TASK_TIMEOUT`` env overrides; default None = wait
        forever).  Only enforced when ``workers > 1``.
    """

    scale: str = "ci"
    unconstrained_size: int = 20_000
    constrained_size: int = 10_000
    num_runs: int = 20
    srs_budgets: Tuple[int, ...] = (2_500, 10_000, 20_000)
    circuits: Tuple[str, ...] = PAPER_CIRCUITS
    sim_mode: str = "zero"
    frequency_hz: float = 50e6
    error: float = 0.05
    confidence: float = 0.90
    n: int = 30
    m: int = 10
    cache_dir: Path = field(default_factory=lambda: Path(".repro_cache"))
    seed: int = 1998
    workers: int = 1
    retries: int = 0
    task_timeout: Optional[float] = None

    def __post_init__(self) -> None:
        if self.scale not in ("smoke", "ci", "paper"):
            raise ConfigError("scale must be smoke, ci or paper")
        if self.unconstrained_size < 100 or self.constrained_size < 100:
            raise ConfigError("population sizes must be >= 100")
        if self.num_runs < 1:
            raise ConfigError("num_runs must be >= 1")
        check_execution_settings(self.workers, self.retries, self.task_timeout)

    def with_overrides(self, **kwargs) -> "ExperimentConfig":
        """Functional update (frozen dataclass)."""
        return replace(self, **kwargs)


def default_config() -> ExperimentConfig:
    """Build the configuration for the current environment.

    ``REPRO_SCALE`` selects the scale tier; ``REPRO_CACHE`` relocates
    the population cache; ``REPRO_WORKERS`` sets the parallel worker
    count; ``REPRO_RETRIES``/``REPRO_TASK_TIMEOUT`` set the
    fault-tolerance knobs (results are independent of all three).
    """
    scale = os.environ.get("REPRO_SCALE", "ci").lower()
    cache = Path(os.environ.get("REPRO_CACHE", ".repro_cache"))
    try:
        workers = int(os.environ.get("REPRO_WORKERS", "1"))
    except ValueError:
        raise ConfigError("REPRO_WORKERS must be an integer") from None
    try:
        retries = int(os.environ.get("REPRO_RETRIES", "0"))
    except ValueError:
        raise ConfigError("REPRO_RETRIES must be an integer") from None
    timeout_env = os.environ.get("REPRO_TASK_TIMEOUT", "")
    try:
        task_timeout = float(timeout_env) if timeout_env else None
    except ValueError:
        raise ConfigError("REPRO_TASK_TIMEOUT must be a number") from None
    fault = {"retries": retries, "task_timeout": task_timeout}
    if scale == "paper":
        return ExperimentConfig(
            scale="paper",
            unconstrained_size=160_000,
            constrained_size=80_000,
            num_runs=100,
            cache_dir=cache,
            workers=workers,
            **fault,
        )
    if scale == "smoke":
        return ExperimentConfig(
            scale="smoke",
            unconstrained_size=5_000,
            constrained_size=4_000,
            num_runs=5,
            srs_budgets=(500, 1_000, 2_000),
            circuits=("c432", "c880", "c1355"),
            cache_dir=cache,
            workers=workers,
            **fault,
        )
    if scale != "ci":
        raise ConfigError(f"unknown REPRO_SCALE {scale!r}")
    return ExperimentConfig(cache_dir=cache, workers=workers, **fault)
