"""Experiment registry and batch runner.

Fault tolerance: ``run_experiment``/``run_all`` can checkpoint each
completed :class:`~repro.experiments.base.ExperimentTable` to
``<checkpoint_dir>/<name>.checkpoint.json`` (written atomically, so a
kill mid-write never leaves a corrupt file) and, with ``resume=True``,
skip experiments whose checkpoint matches the current configuration —
a ``run_all`` sweep killed mid-flight re-simulates only its unfinished
experiments and produces identical tables.  Checkpoints embed a config
key covering every result-affecting knob; a stale checkpoint (different
scale, seed, circuits, ...) is ignored and the experiment re-run.
"""

from __future__ import annotations

import dataclasses
import json
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

from ..errors import ConfigError
from ..obs.metrics import get_registry
from ..obs.spans import get_span_recorder
from .ablations import (
    run_ablation_finite_population,
    run_ablation_fitting,
    run_ablation_mapping,
    run_ablation_sample_size,
)
from .base import ExperimentTable
from .config import ExperimentConfig, default_config
from .extension_delay import run_extension_delay
from .extension_pot import run_extension_pot
from .figure1 import run_figure1
from .figure2 import run_figure2
from .table1 import run_table1
from .table2 import run_table2
from .table3 import run_table3
from .table4 import run_table4

__all__ = ["EXPERIMENTS", "run_experiment", "run_all"]

EXPERIMENTS: Dict[str, Callable[[Optional[ExperimentConfig]], ExperimentTable]] = {
    "figure1": run_figure1,
    "figure2": run_figure2,
    "table1": run_table1,
    "table2": run_table2,
    "table3": run_table3,
    "table4": run_table4,
    "ablation_fitting": run_ablation_fitting,
    "ablation_sample_size": run_ablation_sample_size,
    "ablation_finite_pop": run_ablation_finite_population,
    "ablation_mapping": run_ablation_mapping,
    "extension_delay": run_extension_delay,
    "extension_pot": run_extension_pot,
}

# A resumed experiment is a ``checkpoint`` span and a run an
# ``experiment.run`` span; checkpoint writes and stale checkpoints
# record no span, so they keep a counter.
_METRICS = get_registry()
_SPANS = get_span_recorder()

#: Schema tag of experiment checkpoint files.
EXPERIMENT_CHECKPOINT_SCHEMA = "repro.experiment_checkpoint/v1"

#: Config fields that do *not* affect experiment results and are
#: therefore excluded from the checkpoint config key (a sweep may be
#: resumed with a different worker count, cache location, or
#: fault-tolerance policy and still reuse its checkpoints).
_NON_RESULT_FIELDS = frozenset(
    {"cache_dir", "workers", "retries", "task_timeout"}
)


def _config_key(config: ExperimentConfig) -> dict:
    """The result-affecting subset of the configuration, JSON-able."""
    key = {}
    for f in dataclasses.fields(config):
        if f.name in _NON_RESULT_FIELDS:
            continue
        value = getattr(config, f.name)
        key[f.name] = list(value) if isinstance(value, tuple) else value
    return key


def _checkpoint_path(checkpoint_dir: Path, name: str) -> Path:
    return Path(checkpoint_dir) / f"{name}.checkpoint.json"


def _load_experiment_checkpoint(
    path: Path, name: str, key: dict
) -> Optional[ExperimentTable]:
    """A checkpointed table, or None when absent/corrupt/stale."""
    if not path.exists():
        return None
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return None  # unreadable or torn file: recompute
    if (
        not isinstance(payload, dict)
        or payload.get("schema") != EXPERIMENT_CHECKPOINT_SCHEMA
        or payload.get("experiment") != name
    ):
        return None
    if payload.get("config_key") != key:
        _METRICS.counter(
            "experiment_checkpoints_total", status="stale"
        ).inc()
        return None
    try:
        return ExperimentTable.from_dict(payload["table"])
    except (KeyError, TypeError, ValueError):
        return None


def _write_experiment_checkpoint(
    path: Path, name: str, key: dict, table: ExperimentTable
) -> None:
    """Atomic write (temp + rename): a kill mid-write leaves no file."""
    payload = {
        "schema": EXPERIMENT_CHECKPOINT_SCHEMA,
        "experiment": name,
        "config_key": key,
        "table": table.to_dict(),
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(json.dumps(payload), encoding="utf-8")
    tmp.replace(path)
    _METRICS.counter("experiment_checkpoints_total", status="written").inc()


def run_experiment(
    name: str,
    config: Optional[ExperimentConfig] = None,
    *,
    checkpoint_dir: Optional[Path] = None,
    resume: bool = False,
) -> ExperimentTable:
    """Run one registered experiment by id.

    The experiment runs under an ``experiment.run`` span (the
    ``experiment_seconds{experiment=<name>}`` timer folds from it), and
    its wall-clock is stored in the returned table's
    ``data["wall_time_s"]``.

    With ``checkpoint_dir`` set, the completed table is persisted there;
    with ``resume=True`` as well, a matching existing checkpoint is
    loaded back instead of re-running the experiment (stale or corrupt
    checkpoints are ignored and overwritten).
    """
    try:
        runner = EXPERIMENTS[name]
    except KeyError:
        raise ConfigError(
            f"unknown experiment {name!r}; choose from {sorted(EXPERIMENTS)}"
        ) from None
    if resume and checkpoint_dir is None:
        raise ConfigError("resume=True requires a checkpoint_dir")
    key = None
    if checkpoint_dir is not None:
        key = _config_key(config or default_config())
        if resume:
            table = _load_experiment_checkpoint(
                _checkpoint_path(checkpoint_dir, name), name, key
            )
            if table is not None:
                _SPANS.emit(
                    "checkpoint", kind="experiment", action="resume", name=name
                )
                return table
    with _SPANS.span("experiment.run", name=name) as span:
        start = time.perf_counter()
        table = runner(config)
        elapsed = time.perf_counter() - start
        span.set(seconds=elapsed, rows=len(table.rows))
    table.data.setdefault("wall_time_s", elapsed)
    if checkpoint_dir is not None:
        _write_experiment_checkpoint(
            _checkpoint_path(checkpoint_dir, name), name, key, table
        )
    return table


def _prepare_output_dir(output_dir: Path) -> Path:
    """Validate the artifact directory up front, before any compute.

    Failing here — rather than at the first ``table.save`` mid-sweep —
    means a bad ``--output-dir`` costs seconds, not the minutes of
    already-completed experiments.
    """
    output_dir = Path(output_dir)
    try:
        output_dir.mkdir(parents=True, exist_ok=True)
        probe = output_dir / ".write_probe"
        probe.write_text("")
        probe.unlink()
    except OSError as exc:
        raise ConfigError(
            f"output_dir {output_dir} is not writable: {exc}"
        ) from exc
    return output_dir


def _save_table(table: ExperimentTable, output_dir: Path) -> None:
    try:
        table.save(output_dir)
    except OSError as exc:
        raise ConfigError(
            f"failed to save {table.experiment_id!r} artifacts to "
            f"{output_dir}: {exc}"
        ) from exc


def run_all(
    config: Optional[ExperimentConfig] = None,
    output_dir: Optional[Path] = None,
    *,
    checkpoint_dir: Optional[Path] = None,
    resume: bool = False,
) -> List[ExperimentTable]:
    """Run every experiment, optionally saving .txt/.csv per artifact.

    Filesystem problems surface as :class:`~repro.errors.ConfigError` —
    the output directory is probed for writability before the first
    experiment runs, and each per-table save failure is wrapped with
    the experiment id.  Per-experiment wall-clock lands in the
    ``experiment_seconds`` timers and each table's
    ``data["wall_time_s"]``.

    With ``checkpoint_dir`` (or ``resume=True``, which defaults it to
    ``<output_dir>/.checkpoints``), each completed experiment is
    checkpointed as it finishes and — on resume — experiments already
    checkpointed under the same configuration are loaded instead of
    re-simulated, so a killed sweep restarted with ``resume=True``
    re-runs only its unfinished experiments and saves identical
    artifacts.
    """
    config = config or default_config()
    if resume and checkpoint_dir is None:
        if output_dir is None:
            raise ConfigError(
                "resume=True requires a checkpoint_dir (or an output_dir "
                "to derive <output_dir>/.checkpoints from)"
            )
        checkpoint_dir = Path(output_dir) / ".checkpoints"
    if output_dir is not None:
        output_dir = _prepare_output_dir(output_dir)
    if checkpoint_dir is not None:
        checkpoint_dir = _prepare_output_dir(checkpoint_dir)
    results = []
    for name in EXPERIMENTS:
        table = run_experiment(
            name, config, checkpoint_dir=checkpoint_dir, resume=resume
        )
        if output_dir is not None:
            _save_table(table, output_dir)
        results.append(table)
    return results
