"""JSONL checkpointing for the parallel estimation drivers.

A checkpoint file makes ``run_many``/``hyper_sample_many`` resumable:
every completed task's result is appended as one JSON line the moment it
finishes, so a crashed or killed sweep only loses the in-flight tasks.
On resume, completed indices are loaded back (through the
``to_dict``/``from_dict`` serialization of
:mod:`repro.estimation.result`) and never re-simulated.

File layout (one JSON object per line)::

    {"schema": "repro.checkpoint/v1", "schema_version": "1.0",
     "kind": "run_many", "key": "<seed key>", "total": 20}   # header, line 1
    {"index": 7, "result": {...}}               # one line per task
    ...

The ``key`` binds the checkpoint to the exact ``(base_seed, num_runs)``
pair that spawned the per-task ``SeedSequence`` streams — resuming with
a different seed or run count raises
:class:`~repro.errors.ConfigError` instead of silently mixing streams.

Robustness: a process killed mid-write leaves a truncated final line;
the loader tolerates (and discards) any trailing garbage, and the file
is compacted on resume so the retained prefix is always clean JSONL.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple, Union

from ..errors import ConfigError
from ..schemas import (
    SCHEMA_VERSION,
    check_schema_version,
)
from ..schemas import CHECKPOINT_SCHEMA as _CHECKPOINT_SCHEMA

__all__ = ["CheckpointWriter", "open_checkpoint"]


class CheckpointWriter:
    """Append-only JSONL sink for completed task results.

    Each :meth:`write` appends one line and flushes it, so a ``kill -9``
    of the driver never loses a completed (written) task.
    """

    def __init__(self, path: Path, header: dict):
        self._path = Path(path)
        exists = self._path.exists() and self._path.stat().st_size > 0
        self._handle = open(self._path, "a", encoding="utf-8")
        if not exists:
            self._handle.write(json.dumps(header, sort_keys=True) + "\n")
            self._handle.flush()

    @property
    def path(self) -> Path:
        return self._path

    def write(self, index: int, result) -> None:
        """Persist one completed task (``result`` must have ``to_dict``)."""
        line = json.dumps({"index": int(index), "result": result.to_dict()})
        self._handle.write(line + "\n")
        self._handle.flush()

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "CheckpointWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _read_tolerant(path: Path) -> Tuple[Optional[dict], Dict[int, dict]]:
    """Parse header + records, discarding everything after the first
    corrupt line (a kill mid-write truncates at most the last one)."""
    header: Optional[dict] = None
    records: Dict[int, dict] = {}
    with open(path, encoding="utf-8") as handle:
        for line_no, line in enumerate(handle):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError:
                break
            if line_no == 0:
                if not (
                    isinstance(obj, dict) and obj.get("schema") == _CHECKPOINT_SCHEMA
                ):
                    break
                header = obj
            elif isinstance(obj, dict) and "index" in obj and "result" in obj:
                records[int(obj["index"])] = obj["result"]
            else:
                break
    return header, records


def open_checkpoint(
    path: Union[str, Path],
    *,
    kind: str,
    key: str,
    total: int,
    resume: bool,
    from_dict: Callable[[dict], object],
) -> Tuple[Dict[int, object], CheckpointWriter]:
    """Open ``path`` for checkpointing; return ``(loaded, writer)``.

    With ``resume=False`` any existing file is overwritten and
    ``loaded`` is empty.  With ``resume=True`` an existing file is
    validated against ``(kind, key, total)`` (mismatch raises
    :class:`~repro.errors.ConfigError`), its completed records are
    deserialized into ``loaded`` and the file is compacted in place so
    subsequent appends extend clean JSONL.
    """
    path = Path(path)
    header = {
        "schema": _CHECKPOINT_SCHEMA,
        "schema_version": SCHEMA_VERSION,
        "kind": kind,
        "key": key,
        "total": int(total),
    }
    identity = {k: header[k] for k in ("schema", "kind", "key", "total")}
    loaded: Dict[int, object] = {}
    if resume and path.exists() and path.stat().st_size > 0:
        found, records = _read_tolerant(path)
        if found is not None:
            check_schema_version(found, f"checkpoint {path} header")
            stated = {k: found.get(k) for k in ("schema", "kind", "key", "total")}
            if stated != identity:
                raise ConfigError(
                    f"checkpoint {path} was written by a different run "
                    f"(header {stated} != expected {identity}); delete it or "
                    "drop --resume to start fresh"
                )
            records = {i: r for i, r in records.items() if 0 <= i < total}
            # Compact: rewrite the validated prefix so trailing garbage
            # from a mid-write kill never accumulates.
            tmp = path.with_suffix(path.suffix + ".tmp")
            with open(tmp, "w", encoding="utf-8") as out:
                out.write(json.dumps(header, sort_keys=True) + "\n")
                for index in sorted(records):
                    out.write(
                        json.dumps({"index": index, "result": records[index]})
                        + "\n"
                    )
            os.replace(tmp, path)
            loaded = {i: from_dict(r) for i, r in records.items()}
        else:
            # Unrecognizable file: refuse to clobber it silently.
            raise ConfigError(
                f"checkpoint {path} is not a {_CHECKPOINT_SCHEMA} file; "
                "point --checkpoint somewhere else or delete it"
            )
    elif path.exists():
        path.unlink()
    if path.parent and not path.parent.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
    return loaded, CheckpointWriter(path, header)
