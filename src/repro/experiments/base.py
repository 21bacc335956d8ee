"""Common result container for experiments."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Sequence

from ..obs.spans import jsonable
from .tables import render_table, to_csv

__all__ = ["ExperimentTable", "TABLE_SCHEMA"]

#: Schema tag embedded in serialized tables (bump on breaking change).
TABLE_SCHEMA = "repro.experiment_table/v1"


@dataclass
class ExperimentTable:
    """A rendered-table experiment result.

    Attributes
    ----------
    experiment_id:
        Paper artifact id (``"table1"`` ... ``"figure2"``, ablations).
    title:
        Human-readable caption.
    headers, rows:
        Tabular payload.
    notes:
        Free-form commentary (assumptions, scale).
    data:
        Raw arrays/objects for programmatic consumers (plots, tests).
    """

    experiment_id: str
    title: str
    headers: Sequence[str]
    rows: List[Sequence[object]]
    notes: str = ""
    data: Dict[str, object] = field(default_factory=dict)

    def render(self) -> str:
        text = render_table(self.title, self.headers, self.rows)
        if self.notes:
            text += f"\n{self.notes}"
        return text

    def csv(self) -> str:
        return to_csv(self.headers, self.rows)

    def save(self, directory: Path) -> Path:
        """Write ``<id>.txt`` and ``<id>.csv`` into ``directory``."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        (directory / f"{self.experiment_id}.txt").write_text(
            self.render() + "\n"
        )
        path = directory / f"{self.experiment_id}.csv"
        path.write_text(self.csv())
        return path

    # -- serialization (experiment checkpoints) ------------------------
    def to_dict(self) -> dict:
        """JSON-able dump used by the ``run_all --resume`` checkpoints.

        The rendered payload (``title``/``headers``/``rows``/``notes``)
        round-trips exactly, so a resumed table renders and saves
        byte-identically to the original.  ``data`` is coerced on a
        best-effort basis (numpy values unwrapped, rich result objects
        stringified): programmatic consumers needing full-fidelity
        ``data`` should re-run the experiment rather than resume it.
        """
        return {
            "schema": TABLE_SCHEMA,
            "experiment_id": self.experiment_id,
            "title": self.title,
            "headers": [str(h) for h in self.headers],
            "rows": [jsonable(list(row)) for row in self.rows],
            "notes": self.notes,
            "data": jsonable(self.data),
        }

    def to_json(self, indent: "int | None" = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentTable":
        return cls(
            experiment_id=str(data["experiment_id"]),
            title=str(data["title"]),
            headers=list(data["headers"]),
            rows=[tuple(row) for row in data.get("rows", ())],
            notes=str(data.get("notes", "")),
            data=dict(data.get("data", {})),
        )

    @classmethod
    def from_json(cls, text: str) -> "ExperimentTable":
        return cls.from_dict(json.loads(text))
