"""The metric catalog in ``docs/observability.md`` against the code: every
family has its own HELP line, and the "folds from" column is the fold
table."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.obs import FOLDS, render_prometheus

DOCS = Path(__file__).resolve().parents[2] / "docs" / "observability.md"

_ROW = re.compile(r"^\| `(\w+)` \| (\w+) \|([^|]*)\|([^|]*)\|")


def catalog():
    """``{name: (kind, spans)}`` per row of the metric catalog table."""
    text = DOCS.read_text()
    section = text[text.index("## Metric catalog"):]
    section = section[:section.index("\n## ")]
    rows = {}
    for line in section.splitlines():
        match = _ROW.match(line)
        if match:
            name, kind, _labels, folds_from = match.groups()
            rows[name] = (kind, set(re.findall(r"`([\w.]+)`", folds_from)))
    return rows


def test_catalog_is_parsed():
    rows = catalog()
    assert len(rows) > 40
    assert rows["estimator_k"] == ("histogram", {"estimator.run"})
    assert rows["service_lease_reclaims"] == ("counter", set())


@pytest.mark.parametrize("name", sorted(catalog()))
def test_every_catalog_family_has_its_own_help_line(name):
    kind, _spans = catalog()[name]
    item = {"name": name, "labels": {}}
    snapshot = {"counters": [], "gauges": [], "timers": [], "histograms": []}
    if kind in ("counter", "gauge"):
        snapshot[kind + "s"].append({**item, "value": 1.0})
    elif kind == "timer":
        snapshot["timers"].append(
            {**item, "count": 1, "total": 1.0, "min": 1.0, "max": 1.0}
        )
    else:
        assert kind == "histogram", kind
        snapshot["histograms"].append(
            {**item, "bounds": [1.0], "counts": [1, 0], "sum": 1.0, "count": 1}
        )
    text = render_prometheus(snapshot)
    helps = [line for line in text.splitlines() if line.startswith("# HELP")]
    assert helps
    for line in helps:
        assert "recorded by the repro pipeline" not in line, line


def test_folds_from_column_is_the_fold_table():
    documented = {
        name: spans for name, (_kind, spans) in catalog().items() if spans
    }
    folded = {}
    for fold in FOLDS:
        folded.setdefault(fold.metric, set()).add(fold.span)
    assert documented == folded
    kinds = {fold.metric: fold.kind for fold in FOLDS}
    for name, kind in kinds.items():
        assert catalog()[name][0] == kind, name
