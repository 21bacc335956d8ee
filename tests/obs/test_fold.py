"""Metrics fold from spans: the same numbers with or without a trace,
and a trace file folded again reproduces them."""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.obs import FOLDS, fold_spans, load_metrics_file, load_trace

SPAN_DERIVED = {fold.metric for fold in FOLDS}

METHODS = {
    "fixed": [],
    "pot": ["--method", "pot", "--pot-threshold", "0.9"],
    "auto": ["--method", "auto"],
}


def series(items, value):
    return {
        (item["name"], tuple(sorted(item["labels"].items()))): value(item)
        for item in items
    }


def aggregates(snapshot, names=None):
    """Counter values, histogram bucket counts and timer counts."""
    def keep(items):
        return [i for i in items if names is None or i["name"] in names]
    return (
        series(keep(snapshot["counters"]), lambda c: c["value"]),
        series(keep(snapshot["histograms"]), lambda h: h["counts"]),
        series(keep(snapshot["timers"]), lambda t: t["count"]),
    )


def estimate(tmp_path, method, tag, trace):
    metrics = tmp_path / f"{method}-{tag}.json"
    args = ["estimate", "c432", "--population", "2000", "--seed", "3",
            *METHODS[method], "--metrics", str(metrics)]
    if trace:
        args += ["--trace", str(tmp_path / f"{method}.jsonl")]
    assert main(args) == 0
    return load_metrics_file(metrics)


@pytest.mark.parametrize("method", sorted(METHODS))
def test_metrics_equal_with_and_without_spans(tmp_path, method, capsys):
    metrics_only = estimate(tmp_path, method, "metrics", trace=False)
    untraced_out = capsys.readouterr().out
    traced = estimate(tmp_path, method, "traced", trace=True)
    assert capsys.readouterr().out == untraced_out
    assert metrics_only["counters"], "no counters recorded"
    assert aggregates(metrics_only) == aggregates(traced)

    # The trace file, folded again, is the span-derived part of the
    # snapshot: same counts, and the same timer sums.
    records = load_trace(tmp_path / f"{method}.jsonl")
    refolded = fold_spans(records).snapshot()
    assert aggregates(refolded) == aggregates(traced, SPAN_DERIVED)
    sums = series(refolded["timers"], lambda t: t["total"])
    assert sums == pytest.approx(
        series([t for t in traced["timers"] if t["name"] in SPAN_DERIVED],
               lambda t: t["total"])
    )
