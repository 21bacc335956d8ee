"""Exporters: Prometheus text rendering, file round trips, reports."""

import pytest

from repro.errors import ConfigError
from repro.obs import (
    MetricsRegistry,
    convergence_report,
    load_metrics_file,
    phase_timings,
    render_prometheus,
    write_metrics_file,
)


@pytest.fixture
def snapshot():
    reg = MetricsRegistry(enabled=True)
    reg.counter("estimator_runs_total").inc(4)
    reg.counter("estimator_runs_converged_total").inc(3)
    reg.counter("estimator_hyper_samples_total").inc(20)
    reg.counter("estimator_units_total").inc(6000)
    reg.counter("mle_fit_errors_total", cause="degenerate").inc(2)
    reg.counter("mle_refine_total", path="root").inc(4)
    reg.counter("mle_refine_total", path="edge").inc(15)
    reg.gauge("population_size").set(8000)
    t = reg.timer("estimator_run_seconds")
    t.observe(0.25)
    t.observe(0.75)
    h = reg.histogram("estimator_alpha", buckets=(1.0, 2.0, 4.0))
    h.observe(1.5)
    h.observe(3.0)
    h.observe(9.0)
    return reg.snapshot()


class TestPrometheus:
    def test_counter_gauge_lines(self, snapshot):
        text = render_prometheus(snapshot)
        assert "# TYPE repro_estimator_runs_total counter" in text
        assert "repro_estimator_runs_total 4" in text
        assert 'repro_mle_fit_errors_total{cause="degenerate"} 2' in text
        assert "# TYPE repro_population_size gauge" in text
        assert "repro_population_size 8000" in text

    def test_timer_summary_lines(self, snapshot):
        text = render_prometheus(snapshot)
        assert "# TYPE repro_estimator_run_seconds summary" in text
        assert "repro_estimator_run_seconds_count 2" in text
        assert "repro_estimator_run_seconds_sum 1" in text
        assert "repro_estimator_run_seconds_min 0.25" in text
        assert "repro_estimator_run_seconds_max 0.75" in text

    def test_histogram_buckets_are_cumulative(self, snapshot):
        text = render_prometheus(snapshot)
        assert 'repro_estimator_alpha_bucket{le="1"} 0' in text
        assert 'repro_estimator_alpha_bucket{le="2"} 1' in text
        assert 'repro_estimator_alpha_bucket{le="4"} 2' in text
        assert 'repro_estimator_alpha_bucket{le="+Inf"} 3' in text
        assert "repro_estimator_alpha_count 3" in text
        assert "repro_estimator_alpha_sum 13.5" in text

    def test_custom_prefix(self, snapshot):
        text = render_prometheus(snapshot, prefix="x_")
        assert "x_estimator_runs_total 4" in text


class TestScrapeFormatValid:
    """Validate the exposition against the Prometheus text-format spec:
    exactly one HELP/TYPE per family, samples contiguous under their
    family header, legal sample names for each type, escaped labels."""

    def _parse(self, text):
        families = {}
        current = None
        for line in text.splitlines():
            if not line:
                continue
            if line.startswith("# HELP "):
                name = line.split(" ", 3)[2]
                assert name not in families, f"duplicate HELP for {name}"
                current = families[name] = {"help": line, "type": None, "samples": []}
            elif line.startswith("# TYPE "):
                _, _, name, kind = line.split(" ", 3)
                assert current is not None and name in families
                assert families[name]["type"] is None, f"duplicate TYPE for {name}"
                families[name]["type"] = kind
            else:
                assert current is not None, f"sample before any family: {line}"
                sample = line.split("{")[0].split(" ")[0]
                current["samples"].append((sample, line))
        return families

    def test_every_family_has_help_and_type(self, snapshot):
        families = self._parse(render_prometheus(snapshot))
        assert families
        for name, family in families.items():
            assert family["type"] in ("counter", "gauge", "summary", "histogram")
            assert family["help"].startswith(f"# HELP {name} ")
            assert family["samples"], f"family {name} has no samples"

    def test_sample_names_legal_for_type(self, snapshot):
        families = self._parse(render_prometheus(snapshot))
        for name, family in families.items():
            for sample, _ in family["samples"]:
                if family["type"] == "summary":
                    assert sample in (f"{name}_count", f"{name}_sum")
                elif family["type"] == "histogram":
                    assert sample in (
                        f"{name}_bucket", f"{name}_count", f"{name}_sum"
                    )
                else:
                    assert sample == name

    def test_histogram_bucket_counts_monotone_and_inf_total(self, snapshot):
        families = self._parse(render_prometheus(snapshot))
        for name, family in families.items():
            if family["type"] != "histogram":
                continue
            counts = []
            for sample, line in family["samples"]:
                if sample == f"{name}_bucket":
                    counts.append(float(line.rsplit(" ", 1)[1]))
            assert counts == sorted(counts)
            count_line = next(
                line for sample, line in family["samples"]
                if sample == f"{name}_count"
            )
            assert counts[-1] == float(count_line.rsplit(" ", 1)[1])
            assert 'le="+Inf"' in family["samples"][len(counts) - 1][1]

    def test_label_values_escaped(self):
        reg = MetricsRegistry(enabled=True)
        reg.counter(
            "mle_fit_errors_total", cause='quo"te\\back\nnewline'
        ).inc()
        text = render_prometheus(reg.snapshot())
        assert '\\"' in text and "\\n" in text and "\\\\" in text
        # one line per sample: the newline must not split the exposition
        sample_lines = [
            line for line in text.splitlines()
            if line and not line.startswith("#")
        ]
        assert len(sample_lines) == 1

    def test_timer_min_max_are_their_own_gauge_families(self, snapshot):
        families = self._parse(render_prometheus(snapshot))
        assert families["repro_estimator_run_seconds"]["type"] == "summary"
        assert families["repro_estimator_run_seconds_min"]["type"] == "gauge"
        assert families["repro_estimator_run_seconds_max"]["type"] == "gauge"


class TestFileRoundTrip:
    def test_json_snapshot_round_trip(self, snapshot, tmp_path):
        path = write_metrics_file(tmp_path / "m.json", snapshot)
        assert load_metrics_file(path) == snapshot

    def test_prom_suffix_writes_text_format(self, snapshot, tmp_path):
        path = write_metrics_file(tmp_path / "m.prom", snapshot)
        assert "# TYPE repro_estimator_runs_total counter" in path.read_text()

    def test_load_rejects_non_snapshot(self, tmp_path):
        bad = tmp_path / "x.json"
        bad.write_text('{"hello": 1}')
        with pytest.raises(ConfigError, match="metrics snapshot"):
            load_metrics_file(bad)
        bad.write_text("not json")
        with pytest.raises(ConfigError):
            load_metrics_file(bad)


class TestPhaseTimings:
    def test_timers_keyed_with_labels(self):
        reg = MetricsRegistry(enabled=True)
        reg.timer("experiment_seconds", experiment="table1").observe(2.0)
        reg.timer("mle_fit_seconds").observe(0.5)
        reg.timer("mle_fit_seconds").observe(1.5)
        phases = phase_timings(reg.snapshot())
        assert phases['experiment_seconds{experiment="table1"}'] == {
            "count": 1,
            "total_s": 2.0,
            "mean_s": 2.0,
        }
        assert phases["mle_fit_seconds"]["count"] == 2
        assert phases["mle_fit_seconds"]["mean_s"] == 1.0


class TestConvergenceReport:
    def test_metrics_section(self, snapshot):
        report = convergence_report(snapshot=snapshot)
        assert "convergence diagnostics" in report
        assert "runs: 4 (75.0% converged" in report
        assert "hyper-samples: 20" in report
        assert "alpha-hat:" in report
        assert "degenerate: 2" in report
        assert "mle refinement: edge 15, root 4" in report
        assert "wall-clock by phase:" in report

    def test_trace_section(self):
        def span(name, span_id, parent_id=None, start_ts=0.0, **attributes):
            return {
                "trace_id": "t" * 32, "span_id": span_id,
                "parent_id": parent_id, "name": name, "start_ts": start_ts,
                "duration_s": 0.1, "status": "ok", "attributes": attributes,
            }

        spans = [
            span("estimator.hyper_sample", "h1", "r1", k=1, alpha=3.0,
                 rel_half_width=None),
            span("estimator.hyper_sample", "h2", "r1", k=2, alpha=4.0,
                 rel_half_width=0.04),
            span("mle.fit", "f1", "h1", alpha=3.0),
            span("estimator.run", "r1", converged=True, k=2, units_used=600),
        ]
        report = convergence_report(trace_events=spans)
        assert "runs: 1 (1 converged)" in report
        assert "hyper-samples: 2, fallbacks: 0" in report
        assert "run-1: rel CI half-width by k: -- 0.040" in report

        # runs are numbered by start order, whatever the record order
        spans.append(
            span("estimator.run", "r0", start_ts=-1.0, converged=False,
                 k=1, units_used=300)
        )
        spans.append(
            span("estimator.hyper_sample", "h0", "r0", k=1, alpha=5.0,
                 rel_half_width="nan")
        )
        report = convergence_report(trace_events=spans)
        assert "runs: 2 (1 converged)" in report
        assert "run-1: rel CI half-width by k: --\n" in report
        assert "run-2: rel CI half-width by k: -- 0.040" in report

    def test_empty_inputs(self):
        report = convergence_report(snapshot={"counters": []})
        assert "(no estimation metrics recorded)" in report
        report = convergence_report(trace_events=[])
        assert "(no estimation events in trace)" in report
        with pytest.raises(ConfigError):
            convergence_report()
