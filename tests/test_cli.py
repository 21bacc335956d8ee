"""Command-line interface."""

import re

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_estimate_defaults(self):
        args = build_parser().parse_args(["estimate", "c432"])
        assert args.population == 20_000
        assert args.mode == "zero"
        assert args.error == 0.05
        assert args.workers == 1

    def test_experiment_workers_flag(self):
        args = build_parser().parse_args(
            ["experiment", "table1", "--workers", "4"]
        )
        assert args.workers == 4
        # default: defer to REPRO_WORKERS / config default
        assert build_parser().parse_args(
            ["experiment", "table1"]
        ).workers is None

    def test_experiment_fault_flags(self):
        args = build_parser().parse_args(
            [
                "experiment",
                "table1",
                "--retries",
                "2",
                "--task-timeout",
                "30",
                "--checkpoint",
                "ck",
                "--resume",
            ]
        )
        assert args.retries == 2
        assert args.task_timeout == 30.0
        assert str(args.checkpoint) == "ck"
        assert args.resume is True

    def test_experiment_fault_flags_default_to_env(self):
        args = build_parser().parse_args(["experiment", "table1"])
        assert args.retries is None
        assert args.task_timeout is None
        assert args.checkpoint is None
        assert args.resume is False

    def test_obs_flags_default_off(self):
        for argv in (
            ["estimate", "c432"],
            ["experiment", "table1"],
            ["delay", "c432"],
        ):
            args = build_parser().parse_args(argv)
            assert args.trace is None
            assert args.metrics is None

    def test_obs_flags_parse_paths(self):
        args = build_parser().parse_args(
            ["estimate", "c432", "--trace", "t.jsonl", "--metrics", "m.json"]
        )
        assert str(args.trace) == "t.jsonl"
        assert str(args.metrics) == "m.json"

    def test_report_metrics_flag_is_separate_dest(self):
        args = build_parser().parse_args(["report", "--metrics", "m.json"])
        assert args.circuit is None
        assert str(args.metrics_in) == "m.json"


class TestCommands:
    def test_suite_lists_circuits(self, capsys):
        assert main(["suite"]) == 0
        out = capsys.readouterr().out
        for name in ("c432", "c6288", "c7552"):
            assert name in out

    def test_info_builtin(self, capsys):
        assert main(["info", "c432"]) == 0
        out = capsys.readouterr().out
        assert "36 PI" in out
        assert "critical" in out

    def test_info_bench_file(self, tmp_path, capsys, c17):
        from repro.netlist.bench import dump_bench

        path = tmp_path / "mine.bench"
        dump_bench(c17, path)
        assert main(["info", str(path)]) == 0
        assert "5 PI" in capsys.readouterr().out

    def test_info_unknown_circuit_fails_cleanly(self, capsys):
        assert main(["info", "c404"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_estimate_small_pool(self, capsys):
        rc = main(
            [
                "estimate",
                "c432",
                "--population",
                "1500",
                "--seed",
                "3",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "actual max" in out
        assert "relative error" in out

    def test_estimate_constrained_streaming(self, capsys):
        rc = main(
            [
                "estimate",
                "c432",
                "--population",
                "0",
                "--activity",
                "0.7",
                "--seed",
                "1",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "streaming" in out

    def test_experiment_command(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "smoke")
        monkeypatch.setenv("REPRO_CACHE", str(tmp_path / "cache"))
        rc = main(
            [
                "experiment",
                "ablation_fitting",
                "--output-dir",
                str(tmp_path / "out"),
            ]
        )
        assert rc == 0
        assert (tmp_path / "out" / "ablation_fitting.txt").exists()
        assert "Ablation A" in capsys.readouterr().out

    def test_experiment_checkpoint_resume(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "smoke")
        monkeypatch.setenv("REPRO_CACHE", str(tmp_path / "cache"))
        ck = tmp_path / "ck"
        rc = main(
            [
                "experiment",
                "ablation_fitting",
                "--checkpoint",
                str(ck),
                "--resume",
            ]
        )
        assert rc == 0
        first = capsys.readouterr().out
        assert (ck / "ablation_fitting.checkpoint.json").exists()
        # Env-var equivalents resume from the same checkpoint: the
        # rendered table must come back identical without recomputing.
        monkeypatch.setenv("REPRO_CHECKPOINT", str(ck))
        monkeypatch.setenv("REPRO_RESUME", "1")
        assert main(["experiment", "ablation_fitting"]) == 0
        assert capsys.readouterr().out == first

    def test_experiment_unknown_fails_cleanly(self, capsys):
        assert main(["experiment", "table99"]) == 1
        assert "unknown experiment" in capsys.readouterr().err

    def test_report_command(self, capsys):
        assert main(["report", "c432", "--pairs", "500", "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "power report" in out
        assert "top 3 nets" in out

    def test_report_with_activity_constraint(self, capsys):
        assert main(
            ["report", "c432", "--pairs", "500", "--activity", "0.2"]
        ) == 0
        assert "total average power" in capsys.readouterr().out

    def test_transform_command_roundtrip(self, tmp_path, capsys, c17):
        from repro.netlist.bench import dump_bench, load_bench

        src = tmp_path / "c17.bench"
        dump_bench(c17, src)
        dst = tmp_path / "c17_2in.bench"
        assert main(["transform", str(src), "two-input", str(dst)]) == 0
        out = capsys.readouterr().out
        assert "equivalence verified" in out
        assert load_bench(dst).num_gates == c17.num_gates

    def test_transform_nand_grows_circuit(self, tmp_path, capsys):
        from repro.netlist.bench import dump_bench, load_bench
        from repro.netlist.generators import parity_tree

        src = tmp_path / "p4.bench"
        dump_bench(parity_tree(4), src)
        dst = tmp_path / "p4_nand.bench"
        assert main(["transform", str(src), "nand", str(dst)]) == 0
        assert load_bench(dst).num_gates == 12  # 3 XOR * 4 NAND

    def test_delay_command(self, capsys):
        assert main(
            ["delay", "c432", "--n", "10", "--m", "5", "--max-rounds", "4"]
        ) == 0
        out = capsys.readouterr().out
        assert re.search(r"c432-delay: D_max≈[\d.]+ ps CI=", out), out
        assert " W" not in out
        assert "static timing bound" in out

    def test_wave_command_random(self, tmp_path, capsys, c17):
        from repro.netlist.bench import dump_bench
        from repro.sim.vcd import parse_vcd

        src = tmp_path / "c17.bench"
        dump_bench(c17, src)
        dst = tmp_path / "c17.vcd"
        assert main(["wave", str(src), str(dst)]) == 0
        data = parse_vcd(dst.read_text())
        assert set(data.signals) == set(c17.nets)

    def test_wave_command_explicit_vectors(self, tmp_path, capsys, c17):
        from repro.netlist.bench import dump_bench

        src = tmp_path / "c17.bench"
        dump_bench(c17, src)
        dst = tmp_path / "c17.vcd"
        assert main(
            ["wave", str(src), str(dst), "--vectors", "00000,11111"]
        ) == 0
        assert "transitions" in capsys.readouterr().out

    def test_wave_bad_vector_spec(self, tmp_path, capsys, c17):
        from repro.netlist.bench import dump_bench

        src = tmp_path / "c17.bench"
        dump_bench(c17, src)
        assert main(
            ["wave", str(src), str(tmp_path / "o.vcd"), "--vectors", "0101"]
        ) == 1

    def test_estimate_with_trace_and_metrics(self, tmp_path, capsys):
        import json

        from repro.obs import get_registry, get_span_recorder, load_trace

        trace = tmp_path / "run.jsonl"
        metrics = tmp_path / "metrics.json"
        rc = main(
            [
                "estimate",
                "c432",
                "--population",
                "1500",
                "--seed",
                "3",
                "--trace",
                str(trace),
                "--metrics",
                str(metrics),
            ]
        )
        assert rc == 0
        err = capsys.readouterr().err
        assert "trace written to" in err
        assert "metrics written to" in err
        spans = load_trace(trace)
        assert any(s["name"] == "estimator.hyper_sample" for s in spans)
        assert any(
            s["name"] == "estimator.run" and "converged" in s["attributes"]
            for s in spans
        )
        snap = json.loads(metrics.read_text())
        names = {c["name"] for c in snap["counters"]}
        assert "estimator_runs_total" in names
        assert "estimator_units_total" in names
        # the CLI session restores the globally-disabled default
        assert not get_registry().enabled
        spans = get_span_recorder()
        assert not spans.enabled
        # the sink is closed: nothing more reaches the trace file
        lines = trace.read_text()
        spans.enable()
        try:
            spans.emit("after")
        finally:
            spans.disable()
            spans.reset()
        assert trace.read_text() == lines

    def test_estimate_metrics_prom_format(self, tmp_path, capsys):
        metrics = tmp_path / "metrics.prom"
        rc = main(
            [
                "estimate",
                "c432",
                "--population",
                "1500",
                "--seed",
                "3",
                "--metrics",
                str(metrics),
            ]
        )
        assert rc == 0
        assert "# TYPE repro_estimator_runs_total counter" in metrics.read_text()

    def test_trace_env_var(self, tmp_path, capsys, monkeypatch):
        from repro.obs import load_trace

        trace = tmp_path / "env.jsonl"
        monkeypatch.setenv("REPRO_TRACE", str(trace))
        rc = main(["estimate", "c432", "--population", "1500", "--seed", "3"])
        assert rc == 0
        assert any(s["name"] == "estimator.run" for s in load_trace(trace))

    def test_unwritable_trace_path_fails_before_compute(self, tmp_path, capsys):
        trace = tmp_path / "missing" / "t.jsonl"
        rc = main(
            ["estimate", "c432", "--population", "1500", "--trace", str(trace)]
        )
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: cannot write trace to {trace}")
        assert "Traceback" not in captured.err
        assert captured.out == ""  # nothing was estimated

    def test_unwritable_metrics_path_fails_before_compute(self, tmp_path, capsys):
        from repro.obs import get_registry

        metrics = tmp_path / "missing" / "m.json"
        rc = main(
            ["estimate", "c432", "--population", "1500", "--metrics", str(metrics)]
        )
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: cannot write metrics to {metrics}")
        assert "metrics written" not in captured.err
        assert captured.out == ""  # nothing was estimated
        assert not get_registry().enabled

    def test_report_metrics_on_trace_and_snapshot(self, tmp_path, capsys):
        trace = tmp_path / "run.jsonl"
        metrics = tmp_path / "metrics.json"
        assert main(
            [
                "estimate",
                "c432",
                "--population",
                "1500",
                "--seed",
                "3",
                "--trace",
                str(trace),
                "--metrics",
                str(metrics),
            ]
        ) == 0
        capsys.readouterr()

        assert main(["report", "--metrics", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "convergence diagnostics" in out
        assert "rel CI half-width by k" in out

        assert main(["report", "--metrics", str(metrics)]) == 0
        out = capsys.readouterr().out
        assert "convergence diagnostics" in out
        assert "runs: 1" in out

    def test_report_metrics_on_pot_trace(self, tmp_path, capsys):
        trace = tmp_path / "pot.jsonl"
        assert main(
            [
                "estimate",
                "c432",
                "--population",
                "1500",
                "--seed",
                "3",
                "--method",
                "pot",
                "--pot-threshold",
                "0.9",
                "--trace",
                str(trace),
            ]
        ) == 0
        capsys.readouterr()

        assert main(["report", "--metrics", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "runs: 1" in out
        assert "rel CI half-width by k" in out

    def test_report_metrics_on_auto_and_pot_runs(self, tmp_path, capsys):
        import re

        def estimate_and_report(name, *method_args):
            metrics = tmp_path / f"{name}.json"
            argv = ["estimate", "c432", "--population", "2000", "--seed", "3"]
            assert main([*argv, *method_args, "--metrics", str(metrics)]) == 0
            k = int(re.search(r"k=(\d+)", capsys.readouterr().out).group(1))
            assert main(["report", "--metrics", str(metrics)]) == 0
            return k, capsys.readouterr().out

        # auto: the pilot's standalone hyper-samples are not rounds.
        k, report = estimate_and_report("auto", "--method", "auto")
        assert f"avg k = {k:.1f})" in report
        hypers, outside = re.search(
            r"hyper-samples: (\d+), (\d+) outside runs", report
        ).groups()
        assert int(hypers) - int(outside) == k
        assert "units drawn by all hyper-samples: " in report
        # The non-regular rate is over the Weibull fits, as alpha-hat's is.
        rate, fits = re.search(
            r"non-regular fits \(alpha<=2\) ([\d.]+%) of (\d+) Weibull fits",
            report,
        ).groups()
        assert f"over {fits} fits, {rate} at alpha <= 2" in report

        # pot: no Weibull fit, so no non-regular rate.
        k, report = estimate_and_report(
            "pot", "--method", "pot", "--pot-threshold", "0.9"
        )
        assert f"avg k = {k:.1f})" in report
        assert f"hyper-samples: {k} (" in report
        assert "non-regular" not in report
        assert "alpha-hat" not in report

    def test_report_without_circuit_or_metrics_fails(self, capsys):
        assert main(["report"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_transform_no_verify_skips_check(self, tmp_path, capsys, c17):
        from repro.netlist.bench import dump_bench

        src = tmp_path / "c17.bench"
        dump_bench(c17, src)
        dst = tmp_path / "out.bench"
        assert main(
            ["transform", str(src), "sweep", str(dst), "--no-verify"]
        ) == 0
        assert "equivalence" not in capsys.readouterr().out
