"""Tests for the command-line interface."""

import pathlib

import pytest

from repro.bench.experiments import EXPERIMENTS
from repro.cli import build_parser, main


class TestParser:
    def test_all_figures_registered(self):
        names = {experiment.name for experiment in EXPERIMENTS}
        assert names >= {
            "fig01", "fig07", "fig08", "fig09", "fig10",
            "fig11", "fig12", "fig13", "loader",
            "disagg", "spec", "slo", "faults",
        }
        parser = build_parser()
        for name in names:
            assert parser.parse_args([name]).command == name

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_requests_flag_only_on_serving_figures(self):
        parser = build_parser()
        args = parser.parse_args(["fig11", "--requests", "50"])
        assert args.requests == 50
        with pytest.raises(SystemExit):
            parser.parse_args(["fig08", "--requests", "50"])


class TestMain:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig11" in out and "Figure 11" in out

    def test_run_cheap_figure(self, capsys):
        assert main(["fig08"]) == 0
        out = capsys.readouterr().out
        assert "Figure 8" in out
        assert "sgmv_us" in out

    def test_out_directory(self, tmp_path, capsys):
        assert main(["loader", "--out", str(tmp_path)]) == 0
        saved = tmp_path / "sec5_2.txt"
        assert saved.exists()
        assert "On-demand LoRA load" in saved.read_text()

    def test_requests_override(self, capsys):
        assert main(["fig12", "--requests", "8"]) == 0
        out = capsys.readouterr().out
        assert "8 requests" in out


class TestDisaggSubcommand:
    def test_bad_interconnect_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["disagg", "--interconnect", "pigeon"])

    def test_ablation_table(self, tmp_path, capsys):
        assert main(["disagg", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "colocated" in out and "disagg" in out
        assert "p99_itl_ms" in out and "KV handoffs" in out
        assert (tmp_path / "ablation_disagg.txt").exists()

    def test_trace_scenario(self, tmp_path, capsys):
        trace_path = tmp_path / "disagg.jsonl"
        assert main(["trace", "disagg", "--out", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "scenario=disagg" in out
        assert "transfer" in out  # the new latency tile
        assert "KV_TRANSFER_START" in trace_path.read_text()


class TestServeSubcommands:
    def test_bad_backend_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--backend", "quantum"])

    def test_serve_runs_for_duration(self, capsys):
        assert main([
            "serve", "--backend", "sim", "--port", "0", "--duration", "0.1",
        ]) == 0
        out = capsys.readouterr().out
        assert "serving backend=sim" in out

    def test_loadgen_in_process_sim(self, capsys):
        assert main([
            "loadgen", "--backend", "sim", "--clients", "8", "--seed", "0",
            "--cancel-fraction", "0", "--abort-fraction", "0",
            "--slow-fraction", "0",
        ]) == 0
        out = capsys.readouterr().out
        assert "# loadgen backend=sim clients=8 seed=0" in out
        assert "by_status: {'finished': 8}" in out

    def test_loadgen_metrics_flag_prints_prometheus(self, capsys):
        assert main([
            "loadgen", "--backend", "functional", "--clients", "4",
            "--metrics",
        ]) == 0
        out = capsys.readouterr().out
        assert "repro_serve_requests_admitted_total" in out

    def test_trace_serve_scenario(self, tmp_path, capsys):
        trace_path = tmp_path / "serve.jsonl"
        assert main(["trace", "serve", "--out", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "scenario=serve" in out
        text = trace_path.read_text()
        assert "CONNECT" in text and "SHED" in text


class TestPerfSubcommand:
    def test_scenario_default_and_choices(self):
        parser = build_parser()
        assert parser.parse_args(["perf"]).scenario == "fig13_quick"
        for name in ("fig13_quick", "fig13_1m", "all"):
            assert parser.parse_args(["perf", "--scenario", name]).scenario == name

    def test_bad_scenario_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["perf", "--scenario", "fig99_huge"])

    def test_scale_scenario_smoke(self, tmp_path, monkeypatch, capsys):
        """``repro perf --scenario fig13_1m`` runs the wall-budget row
        (shrunk to 500 requests so tier-1 stays fast)."""
        import repro.bench.perf_gate as pg

        monkeypatch.setitem(
            pg.DEFAULT_THRESHOLDS["budgets"]["fig13_1m"], "fraction", 0.0005
        )
        # Sidestep the checked-in JSON: its budgets would merge over the
        # shrunken fraction and run the full 2 % smoke.
        monkeypatch.setattr(pg, "BENCH_JSON", tmp_path / "no_such.json")
        rc = main([
            "perf", "--scenario", "fig13_1m", "--out", str(tmp_path),
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "fig13_1m" in out
        assert "fig13_1m" in (tmp_path / "perf_gate.txt").read_text()


class TestSpecSubcommand:
    @pytest.mark.parametrize("bad", ["0", "-3", "banana"])
    def test_bad_draft_len_rejected(self, bad):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["spec", "--draft-len", bad])

    @pytest.mark.parametrize("argv", [
        ["fig12", "--requests", "0"],
        ["fig11", "--requests", "-5"],
        ["adapters", "list", "--requests", "0"],
        ["faults", "--crash-time", "-5"],
        ["faults", "--crash-time", "nan"],
        ["slo", "--ttft-deadline", "-1"],
        ["slo", "--itl-deadline", "0"],
        ["adapters", "list", "--alpha", "-1"],
    ], ids=" ".join)
    def test_out_of_range_flag_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err

    def test_ablation_table(self, tmp_path, capsys):
        assert main(["spec", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "acceptance" in out and "speedup" in out
        assert "break-even" in out
        saved = tmp_path / "ablation_spec.txt"
        assert saved.exists()
        assert "baseline_itl_ms" in saved.read_text()

    def test_trace_scenario(self, tmp_path, capsys):
        trace_path = tmp_path / "spec.jsonl"
        assert main(["trace", "spec", "--out", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "scenario=spec" in out
        text = trace_path.read_text()
        assert "SPEC_DRAFT" in text
        assert "SPEC_VERIFY" in text
        assert "SPEC_ROLLBACK" in text


class TestSloSubcommand:
    def test_deadline_flags_parsed(self):
        args = build_parser().parse_args(
            ["slo", "--ttft-deadline", "0.5", "--itl-deadline", "0.05"]
        )
        assert args.ttft_deadline == 0.5
        assert args.itl_deadline == 0.05

    def test_ablation_table(self, tmp_path, capsys):
        assert main(["slo", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "attainment" in out and "cost_hr" in out
        assert "homo 4xA100" in out and "hetero H100+A100+4xL4" in out
        saved = tmp_path / "ablation_slo.txt"
        assert saved.exists()
        assert "equal spend" in saved.read_text()

    def test_trace_scenario(self, tmp_path, capsys):
        trace_path = tmp_path / "slo.jsonl"
        assert main(["trace", "slo", "--out", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "scenario=slo" in out
        text = trace_path.read_text()
        assert "SLO_ADMIT" in text
        assert "SLO_SHED" in text
        assert "SCALE_UP" in text
        assert "SCALE_DOWN" in text


class TestTraceScenarioChoices:
    def test_every_registered_scenario_is_a_choice(self):
        parser = build_parser()
        for name in ("single_gpu", "cluster_migration", "faults", "disagg",
                     "serve", "spec", "slo", "composed", "steady_dense"):
            assert parser.parse_args(["trace", name]).scenario == name

    def test_unknown_scenario_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace", "warpdrive"])


class TestAdaptersSubcommand:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["adapters"])

    def test_tiers_flag_repeatable(self):
        args = build_parser().parse_args(
            ["adapters", "simulate-cache", "--tiers", "4", "--tiers", "2:8"]
        )
        assert args.tiers == ["4", "2:8"]

    def test_bad_tiers_spec_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["adapters", "simulate-cache", "--tiers", "banana"])
        with pytest.raises(SystemExit):
            main(["adapters", "simulate-cache", "--tiers", "0:4"])

    def test_list(self, tmp_path, capsys):
        assert main([
            "adapters", "list", "--requests", "40", "--out", str(tmp_path)
        ]) == 0
        out = capsys.readouterr().out
        assert "lora-0" in out and "DISK" in out
        assert (tmp_path / "adapters_list.txt").exists()

    def test_simulate_cache(self, capsys):
        assert main(["adapters", "simulate-cache", "--tiers", "4"]) == 0
        out = capsys.readouterr().out
        assert "cold_ttft_ms" in out and "prefetch on" in out
