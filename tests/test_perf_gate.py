"""Plumbing tests for the perf-regression gate (no wall-clock assertions).

The gate's *timing* thresholds only run in the dedicated CI job
(``benchmarks/bench_perf_gate.py --check``) — asserting wall-clock in
tier-1 would make the suite flaky on loaded machines. Tier-1 instead pins
everything deterministic about the gate: the threshold logic, the JSON
schema, the equivalence cross-check, and the CLI wiring, using either
fabricated measurements or a miniature fig13 scale.
"""

from __future__ import annotations

import json

import pytest

from repro.bench.fig13_cluster import Fig13Scale
from repro.bench.perf_gate import (
    DEFAULT_THRESHOLDS,
    BudgetMeasurement,
    PerfMeasurement,
    evaluate_budget,
    evaluate_gate,
    load_thresholds,
    measure,
    measure_scale,
    run_perf_gate,
    write_results,
)

TINY = Fig13Scale(num_gpus=2, duration=12.0, peak_rate=4.0, bucket=4.0)


def fake(fast=1.0, ref=4.0, finished=500, tokens=10_000, traced=None):
    return PerfMeasurement(
        scenario="fake", seed=0, fast_wall_s=fast, ref_wall_s=ref,
        traced_wall_s=1.1 * fast if traced is None else traced,
        finished_requests=finished, tokens_generated=tokens,
        events_processed=1234, sim_duration_s=60.0,
    )


def fake_budget(scenario="fig13_1m", wall=10.0, events=100_000):
    return BudgetMeasurement(
        scenario=scenario, seed=0, fraction=0.02, n_requests=20_000,
        gen_wall_s=0.1, fast_wall_s=wall, finished_requests=20_000,
        failed_requests=0, tokens_generated=200_000,
        events_processed=events, sim_duration_s=500.0,
    )


class TestEvaluateGate:
    def test_passes_when_all_thresholds_met(self):
        assert evaluate_gate([fake(), fake(fast=1.05)]) == []

    def test_speedup_floor(self):
        failures = evaluate_gate([fake(ref=1.2)])  # 1.2x < 1.4x floor
        assert len(failures) == 1 and "speedup" in failures[0]

    def test_throughput_floor(self):
        failures = evaluate_gate([fake(finished=10)])  # 10 req/s < 150
        assert len(failures) == 1 and "throughput" in failures[0]

    def test_variance_bound(self):
        failures = evaluate_gate([fake(fast=1.0, ref=40.0), fake(fast=1.5, ref=40.0)])
        assert len(failures) == 1 and "variance" in failures[0]

    def test_traced_ratio_ceiling(self):
        """The observer-effect gate: tracing that halves the speed (a
        disarmed lane) fails; the worst round gates; the ceiling is a
        threshold like the others."""
        assert evaluate_gate([fake(traced=1.4)]) == []
        failures = evaluate_gate([fake(), fake(traced=2.0)])
        assert len(failures) == 1 and "traced" in failures[0]
        assert evaluate_gate([fake(traced=2.0)], {"max_traced_ratio": 2.5}) == []
        assert fake(fast=2.0, traced=3.0).to_json()["traced_ratio"] == 1.5

    def test_worst_round_gates(self):
        # One good round must not mask a bad one.
        failures = evaluate_gate([fake(), fake(fast=1.1, ref=1.3)])
        assert any("speedup" in f for f in failures)

    def test_threshold_overrides(self):
        assert evaluate_gate([fake(ref=1.2)], {"min_speedup": 1.1}) == []

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            evaluate_gate([])


class TestEvaluateBudget:
    def test_passes_within_budget(self):
        assert evaluate_budget([fake_budget()]) == []

    def test_wall_budget_exceeded(self):
        failures = evaluate_budget([fake_budget(wall=120.0)])
        assert any("over budget" in f for f in failures)

    def test_events_per_s_floor(self):
        failures = evaluate_budget([fake_budget(wall=50.0, events=1000)])
        assert any("events/s" in f for f in failures)

    def test_unknown_scenario_fails_loudly(self):
        failures = evaluate_budget([fake_budget(scenario="nonesuch")])
        assert any("no budget" in f for f in failures)

    def test_budget_overrides(self):
        tight = {"fig13_1m": {"max_wall_s": 1.0}}
        failures = evaluate_budget([fake_budget(wall=2.0)], tight)
        assert any("over budget" in f for f in failures)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            evaluate_budget([])


class TestJsonRoundTrip:
    def test_write_and_load(self, tmp_path):
        path = tmp_path / "BENCH_perf.json"
        payload = write_results([fake()], path, {"min_speedup": 2.5})
        data = json.loads(path.read_text())
        assert data == payload
        assert data["thresholds"]["min_speedup"] == 2.5
        (result,) = data["results"]
        assert result["speedup"] == 4.0
        assert result["fast_requests_per_s"] == 500.0
        th = load_thresholds(path)
        assert th["min_speedup"] == 2.5
        # Unspecified keys fall back to defaults.
        assert th["max_variance"] == DEFAULT_THRESHOLDS["max_variance"]

    def test_missing_file_uses_defaults(self, tmp_path):
        assert load_thresholds(tmp_path / "absent.json") == DEFAULT_THRESHOLDS

    def test_checked_in_file_is_consistent(self):
        from repro.bench.perf_gate import BENCH_JSON

        data = json.loads(BENCH_JSON.read_text())
        assert set(data) == {"thresholds", "results"}
        assert data["thresholds"]["min_speedup"] >= 1.4
        budgets = data["thresholds"]["budgets"]
        speedup_rows = [r for r in data["results"] if r.get("kind") != "budget"]
        budget_rows = [r for r in data["results"] if r.get("kind") == "budget"]
        assert speedup_rows and budget_rows
        for result in speedup_rows:
            assert result["speedup"] >= data["thresholds"]["min_speedup"]
            assert result["traced_ratio"] <= data["thresholds"]["max_traced_ratio"]
        for result in budget_rows:
            budget = budgets[result["scenario"]]
            assert result["fast_wall_s"] <= budget["max_wall_s"]
            assert result["events_per_s"] >= budget["min_events_per_s"]
            # Every request reached a terminal state in the recorded run.
            assert (
                result["finished_requests"] + result["failed_requests"]
                == result["n_requests"]
            )

    def test_budget_thresholds_merge_nested(self, tmp_path):
        path = tmp_path / "BENCH_perf.json"
        path.write_text(json.dumps({
            "thresholds": {"budgets": {"fig13_1m": {"max_wall_s": 99.0}}},
            "results": [],
        }))
        th = load_thresholds(path)
        assert th["budgets"]["fig13_1m"]["max_wall_s"] == 99.0
        # Keys the override omits keep their defaults.
        default = DEFAULT_THRESHOLDS["budgets"]["fig13_1m"]
        assert th["budgets"]["fig13_1m"]["min_events_per_s"] == default["min_events_per_s"]
        assert th["min_speedup"] == DEFAULT_THRESHOLDS["min_speedup"]


class TestMeasurePlumbing:
    def test_measure_tiny_scale(self):
        m = measure(seed=0, scale=TINY, scenario="tiny")
        assert m.finished_requests > 0
        assert m.tokens_generated > 0
        assert m.fast_wall_s > 0 and m.ref_wall_s > 0
        assert m.traced_wall_s > 0 and m.traced_ratio > 0
        data = m.to_json()
        assert data["scenario"] == "tiny"
        assert data["finished_requests"] == m.finished_requests

    def test_run_perf_gate_renders(self, tmp_path):
        path = tmp_path / "BENCH_perf.json"
        table, _ = run_perf_gate(
            seed=0, rounds=1, scale=TINY, json_path=path, write_json=True
        )
        text = table.render()
        assert "Perf gate" in text and "speedup" in text
        assert path.exists()

    def test_measure_scale_tiny_fraction(self):
        m = measure_scale(seed=0, fraction=0.0005)  # 500 requests
        assert m.scenario == "fig13_1m"
        assert m.n_requests == 500
        assert m.finished_requests + m.failed_requests == m.n_requests
        assert m.events_per_s > 0
        data = m.to_json()
        assert data["kind"] == "budget"
        assert data["fraction"] == 0.0005

    def test_run_perf_gate_budget_scenario(self, tmp_path, monkeypatch):
        import repro.bench.perf_gate as pg

        path = tmp_path / "BENCH_perf.json"
        monkeypatch.setitem(
            pg.DEFAULT_THRESHOLDS["budgets"]["fig13_1m"], "fraction", 0.0005
        )
        table, failures = run_perf_gate(
            seed=0, scenario="fig13_1m", json_path=path, write_json=True
        )
        text = table.render()
        assert "fig13_1m" in text
        assert failures == []
        (row,) = json.loads(path.read_text())["results"]
        assert row["kind"] == "budget" and row["n_requests"] == 500

    def test_run_perf_gate_rejects_unknown_scenario(self):
        with pytest.raises(ValueError):
            run_perf_gate(scenario="nonesuch")


def test_cli_perf_smoke(tmp_path, monkeypatch, capsys):
    """``repro perf`` wires through to the gate (tiny scale, no check)."""
    import repro.bench.perf_gate as pg
    from repro.cli import main

    monkeypatch.setattr(pg, "QUICK", TINY)
    rc = main(["perf", "--rounds", "1", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "Perf gate" in out
    assert (tmp_path / "perf_gate.txt").exists()
