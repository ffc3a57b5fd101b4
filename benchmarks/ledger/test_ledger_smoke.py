"""Smoke test of the ledger itself (not collected by tier-1).

    PYTHONPATH=src python -m pytest benchmarks/ledger -q

Every workload at ``--scale 0.05 --reps 1`` plus one traced rep, then:
printed names == names in ``BENCHMARK.json`` (both directions), values are
finite or ``n/a`` exactly where the table below says, every correctness
check trips on a deliberately corrupted result, and ``compare.py`` flags a
synthetic 30 % slowdown (the ISSUE says 20 %; the throughput bound this box
supports is 25 %, see README "Noise protocol").
"""

from __future__ import annotations

import copy
import json
import math
import os
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import boundaries  # noqa: E402
import compare  # noqa: E402
import hostspeed  # noqa: E402
import loadgen  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SIM = {"sim_steady", "sim_steady_traced", "sim_churn", "sim_slo"}
FUNC = {"func_distinct", "func_identical"}
SERVE = {"serve_stream"}
ALL = SIM | FUNC | SERVE

# metric prefix -> the workloads on which it has a value; everything not
# listed has a value on every workload.
ONLY = {
    "model_": SIM,
    "slo_attainment": SIM,
    "slo_max_rate_rps": {"sim_slo"},
    "ttfb_": SERVE,
    "cluster.events.processed": SIM | SERVE,
    "cluster.simulator.inline_steps": SIM | SERVE,
    "cluster.vector.merge": SIM | SERVE,
    "cluster.scheduler.migrations": SIM | SERVE,
    "cluster.scheduler.queue_wait_p99_ms": SIM,
    "adapters.store.gpu_hit_rate": SIM | SERVE,
    "runtime.engine.kv_evictions": SIM | FUNC,
    "cluster.control.": {"sim_slo"},
    "core.sgmv.segments_per_call": FUNC,
    "core.sgmv.flop_per_call": FUNC,
    "core.sgmv.bytes_per_call": FUNC,
    "serve.gateway.admitted": SERVE,
    "serve.gateway.shed": SERVE,
    "serve.ttfb_p99_ms": SERVE,
    "serve.token_gap_": SERVE,
    "loadgen.cpu_share": SERVE,
    "host.events_per_s": SIM | SERVE,
}
# Layer spans exist on every workload (0 calls where a layer is not used).
SPAN_SUFFIXES = (".self_s", ".calls")


def has_value_on(metric: str) -> set:
    if metric.endswith(SPAN_SUFFIXES):
        return ALL
    for prefix, names in ONLY.items():
        if metric.startswith(prefix):
            return names
    return ALL


@pytest.fixture(scope="module")
def spec():
    return run.load_spec()


@pytest.fixture(scope="module")
def ledger(tmp_path_factory):
    out = tmp_path_factory.mktemp("ledger") / "smoke.json"
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--seed", "1",
         "--scale", "0.05", "--reps", "1", "--traced", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    elapsed = time.perf_counter() - t0
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert elapsed < 60, f"smoke run took {elapsed:.1f}s"
    with open(out) as fh:
        return json.load(fh), proc.stdout


def test_names_match_benchmark_json(ledger, spec):
    doc, stdout = ledger
    assert set(doc["workloads"]) == {w["name"] for w in spec["workloads"]}
    for section in ("end_to_end", "per_layer"):
        names = [m["name"] for m in spec[section]]
        for workload, result in doc["workloads"].items():
            assert list(result[section]) == names, (workload, section)
        for name in names:
            assert f"  {name} " in stdout, f"{name} not printed"


def test_values_finite_or_na_where_the_table_says(ledger, spec):
    doc, _ = ledger
    for workload, result in doc["workloads"].items():
        for name, value in result["end_to_end"].items():
            assert value is not None and math.isfinite(value) and value > 0, (
                workload, name, value)
        for name, value in result["per_layer"].items():
            if workload in has_value_on(name):
                assert value is not None and math.isfinite(value), (workload, name)
            else:
                assert value is None, (workload, name, value)
        assert result["failed"] == 0 and not result["problems"]


def test_layer_hooks_fire_where_the_table_says(ledger):
    doc, _ = ledger
    for layer, _module, _targets, expect in boundaries.LAYERS:
        for workload in expect:
            calls = doc["workloads"][workload]["per_layer"][f"{layer}.calls"]
            assert calls > 0, (layer, workload)


def test_contract_line_has_every_metric(ledger, spec):
    doc, _ = ledger
    result = doc["workloads"]["func_identical"]
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        line = json.loads(run.contract_line(result, spec, trace))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["attempted"] >= 1
        assert list(line["metrics"]) == [m["name"] for m in spec[section]]
        for entry in line["metrics"].values():
            assert set(entry) == {"value", "unit"}
            assert isinstance(entry["value"], (int, float))
    broken = dict(result, problems=["corrupted"])
    line = json.loads(run.contract_line(broken, spec, False))
    assert line["correct"] is False and line["metrics"] == {}


# -- each correctness check trips on a corrupted result ---------------------
def _summary(**states):
    base = {"finished": 10, "failed": 0, "cancelled": 0, "live": 0}
    base.update(states)
    return {"attempted": 10, "states": base, "exact": {"checksum": "a", "model_x": 1.0}}


def test_terminal_state_check_trips():
    assert worker.terminal_problem(_summary()) is None
    assert worker.terminal_problem(_summary(finished=7, failed=2, cancelled=1)) is None
    assert "no terminal state" in worker.terminal_problem(_summary(finished=9, live=1))


def test_rep_agreement_check_trips():
    first = _summary()
    assert worker.agreement_problem(first, _summary(), 1) is None
    drifted = _summary()
    drifted["exact"]["model_x"] = 1.0000001
    assert "model_x" in worker.agreement_problem(first, drifted, 1)
    other = _summary()
    other["exact"]["checksum"] = "b"
    assert "checksum" in worker.agreement_problem(first, other, 2)


class _CorruptSignature(workloads.PackSim):
    """A simulator whose reference path / untraced run finishes one fewer."""

    def _signature(self, trace, traced, fast_path):
        duration, finished, tokens, checksum = super()._signature(
            trace, traced, fast_path)
        if fast_path is False or (self.traced and not traced):
            finished -= 1
        return duration, finished, tokens, checksum


def test_fast_vs_reference_check_trips():
    good = workloads.WORKLOADS["sim_churn"]
    trace = good.generate(1, 0.01)
    assert good.check(trace) == []
    bad = _CorruptSignature("sim_churn", churn=True)
    assert "fast path != reference path" in bad.check(trace)[0]


def test_traced_vs_untraced_check_trips():
    good = workloads.WORKLOADS["sim_steady_traced"]
    trace = good.generate(1, 0.05)
    assert good.check(trace) == []
    bad = _CorruptSignature("sim_steady_traced", traced=True)
    assert "traced run differs from the untraced run" in bad.check(trace)[0]


def test_sgmv_reference_check_trips(monkeypatch):
    func = workloads.WORKLOADS["func_distinct"]
    inputs = func.generate(1, 0.05)
    assert func.check_sgmv(inputs) == []
    real = workloads.sgmv_expand

    def off_by_a_little(y, v, wb, seg):
        out = real(y, v, wb, seg)
        out[0, 0] += 1e-6
        return out

    monkeypatch.setattr(workloads, "sgmv_expand", off_by_a_little)
    assert "differ from the reference" in func.check_sgmv(inputs)[0]


def test_probe_tokens_check_trips(monkeypatch):
    func = workloads.WORKLOADS["func_identical"]
    inputs = func.generate(1, 0.05)
    assert func.check_probes(inputs) == []
    real = workloads.serve_fcfs

    def flip_one_token(engine, requests):
        reports = real(engine, requests)
        requests[0].generated_tokens[-1] ^= 1
        return reports

    monkeypatch.setattr(workloads, "serve_fcfs", flip_one_token)
    assert "different tokens" in func.check_probes(inputs)[0]


def _feed(gen, lines):
    conn = loadgen._Conn(gen)

    class _Sink:
        def write(self, data):
            pass

    conn.transport = _Sink()
    gen._send_next(conn)
    for line in lines:
        gen.on_line(conn, line, time.perf_counter())


def _token(index, rid="q000000"):
    return (b'{"event":"token","index":%d,"request_id":"%s","time":0.0,"token":0}'
            % (index, rid.encode()))


def test_stream_checks_trip():
    def gen():
        return loadgen.ClosedLoopGenerator("h", 0, ["lora-0"], 1, 1, 16, 3)

    end = b'{"event":"end","num_tokens":3,"request_id":"q000000","status":"finished"}'
    ok = gen()
    _feed(ok, [_token(0), _token(1), _token(2), end])
    assert ok.problems == [] and ok.requests[b"q000000"].status == "finished"
    gap = gen()
    _feed(gap, [_token(0), _token(2), end])
    assert any("expected 1" in p for p in gap.problems)
    assert any("end says 3 tokens" in p for p in gap.problems)


def test_serve_rep_checks_trip():
    serve = workloads.WORKLOADS["serve_stream"]
    load = loadgen.LoadResult(
        wall_s=1.0, loadgen_share=0.3, attempted=4, finished=4, tokens=128,
        ttfb_ms=[1.0], gap_ms=[1.0],
    )
    assert serve.rep_problems(load, 0) == []
    assert "gauge" in serve.rep_problems(load, 1)[0]
    busy = copy.copy(load)
    busy.loadgen_share = 0.9
    assert "load generator" in serve.rep_problems(busy, 0)[0]
    stuck = copy.copy(load)
    stuck.problems = ["q000003: ended never"]
    assert serve.rep_problems(stuck, 0) == ["q000003: ended never"]


def test_host_times_are_normalised_by_the_speed_around_each_rep():
    ref = hostspeed.REFERENCE_S
    # The host ran at reference speed before rep 0 and at half of it after.
    speeds = worker.rep_speeds([[ref] * 4, [2 * ref] * 4, [2 * ref] * 4])
    assert speeds == pytest.approx([1.5, 2.0])
    doc = {"walls": [3.0, 4.0], "speeds": speeds}
    assert run.normalised_walls(doc) == pytest.approx([2.0, 2.0])


def test_silent_layer_is_reported_and_missing_target_is_not_fatal():
    fired = boundaries.Hook("core.sgmv", "sgmv_shrink", fired=3)
    silent = boundaries.Hook("core.lora", "LoraRegistry.stack", fired=0)
    installed = boundaries.Installed(
        recorder=boundaries.SpanRecorder(), hooks=[fired, silent],
        missing=["models.llama:LlamaModel.forward"],
    )
    # core.lora exists but stayed silent on a workload said to exercise it;
    # models.llama is missing altogether, which is only a warning.
    assert installed.silent_layers("func_distinct") == ["core.lora"]
    assert installed.silent_layers("sim_steady") == []


# -- compare.py --------------------------------------------------------------
def test_compare_flags_a_synthetic_slowdown(ledger, spec):
    doc, _ = ledger
    rows, identical = compare.compare(doc, doc, spec)
    assert identical and rows and all(r["verdict"] == "ok" for r in rows)

    slow = copy.deepcopy(doc)
    for result in slow["workloads"].values():
        result["per_layer"]["host.rep_spread"] = 0.01
        for name in ("host_requests_per_s", "host_tokens_per_s"):
            result["end_to_end"][name] *= 0.7
    base = copy.deepcopy(doc)
    for result in base["workloads"].values():
        result["per_layer"]["host.rep_spread"] = 0.01
    rows, identical = compare.compare(base, slow, spec)
    regressed = {(r["metric"], r["workload"]) for r in rows if r["verdict"] == "regressed"}
    assert regressed == {
        (m, w) for w in doc["workloads"]
        for m in ("host_requests_per_s", "host_tokens_per_s")
    }
    assert identical

    noisy = copy.deepcopy(slow)
    noisy["workloads"]["sim_churn"]["per_layer"]["host.rep_spread"] = 0.5
    rows, _ = compare.compare(base, noisy, spec)
    verdicts = {(r["metric"], r["workload"]): r["verdict"] for r in rows}
    assert verdicts[("host_requests_per_s", "sim_churn")] == "unresolved"

    moved = copy.deepcopy(base)
    moved["workloads"]["sim_slo"]["per_layer"]["model_ttft_p99_ms"] *= 1.02
    rows, identical = compare.compare(base, moved, spec)
    assert not identical
    assert [r["verdict"] for r in rows
            if (r["metric"], r["workload"]) == ("model_ttft_p99_ms", "sim_slo")] == ["regressed"]
