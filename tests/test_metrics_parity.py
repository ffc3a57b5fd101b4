"""The registry is the one store for a run's counts: pin what it reports.

``ClusterMetrics`` keeps no shadow copy to compare against, so the
contract is checked from outside: the JSON and Prometheus renderings of
the registry agree with each other, every summary accessor equals the
value recomputed from the run's trace and request list, metric state is
instance-scoped (two back-to-back runs of one seed report identical
numbers), and the one order-tolerant series stays time-sorted.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.adapters.registry import Tier
from repro.cluster.control import ControlConfig, SloPolicy
from repro.cluster.control.simulator import score_requests
from repro.cluster.metrics import ClusterMetrics
from repro.obs import run_scenario
from repro.obs.tracer import EventKind

SCENARIOS = ["cluster_migration", "faults", "slo", "composed", "steady_dense"]

#: The deadlines run_slo / run_composed configure (obs/scenarios.py).
POLICIES = {
    "slo": SloPolicy(ttft_deadline=0.6, itl_deadline=0.25),
    "composed": SloPolicy(ttft_deadline=1.2, itl_deadline=0.3),
}


@pytest.fixture(scope="module", params=SCENARIOS)
def run(request):
    return run_scenario(request.param, seed=0)


def _parse_prometheus(text: str) -> "dict[str, float]":
    """``{sample name incl. labels: value}`` of a text exposition."""
    samples = {}
    for line in text.splitlines():
        if not line.startswith("#"):
            name, value = line.rsplit(" ", 1)
            samples[name] = float(value)
    return samples


def test_json_and_prometheus_renderings_agree(run):
    registry = run.metrics.registry
    registry.assert_finite()
    snapshot = registry.to_json()
    samples = _parse_prometheus(registry.render_prometheus())
    seen = set()
    for name, obj in snapshot.items():
        metric = registry.get(name)
        if obj["kind"] == "histogram":
            cumulative = 0
            for upper, n in zip(obj["buckets"], obj["bucket_counts"]):
                cumulative += n
                key = f'{name}_bucket{{le="{upper}"}}'
                assert samples[key] == cumulative, key
                seen.add(key)
            inf = f'{name}_bucket{{le="+Inf"}}'
            assert samples[inf] == obj["count"] == sum(obj["bucket_counts"])
            assert samples[f"{name}_sum"] == obj["sum"]
            assert samples[f"{name}_count"] == obj["count"]
            seen |= {inf, f"{name}_sum", f"{name}_count"}
            continue
        for label_values, value in obj["values"].items():
            labels = ",".join(
                f'{n}="{v}"'
                for n, v in zip(metric.label_names, label_values.split(","))
            )
            key = f"{name}{{{labels}}}" if labels else name
            assert samples[key] == value, key
            seen.add(key)
        if not obj["values"] and not metric.label_names:
            assert samples[name] == 0.0  # idle unlabelled counters render 0
            seen.add(name)
    assert seen == set(samples), "Prometheus text carries samples JSON lacks"
    assert registry.to_json() == snapshot, "rendering must be a pure read"


def test_summaries_equal_values_recomputed_from_the_trace(run):
    metrics, tracer = run.metrics, run.tracer
    kinds = Counter(ev.kind for ev in tracer.events)

    assert len(metrics.arrivals) == kinds[EventKind.SUBMIT]
    assert metrics.registry.get("requests_arrived_total").total() == len(
        metrics.arrivals
    )
    assert metrics.total_tokens() == float(sum(metrics.tokens.values))
    steps = metrics.registry.get("engine_steps_total")
    for gpu_id, series in metrics.gpu_batch_size.items():
        assert steps.value(gpu=gpu_id) == len(series)

    loads = tracer.by_kind(EventKind.ADAPTER_LOAD)
    by_tier = Counter(ev.attrs["tier"] for ev in loads)
    assert metrics.adapter_hit_counts() == {
        tier: by_tier[tier] for tier in ("gpu", "host", "disk")
    }
    assert metrics.adapter_gpu_hit_rate() == (
        by_tier["gpu"] / len(loads) if loads else 0.0
    )
    pcie = metrics.registry.get("pcie_transfer_seconds")
    assert pcie.count == len(metrics.pcie_busy)
    assert pcie.sum == pytest.approx(metrics.pcie_busy_seconds())

    faults = tracer.by_kind(EventKind.FAULT)
    assert metrics.fault_count() == sum(1 for ev in faults if ev.attrs["applied"])
    assert metrics.shed_count() == kinds[EventKind.SHED]
    recovery = metrics.registry.get("recovery_latency_seconds")
    assert recovery.count <= metrics.fault_count()
    assert metrics.mean_recovery_latency() >= 0.0

    transfers = tracer.by_kind(EventKind.KV_TRANSFER_DONE)
    assert metrics.kv_transfer_count() == len(transfers)
    assert metrics.registry.get("kv_transfer_bytes_total").total() == sum(
        ev.attrs["nbytes"] for ev in transfers
    )
    on_wire, wire_seconds = {}, 0.0
    for ev in tracer.events:
        if ev.kind is EventKind.KV_TRANSFER_START:
            on_wire[ev.request_id] = ev.attrs["duration"]
        elif ev.kind is EventKind.KV_TRANSFER_DONE:
            wire_seconds += on_wire.pop(ev.request_id)
    assert metrics.kv_transfer_seconds() == pytest.approx(wire_seconds)

    admits = tracer.by_kind(EventKind.SLO_ADMIT)
    assert len(metrics.slo_admits) == len(admits)
    assert sorted(metrics.slo_admits.values) == pytest.approx(
        sorted(ev.attrs["headroom"] for ev in admits), abs=1e-9
    )  # the trace rounds headroom to 9 places
    headroom = metrics.registry.get("slo_deadline_headroom_seconds")
    assert headroom.count == len(admits)
    assert headroom.mean() == pytest.approx(metrics.mean_admit_headroom())
    assert metrics.slo_shed_count() == kinds[EventKind.SLO_SHED]


def test_slo_outcomes_equal_score_requests(run):
    metrics = run.metrics
    policy = POLICIES.get(run.name)
    if policy is None:
        assert metrics.slo_attained_count() == metrics.slo_missed_count() == 0
        assert metrics.slo_attainment() == 0.0
        return
    verdicts = [
        ok
        for _, ok in score_requests(
            run.requests, ControlConfig(default_policy=policy), 0.0
        )
    ]
    assert metrics.slo_attained_count() == sum(verdicts)
    assert metrics.slo_missed_count() == len(verdicts) - sum(verdicts)
    assert metrics.slo_attainment() == sum(verdicts) / len(verdicts)


def test_back_to_back_runs_report_identical_numbers():
    """Reset isolation: nothing module-level carries over between runs."""
    first = run_scenario("faults", seed=0).metrics
    second = run_scenario("faults", seed=0).metrics
    assert first is not second
    assert first.registry is not second.registry
    assert first.registry.to_json() == second.registry.to_json()
    assert first.registry.render_prometheus() == second.registry.render_prometheus()


def test_fresh_metrics_instances_share_no_state():
    a, b = ClusterMetrics(), ClusterMetrics()
    a.record_arrival(0.0)
    a.record_adapter_load(0.0, Tier.HOST)
    assert len(b.arrivals) == 0
    assert b.registry.get("requests_arrived_total").total() == 0.0
    assert b.registry.get("adapter_loads_total").total() == 0.0
    assert b.adapter_hit_counts() == {"gpu": 0, "host": 0, "disk": 0}
    # The schema itself is identical on every fresh instance.
    assert a.registry.names() == b.registry.names()


def test_full_schema_declared_up_front():
    """An idle run still exposes every instrument (at zero)."""
    registry = ClusterMetrics().registry
    assert "adapter_evictions_total" in registry
    assert "recovery_latency_seconds" in registry
    assert "slo_attained_total" in registry
    assert "slo_missed_total" in registry
    assert "slo_sheds_total" in registry
    assert "slo_deadline_headroom_seconds" in registry
    snapshot = registry.to_json()
    assert len(snapshot) == len(registry.names())
    text = registry.render_prometheus()
    assert "# TYPE repro_requests_arrived_total counter" in text
    assert "repro_sheds_total 0.0" in text
    assert "repro_slo_sheds_total 0.0" in text


def test_slo_admits_tolerate_out_of_order_recording():
    """The SLO router records at two interleaved clocks (loop events vs
    fast-path step completions running ahead); the series re-sorts."""
    metrics = ClusterMetrics()
    metrics.record_slo_admit(1.5, 0.2)
    metrics.record_slo_admit(1.0, -0.1)
    metrics.record_slo_admit(1.25, 0.05)
    assert list(metrics.slo_admits.times) == [1.0, 1.25, 1.5]
    assert list(metrics.slo_admits.values) == [-0.1, 0.05, 0.2]
    hist = metrics.registry.get("slo_deadline_headroom_seconds")
    assert hist.count == 3
