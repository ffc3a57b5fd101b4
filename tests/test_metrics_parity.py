"""Parity between the unified MetricsRegistry and the legacy time series.

``ClusterMetrics`` keeps its original per-series view (what the Fig 13
plotting code consumes) *and* mirrors every ``record_*`` call into its
per-run :class:`~repro.obs.metrics.MetricsRegistry`. These tests pin the
contract that both views report exactly the same totals, and that metric
state is instance-scoped: two back-to-back runs of the same seed report
identical numbers (no module-level counters bleeding across runs).
"""

from __future__ import annotations

import pytest

from repro.adapters.registry import Tier
from repro.cluster.metrics import ClusterMetrics
from repro.obs import run_scenario


def _assert_parity(metrics: ClusterMetrics) -> None:
    reg = metrics.registry

    assert reg.get("requests_arrived_total").total() == len(metrics.arrivals)
    assert reg.get("tokens_generated_total").total() == pytest.approx(
        metrics.total_tokens()
    )

    hits = metrics.adapter_hit_counts()
    loads = reg.get("adapter_loads_total")
    for tier in ("gpu", "host", "disk"):
        assert loads.value(tier=tier) == hits[tier], tier
    assert loads.total() == len(metrics.adapter_loads)

    assert reg.get("adapter_evictions_total").total() == metrics.eviction_count()
    assert reg.get("adapter_prefetch_issues_total").total() == len(
        metrics.prefetch_issues
    )
    assert reg.get("adapter_prefetch_hits_total").total() == len(
        metrics.prefetch_hits
    )

    assert reg.get("pcie_busy_seconds_total").total() == pytest.approx(
        metrics.pcie_busy_seconds()
    )
    pcie_hist = reg.get("pcie_transfer_seconds")
    assert pcie_hist.count == len(metrics.pcie_busy)
    assert pcie_hist.sum == pytest.approx(metrics.pcie_busy_seconds())

    assert reg.get("faults_injected_total").total() == metrics.fault_count()
    assert reg.get("replacements_total").total() == metrics.replacement_count()
    assert reg.get("sheds_total").total() == metrics.shed_count()

    recovery = reg.get("recovery_latency_seconds")
    assert recovery.count == len(metrics.recoveries)
    if recovery.count:
        assert recovery.mean() == pytest.approx(metrics.mean_recovery_latency())

    # Per-GPU step counters cover exactly the GPUs the series saw.
    steps = reg.get("engine_steps_total")
    for gpu_id, series in metrics.gpu_batch_size.items():
        assert steps.value(gpu=gpu_id) == len(series)

    # SLO control-plane counters mirror their series views.
    assert reg.get("slo_attained_total").total() == metrics.slo_attained_count()
    assert reg.get("slo_missed_total").total() == metrics.slo_missed_count()
    assert reg.get("slo_sheds_total").total() == metrics.slo_shed_count()
    headroom = reg.get("slo_deadline_headroom_seconds")
    assert headroom.count == len(metrics.slo_admits)
    if headroom.count:
        assert headroom.mean() == pytest.approx(metrics.mean_admit_headroom())

    reg.assert_finite()


@pytest.mark.parametrize("scenario", ["cluster_migration", "faults", "slo", "composed", "steady_dense"])
def test_registry_matches_legacy_series(scenario):
    result = run_scenario(scenario, seed=0)
    assert result.metrics is not None
    _assert_parity(result.metrics)


def test_registry_parity_survives_prometheus_render():
    """Rendering must be a pure read — totals unchanged afterwards."""
    metrics = run_scenario("cluster_migration", seed=0).metrics
    before = metrics.registry.to_json()
    text = metrics.registry.render_prometheus()
    assert "# TYPE repro_requests_arrived_total counter" in text
    assert metrics.registry.to_json() == before


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
    assert "repro_sheds_total 0.0" in text
    assert "repro_slo_sheds_total 0.0" in text


def test_slo_series_tolerate_out_of_order_recording():
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
