"""Additional tests for cluster metrics aggregation."""

import numpy as np
import pytest

from repro.adapters.registry import Tier
from repro.adapters.store import AdapterEvent
from repro.cluster.metrics import ClusterMetrics, TimeSeries


class TestBucketMean:
    def test_mean_per_bucket(self):
        ts = TimeSeries()
        for t, v in [(0.1, 2.0), (0.2, 4.0), (1.5, 10.0)]:
            ts.record(t, v)
        means = ts.bucket_mean(bucket=1.0, duration=2.0)
        assert means == [(0.0, 3.0), (1.0, 10.0)]

    def test_empty_buckets_zero(self):
        ts = TimeSeries()
        ts.record(2.5, 7.0)
        means = ts.bucket_mean(bucket=1.0, duration=3.0)
        assert means[0] == (0.0, 0.0)
        assert means[2] == (2.0, 7.0)

    def test_len(self):
        ts = TimeSeries()
        assert len(ts) == 0
        ts.record(0.0, 1.0)
        assert len(ts) == 1


class TestClusterMetrics:
    def test_arrival_and_step_recording(self):
        m = ClusterMetrics()
        m.record_arrival(0.5)
        m.record_arrival(1.5)
        m.record_step("gpu0", 0.6, 0.7, tokens=4, batch_size=2)
        m.record_step("gpu1", 1.6, 1.7, tokens=8, batch_size=4)
        assert m.total_tokens() == 12
        rates = m.request_rate_series(bucket=1.0, duration=2.0)
        assert rates == [(0.0, 1.0), (1.0, 1.0)]
        tput = m.throughput_series(bucket=1.0, duration=2.0)
        assert tput == [(0.0, 4.0), (1.0, 8.0)]

    def test_per_gpu_batch_series(self):
        m = ClusterMetrics()
        m.record_step("gpu0", 0.1, 0.2, tokens=1, batch_size=3)
        m.record_step("gpu0", 0.9, 1.0, tokens=1, batch_size=5)
        series = m.batch_size_series("gpu0", bucket=1.0, duration=1.0)
        assert series == [(0.0, 4.0)]

    def test_unknown_gpu_gives_zeros(self):
        m = ClusterMetrics()
        series = m.batch_size_series("ghost", bucket=1.0, duration=2.0)
        assert all(v == 0.0 for _, v in series)

    def test_empty_total(self):
        assert ClusterMetrics().total_tokens() == 0.0


class TestSearchsortedBucketing:
    def _mask_reference(self, ts, bucket, duration, agg):
        """The pre-optimization per-bucket boolean-mask implementation."""
        edges = np.arange(0.0, duration + bucket, bucket)
        times = np.asarray(ts.times)
        values = np.asarray(ts.values)
        out = []
        for i in range(len(edges) - 1):
            mask = (times >= edges[i]) & (times < edges[i + 1])
            out.append((float(edges[i]), float(agg(values[mask]))))
        return out

    @pytest.mark.parametrize("bucket,duration", [(1.0, 10.0), (0.7, 9.5), (3.0, 7.0)])
    def test_bit_identical_to_mask_reference(self, bucket, duration):
        rng = np.random.default_rng(7)
        ts = TimeSeries()
        for t in np.sort(rng.uniform(0.0, duration * 1.2, size=200)):
            ts.record(float(t), float(rng.normal()))
        assert ts.bucket_sum(bucket, duration) == self._mask_reference(
            ts, bucket, duration, np.sum
        )
        mean = lambda a: float(np.mean(a)) if len(a) else 0.0
        assert ts.bucket_mean(bucket, duration) == self._mask_reference(
            ts, bucket, duration, mean
        )

    def test_samples_past_duration_excluded(self):
        ts = TimeSeries()
        ts.record(0.5, 1.0)
        ts.record(5.5, 100.0)
        assert ts.bucket_sum(1.0, 2.0) == [(0.0, 1.0), (1.0, 0.0)]


class TestAdapterMetrics:
    def test_ingest_sorts_interleaved_store_logs(self):
        m = ClusterMetrics()
        # Two GPUs' logs interleave non-monotonically; ingest must sort.
        m.ingest_adapter_events([
            AdapterEvent(5.0, "load", float(Tier.GPU)),
            AdapterEvent(1.0, "load", float(Tier.DISK)),
            AdapterEvent(3.0, "evict", 1.0),
            AdapterEvent(2.0, "prefetch_issue", 1.0),
            AdapterEvent(4.0, "prefetch_hit", 1.0),
            AdapterEvent(2.5, "pcie", 0.004),
        ])
        assert m.adapter_hit_counts() == {"gpu": 1, "host": 0, "disk": 1}
        assert m.adapter_gpu_hit_rate() == 0.5
        assert m.eviction_count() == 1
        assert m.prefetch_accuracy() == 1.0
        assert m.pcie_busy_seconds() == pytest.approx(0.004)

    def test_unknown_event_kind_rejected(self):
        with pytest.raises(ValueError):
            ClusterMetrics().ingest_adapter_events(
                [AdapterEvent(0.0, "teleport", 1.0)]
            )

    def test_pcie_utilization_series(self):
        m = ClusterMetrics()
        m.record_pcie_transfer(0.2, 0.5)
        m.record_pcie_transfer(1.1, 0.25)
        series = m.pcie_utilization_series(bucket=1.0, duration=2.0)
        assert series == [(0.0, 0.5), (1.0, 0.25)]

    def test_empty_summaries(self):
        m = ClusterMetrics()
        assert m.adapter_gpu_hit_rate() == 0.0
        assert m.prefetch_accuracy() == 0.0
        assert m.eviction_count() == 0
        assert m.pcie_busy_seconds() == 0.0
