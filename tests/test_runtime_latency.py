"""Tests for latency breakdowns and latency statistics."""

import pytest

from repro.cluster.simulator import ClusterSimulator
from repro.models.config import LLAMA2_7B
from repro.runtime.backend import SimulatedBackend
from repro.runtime.engine import EngineConfig, GpuEngine
from repro.runtime.latency import (
    LatencyBreakdown,
    LatencyStats,
    breakdown_of,
)
from repro.runtime.request import Request
from repro.runtime.serve import requests_from_trace
from repro.workloads.lengths import ShareGptLengths
from repro.workloads.trace import RequestSpec, generate_trace


def finished_request(
    arrival=0.0, admitted=1.0, first=2.0, finish=6.0, tokens=5, rid="r"
):
    req = Request(spec=RequestSpec(rid, "m", arrival, 8, tokens))
    req.mark_running("gpu0", admitted)
    for i in range(tokens):
        req.record_token(i, first if i == 0 else finish)
    req.mark_finished(finish)
    return req


class TestLatencyBreakdown:
    def test_phases(self):
        b = breakdown_of(finished_request())
        assert b.queue_wait == 1.0
        assert b.time_to_first_token == 2.0
        assert b.decode_time == 4.0
        assert b.total == 6.0
        assert b.normalized == pytest.approx(1.2)

    def test_inter_token_time(self):
        b = breakdown_of(finished_request(tokens=5))
        assert b.inter_token_time == pytest.approx(1.0)

    def test_single_token(self):
        b = breakdown_of(finished_request(first=2.0, finish=2.0, tokens=1))
        assert b.inter_token_time == 0.0

    def test_unfinished_rejected(self):
        req = Request(spec=RequestSpec("r", "m", 0.0, 8, 4))
        with pytest.raises(ValueError):
            breakdown_of(req)

    def test_validation(self):
        with pytest.raises(ValueError):
            LatencyBreakdown("r", 0.0, 0.0, 0.0, 1.0, num_tokens=0)
        with pytest.raises(ValueError):
            LatencyBreakdown("r", -1.0, 0.0, 0.0, 1.0, num_tokens=1)


class TestLatencyStats:
    def run_fleet(self, n=12):
        trace = generate_trace(
            n, "uniform", seed=0,
            lengths=ShareGptLengths(max_prompt_len=32, max_response_len=16),
        )
        engine = GpuEngine(
            "gpu0", SimulatedBackend(LLAMA2_7B), EngineConfig(max_batch_size=8)
        )
        reqs = requests_from_trace(trace)
        ClusterSimulator([engine]).run(reqs)
        return reqs

    def test_aggregate(self):
        reqs = self.run_fleet()
        stats = LatencyStats.from_requests(reqs)
        assert stats.count == 12
        assert 0 < stats.p50_normalized <= stats.p99_normalized
        assert stats.mean_ttft > 0
        assert stats.mean_queue_wait >= 0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            LatencyStats.from_requests([])

    def test_interpolated_percentiles(self):
        # TTFTs 1, 2, 3, 4: np.percentile interpolates (p50 = 2.5) where
        # a nearest-rank percentile would pick a sample.
        reqs = [
            finished_request(first=float(t), finish=float(t) + 2.0, rid=f"r{t}")
            for t in (1, 2, 3, 4)
        ]
        stats = LatencyStats.from_requests(reqs)
        assert stats.p50_ttft == 2.5
        assert stats.p99_ttft == pytest.approx(3.97)
        assert stats.mean_ttft == 2.5

    def test_itl_skips_one_token_requests(self):
        reqs = [
            finished_request(first=2.0, finish=6.0, tokens=5, rid="a"),
            finished_request(first=2.0, finish=2.0, tokens=1, rid="b"),
        ]
        stats = LatencyStats.from_requests(reqs)
        assert stats.count == 2
        assert stats.mean_itl == stats.p50_itl == stats.p99_itl == 1.0
        only_one = LatencyStats.from_requests(reqs[1:])
        assert only_one.mean_itl == only_one.p99_itl == 0.0
