"""Tests for the human-readable result summaries."""

from repro.cluster.simulator import ClusterSimulator
from repro.models.config import LLAMA2_7B
from repro.runtime.backend import SimulatedBackend
from repro.runtime.engine import EngineConfig, GpuEngine
from repro.workloads.lengths import ShareGptLengths
from repro.workloads.trace import generate_trace


def short_trace(n=8):
    return generate_trace(
        n, "uniform", seed=0,
        lengths=ShareGptLengths(max_prompt_len=32, max_response_len=8),
    )


class TestServeSummary:
    def test_summary_fields_present(self):
        engine = GpuEngine(
            "gpu0", SimulatedBackend(LLAMA2_7B), EngineConfig(max_batch_size=8)
        )
        result = ClusterSimulator([engine]).run(short_trace())
        s = result.summary()
        assert "8/8 requests" in s
        assert "tok/s" in s
        assert "ms/tok" in s

    def test_summary_without_finished_requests(self):
        engine = GpuEngine(
            "gpu0", SimulatedBackend(LLAMA2_7B), EngineConfig(max_batch_size=8)
        )
        # The run stops at t=0, before any request can finish.
        result = ClusterSimulator([engine]).run(short_trace(), until=0.0)
        assert result.finished_requests == 0
        s = result.summary()
        assert "0/8 requests" in s
        assert "ms/tok" not in s


class TestSimulationSummary:
    def test_summary_fields_present(self):
        engines = [
            GpuEngine(
                f"g{i}", SimulatedBackend(LLAMA2_7B), EngineConfig(max_batch_size=8)
            )
            for i in range(2)
        ]
        result = ClusterSimulator(engines).run(short_trace())
        s = result.summary()
        assert "8/8 requests" in s
        assert "migrations" in s
        assert "tok/s" in s

    def test_summary_without_finished_requests(self):
        engines = [
            GpuEngine("g0", SimulatedBackend(LLAMA2_7B), EngineConfig(max_batch_size=8))
        ]
        result = ClusterSimulator(engines).run(short_trace(), until=1e-6)
        assert result.finished_requests == 0
        s = result.summary()
        assert "0/8 requests" in s
        assert "ms/tok" not in s
