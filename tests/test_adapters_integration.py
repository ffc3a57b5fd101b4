"""End-to-end tests: adapter lifecycle threaded through engine, scheduler,
and cluster simulator."""

import pytest

from repro.adapters import Tier
from repro.bench.adapter_cache import (
    AdapterCacheScale,
    build_adapter_cluster,
    mean_cold_ttft,
)
from repro.cluster.scheduler import PunicaScheduler
from repro.models.config import LLAMA2_7B
from repro.runtime.backend import SimulatedBackend
from repro.runtime.engine import EngineConfig, GpuEngine
from repro.runtime.request import Request, RequestSpec, RequestState
from repro.workloads.trace import open_loop_trace

SCALE = AdapterCacheScale(num_gpus=2, rate=5.0, duration=20.0)


def make_request(rid: str, lora_id: str, arrival: float = 0.0) -> Request:
    return Request(
        RequestSpec(
            request_id=rid, lora_id=lora_id, arrival_time=arrival,
            prompt_len=16, response_len=4,
        )
    )


def make_engine(gpu_id: str) -> GpuEngine:
    return GpuEngine(
        gpu_id, SimulatedBackend(LLAMA2_7B), EngineConfig(max_batch_size=4)
    )


class TestLocalityRouting:
    def _warm(self, engine: GpuEngine, lora_id: str) -> None:
        engine.loader.request_load(lora_id, 40e6, now=0.0)
        engine.loader.advance(100.0)

    def test_resident_adapter_beats_higher_uuid(self):
        low, high = make_engine("gpu0"), make_engine("gpu1")
        self._warm(low, "lora-a")
        sched = PunicaScheduler([low, high])
        assert sched.submit(make_request("r0", "lora-a"), now=100.0) == "gpu0"

    def test_working_set_still_dominates_locality(self):
        # §5.1's pack rule is primary; locality only breaks ties.
        low, high = make_engine("gpu0"), make_engine("gpu1")
        self._warm(low, "lora-a")
        sched = PunicaScheduler([low, high])
        high.add_request(make_request("busy", "lora-b"), now=100.0)
        assert sched.submit(make_request("r0", "lora-a"), now=100.0) == "gpu1"


class TestClusterEndToEnd:
    @pytest.fixture(scope="class")
    def run(self):
        trace = open_loop_trace(
            rate=SCALE.rate, duration=SCALE.duration, distribution="skewed",
            seed=3, alpha=SCALE.alpha,
        )
        sim, registry, prefetcher = build_adapter_cluster(
            trace, scale=SCALE, prefetch=True
        )
        result = sim.run(trace)
        return sim, registry, prefetcher, result

    def test_all_requests_finish(self, run):
        _, _, _, result = run
        assert all(r.state is RequestState.FINISHED for r in result.requests)

    def test_adapter_metrics_populated(self, run):
        _, _, _, result = run
        hits = result.metrics.adapter_hit_counts()
        loads = result.metrics.registry.get("adapter_loads_total")
        assert sum(hits.values()) == loads.total()
        assert sum(hits.values()) > 0
        assert 0.0 <= result.metrics.adapter_gpu_hit_rate() <= 1.0
        assert 0.0 <= result.metrics.prefetch_accuracy() <= 1.0
        assert result.metrics.pcie_busy_seconds() > 0.0

    def test_pcie_utilization_series_bounded(self, run):
        _, _, _, result = run
        series = result.metrics.pcie_utilization_series(5.0, result.duration)
        assert series and all(0.0 <= v <= 1.0 for _, v in series)

    def test_registry_saw_live_arrivals(self, run):
        _, registry, _, result = run
        assert sum(m.requests for m in registry.adapters()) == len(
            result.metrics.arrivals
        )

    def test_prefetcher_worked(self, run):
        _, _, prefetcher, _ = run
        assert prefetcher.num_staged > 0
        assert prefetcher.num_promoted > 0

    def test_unified_budget_never_exceeded(self, run):
        sim, _, _, _ = run
        for engine in sim.scheduler.engines.values():
            engine.backend.pool.check_invariant()
            assert engine.adapter_tier("lora-0") in (
                Tier.DISK, Tier.HOST, Tier.GPU
            )

    def test_prefetch_cuts_cold_start_ttft(self):
        trace = open_loop_trace(
            rate=SCALE.rate, duration=SCALE.duration, distribution="skewed",
            seed=3, alpha=SCALE.alpha,
        )
        results = {}
        for prefetch in (False, True):
            sim, _, _ = build_adapter_cluster(
                trace, scale=SCALE, prefetch=prefetch
            )
            results[prefetch] = mean_cold_ttft(sim.run(trace))
        assert results[True] < results[False]
