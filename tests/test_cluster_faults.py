"""Chaos suite: fault injection against the cluster runtime.

Run under a seed sweep in CI (``REPRO_FAULTS_SEED`` selects the base
seed): identical seeds must produce bit-identical simulations, and under
every seed a mid-trace GPU crash must leave no request behind — every
non-shed request reaches FINISHED with its full token count, with at
least one recorded re-placement migration.
"""

import os

import pytest

from repro.adapters import GpuAdapterStore, UnifiedMemoryPool
from repro.cluster.faults import FaultInjector, FaultKind, FaultSpec
from repro.cluster.frontend import Frontend
from repro.cluster.simulator import ClusterSimulator
from repro.hw.pcie import PCIE_GEN4_X16, PcieSpec
from repro.models.config import LLAMA2_7B
from repro.obs.tracer import EventKind, Tracer
from repro.runtime.backend import SimulatedBackend
from repro.runtime.engine import EngineConfig, GpuEngine
from repro.runtime.latency import LatencyStats
from repro.runtime.request import RequestState
from repro.workloads.arrivals import PoissonArrivals, constant_rate
from repro.workloads.lengths import ShareGptLengths
from repro.workloads.trace import generate_trace

BASE_SEED = int(os.environ.get("REPRO_FAULTS_SEED", "0"))
SEEDS = [BASE_SEED, BASE_SEED + 1, BASE_SEED + 2]


def make_engines(n, max_batch=8, pcie=None, pooled=False):
    """``pooled`` backs each engine with a UnifiedMemoryPool, whose adapter
    store the engine then takes as its loader."""
    engines = []
    for i in range(n):
        gpu_id = f"gpu{i:02d}"
        pool = loader = None
        if pooled:
            pool = UnifiedMemoryPool(
                capacity_bytes=8e9, page_size=16,
                bytes_per_token=LLAMA2_7B.kv_bytes_per_token(),
                pcie=pcie or PCIE_GEN4_X16, gpu_id=gpu_id,
            )
        elif pcie is not None:
            loader = GpuAdapterStore(pcie=pcie)
        engines.append(
            GpuEngine(
                gpu_id,
                SimulatedBackend(LLAMA2_7B, step_overhead=0.0, unified_pool=pool),
                EngineConfig(max_batch_size=max_batch),
                loader=loader,
            )
        )
    return engines


def chaos_trace(seed, n=150, rate=6.0, duration=30.0):
    # Responses up to 128 tokens at ~6 req/s keep a 4-GPU pool loaded for
    # the whole horizon, so a mid-trace fault always finds work in flight.
    lengths = ShareGptLengths(max_prompt_len=64, max_response_len=128)
    arrivals = PoissonArrivals(rate=constant_rate(rate), duration=duration)
    return generate_trace(n, "skewed", seed=seed, lengths=lengths,
                          arrivals=arrivals)


def run_with_injector(injector, seed, num_gpus=4):
    sim = ClusterSimulator(make_engines(num_gpus), fault_injector=injector)
    return sim.run(chaos_trace(seed))


# ---------------------------------------------------------------------------
# The acceptance chaos test: crash a GPU mid-trace on a 4-GPU cluster
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("seed", SEEDS)
class TestCrashRecovery:
    def test_all_survivors_finish_with_full_token_count(self, seed):
        injector = FaultInjector.crash_at(10.0, seed=seed)
        result = run_with_injector(injector, seed)
        assert result.metrics.fault_count() == 1
        assert injector.injected[0].applied
        shed = [r for r in result.requests if r.state is RequestState.FAILED]
        assert not shed, "a 4-GPU pool losing one GPU must not shed"
        for req in result.requests:
            assert req.state is RequestState.FINISHED, (
                f"{req.request_id} stranded in {req.state}"
            )
            assert req.num_generated == req.spec.response_len, (
                f"{req.request_id} finished short: "
                f"{req.num_generated}/{req.spec.response_len}"
            )

    def test_replacement_migrations_recorded(self, seed):
        injector = FaultInjector.crash_at(10.0, seed=seed)
        result = run_with_injector(injector, seed)
        assert result.metrics.replacement_count() >= 1
        migrated = [r for r in result.requests if r.num_migrations > 0]
        assert migrated, "no request carries a re-placement migration mark"

    def test_recovery_latency_recorded(self, seed):
        injector = FaultInjector.crash_at(10.0, seed=seed)
        result = run_with_injector(injector, seed)
        assert result.metrics.registry.get("recovery_latency_seconds").count == 1
        assert result.metrics.mean_recovery_latency() >= 0.0

    def test_deterministic_under_fixed_seed(self, seed):
        a = run_with_injector(FaultInjector.crash_at(10.0, seed=seed), seed)
        b = run_with_injector(FaultInjector.crash_at(10.0, seed=seed), seed)
        assert a.duration == b.duration
        assert a.tokens_generated == b.tokens_generated
        assert a.events_processed == b.events_processed
        assert [r.state for r in a.requests] == [r.state for r in b.requests]


# ---------------------------------------------------------------------------
# Random multi-fault plans
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("seed", SEEDS)
def test_random_plan_all_kinds_no_stranded_requests(seed):
    injector = FaultInjector.random_plan(seed=seed, duration=30.0, num_faults=6)
    result = run_with_injector(injector, seed)
    for req in result.requests:
        assert req.state in (RequestState.FINISHED, RequestState.FAILED), (
            f"{req.request_id} stranded in {req.state}"
        )
        if req.state is RequestState.FINISHED:
            assert req.num_generated == req.spec.response_len
    # Shed implies the pool went empty — with 4 GPUs and at most 6 faults
    # the last-GPU guard keeps at least one alive, so nothing sheds.
    assert result.metrics.shed_count() == 0


def test_random_plan_is_deterministic():
    a = run_with_injector(
        FaultInjector.random_plan(seed=7, duration=30.0, num_faults=5), 7
    )
    b = run_with_injector(
        FaultInjector.random_plan(seed=7, duration=30.0, num_faults=5), 7
    )
    assert a.tokens_generated == b.tokens_generated
    assert a.duration == b.duration


# ---------------------------------------------------------------------------
# GPU slowdown
# ---------------------------------------------------------------------------
def test_slowdown_applies_and_restores():
    # Pack routing ties break toward the highest UUID, so gpu01 is the
    # GPU that actually carries load on a 2-GPU pool.
    spec = FaultSpec(kind=FaultKind.GPU_SLOWDOWN, time=5.0, gpu_id="gpu01",
                     duration=10.0, factor=8.0)
    injector = FaultInjector([spec], seed=0)
    sim = ClusterSimulator(make_engines(2), fault_injector=injector)
    factors = []
    sim.loop.schedule(6.0, lambda now: factors.append(
        sim.scheduler.engines["gpu01"].slowdown_factor))
    result = sim.run(chaos_trace(0, n=60, rate=3.0, duration=20.0))
    assert factors == [8.0], "slowdown not active inside its window"
    assert sim.scheduler.engines["gpu01"].slowdown_factor == 1.0
    assert all(r.state is RequestState.FINISHED for r in result.requests)


def test_slowdown_hurts_latency():
    trace = chaos_trace(0, n=80, rate=4.0, duration=20.0)
    healthy = ClusterSimulator(make_engines(2)).run(trace)
    spec = FaultSpec(kind=FaultKind.GPU_SLOWDOWN, time=2.0, gpu_id="gpu01",
                     duration=15.0, factor=10.0)
    trace2 = chaos_trace(0, n=80, rate=4.0, duration=20.0)
    slowed = ClusterSimulator(
        make_engines(2), fault_injector=FaultInjector([spec])
    ).run(trace2)
    assert (
        LatencyStats.from_requests(slowed.requests).mean_normalized
        > LatencyStats.from_requests(healthy.requests).mean_normalized
    )


# ---------------------------------------------------------------------------
# Adapter load failure
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("pooled", [False, True])
def test_adapter_load_failure_recovers(pooled):
    # ~1 MB/s PCIe: every adapter copy takes many simulated seconds, so a
    # fault at t=1.0 reliably finds copies in flight.
    slow = PcieSpec(name="slow", effective_bandwidth=4e7)
    spec = FaultSpec(kind=FaultKind.ADAPTER_LOAD_FAIL, time=1.0)
    injector = FaultInjector([spec], seed=0)
    sim = ClusterSimulator(
        make_engines(2, pcie=slow, pooled=pooled), fault_injector=injector
    )
    result = sim.run(chaos_trace(0, n=30, rate=2.0, duration=10.0))
    assert injector.injected[0].applied, "no in-flight copy found to fail"
    assert result.metrics.fault_count() == 1
    assert result.metrics.replacement_count() >= 1
    for req in result.requests:
        assert req.state is RequestState.FINISHED
        assert req.num_generated == req.spec.response_len


# ---------------------------------------------------------------------------
# PCIe stall
# ---------------------------------------------------------------------------
def test_pcie_stall_delays_inflight_copy():
    slow = PcieSpec(name="slow", effective_bandwidth=4e7)
    store = GpuAdapterStore(pcie=slow)
    plan = store.request_load("lora-a", 4e7, now=0.0)  # ~1 s copy
    before = store.ready_time("lora-a")
    moved = store.stall(0.5, extra=2.0)
    assert moved == ["lora-a"]
    assert store.ready_time("lora-a") == pytest.approx(before + 2.0)
    assert plan.finish <= store.ready_time("lora-a")


@pytest.mark.parametrize("pooled", [False, True])
def test_pcie_stall_cluster_still_finishes(pooled):
    slow = PcieSpec(name="slow", effective_bandwidth=4e7)
    spec = FaultSpec(kind=FaultKind.PCIE_STALL, time=1.0, duration=3.0)
    injector = FaultInjector([spec], seed=0)
    sim = ClusterSimulator(
        make_engines(2, pcie=slow, pooled=pooled), fault_injector=injector
    )
    result = sim.run(chaos_trace(0, n=30, rate=2.0, duration=10.0))
    assert injector.injected[0].applied
    assert result.metrics.fault_count() == 1
    for req in result.requests:
        assert req.state is RequestState.FINISHED


def test_pool_backed_fleet_is_traced_and_faultable():
    """A unified-pool engine's loader is the pool's adapter store, so the
    simulator threads its tracer into it and faults reach it (the pool
    object used to sit in the loader slot and hide both)."""
    slow = PcieSpec(name="slow", effective_bandwidth=4e7)  # ~2 s per copy
    specs = [
        FaultSpec(kind=FaultKind.PCIE_STALL, time=1.0, duration=3.0),
        FaultSpec(kind=FaultKind.ADAPTER_LOAD_FAIL, time=1.5),
    ]
    injector = FaultInjector(specs, seed=0)
    tracer = Tracer()
    engines = make_engines(2, pcie=slow, pooled=True)
    sim = ClusterSimulator(engines, fault_injector=injector, tracer=tracer)
    assert all(e.loader is e.backend.pool.adapters for e in engines)
    ready = []

    def probe(now):
        ready.append({
            (e.gpu_id, lid): e.loader.ready_time(lid)
            for e in engines for lid in e.loader.inflight_models(now)
        })

    sim.loop.schedule(1.0 - 1e-9, probe)
    sim.loop.schedule(1.0 + 1e-9, probe)
    arrivals = PoissonArrivals(rate=constant_rate(4.0), duration=3.0)
    result = sim.run(generate_trace(12, "distinct", seed=0, arrivals=arrivals))

    before, after = ready
    stalled = injector.injected[0].gpu_id
    assert any(gpu == stalled for gpu, _ in before), "no copy in flight to stall"
    assert after == {
        (gpu, lid): t + (3.0 if gpu == stalled else 0.0)
        for (gpu, lid), t in before.items()
    }
    assert [f.applied for f in injector.injected] == [True, True]
    assert result.metrics.fault_count() == 2
    loads = tracer.by_kind(EventKind.ADAPTER_LOAD)
    assert len(loads) == sum(result.metrics.adapter_hit_counts().values())
    assert len(loads) >= len(result.requests)  # + re-placed after the failed copy
    assert {ev.gpu_id for ev in loads} == {"gpu00", "gpu01"}
    assert all(r.state is RequestState.FINISHED for r in result.requests)
    for engine in engines:
        engine.backend.pool.check_invariant()


# ---------------------------------------------------------------------------
# Shedding: the only path that may end in FAILED without retries
# ---------------------------------------------------------------------------
def test_total_outage_sheds_with_terminal_state():
    specs = [
        FaultSpec(kind=FaultKind.GPU_CRASH, time=5.0, gpu_id="gpu00"),
        FaultSpec(kind=FaultKind.GPU_CRASH, time=5.0, gpu_id="gpu01"),
    ]
    injector = FaultInjector(specs, seed=0, allow_last_gpu_crash=True)
    sim = ClusterSimulator(make_engines(2), fault_injector=injector)
    result = sim.run(chaos_trace(0, n=60, rate=4.0, duration=20.0))
    assert not sim.scheduler.engines
    assert result.metrics.shed_count() > 0
    for req in result.requests:
        assert req.state in (RequestState.FINISHED, RequestState.FAILED)
        if req.state is RequestState.FAILED:
            assert req.failure_reason is not None
            assert "shed" in req.failure_reason
    assert sim.scheduler.queue_depth == 0, "shed queue must be emptied"


def test_last_gpu_crash_guarded_by_default():
    injector = FaultInjector.crash_at(5.0, seed=0)
    sim = ClusterSimulator(make_engines(1), fault_injector=injector)
    result = sim.run(chaos_trace(0, n=40, rate=3.0, duration=15.0))
    assert not injector.injected[0].applied
    assert result.metrics.fault_count() == 0
    assert all(r.state is RequestState.FINISHED for r in result.requests)


# ---------------------------------------------------------------------------
# Frontend deadlines + bounded retry under faults
# ---------------------------------------------------------------------------
def test_deadline_retry_survives_crash():
    injector = FaultInjector.crash_at(2.0, gpu_id="gpu00", seed=0)
    sim = ClusterSimulator(make_engines(2), fault_injector=injector)
    fe = Frontend(sim)
    handles = [
        fe.submit(f"lora-{i}", prompt_len=32, response_len=16, at_time=0.2 * i,
                  deadline=60.0, max_retries=2)
        for i in range(12)
    ]
    fe.run()
    for h in handles:
        assert h.state is RequestState.FINISHED
        assert len(h.tokens) == 16


def test_deadline_exhaustion_surfaces_failed():
    sim = ClusterSimulator(make_engines(1, max_batch=1))
    fe = Frontend(sim)
    blocker = fe.submit("lora-a", prompt_len=16, response_len=5000, at_time=0.0)
    victim = fe.submit("lora-b", prompt_len=16, response_len=4, at_time=0.5,
                       deadline=1.0, max_retries=2, retry_backoff=0.25)
    fe.run()
    assert victim.failed
    assert victim.state is RequestState.FAILED
    assert victim.retries_used == 2
    assert "deadline" in victim.failure_reason
    assert blocker.state is RequestState.FINISHED


def test_fault_spec_validation():
    with pytest.raises(ValueError):
        FaultSpec(kind=FaultKind.GPU_CRASH, time=-1.0)
    with pytest.raises(ValueError):
        FaultSpec(kind=FaultKind.GPU_SLOWDOWN, time=0.0, factor=0.5)
    with pytest.raises(ValueError):
        FaultInjector.random_plan(seed=0, duration=0.0)
