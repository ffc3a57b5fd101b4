"""Tests for the elastic GPU pool (§5.1 cloud allocation)."""

import pytest

from repro.cluster.elastic import ElasticConfig, ElasticPool, GpuLease
from repro.cluster.faults import FaultInjector, FaultKind, FaultSpec
from repro.cluster.scheduler import SchedulerConfig
from repro.cluster.simulator import ClusterSimulator
from repro.models.config import LLAMA2_7B
from repro.obs.tracer import EventKind, Tracer
from repro.runtime.backend import SimulatedBackend
from repro.runtime.engine import EngineConfig, GpuEngine
from repro.runtime.request import RequestState
from repro.workloads.arrivals import PoissonArrivals, RampProfile, constant_rate
from repro.workloads.lengths import ShareGptLengths
from repro.workloads.trace import generate_trace


def engine_factory(gpu_id):
    return GpuEngine(
        gpu_id,
        SimulatedBackend(LLAMA2_7B, step_overhead=0.0),
        EngineConfig(max_batch_size=4),
    )


def ramp_trace(duration=90.0, peak=6.0, seed=0):
    lengths = ShareGptLengths(max_prompt_len=64, max_response_len=32)
    arrivals = PoissonArrivals(
        rate=RampProfile(duration=duration, peak_rate=peak), duration=duration
    )
    return generate_trace(int(duration * peak) + 32, "skewed", seed=seed,
                          lengths=lengths, arrivals=arrivals)


def make_sim(max_gpus=6, **elastic_kwargs):
    cfg = ElasticConfig(
        min_gpus=1, max_gpus=max_gpus, provision_delay=5.0,
        release_idle_after=10.0, check_interval=2.0, **elastic_kwargs,
    )
    return ClusterSimulator(
        scheduler_config=SchedulerConfig(migration_interval=5.0),
        pool=ElasticPool(engine_factory, cfg),
    )


class TestElasticConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ElasticConfig(min_gpus=0)
        with pytest.raises(ValueError):
            ElasticConfig(min_gpus=4, max_gpus=2)
        with pytest.raises(ValueError):
            ElasticConfig(check_interval=0)


class TestGpuLease:
    def test_open_lease_billed_to_horizon(self):
        lease = GpuLease(gpu_id="g", start=10.0)
        assert lease.seconds(horizon=25.0) == 15.0

    def test_closed_lease(self):
        lease = GpuLease(gpu_id="g", start=10.0, end=18.0)
        assert lease.seconds(horizon=100.0) == 8.0


class TestElasticSimulation:
    def test_scales_up_under_load_and_releases_after(self):
        sim = make_sim()
        result = sim.run(ramp_trace())
        assert result.scale_ups > 0
        assert result.peak_pool_size() > 1
        assert result.releases > 0  # ramp-down lets GPUs drain and release
        # All requests still finish.
        assert all(
            r.state is RequestState.FINISHED for r in result.requests
        )

    def test_respects_max_gpus(self):
        sim = make_sim(max_gpus=2)
        result = sim.run(ramp_trace(peak=10.0))
        assert result.peak_pool_size() <= 2

    def test_never_releases_below_min(self):
        sim = make_sim()
        result = sim.run(ramp_trace())
        # The last lease(s) remain open: at least min_gpus GPUs at the end.
        open_leases = [l for l in result.leases if l.end is None]
        assert len(open_leases) >= 1

    def test_elastic_cheaper_than_static_peak_pool(self):
        trace = ramp_trace(duration=120.0, peak=8.0)
        elastic = make_sim(max_gpus=6).run(trace)
        static = ClusterSimulator(
            [engine_factory(f"s{i}") for i in range(6)],
            SchedulerConfig(migration_interval=5.0),
        ).run(trace)
        assert elastic.gpu_seconds() < 0.8 * static.gpu_seconds()

    def test_throughput_not_destroyed_by_elasticity(self):
        # Compared to a static max-size pool, elasticity may queue requests
        # during provisioning but must finish the trace in similar time.
        trace = ramp_trace(duration=90.0, peak=5.0, seed=3)
        elastic = make_sim().run(trace)
        static = ClusterSimulator(
            [engine_factory(f"s{i}") for i in range(6)],
            SchedulerConfig(migration_interval=5.0),
        ).run(trace)
        assert elastic.finished_requests == static.finished_requests
        assert elastic.duration < 2.0 * static.duration

    def test_deterministic(self):
        r1 = make_sim().run(ramp_trace(seed=4))
        r2 = make_sim().run(ramp_trace(seed=4))
        assert r1.gpu_seconds() == r2.gpu_seconds()
        assert r1.scale_ups == r2.scale_ups


class TestElasticEdgeCases:
    def test_shrink_never_releases_a_busy_engine(self):
        from repro.runtime.request import Request
        from repro.workloads.trace import RequestSpec

        sim = make_sim()
        # Land a second GPU the way a provision does, then park a request
        # on it and leave a *stale* idle mark — the is_idle guard, not the
        # bookkeeping, must be what keeps a busy engine in the pool.
        sim.pool.provisioning += 1
        sim.pool._activate(0.0)
        assert set(sim.scheduler.engines) == {"gpu00", "gpu01"}
        req = Request(spec=RequestSpec("r", "lora-0", 0.0, 8, 4))
        sim.scheduler.engines["gpu01"].add_request(req, 0.0)
        sim.pool.idle_since["gpu01"] = 0.0
        sim.pool._release(100.0, floor=1)
        assert "gpu01" in sim.scheduler.engines, "released a busy engine"
        # The genuinely idle gpu00 was released (pool floor is 1).
        assert "gpu00" not in sim.scheduler.engines

    def test_grow_lands_during_consolidation_churn(self):
        # Aggressive consolidation so migrations overlap the provisioning
        # window: a GPU landing mid-migration drains the queue without
        # double-placing or stranding the re-prefilling movers.
        cfg = ElasticConfig(
            min_gpus=1, max_gpus=4, provision_delay=3.0,
            release_idle_after=30.0, check_interval=1.0,
        )
        sim = ClusterSimulator(
            scheduler_config=SchedulerConfig(migration_interval=1.0),
            pool=ElasticPool(engine_factory, cfg),
        )
        result = sim.run(ramp_trace(duration=60.0, peak=6.0, seed=1))
        assert result.scale_ups > 0
        assert result.num_migrations > 0
        for req in result.requests:
            assert req.state is RequestState.FINISHED
            assert req.num_generated == req.spec.response_len

    def test_lease_accounting_across_back_to_back_scale_events(self):
        cfg = ElasticConfig(
            min_gpus=1, max_gpus=6, provision_delay=1.0,
            release_idle_after=2.0, check_interval=1.0,
        )
        sim = ClusterSimulator(pool=ElasticPool(engine_factory, cfg))
        result = sim.run(ramp_trace(duration=60.0, peak=8.0, seed=2))
        assert result.scale_ups > 0 and result.releases > 0
        # GPU ids are never recycled: each lease is a distinct billing
        # window even when releases and provisions alternate tightly.
        ids = [lease.gpu_id for lease in result.leases]
        assert len(ids) == len(set(ids))
        closed = [l for l in result.leases if l.end is not None]
        assert len(closed) == result.releases
        for lease in closed:
            assert lease.end > lease.start
        # Every scale-up paid its warm-up: no lease opens before the
        # provisioning delay has elapsed (the initial pool starts at 0).
        grown = [l for l in result.leases if l.gpu_id != "gpu00"]
        assert len(grown) == result.scale_ups
        for lease in grown:
            assert lease.start >= cfg.provision_delay
        assert result.gpu_seconds() == pytest.approx(
            sum(l.seconds(result.duration) for l in result.leases)
        )


class _TickCounter:
    """Duck-typed prefetcher: counts ticks, remembers its attached pools."""

    class config:
        interval = 1.0

    def __init__(self):
        self.ticks = 0
        self.pools = {}
        self.seen = set()

    def attach(self, pools):
        self.pools = dict(pools)
        self.seen |= set(pools)

    def tick(self, now):
        self.ticks += 1

    def hint_queued(self, lora_id, now):
        pass


class TestPoolSharesTheOneRun:
    """A pool-attached simulator runs the same ``run()`` as a static one:
    faults fire, the prefetcher ticks, adapter events reach the metrics."""

    def test_faults_fire_on_an_elastic_pool(self):
        tracer = Tracer()
        injector = FaultInjector(
            [FaultSpec(kind=FaultKind.GPU_SLOWDOWN, time=1.0, duration=1.0,
                       factor=4.0)],
            seed=0,
        )
        sim = ClusterSimulator(
            pool=ElasticPool(engine_factory, ElasticConfig(
                min_gpus=1, max_gpus=4, provision_delay=5.0,
                release_idle_after=10.0, check_interval=2.0,
            )),
            fault_injector=injector, tracer=tracer,
        )
        result = sim.run(ramp_trace(duration=20.0, peak=4.0))
        faults = tracer.by_kind(EventKind.FAULT)
        assert len(faults) == 1 and faults[0].attrs["applied"]
        assert result.metrics.fault_count() == 1

    def test_crash_closes_the_lease(self):
        injector = FaultInjector(
            [FaultSpec(kind=FaultKind.GPU_CRASH, time=45.0)], seed=0
        )
        pool = ElasticPool(engine_factory, ElasticConfig(
            min_gpus=1, max_gpus=6, provision_delay=5.0,
            release_idle_after=10.0, check_interval=2.0,
        ))
        sim = ClusterSimulator(pool=pool, fault_injector=injector)
        result = sim.run(ramp_trace())
        crashed = injector.injected[0]
        assert crashed.applied
        lease = next(l for l in result.leases if l.gpu_id == crashed.gpu_id)
        assert lease.end == 45.0
        assert crashed.gpu_id not in sim._step_actions
        assert all(r.state is RequestState.FINISHED for r in result.requests)

    def test_adapter_events_reach_the_metrics(self):
        result = make_sim().run(ramp_trace())
        assert result.releases > 0  # released engines' loads count too
        assert result.metrics.adapter_gpu_hit_rate() > 0

    def test_prefetcher_ticks_and_follows_pool_membership(self):
        prefetcher = _TickCounter()
        sim = ClusterSimulator(
            prefetcher=prefetcher,
            pool=ElasticPool(engine_factory, ElasticConfig(
                min_gpus=1, max_gpus=6, provision_delay=5.0,
                release_idle_after=10.0, check_interval=2.0,
            )),
        )
        result = sim.run(ramp_trace())
        assert prefetcher.ticks > 0
        assert result.scale_ups > 0 and result.releases > 0
        # Provisioned engines became prefetch targets; released ones left.
        assert len(prefetcher.seen) == 1 + result.scale_ups
        assert set(prefetcher.pools) == set(sim.scheduler.engines)

    def test_released_engines_leave_no_step_closure_behind(self):
        sim = make_sim()
        result = sim.run(ramp_trace())
        assert result.releases > 0
        assert set(sim._step_actions) <= set(sim.scheduler.engines)
        assert set(sim._gpu_busy) == set(sim.scheduler.engines)

    def test_pool_provisions_its_own_engines(self):
        with pytest.raises(ValueError, match="provisions its own"):
            ClusterSimulator(
                [engine_factory("g0")],
                pool=ElasticPool(engine_factory, ElasticConfig()),
            )


class TestSchedulerPoolMembership:
    def test_add_remove_engine(self):
        from repro.cluster.scheduler import PunicaScheduler

        e0, e1 = engine_factory("a"), engine_factory("b")
        sched = PunicaScheduler([e0])
        sched.add_engine(e1)
        assert set(sched.engines) == {"a", "b"}
        sched.remove_engine("b")
        assert set(sched.engines) == {"a"}

    def test_cannot_remove_busy_or_last(self):
        from repro.cluster.scheduler import PunicaScheduler
        from repro.runtime.request import Request
        from repro.workloads.trace import RequestSpec

        e0, e1 = engine_factory("a"), engine_factory("b")
        sched = PunicaScheduler([e0, e1])
        req = Request(spec=RequestSpec("r", "m", 0.0, 8, 4))
        e1.add_request(req, 0.0)
        with pytest.raises(RuntimeError):
            sched.remove_engine("b")
        sched.remove_engine("a")
        with pytest.raises(RuntimeError):
            sched.remove_engine("b")

    def test_duplicate_add_rejected(self):
        from repro.cluster.scheduler import PunicaScheduler

        e0 = engine_factory("a")
        sched = PunicaScheduler([e0])
        with pytest.raises(ValueError):
            sched.add_engine(engine_factory("a"))
