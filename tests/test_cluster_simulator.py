"""End-to-end cluster simulation tests (the Fig 13 machinery)."""

import pytest

import repro.cluster.simulator as simulator_module
import repro.runtime.engine as engine_module
from repro.bench.disagg_ablation import run_colocated, run_disaggregated
from repro.cluster.control import ControlConfig
from repro.cluster.elastic import ElasticConfig, ElasticPool
from repro.cluster.faults import FaultInjector, FaultKind, FaultSpec
from repro.cluster.metrics import ClusterMetrics, TimeSeries
from repro.cluster.scheduler import SchedulerConfig
from repro.cluster.simulator import ClusterSimulator
from repro.models.config import LLAMA2_7B
from repro.obs.tracer import EventKind, Tracer
from repro.runtime.backend import SimulatedBackend
from repro.runtime.engine import EngineConfig, GpuEngine
from repro.runtime.latency import LatencyStats
from repro.runtime.request import RequestState
from repro.runtime.serve import requests_from_trace
from repro.workloads.arrivals import PoissonArrivals, RampProfile, constant_rate
from repro.workloads.lengths import ShareGptLengths
from repro.workloads.trace import Trace, generate_trace


def make_engines(n, max_batch=8, fast_path=None):
    return [
        GpuEngine(
            f"gpu{i:02d}",
            SimulatedBackend(LLAMA2_7B, step_overhead=0.0),
            EngineConfig(max_batch_size=max_batch),
            fast_path=fast_path,
        )
        for i in range(n)
    ]


def small_trace(n=40, rate=4.0, duration=20.0, seed=0, dist="skewed"):
    lengths = ShareGptLengths(max_prompt_len=64, max_response_len=32)
    arrivals = PoissonArrivals(rate=constant_rate(rate), duration=duration)
    return generate_trace(n * 3, dist, seed=seed, lengths=lengths, arrivals=arrivals)


class TestTimeSeries:
    def test_record_and_bucket(self):
        ts = TimeSeries()
        for t, v in [(0.5, 1.0), (1.5, 2.0), (2.5, 4.0)]:
            ts.record(t, v)
        buckets = ts.bucket_sum(bucket=1.0, duration=3.0)
        assert buckets == [(0.0, 1.0), (1.0, 2.0), (2.0, 4.0)]

    def test_out_of_order_rejected(self):
        ts = TimeSeries()
        ts.record(2.0, 1.0)
        with pytest.raises(ValueError):
            ts.record(1.0, 1.0)

    def test_bucket_validation(self):
        with pytest.raises(ValueError):
            TimeSeries().bucket_sum(0.0, 1.0)


class TestClusterSimulation:
    def test_all_requests_complete(self):
        sim = ClusterSimulator(make_engines(4))
        trace = small_trace()
        result = sim.run(trace)
        assert result.finished_requests == len(trace)
        assert result.tokens_generated == trace.total_response_tokens
        assert result.duration > 0

    def test_prescheduled_requests_are_in_the_result(self):
        """Requests handed to ``schedule_arrival`` before ``run`` belong to
        the run: the result lists them and run-end SLO scoring counts
        every one."""
        sim = ClusterSimulator(make_engines(2), control=ControlConfig())
        trace = small_trace()
        requests = requests_from_trace(Trace(trace.requests[:20]))
        for req in requests:
            sim.schedule_arrival(req)
        result = sim.run(Trace())
        assert result.requests == requests
        assert result.finished_requests == 20
        metrics = result.metrics
        assert metrics.slo_attained_count() + metrics.slo_missed_count() == 20

    def test_deterministic_under_seed(self):
        r1 = ClusterSimulator(make_engines(3)).run(small_trace(seed=5))
        r2 = ClusterSimulator(make_engines(3)).run(small_trace(seed=5))
        assert r1.duration == r2.duration
        assert r1.tokens_generated == r2.tokens_generated
        assert r1.num_migrations == r2.num_migrations

    def test_consolidation_prefers_few_gpus(self):
        # At low load, most GPUs should see no work at all.
        sim = ClusterSimulator(make_engines(8))
        trace = small_trace(rate=1.0, duration=30.0)
        result = sim.run(trace)
        used_gpus = {gid for gid, ts in result.metrics.gpu_batch_size.items() if len(ts)}
        assert len(used_gpus) <= 4

    def test_migration_count_reported(self):
        cfg = SchedulerConfig(migration_interval=2.0)
        sim = ClusterSimulator(make_engines(4, max_batch=4), cfg)
        result = sim.run(small_trace(rate=6.0, duration=30.0))
        assert result.num_migrations >= 0  # runs without error; count recorded
        assert result.finished_requests > 0

    def test_migration_disabled_still_completes(self):
        cfg = SchedulerConfig(consolidation=False)
        sim = ClusterSimulator(make_engines(4), cfg)
        result = sim.run(small_trace())
        assert result.finished_requests == result.metrics.arrivals.values.__len__()

    def test_throughput_series_has_load(self):
        sim = ClusterSimulator(make_engines(4))
        trace = small_trace(rate=6.0, duration=20.0)
        result = sim.run(trace)
        series = result.metrics.throughput_series(bucket=5.0, duration=result.duration)
        assert any(v > 0 for _, v in series)

    def test_ramp_trace_ramps(self):
        lengths = ShareGptLengths(max_prompt_len=32, max_response_len=16)
        arrivals = PoissonArrivals(rate=RampProfile(duration=40.0, peak_rate=6.0), duration=40.0)
        trace = generate_trace(400, "skewed", seed=1, lengths=lengths, arrivals=arrivals)
        sim = ClusterSimulator(make_engines(4))
        result = sim.run(trace)
        rates = result.metrics.request_rate_series(bucket=10.0, duration=40.0)
        mid = rates[1][1] + rates[2][1]
        edges = rates[0][1] + rates[3][1]
        assert mid > edges  # load concentrated mid-experiment
        assert result.finished_requests == len(trace)

    def test_latency_reasonable_at_low_load(self):
        sim = ClusterSimulator(make_engines(4))
        trace = small_trace(rate=2.0, duration=20.0)
        result = sim.run(trace)
        # Per-token latency should be tens of ms (decode step scale).
        stats = LatencyStats.from_requests(result.requests)
        assert 0.005 < stats.mean_normalized < 0.5

    def test_saturated_cluster_queues_then_drains(self):
        sim = ClusterSimulator(make_engines(1, max_batch=2))
        trace = small_trace(n=10, rate=20.0, duration=3.0)
        result = sim.run(trace)
        assert result.finished_requests == len(trace)
        assert sim.scheduler.num_queued_total > 0

    def test_adapter_loads_are_traced_on_the_loading_engine(self):
        """An engine without a unified pool owns a private adapter store;
        its ADAPTER_LOAD events name that engine, not the store's
        default id."""
        tracer = Tracer()
        sim = ClusterSimulator(make_engines(2, max_batch=2), tracer=tracer)
        sim.run(small_trace(n=6, rate=20.0, duration=1.0, dist="distinct"))
        events = tracer.events
        loads = 0
        for k, event in enumerate(events):
            if event.kind is not EventKind.ADAPTER_LOAD:
                continue
            loads += 1
            # The load is issued by the PLACE that follows it.
            place = next(e for e in events[k:] if e.kind is EventKind.PLACE)
            assert (event.gpu_id, event.attrs["lora"]) == (
                place.gpu_id, place.attrs["lora"]
            )
        assert loads
        assert {e.gpu_id for e in tracer.by_kind(EventKind.ADAPTER_LOAD)} == {
            "gpu00", "gpu01"
        }


def last_finish(result):
    return max(r.finish_time for r in result.requests if r.finish_time is not None)


@pytest.mark.parametrize("fast_path", [True, False], ids=["fast", "reference"])
class TestRunSpan:
    """A run lasts from t = 0 to the end of its last step, on both paths:
    no tick that re-arms past the work stretches it, and every lease
    bills up to it."""

    def test_consolidation_tick_does_not_stretch_a_drained_pool(self, fast_path):
        sim = ClusterSimulator(make_engines(2, fast_path=fast_path), fast_path=fast_path)
        result = sim.run(small_trace())
        assert result.finished_requests == len(result.requests)
        assert sim.now > result.duration  # the loop ran on to the next tick
        assert result.duration == last_finish(result)

    def test_disagg_ablation_fleet(self, fast_path, monkeypatch):
        # The ablation builds its own engines: pin the path the way the CI
        # ``results`` job does, from outside.
        for module in (simulator_module, engine_module):
            monkeypatch.setattr(module, "fastpath_enabled", lambda _: fast_path)
        colocated, _ = run_colocated()
        disagg, _, _ = run_disaggregated()
        for result in (colocated, disagg):
            assert result.duration == last_finish(result)
            assert result.throughput == result.tokens_generated / result.duration

    def test_elastic_pool(self, fast_path):
        def factory(gpu_id):
            return GpuEngine(
                gpu_id, SimulatedBackend(LLAMA2_7B, step_overhead=0.0),
                EngineConfig(max_batch_size=4), fast_path=fast_path,
            )

        sim = ClusterSimulator(
            pool=ElasticPool(factory, ElasticConfig(
                max_gpus=4, provision_delay=2.0, release_idle_after=4.0,
                check_interval=1.0,
            )),
            fast_path=fast_path,
        )
        result = sim.run(small_trace(rate=6.0))
        assert result.scale_ups > 0 and result.releases > 0
        assert result.duration == last_finish(result)
        open_leases = [lease for lease in result.leases if lease.end is None]
        assert result.gpu_seconds() == pytest.approx(
            sum(lease.end - lease.start for lease in result.leases
                if lease.end is not None)
            + sum(result.duration - lease.start for lease in open_leases)
        )

    def test_run_cut_by_until_ends_at_its_last_step(self, fast_path):
        sim = ClusterSimulator(make_engines(2, fast_path=fast_path), fast_path=fast_path)
        stamps = []
        sim.token_sink = lambda rid, tokens, times: stamps.extend(times)
        result = sim.run(small_trace(), until=7.3)
        assert sim.now == 7.3
        assert any(not r.state.is_terminal for r in result.requests)
        # Every token is stamped with the end of the step that made it.
        assert result.duration == max(stamps) != sim.now
        assert result.duration > last_finish(result)

    def test_static_pool_bills_every_engine_for_the_run(self, fast_path):
        result = ClusterSimulator(
            make_engines(3, fast_path=fast_path), fast_path=fast_path
        ).run(small_trace())
        assert [(lease.start, lease.end) for lease in result.leases] == [
            (0.0, None)
        ] * 3
        assert result.peak_pool_size() == 3
        assert result.gpu_seconds() == pytest.approx(3 * result.duration)

    def test_crashed_gpu_stops_billing_at_the_crash(self, fast_path):
        injector = FaultInjector(
            [FaultSpec(kind=FaultKind.GPU_CRASH, time=5.0, gpu_id="gpu01")],
            seed=0,
        )
        sim = ClusterSimulator(
            make_engines(3, fast_path=fast_path), fault_injector=injector,
            fast_path=fast_path,
        )
        result = sim.run(small_trace())
        assert injector.injected[0].applied
        ends = {lease.gpu_id: lease.end for lease in result.leases}
        assert ends == {"gpu00": None, "gpu01": 5.0, "gpu02": None}
        assert result.duration == last_finish(result)
        assert result.gpu_seconds() == pytest.approx(2 * result.duration + 5.0)
