"""Tests for disaggregated prefill/decode serving (docs/disagg.md).

Covers the two-stage lifecycle (prefill pool -> paged KV handoff ->
decode pool), the colocated-fallback backpressure path, and the failure
matrix: cancel mid-transfer, a lost handoff (KV_TRANSFER_FAIL), and a
decode-pool crash. The mid-transfer cases use an absurdly slow
interconnect so the handoff window is seconds wide and a scheduled
event lands inside it deterministically.
"""

import pytest

from repro.cluster.disagg import INTERCONNECTS, DisaggConfig
from repro.cluster.faults import FaultInjector, FaultKind, FaultSpec
from repro.cluster.frontend import Frontend
from repro.cluster.scheduler import SchedulerConfig
from repro.cluster.simulator import ClusterSimulator
from repro.hw.interconnect import NVLINK_A100, InterconnectSpec
from repro.models.config import LLAMA2_7B
from repro.obs.tracer import EventKind, Tracer
from repro.runtime.backend import SimulatedBackend
from repro.runtime.engine import EngineConfig, GpuEngine
from repro.runtime.request import RequestState
from repro.workloads.arrivals import PoissonArrivals, constant_rate
from repro.workloads.lengths import ShareGptLengths
from repro.workloads.trace import generate_trace

CARRIER_PIGEON = InterconnectSpec(
    name="carrier pigeon", bus_bandwidth=1e9, latency=5.0
)
"""Five seconds of wire latency: any handoff stays in flight long enough
for a scheduled cancel/fault to hit it."""


def make_engine(gpu_id, max_batch=8, step_overhead=0.0):
    """Role by naming convention: ``p*`` prefill, ``d*`` decode."""
    return GpuEngine(
        gpu_id,
        SimulatedBackend(LLAMA2_7B, step_overhead=step_overhead),
        EngineConfig(max_batch_size=max_batch),
        role={"p": "prefill", "d": "decode"}[gpu_id[0]],
    )


def make_sim(
    num_prefill=2,
    num_decode=2,
    config=None,
    fault_injector=None,
    tracer=None,
    **engine_kwargs,
):
    return ClusterSimulator(
        [make_engine(f"p{i}", **engine_kwargs) for i in range(num_prefill)]
        + [make_engine(f"d{i}", **engine_kwargs) for i in range(num_decode)],
        handoff=config or DisaggConfig(),
        fault_injector=fault_injector,
        tracer=tracer,
    )


def finish_gpus(tracer):
    """request id -> the GPU whose step delivered the final token."""
    return {
        e.request_id: e.gpu_id for e in tracer.by_kind(EventKind.FINISH)
    }


def make_trace(seed=0, n=40, rate=8.0, duration=4.0):
    return generate_trace(
        n, "skewed", seed=seed,
        lengths=ShareGptLengths(max_prompt_len=48, max_response_len=8),
        arrivals=PoissonArrivals(rate=constant_rate(rate), duration=duration),
    )


class TestConstruction:
    def test_pools_must_be_nonempty(self):
        with pytest.raises(ValueError, match="prefill"):
            ClusterSimulator([make_engine("d0")], handoff=DisaggConfig())
        with pytest.raises(ValueError, match="decode"):
            ClusterSimulator([make_engine("p0")], handoff=DisaggConfig())

    def test_roles_come_from_the_engines(self):
        sim = make_sim(num_prefill=1, num_decode=1)
        assert sim.scheduler.engines["p0"].role == "prefill"
        assert sim.scheduler.engines["d0"].role == "decode"
        # Colocated engines alone are not a role split.
        both = GpuEngine("g0", SimulatedBackend(LLAMA2_7B))
        with pytest.raises(ValueError, match="prefill"):
            ClusterSimulator([both], handoff=DisaggConfig())

    def test_consolidation_off_by_default_but_honored_when_requested(self):
        # Role-aware consolidation (the scheduler's role-equality rule)
        # made opting in safe; the default stays off.
        sim = ClusterSimulator(
            [make_engine("p0"), make_engine("d0")],
            scheduler_config=SchedulerConfig(consolidation=True),
            handoff=DisaggConfig(),
        )
        assert sim.scheduler.config.consolidation is True
        assert ClusterSimulator(
            [make_engine("p1"), make_engine("d1")], handoff=DisaggConfig()
        ).scheduler.config.consolidation is False

    def test_decode_queue_limit_validated(self):
        with pytest.raises(ValueError, match="decode_queue_limit"):
            DisaggConfig(decode_queue_limit=0)

    def test_named_interconnects(self):
        assert INTERCONNECTS["nvlink"] is NVLINK_A100
        assert (
            INTERCONNECTS["pcie"].transfer_time(1e9)
            > NVLINK_A100.transfer_time(1e9)
        )


class TestRoleAwareConsolidation:
    def _request(self, rid):
        from repro.runtime.request import Request
        from repro.workloads.trace import RequestSpec

        return Request(spec=RequestSpec(rid, "lora-0", 0.0, 16, 8))

    def test_migration_target_stays_inside_the_role_pool(self):
        sim = make_sim(num_prefill=2, num_decode=2, max_batch=8)
        sched = sim.scheduler
        mover = self._request("mover")
        sched.engines["p0"].add_request(mover, 0.0)
        # The busiest engine in the cluster is a *decode* engine; the
        # role-equality rule must never pick it for a prefill request.
        for i in range(3):
            sched.engines["d0"].add_request(self._request(f"d{i}"), 0.0)
        assert sched._migration_target("p0", mover) is None
        # A busier engine of the *same* role is a legal target.
        for i in range(2):
            sched.engines["p1"].add_request(self._request(f"p{i}"), 0.0)
        assert sched._migration_target("p0", mover) == "p1"

    def test_consolidation_run_migrates_within_roles_only(self):
        tracer = Tracer()
        sim = make_sim(
            num_prefill=2, num_decode=2, max_batch=4, step_overhead=0.05,
            config=DisaggConfig(decode_queue_limit=2), tracer=tracer,
        )
        sim.scheduler.config = SchedulerConfig(
            consolidation=True, migration_interval=0.2
        )
        result = sim.run(make_trace(rate=12.0))
        roles = {gid: e.role for gid, e in sim.scheduler.engines.items()}
        migrations = tracer.by_kind(EventKind.MIGRATE)
        for e in migrations:
            assert roles[e.gpu_id] == roles[e.attrs["target"]], (
                f"{e.request_id} migrated across the role split: "
                f"{e.gpu_id} -> {e.attrs['target']}"
            )
        for req in result.requests:
            assert req.state is RequestState.FINISHED

    def test_migration_hook_clears_colocation(self):
        sim = make_sim(num_prefill=1, num_decode=1)
        assert sim.scheduler.migration_hook == sim.handoff.on_migrate
        sim.handoff.colocated.add("req-x")
        sim.handoff.on_migrate(self._request("req-x"), "p0", "p1")
        assert "req-x" not in sim.handoff.colocated


class TestTwoStageLifecycle:
    def test_every_request_prefills_then_decodes_across_the_split(self):
        tracer = Tracer()
        sim = make_sim(tracer=tracer)
        result = sim.run(make_trace())
        assert result.requests
        for req in result.requests:
            assert req.state is RequestState.FINISHED
            assert req.num_generated == req.spec.response_len
        # No backpressure at this load: every request was handed off and
        # finished on a decode GPU.
        assert sim.metrics.colocated_fallback_count() == 0
        assert sim.metrics.kv_transfer_count() >= len(result.requests)
        for rid, gpu in finish_gpus(tracer).items():
            assert gpu in ("d0", "d1"), (
                f"{rid} finished on {gpu}, not in the decode pool"
            )
        # All prefill compute stayed in the prefill pool.
        for e in tracer.by_kind(EventKind.PREFILL):
            assert e.gpu_id in ("p0", "p1")

    def test_ttft_includes_the_handoff(self):
        tracer = Tracer()
        sim = make_sim(tracer=tracer)
        result = sim.run(make_trace(n=20, rate=4.0))
        done_times = {}
        for e in tracer.by_kind(EventKind.KV_TRANSFER_DONE):
            done_times.setdefault(e.request_id, e.time)
        assert done_times
        for req in result.requests:
            if req.num_migrations or req.request_id not in done_times:
                continue
            # The first token travels with the pages: it is delivered by
            # the decode GPU, after the transfer completed.
            assert req.first_token_time >= done_times[req.request_id]

    def test_transfer_metrics_recorded(self):
        sim = make_sim()
        sim.run(make_trace(n=20, rate=4.0))
        assert sim.metrics.kv_transfer_count() > 0
        assert sim.metrics.kv_transfer_seconds() > 0.0
        assert sim.metrics.kv_transfer_failure_count() == 0
        assert sim.handoff.transfers_in_flight == 0
        assert sim.handoff.decode_queue_depth == 0


class TestColocatedFallback:
    def test_saturation_falls_back_to_prefill_gpu(self):
        tracer = Tracer()
        sim = make_sim(
            config=DisaggConfig(decode_queue_limit=1),
            step_overhead=0.05, max_batch=4, tracer=tracer,
        )
        result = sim.run(make_trace(rate=16.0))
        assert sim.metrics.colocated_fallback_count() > 0
        for req in result.requests:
            assert req.state is RequestState.FINISHED
        finished_on_prefill = [
            rid for rid, gpu in finish_gpus(tracer).items()
            if gpu in ("p0", "p1")
        ]
        assert finished_on_prefill, "no request decoded colocated"


class TestCancelMidTransfer:
    def test_cancel_disarms_the_inflight_handoff(self):
        sim = make_sim(
            num_prefill=1, num_decode=1,
            config=DisaggConfig(interconnect=CARRIER_PIGEON),
        )
        fe = Frontend(sim)
        handle = fe.submit("lora-a", prompt_len=16, response_len=8,
                           at_time=0.0)
        # Prefill finishes well before t=2; the 5 s handoff is in flight.
        def cancel(now):
            assert sim.handoff.transfers_in_flight == 1
            fe.cancel(handle.request_id)
            assert sim.handoff.transfers_in_flight == 0

        sim.loop.schedule(2.0, cancel)
        end = fe.run()
        assert handle.state is RequestState.CANCELLED
        assert end < 5.0, "loop waited for a cancelled transfer"
        assert sim.metrics.kv_transfer_count() == 0


class TestTransferFailure:
    def test_lost_handoff_falls_back_to_reprefill(self):
        injector = FaultInjector(
            [FaultSpec(kind=FaultKind.KV_TRANSFER_FAIL, time=2.0)], seed=0
        )
        tracer = Tracer()
        sim = make_sim(
            num_prefill=1, num_decode=1,
            config=DisaggConfig(interconnect=CARRIER_PIGEON),
            fault_injector=injector, tracer=tracer,
        )
        fe = Frontend(sim)
        handle = fe.submit("lora-a", prompt_len=16, response_len=8,
                           at_time=0.0)
        # Frontend.run drives the loop directly (no sim.run), so arm the
        # fault plan by hand.
        injector.arm(sim.loop, sim._apply_fault)
        fe.run()
        assert injector.injected[0].applied
        assert sim.metrics.kv_transfer_failure_count() == 1
        assert handle.state is RequestState.FINISHED
        assert len(handle.tokens) == 8
        # The request paid the §5.3 price (re-prefill), then was handed
        # off again and decoded on the decode GPU.
        req = handle.request
        assert req.num_migrations == 1
        assert finish_gpus(tracer)[req.request_id] == "d0"
        assert sim.metrics.kv_transfer_count() == 1

    def test_noop_without_inflight_transfer(self):
        injector = FaultInjector(
            [FaultSpec(kind=FaultKind.KV_TRANSFER_FAIL, time=3.0)], seed=0
        )
        sim = make_sim(num_prefill=1, num_decode=1, fault_injector=injector)
        result = sim.run(make_trace(n=4, rate=8.0, duration=0.5))
        assert not injector.injected[0].applied
        assert sim.metrics.kv_transfer_failure_count() == 0
        for req in result.requests:
            assert req.state is RequestState.FINISHED


class TestDecodePoolCrash:
    def test_decode_crash_reroutes_and_colocates(self):
        injector = FaultInjector(
            [FaultSpec(kind=FaultKind.GPU_CRASH, time=1.0, gpu_id="d0")],
            seed=0,
        )
        tracer = Tracer()
        sim = make_sim(
            num_prefill=2, num_decode=1,
            fault_injector=injector, step_overhead=0.02, tracer=tracer,
        )
        result = sim.run(make_trace(rate=12.0, duration=3.0))
        assert injector.injected[0].applied
        # The whole decode pool died: every request still finishes, now
        # decoding colocated on the prefill GPUs.
        for req in result.requests:
            assert req.state is RequestState.FINISHED, (
                f"{req.request_id} stranded in {req.state}"
            )
            assert req.num_generated == req.spec.response_len
        gpus = finish_gpus(tracer)
        late = [r for r in result.requests if r.spec.arrival_time > 1.0]
        assert late
        for req in late:
            assert gpus[req.request_id] in ("p0", "p1")

    def test_partial_decode_crash_keeps_disaggregating(self):
        injector = FaultInjector(
            [FaultSpec(kind=FaultKind.GPU_CRASH, time=1.0, gpu_id="d0")],
            seed=0,
        )
        tracer = Tracer()
        sim = make_sim(
            num_prefill=2, num_decode=2,
            fault_injector=injector, step_overhead=0.02, tracer=tracer,
        )
        result = sim.run(make_trace(rate=12.0, duration=3.0))
        assert injector.injected[0].applied
        for req in result.requests:
            assert req.state is RequestState.FINISHED
        gpus = finish_gpus(tracer)
        survivors = [
            r for r in result.requests
            if r.spec.arrival_time > 1.0 and gpus[r.request_id] == "d1"
        ]
        assert survivors, "the surviving decode GPU took no handoffs"


class TestPrefillPoolCrash:
    def test_last_prefill_crash_sheds_instead_of_stranding(self):
        injector = FaultInjector(
            [FaultSpec(kind=FaultKind.GPU_CRASH, time=0.5, gpu_id="p0")],
            seed=0,
        )
        tracer = Tracer()
        sim = make_sim(
            num_prefill=1, num_decode=1, fault_injector=injector, tracer=tracer
        )
        result = sim.run(make_trace(n=40, rate=8.0, duration=4.0))
        assert injector.injected[0].applied
        # Nothing can ever prefill again: every request that had not yet
        # been handed off — queued, displaced or arriving later — is shed
        # FAILED, and the run ends with no request left waiting.
        states = {r.state for r in result.requests}
        assert states <= {RequestState.FINISHED, RequestState.FAILED}
        failed = [r for r in result.requests if r.state is RequestState.FAILED]
        assert failed
        assert {r.failure_reason for r in failed} == {"shed: no prefill GPUs"}
        assert any(r.spec.arrival_time > 0.5 for r in failed)
        assert sim.metrics.shed_count() == len(failed)
        shed_events = tracer.by_kind(EventKind.SHED)
        assert sorted(e.request_id for e in shed_events) == sorted(
            r.request_id for r in failed
        )
        for req in result.requests:
            if req.state is RequestState.FINISHED:
                assert req.num_generated == req.spec.response_len


    def test_decode_evictions_after_the_crash_are_shed_too(self):
        # A decode GPU with KvCache for ~640 tokens evicts long decodes;
        # with no prefill GPU left, an evicted request (it must
        # re-prefill) is shed instead of queueing forever.
        injector = FaultInjector(
            [FaultSpec(kind=FaultKind.GPU_CRASH, time=0.6, gpu_id="p0")],
            seed=0,
        )
        tight = LLAMA2_7B.kv_bytes_per_token() * 16 * 40
        decode = GpuEngine(
            "d0", SimulatedBackend(LLAMA2_7B, kv_capacity_bytes=tight),
            EngineConfig(max_batch_size=16), role="decode",
        )
        sim = ClusterSimulator(
            [make_engine("p0", max_batch=16), decode],
            handoff=DisaggConfig(), fault_injector=injector,
        )
        trace = generate_trace(
            30, "uniform", seed=0,
            lengths=ShareGptLengths(max_prompt_len=48, max_response_len=200),
            arrivals=PoissonArrivals(rate=constant_rate(30.0), duration=1.0),
        )
        result = sim.run(trace)
        evicted_late = [
            r for r in result.requests
            if r.num_migrations and r.state is RequestState.FAILED
            and r.first_token_time is not None
        ]
        assert evicted_late
        for req in result.requests:
            assert req.state in (RequestState.FINISHED, RequestState.FAILED)
            if req.state is RequestState.FAILED:
                assert req.failure_reason == "shed: no prefill GPUs"


class TestDeterminism:
    @pytest.mark.parametrize("seed", [0, 7])
    def test_same_seed_same_trace(self, seed):
        def run():
            tracer = Tracer()
            sim = make_sim(
                config=DisaggConfig(decode_queue_limit=2),
                tracer=tracer, step_overhead=0.05, max_batch=4,
            )
            sim.run(make_trace(seed=seed, rate=12.0))
            return tracer.dumps_jsonl()

        assert run() == run()
