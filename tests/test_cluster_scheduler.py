"""Tests for the Punica cluster scheduler's routing, queueing and migration."""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adapters import AdapterRegistry, GpuAdapterStore, UnifiedMemoryPool
from repro.cluster.scheduler import PunicaScheduler, SchedulerConfig
from repro.models.config import LLAMA2_7B
from repro.runtime.backend import SimulatedBackend
from repro.runtime.engine import EngineConfig, GpuEngine
from repro.runtime.request import Request, RequestState
from repro.workloads.trace import RequestSpec


def make_engine(gpu_id, max_batch=4):
    backend = SimulatedBackend(LLAMA2_7B, step_overhead=0.0)
    return GpuEngine(gpu_id, backend, EngineConfig(max_batch_size=max_batch))


def make_request(rid, lora="m0", prompt=16, response=8, arrival=0.0):
    return Request(
        spec=RequestSpec(
            request_id=rid, lora_id=lora, arrival_time=arrival,
            prompt_len=prompt, response_len=response,
        )
    )


def make_scheduler(n_gpus=3, max_batch=4, **cfg):
    engines = [make_engine(f"gpu{i}", max_batch) for i in range(n_gpus)]
    return PunicaScheduler(engines, SchedulerConfig(**cfg) if cfg else None)


class TestRouting:
    def test_first_request_goes_to_highest_uuid(self):
        sched = make_scheduler(3)
        gpu = sched.submit(make_request("r0"), 0.0)
        assert gpu == "gpu2"  # all empty -> tie broken by highest UUID

    def test_subsequent_requests_pack_onto_busiest(self):
        sched = make_scheduler(3)
        gpus = [sched.submit(make_request(f"r{i}"), 0.0) for i in range(3)]
        assert gpus == ["gpu2", "gpu2", "gpu2"]  # consolidation, not balance

    def test_overflow_to_next_gpu_when_full(self):
        sched = make_scheduler(2, max_batch=2)
        gpus = [sched.submit(make_request(f"r{i}"), 0.0) for i in range(3)]
        assert gpus == ["gpu1", "gpu1", "gpu0"]

    def test_queue_when_all_full(self):
        sched = make_scheduler(1, max_batch=1)
        assert sched.submit(make_request("r0"), 0.0) is not None
        assert sched.submit(make_request("r1"), 0.0) is None
        assert sched.queue_depth == 1

    def test_memory_constraint_respected(self):
        engines = [
            GpuEngine(
                "gpu0",
                SimulatedBackend(
                    LLAMA2_7B,
                    kv_capacity_bytes=64 * LLAMA2_7B.kv_bytes_per_token(),
                ),
                EngineConfig(max_batch_size=8),
            )
        ]
        sched = PunicaScheduler(engines)
        assert sched.submit(make_request("big", prompt=100), 0.0) is None
        assert sched.queue_depth == 1

    def test_duplicate_gpu_ids_rejected(self):
        with pytest.raises(ValueError):
            PunicaScheduler([make_engine("g"), make_engine("g")])

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError):
            PunicaScheduler([])


class TestQueueDrain:
    def test_fcfs_drain(self):
        sched = make_scheduler(1, max_batch=2)
        sched.submit(make_request("r0", arrival=0.0), 0.0)
        sched.submit(make_request("r1", arrival=1.0), 1.0)
        r2 = make_request("r2", arrival=2.0)
        r3 = make_request("r3", arrival=3.0)
        sched.submit(r2, 2.0)
        sched.submit(r3, 3.0)
        assert sched.queue_depth == 2
        # Free a slot, drain: r2 (earlier arrival) must be placed first.
        sched.engines["gpu0"].cancel("r0")
        placed = sched.drain_queue(4.0)
        assert placed == ["gpu0"]
        assert sched.engines["gpu0"].has_request("r2")
        assert not sched.engines["gpu0"].has_request("r3")

    def test_cancelled_queued_request_skipped(self):
        sched = make_scheduler(1, max_batch=1)
        sched.submit(make_request("r0"), 0.0)
        r1 = make_request("r1", arrival=1.0)
        sched.submit(r1, 1.0)
        sched.cancel(r1)
        sched.engines["gpu0"].cancel("r0")
        assert sched.drain_queue(2.0) == []
        assert sched.queue_depth == 0


class TestMigration:
    def test_consolidation_moves_light_gpu_to_busy(self):
        sched = make_scheduler(2, max_batch=4, migration_interval=5.0)
        # 3 on gpu1 (busy), then force one onto gpu0 by filling differently.
        for i in range(3):
            sched.submit(make_request(f"busy{i}"), 0.0)
        lone = make_request("lone")
        sched.engines["gpu0"].add_request(lone, 0.0)
        assert sched.engines["gpu0"].working_set_size == 1
        moved = sched.consolidate(1.0)
        assert moved == 1
        assert sched.engines["gpu0"].is_idle
        assert sched.engines["gpu1"].has_request("lone")
        assert sched.num_migrations == 1

    def test_migrated_request_keeps_progress(self):
        sched = make_scheduler(2, max_batch=4)
        for i in range(2):
            sched.submit(make_request(f"busy{i}"), 0.0)
        lone = make_request("lone", response=10)
        engine0 = sched.engines["gpu0"]
        engine0.add_request(lone, 0.0)
        ready = engine0.loader.ready_time("m0")
        engine0.step(ready)
        engine0.step(ready + 1.0)
        assert lone.num_generated == 2
        sched.consolidate(ready + 2.0)
        assert sched.engines["gpu1"].has_request("lone")
        assert lone.num_generated == 2
        assert lone.needs_prefill  # KvCache recomputed on the target (§5.3)
        assert lone.num_migrations == 1

    def test_no_migration_when_disabled(self):
        sched = make_scheduler(2, max_batch=4, consolidation=False)
        sched.engines["gpu0"].add_request(make_request("lone"), 0.0)
        for i in range(2):
            sched.submit(make_request(f"busy{i}"), 0.0)
        assert sched.consolidate(1.0) == 0

    def test_no_migration_to_equally_light_gpu(self):
        # Moving between equally loaded GPUs would not consolidate anything.
        sched = make_scheduler(2, max_batch=4)
        sched.engines["gpu0"].add_request(make_request("a"), 0.0)
        sched.engines["gpu1"].add_request(make_request("b", lora="m1"), 0.0)
        assert sched.consolidate(1.0) == 0


class TestScalingHint:
    def test_scale_up_when_no_light_gpu(self):
        sched = make_scheduler(1, max_batch=2)
        for i in range(2):
            sched.submit(make_request(f"r{i}"), 0.0)
        assert sched.scaling_hint() == "scale-up"

    def test_scale_down_with_idle_gpu(self):
        sched = make_scheduler(2, max_batch=4)
        sched.submit(make_request("r0"), 0.0)
        assert sched.scaling_hint() == "scale-down"

    def test_hold_when_lightly_loaded_but_none_idle(self):
        sched = make_scheduler(2, max_batch=4)
        sched.engines["gpu0"].add_request(make_request("a"), 0.0)
        sched.engines["gpu1"].add_request(make_request("b", lora="m1"), 0.0)
        assert sched.scaling_hint() == "hold"


# ----------------------------------------------------------------------
# Placement: first fit in descending key order == max key among feasible
# ----------------------------------------------------------------------
PAGE = 16
PROBE = "probe"
KV_TOKEN_BYTES = LLAMA2_7B.kv_bytes_per_token()
ADAPTER_BYTES = float(LLAMA2_7B.lora_bytes(16))


def oracle_route(sched, request):
    """``_route`` as it was until PR 24: ask every engine, then take max."""
    candidates = [
        (e.working_set_size, sched._adapter_locality(e, request), gid)
        for gid, e in sched.engines.items()
        if sched._prefill_capable(e) and e.can_accept(request)
    ]
    if not candidates:
        return None
    if sched.config.routing == "pack":
        _, _, gpu = max(candidates)
    else:
        load = min(ws for ws, _, _ in candidates)
        _, gpu = max((loc, gid) for ws, loc, gid in candidates if ws == load)
    return gpu


def oracle_route_decode(sched, request, kv_tokens):
    candidates = [
        (sched._adapter_locality(e, request), e.working_set_size, gid)
        for gid, e in sched.engines.items()
        if sched._decode_capable(e) and e.can_accept(request, kv_tokens)
    ]
    if not candidates:
        return None
    _, _, gpu = max(candidates)
    return gpu


def oracle_migration_target(sched, source_id, request):
    source = sched.engines[source_id]
    source_role = getattr(source, "role", "both")
    candidates = [
        (e.working_set_size, sched._adapter_locality(e, request), gid)
        for gid, e in sched.engines.items()
        if gid != source_id
        and getattr(e, "role", "both") == source_role
        and e.working_set_size > source.working_set_size
        and e.can_accept(request)
    ]
    if not candidates:
        return None
    _, _, gpu = max(candidates)
    return gpu


def build_engine(gpu_id, *, pooled, pages, role="both", max_batch=4, registry=None):
    """An engine whose KvCache holds ``pages`` pages — alone, or (``pooled``)
    inside a UnifiedMemoryPool where adapters compete for the same bytes."""
    capacity = pages * PAGE * KV_TOKEN_BYTES
    if pooled:
        pool = UnifiedMemoryPool(
            capacity_bytes=capacity, page_size=PAGE,
            bytes_per_token=KV_TOKEN_BYTES, registry=registry, gpu_id=gpu_id,
        )
        backend = SimulatedBackend(LLAMA2_7B, step_overhead=0.0, unified_pool=pool)
        loader = None
    else:
        backend = SimulatedBackend(
            LLAMA2_7B, step_overhead=0.0, kv_capacity_bytes=capacity
        )
        loader = GpuAdapterStore(registry=registry, gpu_id=gpu_id)
    return GpuEngine(
        gpu_id, backend, EngineConfig(max_batch_size=max_batch),
        loader=loader, role=role,
    )


@st.composite
def fleets(draw):
    """2-8 engines in every state a placement has to tell apart: working
    sets up to ``max_batch_size``, KvCache filled until some engines
    refuse, the probe adapter on GPU / in host RAM / on disk, all three
    roles, one dead engine; pack and spread."""
    n = draw(st.integers(2, 8))
    max_batch = draw(st.integers(1, 4))
    pooled = draw(st.booleans())
    registry = AdapterRegistry()
    registry.register(PROBE, rank=16, config=LLAMA2_7B)  # not staged: DISK
    dead = draw(st.integers(0, n - 1))
    engines = []
    for i in range(n):
        tier = draw(st.sampled_from(["gpu", "host", "disk"]))
        pages = draw(st.integers(12, 24)) if pooled else 8
        engine = build_engine(
            f"gpu{i}", pooled=pooled, pages=pages, max_batch=max_batch,
            role=draw(st.sampled_from(["both", "both", "prefill", "decode"])),
            registry=registry if tier == "disk" else None,
        )
        if tier == "gpu":
            engine.loader.request_load(PROBE, ADAPTER_BYTES, 0.0)
        for j in range(draw(st.integers(0, max_batch))):
            req = make_request(f"bg{i}-{j}", lora=draw(st.sampled_from(["bg", PROBE])))
            if engine.can_accept(req):
                engine.add_request(req, 0.0)
        filler = draw(st.integers(0, pages)) * PAGE
        if filler and engine.backend.kv.can_admit(filler):
            engine.backend.kv.allocate(f"filler{i}", filler)
        if i == dead:
            engine.fail(0.0)
        engines.append(engine)
    config = SchedulerConfig(routing=draw(st.sampled_from(["pack", "spread"])))
    probe = make_request("probe-req", lora=PROBE, prompt=draw(st.integers(1, 5 * PAGE)))
    return PunicaScheduler(engines, config), probe, draw(st.integers(1, 5 * PAGE))


class CountedAdmission:
    """Counts ``can_accept`` calls per engine while active."""

    def __init__(self, sched):
        self.sched = sched
        self.calls = 0

    def __enter__(self):
        for engine in self.sched.engines.values():
            engine.can_accept = self._counting(engine.can_accept)
        return self

    def _counting(self, can_accept):
        def counted(*args):
            self.calls += 1
            return can_accept(*args)
        return counted

    def __exit__(self, *exc):
        for engine in self.sched.engines.values():
            del engine.can_accept


def asked_at_most(winner, keys):
    """The call-count bound: the winner and whatever ranks above it (every
    eligible engine when nobody admits). ``keys`` maps gid -> ranking key
    of the role-eligible engines."""
    if winner is None:
        return len(keys)
    return sum(1 for key in keys.values() if key > keys[winner]) + 1


class TestFirstFitPlacement:
    @given(fleets())
    @settings(deadline=None)
    def test_equals_exhaustive_oracle_and_asks_only_down_to_the_winner(self, fleet):
        sched, probe, kv_tokens = fleet
        engines = sched.engines
        sign = 1 if sched.config.routing == "pack" else -1
        loc = {gid: sched._adapter_locality(e, probe) for gid, e in engines.items()}

        want = oracle_route(sched, probe)
        with CountedAdmission(sched) as counted:
            assert sched._route(probe, 0.0) == want
        keys = {
            gid: (sign * e.working_set_size, loc[gid], gid)
            for gid, e in engines.items() if e.role != "decode"
        }
        assert counted.calls <= asked_at_most(want, keys)

        want = oracle_route_decode(sched, probe, kv_tokens)
        with CountedAdmission(sched) as counted:
            assert sched.route_decode(probe, kv_tokens) == want
        keys = {
            gid: (loc[gid], e.working_set_size, gid)
            for gid, e in engines.items() if e.role != "prefill"
        }
        assert counted.calls <= asked_at_most(want, keys)

        for source_id, source in engines.items():
            want = oracle_migration_target(sched, source_id, probe)
            with CountedAdmission(sched) as counted:
                assert sched._migration_target(source_id, probe) == want
            keys = {
                gid: (e.working_set_size, loc[gid], gid)
                for gid, e in engines.items()
                if gid != source_id and e.role == source.role
                and e.working_set_size > source.working_set_size
            }
            assert counted.calls <= asked_at_most(want, keys)

    def test_scan_all_would_fail_the_count(self):
        # Eight empty engines: the top-ranked one admits, nobody else is asked.
        sched = make_scheduler(8)
        with CountedAdmission(sched) as counted:
            assert sched._route(make_request("r0"), 0.0) == "gpu7"
        assert counted.calls == 1
        # The top-ranked engine is full: it refuses, the runner-up admits.
        for i in range(4):
            sched.engines["gpu7"].add_request(make_request(f"fill{i}"), 0.0)
        with CountedAdmission(sched) as counted:
            assert sched._route(make_request("r1"), 0.0) == "gpu6"
        assert counted.calls == 2

    def test_nobody_admits_returns_none(self):
        sched = make_scheduler(3, max_batch=1)
        for i in range(3):
            sched.submit(make_request(f"r{i}"), 0.0)
        probe = make_request("late")
        assert sched._route(probe, 0.0) is None
        assert sched.route_decode(probe, 16) is None
        assert sched._migration_target("gpu0", probe) is None


class TestCanAcceptIsPure:
    """First fit skips engines the old scan asked, which is only sound if
    asking changes nothing — pinned here, not assumed."""

    @pytest.mark.parametrize("pooled", [False, True], ids=["plain", "unified-pool"])
    def test_can_accept_mutates_nothing(self, pooled):
        registry = AdapterRegistry()
        registry.register("cold", rank=16, config=LLAMA2_7B)
        engine = build_engine("gpu0", pooled=pooled, pages=24, registry=registry)
        for i, lora in enumerate(["m0", "m1"]):
            engine.add_request(make_request(f"r{i}", lora=lora, prompt=20), 0.0)
        engine.step(max(engine.loader.ready_time(m) for m in ("m0", "m1")))
        engine.add_request(make_request("pending", lora="m0"), 1.0)
        engine._default_lora_bytes  # a cached_property: fill it before the snapshot
        probes = [
            (make_request("fits", lora="m0"), None),
            (make_request("new-adapter", lora="m9"), None),
            (make_request("disk-adapter", lora="cold"), None),
            (make_request("too-long", prompt=24 * PAGE + 1), None),
            (make_request("imported", lora="m1"), 3 * PAGE),
            (make_request("imported-too-long", lora="m1"), 24 * PAGE + 1),
        ]
        before = pickle.dumps(engine)  # engine, store, pool and allocator
        answers = [engine.can_accept(req, kv) for req, kv in probes]
        assert pickle.dumps(engine) == before
        assert True in answers and False in answers
        assert [req.state for req, _ in probes] == [RequestState.QUEUED] * len(probes)
