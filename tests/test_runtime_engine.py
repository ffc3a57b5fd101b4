"""Tests for the continuous-batching engine with the simulated backend."""

import pytest

from repro.models.config import LLAMA2_7B, tiny_config
from repro.models.perf import PUNICA_FLAGS, PerfFlags
from repro.runtime.backend import SimulatedBackend
from repro.runtime.engine import EngineConfig, GpuEngine
from repro.runtime.request import Request, RequestState
from repro.utils.units import GIB
from repro.workloads.trace import RequestSpec


def make_request(rid, lora="m0", prompt=16, response=4, arrival=0.0):
    return Request(
        spec=RequestSpec(
            request_id=rid, lora_id=lora, arrival_time=arrival,
            prompt_len=prompt, response_len=response,
        )
    )


def make_engine(max_batch=32, same_lora_only=False, kv_capacity=None, config=LLAMA2_7B):
    backend = SimulatedBackend(config, kv_capacity_bytes=kv_capacity, step_overhead=0.0)
    return GpuEngine(
        "gpu0",
        backend,
        EngineConfig(max_batch_size=max_batch, same_lora_only=same_lora_only),
    )


def run_until_idle(engine, now=0.0, limit=10_000):
    reports = []
    for _ in range(limit):
        r = engine.step(now)
        if r is None:
            if engine.is_idle:
                break
            now += 1e-3  # waiting on LoRA load
            continue
        reports.append(r)
        now = r.end
    return reports, now


class TestAdmission:
    def test_add_and_serve_one_request(self):
        engine = make_engine()
        req = make_request("r0", response=3)
        engine.add_request(req, now=0.0)
        reports, _ = run_until_idle(engine)
        assert req.state is RequestState.FINISHED
        assert req.num_generated == 3
        # prefill step + 2 decode steps
        assert len(reports) == 3
        assert reports[0].num_prefill == 1

    def test_max_batch_size_enforced(self):
        engine = make_engine(max_batch=2)
        engine.add_request(make_request("r0"), 0.0)
        engine.add_request(make_request("r1"), 0.0)
        assert not engine.can_accept(make_request("r2"))
        with pytest.raises(RuntimeError):
            engine.add_request(make_request("r2"), 0.0)

    def test_kv_capacity_enforced(self):
        # Tiny pool: ~2000 tokens.
        engine = make_engine(kv_capacity=2000 * LLAMA2_7B.kv_bytes_per_token())
        assert not engine.can_accept(make_request("big", prompt=4000))

    def test_duplicate_rejected(self):
        engine = make_engine()
        engine.add_request(make_request("r0"), 0.0)
        with pytest.raises(ValueError):
            engine.add_request(make_request("r0"), 0.0)

    def test_working_set_counts_pending(self):
        engine = make_engine()
        engine.add_request(make_request("r0"), 0.0)
        assert engine.working_set_size == 1
        assert not engine.is_idle


class TestLoraLoading:
    def test_request_waits_for_lora_load(self):
        engine = make_engine()
        engine.add_request(make_request("r0"), now=0.0)
        # The ~2ms PCIe copy hasn't finished at t=0: no prefill possible.
        assert engine.step(0.0) is None
        ready = engine.loader.ready_time("m0")
        report = engine.step(ready)
        assert report is not None and report.num_prefill == 1

    def test_resident_lora_needs_no_wait(self):
        engine = make_engine()
        engine.add_request(make_request("r0", lora="m0"), 0.0)
        run_until_idle(engine)
        # Second request for the same model: weights already resident.
        engine.add_request(make_request("r1", lora="m0"), now=100.0)
        assert engine.step(100.0) is not None


class TestContinuousBatching:
    def test_multi_lora_requests_share_batches(self):
        engine = make_engine()
        t = 0.0
        for i in range(4):
            engine.add_request(make_request(f"r{i}", lora=f"m{i}", response=8), t)
        reports, _ = run_until_idle(engine)
        assert any(r.num_lora_segments >= 3 for r in reports)
        assert max(r.batch_size for r in reports) == 4

    def test_one_prefill_per_step(self):
        engine = make_engine()
        for i in range(3):
            engine.add_request(make_request(f"r{i}", response=6), 0.0)
        reports, _ = run_until_idle(engine)
        assert all(r.num_prefill <= 1 for r in reports)

    def test_finished_request_leaves_immediately(self):
        # Separable KvCache: short request exits while long one continues.
        engine = make_engine()
        engine.add_request(make_request("short", response=4), 0.0)
        engine.add_request(make_request("long", response=10), 0.0)
        reports, _ = run_until_idle(engine)
        sizes = [r.num_decode for r in reports]
        assert 1 in sizes and 2 in sizes  # batch shrank mid-flight

    def test_armed_batch_counts_reuse_against_plans_built(self):
        # ``_plan_cache`` is the armed batch: a hit is a step on the plan
        # the previous step armed, a miss is a plan built.
        engine = make_engine()
        engine.add_request(make_request("short", response=4), 0.0)
        engine.add_request(make_request("long", response=10), 0.0)
        reports, _ = run_until_idle(engine)
        # Two steps carry a prefill and plan from scratch; the second arms
        # {short, long} (2 armed steps until short finishes), the re-arm on
        # {long} carries the remaining 7.
        assert len(reports) == 11
        assert engine._plan_cache.hits == 9
        assert engine._plan_cache.misses == 2 + 2

    def test_same_lora_only_mode_blocks_other_models(self):
        engine = make_engine(same_lora_only=True)
        engine.add_request(make_request("r0", lora="a", response=6), 0.0)
        assert not engine.can_accept(make_request("r1", lora="b"))
        assert engine.can_accept(make_request("r2", lora="a"))

    def test_tokens_counted_per_step(self):
        engine = make_engine()
        engine.add_request(make_request("r0", response=5), 0.0)
        reports, _ = run_until_idle(engine)
        assert sum(r.tokens_generated for r in reports) == 5


class TestEviction:
    def test_memory_pressure_evicts_newest(self):
        bpt = LLAMA2_7B.kv_bytes_per_token()
        # Pool of exactly 48 tokens (page_size 16 -> 3 pages).
        engine = make_engine(kv_capacity=48 * bpt)
        old = make_request("old", prompt=16, response=40)
        new = make_request("new", prompt=16, response=40)
        engine.add_request(old, 0.0)
        reports, now = [], 1.0
        engine.add_request(new, 0.5)
        for _ in range(200):
            r = engine.step(now)
            if r is None:
                if engine.is_idle:
                    break
                now += 1e-3
                continue
            reports.append(r)
            now = r.end
            if r.evicted:
                break
        evicted = [rid for r in reports for rid in r.evicted]
        assert evicted == ["new"]  # newest evicted, FCFS preserved
        assert new.state is RequestState.QUEUED
        assert new.needs_prefill
        assert new.num_generated > 0  # progress preserved

    def test_cancel_requeue_preserves_tokens(self):
        engine = make_engine()
        req = make_request("r0", response=10)
        engine.add_request(req, 0.0)
        ready = engine.loader.ready_time("m0")
        engine.step(ready)
        engine.step(ready + 1.0)
        assert req.num_generated == 2
        returned = engine.cancel("r0", requeue=True)
        assert returned is req
        assert req.state is RequestState.QUEUED
        assert req.num_generated == 2
        assert engine.is_idle

    def test_cancel_without_requeue(self):
        engine = make_engine()
        req = make_request("r0")
        engine.add_request(req, 0.0)
        engine.cancel("r0")
        assert req.state is RequestState.CANCELLED

    def test_cancel_unknown(self):
        with pytest.raises(KeyError):
            make_engine().cancel("ghost")


class TestConfigValidation:
    def test_prefill_batch_limit_zero_rejected(self):
        # 0 used to slip through a `< 0` check and starve every queued
        # request forever.
        with pytest.raises(ValueError, match="prefill_batch_limit"):
            EngineConfig(prefill_batch_limit=0)

    def test_prefill_batch_limit_negative_rejected(self):
        with pytest.raises(ValueError, match="prefill_batch_limit"):
            EngineConfig(prefill_batch_limit=-1)


class TestKvHandoff:
    def test_export_then_import_resumes_without_reprefill(self):
        src = make_engine()
        dst = make_engine()
        req = make_request("r0", prompt=16, response=4)
        src.add_request(req, 0.0)
        ready = src.loader.ready_time("m0")
        report = src.step(ready)
        assert report.num_prefill == 1 and req.num_generated == 1

        request, kv_tokens, payload = src.export_request("r0", report.end)
        assert request is req
        assert kv_tokens == req.kv_len and kv_tokens >= 16
        assert src.is_idle
        assert not req.needs_prefill

        assert dst.can_accept(req, kv_tokens)
        dst.import_request(req, kv_tokens, payload, report.end)
        assert req.state is RequestState.RUNNING
        reports, _ = run_until_idle(dst, now=report.end)
        assert req.state is RequestState.FINISHED
        assert req.num_generated == 4
        # The whole point of the handoff: no prefill on the decode side.
        assert all(r.num_prefill == 0 for r in reports)

    def test_export_requires_active_request(self):
        engine = make_engine()
        req = make_request("r0")
        engine.add_request(req, 0.0)
        # Still pending (prefill hasn't run): nothing to export.
        with pytest.raises(KeyError):
            engine.export_request("r0", 0.0)
        with pytest.raises(KeyError):
            engine.export_request("ghost", 0.0)

    def test_import_rejected_when_batch_full(self):
        src = make_engine()
        dst = make_engine(max_batch=1)
        dst.add_request(make_request("occupant"), 0.0)
        req = make_request("r0", prompt=16, response=4)
        src.add_request(req, 0.0)
        report = src.step(src.loader.ready_time("m0"))
        _, kv_tokens, payload = src.export_request("r0", report.end)
        assert not dst.can_accept(req, kv_tokens)
        with pytest.raises(RuntimeError):
            dst.import_request(req, kv_tokens, payload, report.end)


class TestStepReport:
    def test_report_fields(self):
        engine = make_engine()
        engine.add_request(make_request("r0", prompt=32), 0.0)
        ready = engine.loader.ready_time("m0")
        r = engine.step(ready)
        assert r.gpu_id == "gpu0"
        assert r.start == ready
        assert r.end == ready + r.latency
        assert r.latency > 0
        assert r.num_prefill == 1 and r.num_decode == 0
        assert r.batch_size == 1


class TestEvictionOrderingRegression:
    """Pin §5.3's newest-victim-first ordering under sustained KvCache
    pressure, with multiple victims in one run and on both engine paths.

    The scenario: four requests admitted in order, then the remaining
    KvCache pages are consumed by a blocker allocation. As each request's
    sequence crosses a page boundary it needs a fresh page, so victims
    must fall in exact reverse-admission order (d first, then c) while
    the two oldest requests run to completion — FCFS preserved.
    """

    @pytest.mark.parametrize("fast_path", [True, False])
    def test_multi_victim_newest_first(self, fast_path):
        bpt = LLAMA2_7B.kv_bytes_per_token()
        backend = SimulatedBackend(
            LLAMA2_7B, kv_capacity_bytes=8 * 16 * bpt, step_overhead=0.0,
            fast_path=fast_path,
        )
        engine = GpuEngine(
            "gpu0", backend, EngineConfig(max_batch_size=8),
            fast_path=fast_path,
        )
        reqs = {
            rid: make_request(rid, prompt=8, response=12)
            for rid in ("a", "b", "c", "d")
        }
        now = 0.0
        reports = []
        for rid in ("a", "b", "c", "d"):
            engine.add_request(reqs[rid], now)
            for _ in range(100):
                r = engine.step(now)
                if r is None:
                    now += 1e-3
                    continue
                reports.append(r)
                now = r.end
                if not reqs[rid].needs_prefill:
                    break
            assert not reqs[rid].needs_prefill
        # Eat every remaining page: the next boundary crossing must evict.
        backend.kv_admit("blocker", backend.kv.free_pages * 16)
        assert backend.kv.free_pages == 0
        for _ in range(400):
            r = engine.step(now)
            if r is None:
                if engine.is_idle:
                    break
                now += 1e-3
                continue
            reports.append(r)
            now = r.end
        evicted = [rid for r in reports for rid in r.evicted]
        assert evicted == ["d", "c"]  # strict newest-first, one per crossing
        assert reqs["a"].state is RequestState.FINISHED
        assert reqs["b"].state is RequestState.FINISHED
        assert reqs["c"].state is RequestState.QUEUED
        assert reqs["d"].state is RequestState.QUEUED
        # Victims keep their generated prefix for re-placement (§5.3).
        assert reqs["c"].num_generated > 0
        assert reqs["d"].num_generated > 0

    def test_fast_and_reference_evictions_agree(self):
        """Step for step: starts, exact latencies, batches, finishes and
        evictions. Under ``cache_concat`` a layer term reads the KV
        lengths, so no shape-keyed latency memo may serve the fast path."""

        def run(fast_path, flags):
            bpt = LLAMA2_7B.kv_bytes_per_token()
            backend = SimulatedBackend(
                LLAMA2_7B, kv_capacity_bytes=6 * 16 * bpt, step_overhead=0.0,
                flags=flags, fast_path=fast_path,
            )
            engine = GpuEngine(
                "gpu0", backend, EngineConfig(max_batch_size=8),
                fast_path=fast_path,
            )
            reqs = [
                make_request(f"r{i}", prompt=8, response=20, arrival=0.1 * i)
                for i in range(5)
            ]
            now, i = 0.0, 0
            log = []
            for _ in range(600):
                while i < len(reqs) and reqs[i].spec.arrival_time <= now:
                    if engine.can_accept(reqs[i]):
                        engine.add_request(reqs[i], now)
                        i += 1
                    else:
                        break
                r = engine.step(now)
                if r is None:
                    if engine.is_idle and i >= len(reqs):
                        break
                    now += 1e-3
                    continue
                log.append(
                    (round(r.start, 9), r.latency, r.batch_size, r.finished,
                     r.evicted)
                )
                now = r.end
            return log, [(q.request_id, q.state) for q in reqs]

        for flags in (PUNICA_FLAGS, PerfFlags(cache_concat=True)):
            assert run(True, flags) == run(False, flags), flags
