"""Tests for the unified KvCache + adapter memory pool, including the
property test of the shared-budget invariant (DESIGN.md §7)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adapters.pool import UnifiedMemoryPool
from repro.adapters.registry import AdapterRegistry, Tier
from repro.models.config import LLAMA2_7B
from repro.runtime.backend import SimulatedBackend
from repro.runtime.engine import EngineConfig, GpuEngine
from repro.runtime.request import Request
from repro.workloads.trace import RequestSpec

CAPACITY = 64.0
PAGE_SIZE = 4
BYTES_PER_TOKEN = 1

ADAPTERS = {"r8": (8, 8.0), "r16": (16, 16.0), "r32": (32, 24.0)}
"""Mixed-rank adapters: lora_id -> (rank, nbytes)."""


def make_pool(capacity=CAPACITY) -> UnifiedMemoryPool:
    reg = AdapterRegistry()
    for lid, (rank, nbytes) in ADAPTERS.items():
        reg.register(lid, rank=rank, nbytes=nbytes)
    return UnifiedMemoryPool(
        capacity_bytes=capacity,
        page_size=PAGE_SIZE,
        bytes_per_token=BYTES_PER_TOKEN,
        registry=reg,
    )


class TestSharedAccounting:
    def test_totals_split(self):
        pool = make_pool()
        pool.allocate("s0", 8)  # 2 pages = 8 bytes
        pool.adapters.request_load("r16", 16.0, now=0.0)
        assert pool.kv_used_bytes() == 8.0
        assert pool.adapter_used_bytes() == 16.0
        assert pool.total_used_bytes() == 24.0
        assert pool.free_bytes() == CAPACITY - 24.0
        pool.check_invariant()

    def test_kv_admission_respects_pinned_adapters(self):
        pool = make_pool(capacity=32.0)
        pool.adapters.request_load("r32", 24.0, now=0.0)
        pool.adapters.acquire("r32", now=0.0)
        assert not pool.can_admit(12)  # 3 pages won't fit next to 24 pinned
        with pytest.raises(MemoryError):
            pool.allocate("s0", 12)

    def test_kv_admission_reclaims_unpinned_adapters(self):
        pool = make_pool(capacity=32.0)
        pool.adapters.request_load("r32", 24.0, now=0.0)
        pool.adapters.advance(100.0)  # transfer settled; adapter unpinned
        assert pool.can_admit(12)
        pool.allocate("s0", 12)  # demotes the adapter to HOST
        assert not pool.adapters.is_resident("r32")
        assert pool.adapters.registry.tier("r32") is Tier.HOST
        pool.check_invariant()

    def test_kv_append_page_boundary_reclaims(self):
        pool = make_pool(capacity=32.0)
        pool.allocate("s0", 4)  # exactly one full page
        pool.adapters.request_load("r16", 16.0, now=0.0)
        pool.adapters.advance(100.0)
        assert pool.can_append("s0")  # next token needs a page: reclaimable
        pool.append("s0")
        pool.check_invariant()

    def test_kv_free_tokens_counts_evictable_adapters(self):
        pool = make_pool(capacity=32.0)
        pool.adapters.request_load("r16", 16.0, now=0.0)
        pool.adapters.advance(100.0)
        assert pool.free_tokens == 32  # unpinned adapter counts as free
        pool.adapters.acquire("r16", now=100.0)
        assert pool.free_tokens == 16  # pinned bytes are off-limits

    def test_adapter_load_respects_kv_usage(self):
        pool = make_pool(capacity=32.0)
        pool.allocate("s0", 20)  # 5 pages = 20 bytes
        assert not pool.adapters.can_admit_adapter("r32", 24.0)
        with pytest.raises(MemoryError):
            pool.adapters.request_load("r32", 24.0, now=0.0)
        pool.free("s0")
        pool.adapters.request_load("r32", 24.0, now=1.0)
        pool.check_invariant()

    def test_prefetch_invalidates_a_staged_run(self):
        # One request on r8 (8 bytes) holding one full 4-token page: 28
        # bytes are free, so a run is staged 7 steps long, a page per
        # step. Promoting r32 after its first step takes the last free
        # bytes, and the page the run opens at its fifth step no longer
        # fits: the run is stale, no new one fits beside the adapters,
        # and that page comes from a scalar step that demotes r32.
        pool = make_pool(capacity=40.0)
        engine = GpuEngine(
            "gpu0", SimulatedBackend(LLAMA2_7B, unified_pool=pool),
            EngineConfig(max_batch_size=4),
        )
        engine.add_request(Request(spec=RequestSpec(
            request_id="r", lora_id="r8", arrival_time=0.0,
            prompt_len=4, response_len=12,
        )), 0.0)
        now = engine.step(pool.adapters.ready_time("r8")).end
        ends, batch, finishes = engine.steady_run_stage(now)
        assert (len(ends) - 1, batch, finishes) == (7, 1, False)
        engine.commit_steady_run(1)
        now = float(ends[1])
        assert engine.steady_run_valid()
        assert pool.adapters.prefetch("r32", now)
        assert pool.free_bytes() == 0.0
        assert not engine.steady_run_valid()
        assert engine.steady_run_stage(now) is None
        while not engine.is_idle:
            now = engine.step(now).end
            pool.check_invariant()
        assert not pool.adapters.is_resident("r32")


# -- property test -------------------------------------------------------

_ops = st.lists(
    st.one_of(
        st.tuples(st.just("load"), st.sampled_from(sorted(ADAPTERS))),
        st.tuples(st.just("acquire"), st.sampled_from(sorted(ADAPTERS))),
        st.tuples(st.just("release"), st.sampled_from(sorted(ADAPTERS))),
        st.tuples(st.just("prefetch"), st.sampled_from(sorted(ADAPTERS))),
        st.tuples(st.just("kv_admit"), st.integers(0, 3), st.integers(1, 24)),
        st.tuples(st.just("kv_append"), st.integers(0, 3)),
        st.tuples(st.just("kv_release"), st.integers(0, 3)),
        # An engine on the pool: admits, scalar steps, and bulk runs
        # staged in one operation and committed (while still valid) in a
        # later one, so loads and prefetches land between the two.
        st.tuples(
            st.just("admit"), st.sampled_from(sorted(ADAPTERS)),
            st.integers(1, 8), st.integers(1, 12),
        ),
        st.tuples(st.just("step")),
        st.tuples(st.just("stage")),
        st.tuples(st.just("commit"), st.integers(1, 12)),
    ),
    max_size=60,
)


@settings(max_examples=120, deadline=None)
@given(ops=_ops)
def test_gpu_bytes_never_exceed_unified_budget(ops):
    """Random load/evict/prefetch/KV sequences at mixed ranks, with an
    engine on the pool admitting, stepping and committing bulk decode
    runs in between, never push KvCache + adapter bytes past the shared
    budget."""
    pool = make_pool()
    engine = GpuEngine(
        "gpu0", SimulatedBackend(LLAMA2_7B, unified_pool=pool),
        EngineConfig(max_batch_size=4),
    )
    held: dict[str, int] = {lid: 0 for lid in ADAPTERS}
    now = 0.0
    for serial, op in enumerate(ops):
        now += 0.5
        pool.adapters.advance(now)
        kind = op[0]
        if kind == "load":
            lid = op[1]
            try:
                pool.adapters.request_load(lid, ADAPTERS[lid][1], now)
            except MemoryError:
                pass  # budget full of pinned state: correct refusal
        elif kind == "acquire":
            lid = op[1]
            if pool.adapters.is_resident(lid):
                pool.adapters.acquire(lid, now)
                held[lid] += 1
        elif kind == "release":
            lid = op[1]
            if held[lid] > 0:
                pool.adapters.release(lid)
                held[lid] -= 1
        elif kind == "prefetch":
            pool.adapters.prefetch(op[1], now)
        elif kind == "kv_admit":
            seq, tokens = f"s{op[1]}", op[2]
            if seq not in pool and pool.can_admit(tokens):
                pool.allocate(seq, tokens)
        elif kind == "kv_append":
            seq = f"s{op[1]}"
            if seq in pool and pool.can_append(seq):
                pool.append(seq)
        elif kind == "kv_release":
            seq = f"s{op[1]}"
            if seq in pool:
                pool.free(seq)
        elif kind == "admit":
            _, lid, prompt, response = op
            req = Request(spec=RequestSpec(
                request_id=f"r{serial}", lora_id=lid, arrival_time=now,
                prompt_len=prompt, response_len=response,
            ))
            if engine.can_accept(req):
                engine.add_request(req, now)
        elif kind == "step":
            report = engine.step(now)
            if report is not None:
                now = max(now, report.end)
        elif kind == "stage":
            engine.steady_run_stage(now)
        elif kind == "commit" and engine.steady_run_valid():
            ends = engine._staged_run[0]
            n = min(op[1], len(ends) - 1)
            engine.commit_steady_run(n)
            now = max(now, float(ends[n]))
        pool.check_invariant()
        assert pool.adapter_used_bytes() + pool.kv_used_bytes() <= CAPACITY
