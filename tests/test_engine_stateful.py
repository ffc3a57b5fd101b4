"""Stateful property test: the engine under arbitrary add/step/cancel traffic.

Invariants checked after every action:

* the working set never exceeds the max batch size;
* the backend page allocator's view of each request's sequence length
  equals the engine's ``kv_len`` bookkeeping (no drift);
* no request generates more tokens than its response length;
* FINISHED/CANCELLED requests hold no KvCache pages;
* page accounting balances exactly across admissions, evictions,
  cancellations and completions.

The machine runs twice: plain, and with the engine armed for speculative
decoding, where every pure-decode step reserves ``draft_len + 1`` slots
per request and rolls the rejected ones back — the same invariants then
pin spec x eviction x requeue under the deliberately tight pool.
"""

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.kvcache.page import pages_needed
from repro.models.config import LLAMA2_7B
from repro.runtime.backend import SimulatedBackend
from repro.runtime.engine import EngineConfig, GpuEngine
from repro.runtime.request import Request, RequestState
from repro.runtime.spec import SpecConfig
from repro.workloads.trace import RequestSpec

MAX_BATCH = 4
PAGE_SIZE = 16
POOL_TOKENS = 40 * PAGE_SIZE  # deliberately tight: exercises eviction


class EngineMachine(RuleBasedStateMachine):
    CONFIG = EngineConfig(max_batch_size=MAX_BATCH)

    def __init__(self):
        super().__init__()
        self.backend = SimulatedBackend(
            LLAMA2_7B,
            kv_capacity_bytes=POOL_TOKENS * LLAMA2_7B.kv_bytes_per_token(),
            page_size=PAGE_SIZE,
            step_overhead=0.0,
        )
        self.engine = GpuEngine("gpu0", self.backend, self.CONFIG)
        self.now = 0.0
        self.requests: dict[str, Request] = {}
        self.counter = 0

    @rule(prompt=st.integers(1, 100), response=st.integers(1, 60),
          lora=st.sampled_from(["a", "b", "c"]))
    def add(self, prompt, response, lora):
        rid = f"r{self.counter}"
        self.counter += 1
        req = Request(
            spec=RequestSpec(
                request_id=rid, lora_id=lora, arrival_time=self.now,
                prompt_len=prompt, response_len=response,
            )
        )
        if self.engine.can_accept(req):
            self.engine.add_request(req, self.now)
            self.requests[rid] = req
        else:
            with pytest.raises(RuntimeError):
                self.engine.add_request(req, self.now)

    @rule()
    def step(self):
        report = self.engine.step(self.now)
        if report is None:
            self.now += 2e-3  # let any LoRA load land
        else:
            self.now = max(self.now, report.end)
            assert report.batch_size <= MAX_BATCH
            assert report.num_prefill <= 1

    @precondition(lambda self: any(
        r.state is RequestState.RUNNING for r in self.requests.values()
    ))
    @rule(requeue=st.booleans(), data=st.data())
    def cancel(self, requeue, data):
        running = sorted(
            rid for rid, r in self.requests.items()
            if r.state is RequestState.RUNNING and self.engine.has_request(rid)
        )
        if not running:
            return
        rid = data.draw(st.sampled_from(running))
        self.engine.cancel(rid, requeue=requeue)
        if not requeue:
            del self.requests[rid]

    @precondition(lambda self: any(
        r.state is RequestState.QUEUED and r.num_migrations > 0
        for r in self.requests.values()
    ))
    @rule()
    def readmit_evicted(self):
        for rid, req in sorted(self.requests.items()):
            if req.state is RequestState.QUEUED and not self.engine.has_request(rid):
                if self.engine.can_accept(req):
                    self.engine.add_request(req, self.now)
                break

    # ------------------------------------------------------------------
    @invariant()
    def batch_bound(self):
        assert self.engine.working_set_size <= MAX_BATCH

    @invariant()
    def kv_accounting_consistent(self):
        allocator = self.backend.kv.allocator
        expected_pages = 0
        for req in self.engine.all_requests():
            rid = req.request_id
            if req.needs_prefill:
                # Pending: no pages allocated yet.
                assert rid not in allocator
            else:
                assert allocator.seq_len(rid) == req.kv_len
                expected_pages += pages_needed(req.kv_len, PAGE_SIZE)
        assert allocator.used_pages == expected_pages

    @invariant()
    def token_limits_respected(self):
        for req in self.requests.values():
            assert req.num_generated <= req.spec.response_len

    @invariant()
    def finished_requests_hold_nothing(self):
        allocator = self.backend.kv.allocator
        for rid, req in self.requests.items():
            if req.state in (RequestState.FINISHED, RequestState.CANCELLED):
                assert rid not in allocator
                assert not self.engine.has_request(rid)


class SpecEngineMachine(EngineMachine):
    CONFIG = EngineConfig(
        max_batch_size=MAX_BATCH,
        spec=SpecConfig(draft_len=3, acceptance_rate=0.5),
    )


TestEngineStateful = EngineMachine.TestCase
TestSpecEngineStateful = SpecEngineMachine.TestCase
TestEngineStateful.settings = TestSpecEngineStateful.settings = settings(
    max_examples=30, stateful_step_count=40, deadline=None
)
