"""Direct unit tests for the compute backends."""

import numpy as np
import pytest

from repro.core.batch import BatchEntry, plan_batch
from repro.core.lora import LoraRegistry, random_lora_weights
from repro.hw.spec import A100_40G, A100_80G
from repro.models.config import LLAMA2_7B, LLAMA2_70B, tiny_config
from repro.models.perf import PerfFlags
from repro.models.tp import TensorParallelConfig
from repro.hw.interconnect import NVLINK_A100
from repro.models.weights import random_llama_weights
from repro.runtime.backend import NumpyBackend, SimulatedBackend, workload_from_plan
from repro.runtime.engine import EngineConfig, GpuEngine
from repro.runtime.request import Request
from repro.utils.units import GIB
from repro.workloads.trace import RequestSpec


def prefill(rid, lora, n):
    return BatchEntry(request_id=rid, lora_id=lora, num_tokens=n, is_prefill=True)


def decode(rid, lora):
    return BatchEntry(request_id=rid, lora_id=lora, num_tokens=1, is_prefill=False)


class TestWorkloadFromPlan:
    def test_mixed_batch(self):
        plan = plan_batch([prefill("p", "a", 5), decode("d1", "a"), decode("d2", "b")])
        work = workload_from_plan(
            plan, {"p": 0, "d1": 10, "d2": 20}, serve_lora=True, lora_rank=16
        )
        assert work.prefill_lens == (5,)
        assert sorted(work.decode_kv_lens) == [10, 20]
        assert sum(work.lora_segments) == 7

    def test_backbone_only(self):
        plan = plan_batch([decode("d", "a")])
        work = workload_from_plan(plan, {"d": 3}, serve_lora=False, lora_rank=16)
        assert work.lora_segments is None


class TestSimulatedBackend:
    def test_kv_capacity_derived_from_hbm(self):
        backend = SimulatedBackend(LLAMA2_7B, gpu=A100_80G)
        derived = backend.kv.total_pages * backend.kv.page_size
        # 80 GiB - ~12.6 GiB weights - 2 GiB workspace over 512 KiB/token.
        expected_bytes = A100_80G.hbm_capacity - LLAMA2_7B.weight_bytes() - 2 * GIB
        expected_tokens = expected_bytes / LLAMA2_7B.kv_bytes_per_token()
        assert derived == pytest.approx(expected_tokens, rel=0.01)

    def test_model_too_big_rejected(self):
        with pytest.raises(ValueError, match="does not fit"):
            SimulatedBackend(LLAMA2_70B, gpu=A100_40G)

    def test_70b_fits_with_tp(self):
        tp = TensorParallelConfig(world_size=8, interconnect=NVLINK_A100)
        backend = SimulatedBackend(LLAMA2_70B, gpu=A100_40G, tp=tp)
        assert backend.kv.total_pages > 0

    def test_execute_returns_distinct_tokens(self):
        backend = SimulatedBackend(LLAMA2_7B)
        plan = plan_batch([decode("a", "m"), decode("b", "m")])
        backend.kv_admit("a", 8)
        backend.kv_admit("b", 8)
        result = backend.execute(plan, {"a": 8, "b": 8})
        assert result.latency > 0
        assert len(set(result.tokens.values())) == 2

    def test_step_overhead_added(self):
        plan = plan_batch([decode("a", "m")])
        fast = SimulatedBackend(LLAMA2_7B, step_overhead=0.0)
        slow = SimulatedBackend(LLAMA2_7B, step_overhead=0.01)
        t_fast = fast.execute(plan, {"a": 8}).latency
        t_slow = slow.execute(plan, {"a": 8}).latency
        assert t_slow == pytest.approx(t_fast + 0.01)

    def test_flags_respected(self):
        plan = plan_batch([decode("a", "m")])
        base = SimulatedBackend(LLAMA2_7B, step_overhead=0.0)
        hf = SimulatedBackend(
            LLAMA2_7B, step_overhead=0.0,
            flags=PerfFlags(fused_layernorm=False, framework_overhead_per_layer=1e-3),
        )
        assert hf.execute(plan, {"a": 8}).latency > base.execute(plan, {"a": 8}).latency

    def test_kv_release_idempotent(self):
        backend = SimulatedBackend(LLAMA2_7B)
        backend.kv_admit("a", 8)
        backend.kv_release("a")
        backend.kv_release("a")  # no error on double release


class TestNumpyBackend:
    def make(self):
        cfg = tiny_config(hidden_size=32, num_layers=1, num_heads=4, vocab_size=32)
        weights = random_llama_weights(cfg, seed=0)
        reg = LoraRegistry()
        reg.register(random_lora_weights("m", 1, cfg.proj_dims(), 4, seed=1))
        return cfg, NumpyBackend(weights, reg, total_pages=32, page_size=4, lora_rank=4)

    def test_requires_request_objects(self):
        _, backend = self.make()
        plan = plan_batch([decode("a", "m")])
        with pytest.raises(ValueError, match="request objects"):
            backend.execute(plan, {"a": 0})

    def test_requires_prompt_tokens(self):
        cfg, backend = self.make()
        req = Request(spec=RequestSpec("a", "m", 0.0, 4, 2))  # no prompt ids
        backend.kv_admit("a", 4)
        plan = plan_batch([prefill("a", "m", 4)])
        with pytest.raises(ValueError, match="prompt tokens"):
            backend.execute(plan, {"a": 0}, requests={"a": req})

    def test_prefill_history_length_checked(self):
        cfg, backend = self.make()
        req = Request(spec=RequestSpec("a", "m", 0.0, 4, 2), prompt_tokens=[1, 2, 3, 4])
        backend.kv_admit("a", 6)
        plan = plan_batch([prefill("a", "m", 6)])  # wrong token count
        with pytest.raises(ValueError, match="history"):
            backend.execute(plan, {"a": 0}, requests={"a": req})

    def test_tokens_in_vocab(self):
        cfg, backend = self.make()
        req = Request(spec=RequestSpec("a", "m", 0.0, 4, 2), prompt_tokens=[1, 2, 3, 4])
        backend.kv_admit("a", 4)
        plan = plan_batch([prefill("a", "m", 4)])
        result = backend.execute(plan, {"a": 0}, requests={"a": req})
        assert 0 <= result.tokens["a"] < cfg.vocab_size
        assert result.latency == 0.0  # no cost model attached

    def test_kv_free_tokens(self):
        _, backend = self.make()
        before = backend.kv_free_tokens()
        backend.kv_admit("a", 8)
        assert backend.kv_free_tokens() == before - 8

    @pytest.mark.xfail(strict=True, reason="ROADMAP 1(b)")
    def test_request_admitted_during_a_full_batch_joins_within_a_few_steps(self):
        # Without a cost model every step is priced at 0 s, so the clock
        # stands still while a batch runs: a request whose adapter copy
        # is still in flight waits in _pending until the batch drains.
        cfg = tiny_config(hidden_size=32, num_layers=1, num_heads=4, vocab_size=32)
        reg = LoraRegistry()
        for lora in ("m0", "m1"):
            reg.register(random_lora_weights(lora, 1, cfg.proj_dims(), 4, seed=len(reg)))
        backend = NumpyBackend(
            random_llama_weights(cfg, seed=0), reg, total_pages=64, page_size=4, lora_rank=4
        )
        engine = GpuEngine("gpu0", backend, EngineConfig(max_batch_size=4))

        def request(rid, lora):
            spec = RequestSpec(rid, lora, 0.0, prompt_len=4, response_len=24)
            return Request(spec=spec, prompt_tokens=[1, 2, 3, 4])

        clock = 0.0
        for i in range(3):
            engine.add_request(request(f"r{i}", "m0"), clock)
        while engine.step(clock) is None:  # m0's copy is in flight
            clock += 1e-4
        late = request("late", "m1")
        engine.add_request(late, clock)
        for _ in range(4):
            report = engine.step(clock)
            clock = report.end if report is not None else clock + 1e-4
        assert late.num_generated > 0
