"""Direct unit tests for the compute backends."""

import numpy as np
import pytest

from repro.cluster.simulator import ClusterSimulator
from repro.core.batch import BatchEntry, plan_batch
from repro.core.lora import LoraRegistry, random_lora_weights
from repro.hw.kernels import KernelCostModel
from repro.hw.spec import A100_40G, A100_80G
from repro.models.config import LLAMA2_7B, LLAMA2_70B, tiny_config
from repro.models.perf import (
    PerfFlags,
    StepWorkload,
    model_step_latency,
    spec_round_latency,
)
from repro.models.tp import TensorParallelConfig
from repro.hw.interconnect import NVLINK_A100
from repro.models.weights import random_llama_weights
from repro.runtime.backend import NumpyBackend, SimulatedBackend
from repro.runtime.engine import EngineConfig, GpuEngine
from repro.runtime.pricing import StepPricer
from repro.runtime.request import Request
from repro.runtime.serve import requests_from_trace
from repro.runtime.spec import SpecConfig
from repro.utils.units import GIB
from repro.workloads.lengths import ShareGptLengths
from repro.workloads.trace import RequestSpec, generate_trace


def prefill(rid, lora, n):
    return BatchEntry(request_id=rid, lora_id=lora, num_tokens=n, is_prefill=True)


def decode(rid, lora):
    return BatchEntry(request_id=rid, lora_id=lora, num_tokens=1, is_prefill=False)


def plan_workload(plan, past_lens, serve_lora, lora_rank):
    """The per-request workload of a planned batch: its prefill lengths,
    each decode request's own past KV length, its LoRA segments."""
    return StepWorkload(
        prefill_lens=plan.prefill_lens,
        decode_kv_lens=tuple(past_lens[rid] for rid in plan.decode_ids),
        lora_segments=plan.segment_sizes if serve_lora else None,
        lora_rank=lora_rank,
    )


class TestStepPricer:
    def test_mixed_batch(self):
        plan = plan_batch([prefill("p", "a", 5), decode("d1", "a"), decode("d2", "b")])
        pricer = StepPricer(LLAMA2_7B, step_overhead=0.0005)
        seconds = pricer.step_seconds(plan.prefill_lens, 2, 11 + 21, plan.segment_sizes)
        work = plan_workload(plan, {"p": 0, "d1": 10, "d2": 20}, True, 16)
        assert work.prefill_lens == (5,)
        assert sorted(work.decode_kv_lens) == [10, 20]
        assert sum(work.lora_segments) == 7
        kcm = KernelCostModel(A100_80G)
        assert seconds == model_step_latency(LLAMA2_7B, kcm, work) + 0.0005

    def test_backbone_only(self):
        plan = plan_batch([decode("d", "a")])
        pricer = StepPricer(LLAMA2_7B, serve_lora=False)
        work = plan_workload(plan, {"d": 3}, False, 16)
        assert work.lora_segments is None
        seconds = pricer.step_seconds((), 1, 4, plan.segment_sizes)
        kcm = KernelCostModel(A100_80G)
        assert seconds == model_step_latency(LLAMA2_7B, kcm, work)
        assert seconds < StepPricer(LLAMA2_7B).step_seconds((), 1, 4, (1,))


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
        assert result.latency == backend.pricer.step_seconds((4,), 0, 0, (4,))
        assert result.latency > 0

    def test_kv_free_tokens(self):
        _, backend = self.make()
        before = backend.kv_free_tokens()
        backend.kv_admit("a", 8)
        assert backend.kv_free_tokens() == before - 8

    def test_request_admitted_during_a_full_batch_joins_within_a_few_steps(self):
        # Every step is priced, so the clock moves while a batch runs: a
        # request whose adapter copy is in flight joins once the copy
        # lands instead of waiting in _pending for the batch to drain.
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


class TestFunctionalPricing:
    """The functional backend's latencies are the analytical model's, bit
    for bit: ``model_step_latency`` (or ``spec_round_latency`` for a
    speculative round) over each step's per-request workload, plus the
    backend's ``step_overhead``."""

    CFG = tiny_config(hidden_size=32, num_layers=2, num_heads=4, vocab_size=64)

    def serve(self, seed, spec, step_overhead):
        weights = random_llama_weights(self.CFG, seed=seed)
        registry = LoraRegistry()
        for i in range(3):
            registry.register(
                random_lora_weights(
                    f"lora-{i}", self.CFG.num_layers, self.CFG.proj_dims(), 4,
                    seed=40 + i,
                )
            )
        backend = NumpyBackend(
            weights, registry, total_pages=128, page_size=4, lora_rank=4,
            step_overhead=step_overhead,
        )
        calls = []

        def recording(method):
            def call(plan, past_lens, *args, **kwargs):
                out = method(plan, past_lens, *args, **kwargs)
                calls.append((method.__name__, plan, dict(past_lens), out.latency))
                return out
            return call

        backend.execute = recording(backend.execute)
        backend.execute_spec = recording(backend.execute_spec)
        engine = GpuEngine("gpu0", backend, EngineConfig(max_batch_size=4, spec=spec))
        lengths = ShareGptLengths(max_prompt_len=8, max_response_len=8)
        trace = generate_trace(6, "uniform", seed=seed, lengths=lengths)
        reqs = requests_from_trace(
            trace, with_prompt_tokens=True, vocab_size=self.CFG.vocab_size, seed=seed
        )
        ClusterSimulator([engine]).run(reqs)
        return calls

    @pytest.mark.parametrize("step_overhead", [0.0, 0.001])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_execute_prices_the_per_request_workload(self, seed, step_overhead):
        calls = self.serve(seed, None, step_overhead)
        kcm = KernelCostModel(A100_80G)
        assert any(plan.prefill_lens and plan.decode_ids for _, plan, _, _ in calls)
        for _, plan, past_lens, latency in calls:
            work = plan_workload(plan, past_lens, True, 4)
            assert latency == model_step_latency(self.CFG, kcm, work) + step_overhead

    @pytest.mark.parametrize("step_overhead", [0.0, 0.001])
    def test_execute_spec_prices_the_round(self, step_overhead):
        spec = SpecConfig(draft_len=3, seed=0)
        calls = self.serve(0, spec, step_overhead)
        kcm = KernelCostModel(A100_80G)
        assert any(name == "execute_spec" for name, _, _, _ in calls)
        for name, plan, past_lens, latency in calls:
            work = plan_workload(plan, past_lens, True, 4)
            if name == "execute_spec":
                want = spec_round_latency(
                    self.CFG, kcm, work, spec.draft_len, spec.draft_cost_ratio
                )
            else:
                want = model_step_latency(self.CFG, kcm, work)
            assert latency == want + step_overhead
