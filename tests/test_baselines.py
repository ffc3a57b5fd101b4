"""Tests for baseline framework profiles and the static-batching engine."""

import pytest

from repro.baselines.framework import (
    ALL_BASELINES,
    ALL_SYSTEMS,
    DEEPSPEED,
    FASTER_TRANSFORMER,
    HF_TRANSFORMERS,
    PUNICA,
    VLLM,
    FrameworkProfile,
    build_engine,
)
from repro.baselines.static_engine import StaticBatchEngine
from repro.cluster.simulator import ClusterSimulator
from repro.models.config import LLAMA2_7B
from repro.models.perf import PerfFlags
from repro.runtime.engine import GpuEngine
from repro.runtime.request import Request, RequestState
from repro.workloads.lengths import ShareGptLengths
from repro.workloads.trace import RequestSpec, generate_trace


def make_request(rid, lora="m0", prompt=16, response=4):
    return Request(
        spec=RequestSpec(
            request_id=rid, lora_id=lora, arrival_time=0.0,
            prompt_len=prompt, response_len=response,
        )
    )


def short_trace(n, distribution, seed=0):
    lengths = ShareGptLengths(max_prompt_len=64, max_response_len=24)
    return generate_trace(n, distribution, seed=seed, lengths=lengths)


class TestProfiles:
    def test_only_punica_batches_multi_lora(self):
        assert PUNICA.multi_lora_batching
        assert not any(p.multi_lora_batching for p in ALL_BASELINES)

    def test_backbone_only_systems(self):
        assert not VLLM.serves_lora
        assert not FASTER_TRANSFORMER.serves_lora
        assert HF_TRANSFORMERS.serves_lora and DEEPSPEED.serves_lora

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            FrameworkProfile(
                name="bad", display_name="x", batching="magic",
                serves_lora=True, multi_lora_batching=False, flags=PerfFlags(),
            )
        with pytest.raises(ValueError):
            FrameworkProfile(
                name="bad", display_name="x", batching="static",
                serves_lora=False, multi_lora_batching=True, flags=PerfFlags(),
            )

    def test_build_engine_types(self):
        assert isinstance(build_engine(PUNICA, LLAMA2_7B), GpuEngine)
        assert isinstance(build_engine(VLLM, LLAMA2_7B), GpuEngine)
        assert isinstance(build_engine(HF_TRANSFORMERS, LLAMA2_7B), StaticBatchEngine)
        assert isinstance(build_engine(DEEPSPEED, LLAMA2_7B), StaticBatchEngine)

    def test_baseline_lora_switching_free(self):
        engine = build_engine(VLLM, LLAMA2_7B)
        req = make_request("r0", lora="anything")
        engine.add_request(req, now=0.0)
        assert engine.loader.is_ready("anything", now=0.0)


class TestStaticBatchEngine:
    def test_batch_runs_until_all_finish(self):
        engine = build_engine(FASTER_TRANSFORMER, LLAMA2_7B)
        short = make_request("short", response=2)
        long = make_request("long", response=8)
        engine.add_request(short, 0.0)
        engine.add_request(long, 0.0)
        now, reports = 0.0, []
        while not engine.is_idle:
            r = engine.step(now)
            assert r is not None
            reports.append(r)
            now = r.end
        assert short.state is RequestState.FINISHED
        assert long.state is RequestState.FINISHED
        # Wasted lanes: after `short` finishes, batch_size stays 2.
        decode_sizes = [r.batch_size for r in reports if r.num_decode]
        assert all(s == 2 for s in decode_sizes)
        # 1 prefill + 7 decode steps (long generates 8 tokens total).
        assert len(reports) == 8

    def test_no_admission_while_batch_active(self):
        engine = build_engine(FASTER_TRANSFORMER, LLAMA2_7B)
        engine.add_request(make_request("r0", response=4), 0.0)
        engine.step(0.0)  # seals + prefills
        assert not engine.can_accept(make_request("r1"))

    def test_same_lora_only_in_one_batch(self):
        engine = build_engine(DEEPSPEED, LLAMA2_7B)
        engine.add_request(make_request("r0", lora="a"), 0.0)
        assert not engine.can_accept(make_request("r1", lora="b"))
        assert engine.can_accept(make_request("r2", lora="a"))

    def test_wasted_fraction_tracks_finished_lanes(self):
        engine = build_engine(FASTER_TRANSFORMER, LLAMA2_7B)
        engine.add_request(make_request("short", response=1), 0.0)
        engine.add_request(make_request("long", response=5), 0.0)
        engine.step(0.0)  # prefill finishes `short` immediately
        assert engine.wasted_step_fraction() == pytest.approx(0.5)

    def test_cancel(self):
        engine = build_engine(FASTER_TRANSFORMER, LLAMA2_7B)
        req = make_request("r0")
        engine.add_request(req, 0.0)
        engine.cancel("r0")
        assert req.state is RequestState.CANCELLED
        assert engine.is_idle

    def test_tokens_not_counted_for_finished_lanes(self):
        engine = build_engine(FASTER_TRANSFORMER, LLAMA2_7B)
        engine.add_request(make_request("short", response=2), 0.0)
        engine.add_request(make_request("long", response=6), 0.0)
        now, tokens = 0.0, 0
        while not engine.is_idle:
            r = engine.step(now)
            tokens += r.tokens_generated
            now = r.end
        assert tokens == 8  # 2 + 6, no tokens for wasted steps


class TestFig11Shape:
    """End-to-end single-GPU comparison shapes from Fig 11."""

    def run(self, profile, trace):
        engine = build_engine(profile, LLAMA2_7B)
        return ClusterSimulator([engine]).run(trace)

    def test_punica_beats_all_baselines_on_distinct(self):
        trace = short_trace(40, "distinct")
        punica = self.run(PUNICA, trace)
        for profile in ALL_BASELINES:
            baseline = self.run(profile, trace)
            assert punica.throughput > 3.0 * baseline.throughput, profile.name

    def test_vllm_wins_identical_by_a_hair(self):
        # Fig 11: vLLM backbone-only slightly beats Punica in Identical
        # because Punica pays the LoRA addon.
        trace = short_trace(40, "identical")
        punica = self.run(PUNICA, trace)
        vllm = self.run(VLLM, trace)
        assert vllm.throughput > punica.throughput
        assert vllm.throughput < 1.35 * punica.throughput

    def test_punica_consistent_across_workloads(self):
        results = {
            dist: self.run(PUNICA, short_trace(40, dist)).throughput
            for dist in ("distinct", "uniform", "skewed", "identical")
        }
        assert max(results.values()) < 1.8 * min(results.values())

    def test_hf_slowest_even_on_identical(self):
        trace = short_trace(20, "identical")
        hf = self.run(HF_TRANSFORMERS, trace)
        for profile in (DEEPSPEED, FASTER_TRANSFORMER, VLLM):
            other = self.run(profile, trace)
            assert other.throughput > hf.throughput, profile.name

    def test_continuous_beats_static_on_identical_long_responses(self):
        # vLLM/Punica's separable KvCache avoids Fig 6's wasted steps. The
        # advantage shows when decode dominates (realistic response lengths);
        # with very short responses static whole-batch prefill can win.
        trace = generate_trace(96, "identical", seed=0)  # full ShareGPT lengths
        vllm = self.run(VLLM, trace)
        ft = self.run(FASTER_TRANSFORMER, trace)
        assert vllm.throughput > 1.5 * ft.throughput
