"""Single-GPU serving: a one-engine ClusterSimulator, simulated and functional."""

import numpy as np
import pytest

from repro.cluster.simulator import ClusterSimulator
from repro.core.lora import LoraRegistry, random_lora_weights
from repro.hw.spec import A100_80G
from repro.models.config import LLAMA2_7B, tiny_config
from repro.models.llama import reference_forward_full
from repro.models.weights import random_llama_weights
from repro.runtime.backend import NumpyBackend, SimulatedBackend
from repro.runtime.engine import EngineConfig, GpuEngine
from repro.runtime.latency import LatencyStats, breakdown_of
from repro.runtime.request import RequestState
from repro.runtime.serve import requests_from_trace
from repro.workloads.lengths import ShareGptLengths
from repro.workloads.trace import generate_trace


def simulated_engine(same_lora_only=False, serve_lora=True):
    backend = SimulatedBackend(LLAMA2_7B, serve_lora=serve_lora)
    cfg = EngineConfig(max_batch_size=32, same_lora_only=same_lora_only)
    return GpuEngine("gpu0", backend, cfg)


def serve(workload, **engine_kw):
    return ClusterSimulator([simulated_engine(**engine_kw)]).run(workload)


def short_trace(n, distribution, seed=0):
    lengths = ShareGptLengths(max_prompt_len=64, max_response_len=32)
    return generate_trace(n, distribution, seed=seed, lengths=lengths)


class TestSimulatedServing:
    def test_all_requests_finish(self):
        trace = short_trace(20, "uniform")
        reqs = requests_from_trace(trace)
        result = serve(reqs)
        assert result.finished_requests == 20
        assert all(r.state is RequestState.FINISHED for r in reqs)
        assert result.tokens_generated == trace.total_response_tokens

    def test_throughput_positive_and_sane(self):
        trace = short_trace(20, "distinct")
        result = serve(trace)
        assert 10 < result.throughput < 10_000

    def test_multi_lora_beats_single_lora_restriction(self):
        # The core Punica claim at small scale: batching across LoRA models
        # yields higher throughput than same-model-only batching.
        trace = short_trace(30, "distinct")
        punica = serve(trace)
        baseline = serve(trace, same_lora_only=True)
        assert punica.throughput > 2.0 * baseline.throughput
        assert punica.metrics.mean_batch_size() > baseline.metrics.mean_batch_size()

    def test_identical_workload_similar_for_both_policies(self):
        trace = short_trace(20, "identical")
        punica = serve(trace)
        restricted = serve(trace, same_lora_only=True)
        assert restricted.throughput == pytest.approx(punica.throughput, rel=0.15)

    def test_open_loop_respects_arrivals(self):
        from repro.workloads.arrivals import PoissonArrivals, constant_rate
        lengths = ShareGptLengths(max_prompt_len=32, max_response_len=16)
        trace = generate_trace(
            50, "uniform", seed=1, lengths=lengths,
            arrivals=PoissonArrivals(rate=constant_rate(2.0), duration=10.0),
        )
        for r in serve(trace).requests:
            if r.first_token_time is not None:
                assert r.first_token_time >= r.spec.arrival_time

    def test_normalized_latency_metrics(self):
        trace = short_trace(10, "uniform")
        result = serve(trace)
        lats = [breakdown_of(r).normalized for r in result.requests]
        assert len(lats) == 10
        assert all(l > 0 for l in lats)
        stats = LatencyStats.from_requests(result.requests)
        assert stats.count == 10
        assert stats.p50_normalized <= stats.p99_normalized

    def test_mean_batch_size_bounded(self):
        trace = short_trace(40, "uniform")
        result = serve(trace)
        assert 1.0 <= result.metrics.mean_batch_size() <= 32.0


class TestFunctionalServing:
    def make_functional(self, num_loras=2, seed=0):
        cfg = tiny_config(hidden_size=32, num_layers=2, num_heads=4, vocab_size=64)
        weights = random_llama_weights(cfg, seed=seed)
        registry = LoraRegistry()
        for i in range(num_loras):
            registry.register(
                random_lora_weights(
                    f"lora-{i}", cfg.num_layers, cfg.proj_dims(), 4, seed=50 + i
                )
            )
        backend = NumpyBackend(weights, registry, total_pages=128, page_size=4, lora_rank=4)
        return cfg, weights, registry, GpuEngine("gpu0", backend, EngineConfig())

    def test_end_to_end_generation_matches_reference(self):
        cfg, weights, registry, engine = self.make_functional()
        lengths = ShareGptLengths(max_prompt_len=6, max_response_len=4)
        trace = generate_trace(4, "uniform", seed=3, lengths=lengths)
        reqs = requests_from_trace(trace, with_prompt_tokens=True, vocab_size=cfg.vocab_size)
        result = ClusterSimulator([engine]).run(reqs)
        assert result.finished_requests == 4
        # Every generated token must be the greedy continuation of the
        # prompt under the request's own LoRA model.
        for req in reqs:
            history = list(req.prompt_tokens)
            for tok in req.generated_tokens:
                logits = reference_forward_full(
                    weights, np.asarray(history), registry, req.lora_id
                )
                assert tok == int(np.argmax(logits))
                history.append(tok)

    def test_functional_with_cost_model_reports_latency(self):
        cfg, _, registry, _ = self.make_functional()
        weights = random_llama_weights(cfg, seed=0)
        backend = NumpyBackend(
            weights, registry, total_pages=128, page_size=4, lora_rank=4,
            gpu=A100_80G,
        )
        engine = GpuEngine("gpu0", backend, EngineConfig())
        lengths = ShareGptLengths(max_prompt_len=6, max_response_len=4)
        trace = generate_trace(2, "identical", seed=5, lengths=lengths)
        reqs = requests_from_trace(trace, with_prompt_tokens=True, vocab_size=cfg.vocab_size)
        result = ClusterSimulator([engine]).run(reqs)
        assert result.duration > 0
        assert result.throughput > 0
