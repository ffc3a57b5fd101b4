"""Integration tests: request migration preserves generation exactly.

The paper's migration (§5.3) cancels a request on GPU 1 and re-prefills
its prompt *plus all previously generated tokens* on GPU 2. With greedy
decoding the recomputed KvCache must lead to the identical continuation —
these tests prove that end to end with the functional NumPy backend, both
for a hand-driven two-engine migration and under the full cluster
simulator with memory-pressure evictions.
"""

import numpy as np
import pytest

from repro.cluster.scheduler import SchedulerConfig
from repro.cluster.simulator import ClusterSimulator
from repro.core.lora import LoraRegistry, random_lora_weights
from repro.models.config import tiny_config
from repro.models.llama import reference_forward_full
from repro.models.weights import random_llama_weights
from repro.runtime.backend import NumpyBackend
from repro.runtime.engine import EngineConfig, GpuEngine
from repro.runtime.request import Request, RequestState
from repro.runtime.serve import requests_from_trace
from repro.workloads.lengths import ShareGptLengths
from repro.workloads.trace import RequestSpec, generate_trace

CFG = tiny_config(hidden_size=32, num_layers=2, num_heads=4, vocab_size=64)


@pytest.fixture(scope="module")
def weights():
    return random_llama_weights(CFG, seed=0)


@pytest.fixture(scope="module")
def registry():
    reg = LoraRegistry()
    for i in range(3):
        reg.register(
            random_lora_weights(f"lora-{i}", CFG.num_layers, CFG.proj_dims(), 4, seed=30 + i)
        )
    return reg


def functional_engine(weights, registry, gpu_id="gpu0", pages=128):
    backend = NumpyBackend(weights, registry, total_pages=pages, page_size=4, lora_rank=4)
    return GpuEngine(gpu_id, backend, EngineConfig(max_batch_size=8))


def drive(engine, now=0.0, steps=1):
    for _ in range(steps):
        report = engine.step(now)
        if report is None:
            now += 1e-3
            continue
        now = report.end
    return now


def make_request(rid, lora, prompt_tokens, response):
    return Request(
        spec=RequestSpec(
            request_id=rid, lora_id=lora, arrival_time=0.0,
            prompt_len=len(prompt_tokens), response_len=response,
        ),
        prompt_tokens=list(prompt_tokens),
    )


class TestManualMigration:
    def test_migrated_stream_equals_unmigrated(self, weights, registry):
        rng = np.random.default_rng(5)
        prompt = [int(t) for t in rng.integers(0, CFG.vocab_size, size=6)]

        # Reference run: request completes on one GPU, no migration.
        ref = make_request("ref", "lora-0", prompt, response=8)
        engine = functional_engine(weights, registry)
        engine.add_request(ref, 0.0)
        now = drive(engine, steps=40)
        assert ref.state is RequestState.FINISHED

        # Migrated run: same request, moved between engines after 3 tokens.
        req = make_request("mig", "lora-0", prompt, response=8)
        src = functional_engine(weights, registry, "gpu-src")
        dst = functional_engine(weights, registry, "gpu-dst")
        src.add_request(req, 0.0)
        now = 0.0
        while req.num_generated < 3:
            report = src.step(now)
            now = report.end if report else now + 1e-3
        src.cancel("mig", requeue=True)  # §5.3 step 1: cancel on GPU 1
        assert req.needs_prefill and req.kv_len == 0
        dst.add_request(req, now)  # §5.3 step 2: add to GPU 2
        while req.state is not RequestState.FINISHED:
            report = dst.step(now)
            now = report.end if report else now + 1e-3

        assert req.generated_tokens == ref.generated_tokens
        assert req.num_migrations == 1

    def test_double_migration_still_exact(self, weights, registry):
        rng = np.random.default_rng(9)
        prompt = [int(t) for t in rng.integers(0, CFG.vocab_size, size=4)]
        ref = make_request("ref", "lora-1", prompt, response=6)
        engine = functional_engine(weights, registry)
        engine.add_request(ref, 0.0)
        drive(engine, steps=30)

        req = make_request("mig2", "lora-1", prompt, response=6)
        engines = [functional_engine(weights, registry, f"g{i}") for i in range(3)]
        engines[0].add_request(req, 0.0)
        now, hop = 0.0, 0
        while req.state is not RequestState.FINISHED:
            report = engines[hop].step(now)
            now = report.end if report else now + 1e-3
            if req.num_generated in (2, 4) and req.state is RequestState.RUNNING:
                if req.num_migrations < req.num_generated // 2:
                    engines[hop].cancel(req.request_id, requeue=True)
                    hop += 1
                    engines[hop].add_request(req, now)
        assert req.generated_tokens == ref.generated_tokens
        assert req.num_migrations == 2


class TestFunctionalCluster:
    def make_cluster(self, weights, registry, n=2, pages=32):
        engines = [
            GpuEngine(
                f"gpu{i}",
                NumpyBackend(weights, registry, total_pages=pages, page_size=4, lora_rank=4),
                EngineConfig(max_batch_size=4),
            )
            for i in range(n)
        ]
        return ClusterSimulator(engines, SchedulerConfig(migration_interval=0.05))

    def test_cluster_serves_functional_backend(self, weights, registry):
        lengths = ShareGptLengths(max_prompt_len=6, max_response_len=5)
        trace = generate_trace(6, "uniform", seed=2, lengths=lengths)
        sim = self.make_cluster(weights, registry)
        reqs = requests_from_trace(trace, with_prompt_tokens=True, vocab_size=CFG.vocab_size)
        for r, spec in zip(reqs, trace):
            sim._requests[r.request_id] = r
            sim.loop.schedule(spec.arrival_time, sim._make_arrival(r))
        sim.loop.run()
        assert all(r.state is RequestState.FINISHED for r in reqs)
        # Each request's stream must match a solo merged-weight recompute.
        for req in reqs:
            history = list(req.prompt_tokens)
            for tok in req.generated_tokens:
                logits = reference_forward_full(
                    weights, np.asarray(history), registry, req.lora_id
                )
                assert tok == int(np.argmax(logits))
                history.append(tok)

    def test_eviction_under_memory_pressure_is_exact(self, weights, registry):
        # One tiny-KvCache engine: long requests force evictions; the
        # re-prefilled continuation must still be greedy-exact.
        backend = NumpyBackend(weights, registry, total_pages=10, page_size=2, lora_rank=4)
        engine = GpuEngine("gpu0", backend, EngineConfig(max_batch_size=3))
        lengths = ShareGptLengths(min_len=4, max_prompt_len=6, max_response_len=8)
        trace = generate_trace(3, "distinct", seed=4, lengths=lengths)
        reqs = requests_from_trace(trace, with_prompt_tokens=True, vocab_size=CFG.vocab_size)
        result = ClusterSimulator([engine]).run(reqs)
        assert result.finished_requests == 3
        assert any(r.num_migrations > 0 for r in reqs)  # pressure did evict
        for req in reqs:
            history = list(req.prompt_tokens)
            for tok in req.generated_tokens:
                logits = reference_forward_full(
                    weights, np.asarray(history), registry, req.lora_id
                )
                assert tok == int(np.argmax(logits))
                history.append(tok)
