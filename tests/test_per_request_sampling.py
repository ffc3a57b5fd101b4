"""Tests for per-request sampler overrides in functional serving."""

import numpy as np

from repro.cluster.simulator import ClusterSimulator
from repro.core.lora import LoraRegistry, random_lora_weights
from repro.models.config import tiny_config
from repro.models.weights import random_llama_weights
from repro.runtime.backend import NumpyBackend
from repro.runtime.engine import EngineConfig, GpuEngine
from repro.runtime.request import Request
from repro.runtime.sampler import GreedySampler, TemperatureSampler
from repro.workloads.trace import RequestSpec

CFG = tiny_config(hidden_size=32, num_layers=1, num_heads=4, vocab_size=64)


def make_engine(seed=0):
    weights = random_llama_weights(CFG, seed=seed)
    registry = LoraRegistry()
    registry.register(random_lora_weights("m", CFG.num_layers, CFG.proj_dims(), 4, seed=1))
    backend = NumpyBackend(weights, registry, total_pages=64, page_size=4, lora_rank=4)
    return GpuEngine("gpu0", backend, EngineConfig(max_batch_size=4))


def make_request(rid, sampler=None, seed=0, response=6):
    rng = np.random.default_rng(seed)
    return Request(
        spec=RequestSpec(rid, "m", 0.0, 5, response),
        prompt_tokens=[int(t) for t in rng.integers(0, CFG.vocab_size, size=5)],
        sampler=sampler,
    )


class TestPerRequestSampling:
    def test_default_sampler_used_when_unset(self):
        engine = make_engine()
        a = make_request("a")
        ClusterSimulator([engine]).run([a])
        engine2 = make_engine()
        b = make_request("b")  # same prompt/seed, default greedy
        ClusterSimulator([engine2]).run([b])
        assert a.generated_tokens == b.generated_tokens

    def test_high_temperature_diverges_from_greedy(self):
        greedy_engine = make_engine()
        greedy = make_request("g")
        ClusterSimulator([greedy_engine]).run([greedy])

        hot_engine = make_engine()
        hot = make_request("h", sampler=TemperatureSampler(temperature=50.0, seed=3),
                           response=12)
        ClusterSimulator([hot_engine]).run([hot])
        assert hot.generated_tokens[: len(greedy.generated_tokens)] != greedy.generated_tokens

    def test_mixed_samplers_in_one_batch(self):
        engine = make_engine()
        greedy = make_request("g", sampler=GreedySampler(), seed=4)
        hot = make_request("h", sampler=TemperatureSampler(temperature=20.0, seed=5), seed=6)
        result = ClusterSimulator([engine]).run([greedy, hot])
        assert result.finished_requests == 2
        # The greedy request's stream matches a solo greedy run.
        solo_engine = make_engine()
        solo = make_request("s", seed=4)
        ClusterSimulator([solo_engine]).run([solo])
        assert greedy.generated_tokens == solo.generated_tokens
