"""Integration: serving tenants with *different* LoRA ranks in one batch.

The paper evaluates a single rank (16); its follow-ons serve mixed ranks
by zero-padding to the batch max. The functional engine now does the same
— these tests prove a rank-2, a rank-4 and a rank-8 tenant can decode in
one invocation with every token still matching that tenant's own
merged-weight reference.
"""

import numpy as np

from repro.cluster.simulator import ClusterSimulator
from repro.core.lora import LoraRegistry, random_lora_weights
from repro.models.config import tiny_config
from repro.models.llama import reference_forward_full
from repro.models.weights import random_llama_weights
from repro.runtime.backend import NumpyBackend
from repro.runtime.engine import EngineConfig, GpuEngine
from repro.runtime.request import RequestState
from repro.runtime.serve import requests_from_trace
from repro.workloads.lengths import ShareGptLengths
from repro.workloads.trace import generate_trace

CFG = tiny_config(hidden_size=32, num_layers=2, num_heads=4, vocab_size=64)
RANKS = {"lora-0": 2, "lora-1": 4, "lora-2": 8}


def make_stack():
    weights = random_llama_weights(CFG, seed=0)
    registry = LoraRegistry()
    for i, (mid, rank) in enumerate(RANKS.items()):
        registry.register(
            random_lora_weights(mid, CFG.num_layers, CFG.proj_dims(), rank, seed=70 + i)
        )
    backend = NumpyBackend(weights, registry, total_pages=128, page_size=4)
    engine = GpuEngine("gpu0", backend, EngineConfig(max_batch_size=8))
    return weights, registry, engine


class TestMixedRankServing:
    def test_three_ranks_one_batch_exact(self):
        weights, registry, engine = make_stack()
        lengths = ShareGptLengths(max_prompt_len=6, max_response_len=4)
        trace = generate_trace(3, "distinct", seed=9, lengths=lengths)
        reqs = requests_from_trace(trace, with_prompt_tokens=True, vocab_size=CFG.vocab_size)
        result = ClusterSimulator([engine]).run(reqs)
        assert result.finished_requests == 3
        # The three tenants (ranks 2/4/8) really shared invocations.
        assert result.metrics.gpu_batch_size["gpu0"].values.max() >= 2
        for req in reqs:
            history = list(req.prompt_tokens)
            for tok in req.generated_tokens:
                logits = reference_forward_full(
                    weights, np.asarray(history), registry, req.lora_id
                )
                assert tok == int(np.argmax(logits)), req.lora_id
                history.append(tok)

    def test_all_finish(self):
        _, _, engine = make_stack()
        lengths = ShareGptLengths(max_prompt_len=6, max_response_len=4)
        trace = generate_trace(6, "uniform", seed=11, lengths=lengths)
        reqs = requests_from_trace(trace, with_prompt_tokens=True, vocab_size=CFG.vocab_size)
        ClusterSimulator([engine]).run(reqs)
        assert all(r.state is RequestState.FINISHED for r in reqs)
