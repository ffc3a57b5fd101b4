"""The SLO control plane over functional engines is greedy-exact.

With ``control=ControlConfig()`` the router prices every placement through
each engine's own step pricer, the same object the engine's steps are
priced by, so it runs over NumPy-backend engines exactly as over
simulated ones. Every finished stream must equal greedy decoding by the
no-cache oracle :func:`~repro.models.llama.reference_forward_full`, and
every ``SLO_ADMIT`` quote must equal the from-scratch ``StepWorkload`` ->
``model_step_latency`` price (``DirectQuotes``) of the engine the
request joined, taken just before it joined.
"""

import numpy as np
import pytest

from repro.cluster.control.config import ControlConfig
from repro.cluster.simulator import ClusterSimulator
from repro.core.lora import LoraRegistry, random_lora_weights
from repro.models.config import tiny_config
from repro.models.llama import reference_forward_full
from repro.models.weights import random_llama_weights
from repro.obs.tracer import EventKind, Tracer
from repro.runtime.backend import NumpyBackend
from repro.runtime.engine import EngineConfig, GpuEngine
from repro.runtime.request import RequestState
from repro.runtime.serve import requests_from_trace
from repro.workloads.lengths import ShareGptLengths
from repro.workloads.trace import generate_trace
from tests.test_cluster_control import DirectQuotes

CFG = tiny_config(hidden_size=32, num_layers=2, num_heads=4, vocab_size=64)
NUM_ADAPTERS = 16


@pytest.fixture(scope="module")
def weights():
    return random_llama_weights(CFG, seed=0)


@pytest.fixture(scope="module")
def registry():
    reg = LoraRegistry()
    for i in range(NUM_ADAPTERS):
        reg.register(
            random_lora_weights(f"lora-{i}", CFG.num_layers, CFG.proj_dims(), 4, seed=60 + i)
        )
    return reg


def quote_every_admission(engine, direct, quotes):
    """Price each request from scratch just before ``engine`` takes it:
    the engine is then in the state the router's quote read. The router
    enters every request it admits through ``place``."""
    add = engine.place

    def place(request, now):
        ttft = direct.predict_ttft(engine, request)
        quotes.append((request.request_id, engine.gpu_id, round(ttft, 9)))
        return add(request, now)

    engine.place = place


def run_controlled(weights, registry, seed):
    engines = [
        GpuEngine(
            f"gpu{i}",
            NumpyBackend(weights, registry, total_pages=64, page_size=4, lora_rank=4),
            EngineConfig(max_batch_size=8),
        )
        for i in range(2)
    ]
    tracer = Tracer()
    sim = ClusterSimulator(engines, control=ControlConfig(), tracer=tracer)
    direct = DirectQuotes(sim.scheduler.cost)
    quotes = []
    for engine in engines:
        quote_every_admission(engine, direct, quotes)
    lengths = ShareGptLengths(max_prompt_len=8, max_response_len=6)
    trace = generate_trace(16, "uniform", seed=seed, lengths=lengths)
    requests = requests_from_trace(
        trace, with_prompt_tokens=True, vocab_size=CFG.vocab_size, seed=seed
    )
    sim.run(requests)
    admits = [
        (e.request_id, e.gpu_id, e.attrs["ttft"])
        for e in tracer.by_kind(EventKind.SLO_ADMIT)
    ]
    return admits, quotes, requests


def assert_greedy_exact(weights, registry, req):
    history = list(req.prompt_tokens)
    for tok in req.generated_tokens:
        logits = reference_forward_full(weights, np.asarray(history), registry, req.lora_id)
        assert tok == int(np.argmax(logits)), req.request_id
        history.append(tok)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_controlled_streams_are_greedy_exact(weights, registry, seed):
    admits, quotes, requests = run_controlled(weights, registry, seed)
    assert [r.state for r in requests] == [RequestState.FINISHED] * len(requests)
    for req in requests:
        assert req.num_generated == req.spec.response_len
        assert_greedy_exact(weights, registry, req)
    assert len(admits) >= len(requests)
    assert admits == quotes
    assert all(ttft > 0 for _, _, ttft in admits)
