"""Disaggregated prefill/decode on the functional backend is greedy-exact.

A prefill engine exports each sequence's K/V rows with its pages, the
transfer carries them, and the decode engine writes them back on import,
so decode attends over the history the prefill GPU computed. Every
finished stream must equal greedy decoding by the no-cache oracle
:func:`~repro.models.llama.reference_forward_full`. A lost transfer
(``KV_TRANSFER_FAIL``) drops the payload and re-prefills, and is exact
too.
"""

import numpy as np
import pytest

from repro.cluster.disagg import DisaggConfig
from repro.cluster.faults import FaultInjector, FaultKind, FaultSpec
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


def run_disagg(weights, registry, seed, fault_injector=None, num_requests=None):
    engines = [
        GpuEngine(
            gpu_id,
            NumpyBackend(weights, registry, total_pages=64, page_size=4, lora_rank=4),
            EngineConfig(max_batch_size=8),
            role=role,
        )
        for gpu_id, role in (("prefill0", "prefill"), ("decode0", "decode"))
    ]
    sim = ClusterSimulator(
        engines, handoff=DisaggConfig(), fault_injector=fault_injector
    )
    lengths = ShareGptLengths(max_prompt_len=8, max_response_len=6)
    trace = generate_trace(
        num_requests or 12 + seed, "uniform", seed=seed, lengths=lengths
    )
    requests = requests_from_trace(
        trace, with_prompt_tokens=True, vocab_size=CFG.vocab_size, seed=seed
    )
    sim.run(requests)
    return sim, requests


def assert_greedy_exact(weights, registry, req):
    history = list(req.prompt_tokens)
    for tok in req.generated_tokens:
        logits = reference_forward_full(weights, np.asarray(history), registry, req.lora_id)
        assert tok == int(np.argmax(logits)), req.request_id
        history.append(tok)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_disagg_streams_are_greedy_exact(weights, registry, seed):
    sim, requests = run_disagg(weights, registry, seed)
    assert sim.metrics.kv_transfer_count() > 0
    finished = [r for r in requests if r.state is RequestState.FINISHED]
    assert len(finished) == len(requests)
    for req in finished:
        assert_greedy_exact(weights, registry, req)


def test_failed_transfer_reprefills_exactly(weights, registry):
    # The first handoff is in flight from its prefill step's start (about
    # 10 us, after the adapter copy) until it lands at about 283 us: the
    # step is priced at about 248 us, the interconnect takes 25 us.
    injector = FaultInjector(
        [FaultSpec(FaultKind.KV_TRANSFER_FAIL, time=2e-5)], seed=0
    )
    sim, requests = run_disagg(weights, registry, 0, fault_injector=injector)
    assert sim.metrics.kv_transfer_failure_count() == 1
    for req in requests:
        assert req.state is RequestState.FINISHED
        assert_greedy_exact(weights, registry, req)


def test_last_prefill_crash_sheds_the_rest(weights, registry):
    # The prefill GPU dies mid-run with requests queued behind it: those,
    # the ones it held and later arrivals are shed FAILED instead of
    # waiting forever, and every stream that was handed off still
    # finishes greedy-exact on the decode GPU.
    injector = FaultInjector(
        [FaultSpec(FaultKind.GPU_CRASH, time=1e-3, gpu_id="prefill0")], seed=0
    )
    sim, requests = run_disagg(
        weights, registry, 0, fault_injector=injector, num_requests=40
    )
    assert injector.injected[0].applied
    finished = [r for r in requests if r.state is RequestState.FINISHED]
    failed = [r for r in requests if r.state is RequestState.FAILED]
    assert finished and failed
    assert len(finished) + len(failed) == len(requests)
    assert {r.failure_reason for r in failed} == {"shed: no prefill GPUs"}
    assert sim.metrics.shed_count() == len(failed)
    for req in finished:
        assert_greedy_exact(weights, registry, req)
