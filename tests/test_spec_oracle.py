"""Differential oracle: speculative decoding is token-identical to greedy.

On the functional NumPy backend, speculative decoding is real draft-then-
verify: a truncated-layer draft model proposes ``draft_len`` tokens and
the full target model verifies the chunk, accepting the longest prefix
that matches its own greedy choice plus one bonus/correction token. The
committed token stream is therefore *provably* identical to plain greedy
decoding — the target's argmax at every position is what both modes emit.

This suite enforces that oracle: the same trace is served with the lane
disarmed (the baseline) and armed, across seeds and mixed adapter ranks,
and the generated token sequences must match exactly. Canaries assert
the speculative lane actually ran (multi-token rounds committed) and
that every KV page — target and draft — is released afterwards, so a
rollback leak cannot hide behind a passing token comparison.
"""

from __future__ import annotations

import pytest

from repro.cluster.simulator import ClusterSimulator
from repro.core.lora import LoraRegistry, random_lora_weights
from repro.models.config import tiny_config
from repro.models.weights import random_llama_weights
from repro.runtime.backend import NumpyBackend
from repro.runtime.engine import EngineConfig, GpuEngine
from repro.runtime.request import RequestState
from repro.runtime.serve import requests_from_trace
from repro.runtime.spec import SpecConfig
from repro.workloads.lengths import ShareGptLengths
from repro.workloads.trace import generate_trace


def build_engine(seed: int, spec: "SpecConfig | None", ranks=(4, 8),
                 eos_token_id=None):
    """A functional engine over a tiny model with mixed-rank adapters."""
    cfg = tiny_config(hidden_size=32, num_layers=2, num_heads=4, vocab_size=64)
    weights = random_llama_weights(cfg, seed=seed)
    registry = LoraRegistry()
    for i, rank in enumerate(ranks):
        registry.register(
            random_lora_weights(
                f"lora-{i}", cfg.num_layers, cfg.proj_dims(), rank,
                seed=50 + i,
            )
        )
    backend = NumpyBackend(
        weights, registry, total_pages=256, page_size=4,
        lora_rank=max(ranks),
    )
    engine = GpuEngine(
        "gpu0", backend,
        EngineConfig(max_batch_size=8, spec=spec, eos_token_id=eos_token_id),
    )
    return cfg, backend, engine


def serve_trace(seed: int, spec: "SpecConfig | None", n_requests=4,
                response_len=12, ranks=(4, 8)):
    cfg, backend, engine = build_engine(seed, spec, ranks=ranks)
    lengths = ShareGptLengths(max_prompt_len=8, max_response_len=response_len)
    trace = generate_trace(n_requests, "uniform", seed=seed, lengths=lengths)
    reqs = requests_from_trace(
        trace, with_prompt_tokens=True, vocab_size=cfg.vocab_size
    )
    ClusterSimulator([engine]).run(reqs)
    return backend, engine, reqs


def assert_no_leaks(backend: NumpyBackend):
    """Every target and draft KV page is back in the free list."""
    assert backend.kv_data.allocator.used_pages == 0
    if backend._draft_kv is not None:
        assert backend._draft_kv.allocator.used_pages == 0
        assert not backend._draft_synced


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_spec_matches_greedy_oracle(seed):
    """Armed and disarmed runs emit identical token streams per request."""
    _, _, baseline = serve_trace(seed, None)
    backend, engine, armed = serve_trace(
        seed, SpecConfig(draft_len=4, seed=seed)
    )
    want = {r.request_id: tuple(r.generated_tokens) for r in baseline}
    got = {r.request_id: tuple(r.generated_tokens) for r in armed}
    assert got == want
    for req in armed:
        assert req.state is RequestState.FINISHED
    # Canary: the speculative lane actually ran multi-token rounds —
    # fewer rounds than tokens means bursts were committed.
    assert engine.spec_rounds > 0
    total_tokens = sum(len(toks) for toks in got.values())
    assert engine.spec_rounds < total_tokens
    assert_no_leaks(backend)


@pytest.mark.parametrize("draft_len", [1, 3, 6])
def test_spec_matches_oracle_across_draft_lens(draft_len):
    _, _, baseline = serve_trace(7, None)
    backend, engine, armed = serve_trace(
        7, SpecConfig(draft_len=draft_len, seed=7)
    )
    assert {r.request_id: tuple(r.generated_tokens) for r in armed} == {
        r.request_id: tuple(r.generated_tokens) for r in baseline
    }
    assert engine.spec_rounds > 0
    assert_no_leaks(backend)


def test_spec_matches_oracle_mixed_ranks():
    """Adapters of different ranks share the same speculative batch."""
    ranks = (4, 8, 16)
    _, _, baseline = serve_trace(11, None, n_requests=6, ranks=ranks)
    backend, engine, armed = serve_trace(
        11, SpecConfig(draft_len=4, seed=11), n_requests=6, ranks=ranks
    )
    lora_ids = {r.lora_id for r in armed}
    assert len(lora_ids) > 1, "trace must mix adapters for this to bite"
    assert {r.request_id: tuple(r.generated_tokens) for r in armed} == {
        r.request_id: tuple(r.generated_tokens) for r in baseline
    }
    assert engine.spec_rounds > 0
    assert_no_leaks(backend)


def test_spec_single_layer_draft():
    """draft_layers=1: maximally cheap (and wrong) draft still verifies
    down to the exact greedy stream — acceptance only affects speed."""
    _, _, baseline = serve_trace(3, None)
    backend, engine, armed = serve_trace(
        3, SpecConfig(draft_len=4, seed=3, draft_layers=1)
    )
    assert {r.request_id: tuple(r.generated_tokens) for r in armed} == {
        r.request_id: tuple(r.generated_tokens) for r in baseline
    }
    assert backend._draft_model is not None
    assert backend._draft_model.weights.config.num_layers == 1
    assert_no_leaks(backend)


def test_spec_eos_clips_mid_round():
    """An EOS landing inside a speculative burst clips the commit and the
    trailing KV slots roll back; the stream still matches the baseline."""
    lengths = ShareGptLengths(max_prompt_len=8, max_response_len=24)
    trace = generate_trace(3, "uniform", seed=5, lengths=lengths)

    def run(spec):
        cfg_, backend, engine = build_engine(5, spec, eos_token_id=9)
        reqs = requests_from_trace(
            trace, with_prompt_tokens=True, vocab_size=cfg_.vocab_size
        )
        ClusterSimulator([engine]).run(reqs)
        return backend, engine, reqs

    _, _, baseline = run(None)
    backend, engine, armed = run(SpecConfig(draft_len=4, seed=5))
    assert {r.request_id: tuple(r.generated_tokens) for r in armed} == {
        r.request_id: tuple(r.generated_tokens) for r in baseline
    }
    for req in armed:
        assert req.state is RequestState.FINISHED
        # The terminal release reclaimed every slot, reserved or committed.
        assert req.kv_len == 0
    assert_no_leaks(backend)
