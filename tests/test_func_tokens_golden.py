"""Golden tokens of the functional backend: the ids it emits do not drift.

Four seeded runs of one :class:`GpuEngine` over the tiny NumPy Llama (the
ledger's ``func_*`` shape at a quarter of its size) are compared, token
id for token id, with ``tests/golden/func_tokens.json``. The fixture was
written by the per-step-stacking, per-request-attention implementation
this suite used to run; kernel-side changes (weight gathering, SGMV
dispatch, batched decode attention) must leave every id where it was.

When a change to the emitted tokens is intentional, regenerate::

    REPRO_REGOLD=1 PYTHONPATH=src python -m pytest tests/test_func_tokens_golden.py

and review the fixture diff like any other code change.
"""

from __future__ import annotations

import json
import os
import pathlib

import pytest

from repro.cluster.simulator import ClusterSimulator
from repro.core.lora import LoraRegistry, random_lora_weights
from repro.models.config import tiny_config
from repro.models.weights import random_llama_weights
from repro.runtime.backend import NumpyBackend
from repro.runtime.engine import EngineConfig, GpuEngine
from repro.runtime.request import RequestState
from repro.runtime.serve import requests_from_trace
from repro.workloads.lengths import ShareGptLengths
from repro.workloads.trace import generate_trace

GOLDEN = pathlib.Path(__file__).parent / "golden" / "func_tokens.json"
REGOLD = os.environ.get("REPRO_REGOLD", "") not in ("", "0")

N_REQUESTS = 16
MAX_LEN = 16
BATCH = 8

# name -> (adapter population, rank of the i-th adapter, num_kv_heads)
SCENARIOS = {
    "distinct": ("distinct", lambda i: 8, None),
    "identical": ("identical", lambda i: 8, None),
    "mixed_rank": ("distinct", lambda i: (4, 8, 16)[i % 3], None),
    "gqa": ("distinct", lambda i: 8, 2),
}


def run_tokens(name: str) -> "dict[str, list[int]]":
    population, rank_of, num_kv_heads = SCENARIOS[name]
    cfg = tiny_config(
        hidden_size=128, num_layers=2, num_heads=4, vocab_size=256,
        num_kv_heads=num_kv_heads,
    )
    trace = generate_trace(
        N_REQUESTS, population, seed=0,
        lengths=ShareGptLengths(max_prompt_len=MAX_LEN, max_response_len=MAX_LEN),
    )
    registry = LoraRegistry()
    for i, lora_id in enumerate(trace.lora_ids()):
        registry.register(
            random_lora_weights(
                lora_id, cfg.num_layers, cfg.proj_dims(), rank_of(i), seed=[0, 11, i]
            )
        )
    backend = NumpyBackend(
        random_llama_weights(cfg, seed=0), registry, total_pages=128, page_size=8
    )
    engine = GpuEngine("gpu0", backend, EngineConfig(max_batch_size=BATCH))
    requests = requests_from_trace(
        trace, with_prompt_tokens=True, vocab_size=cfg.vocab_size, seed=7
    )
    ClusterSimulator([engine]).run(requests)
    assert all(r.state is RequestState.FINISHED for r in requests)
    return {r.request_id: [int(t) for t in r.generated_tokens] for r in requests}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_tokens_match_golden(name):
    tokens = run_tokens(name)
    if REGOLD:
        golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
        golden[name] = tokens
        GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    golden = json.loads(GOLDEN.read_text())
    assert name in golden, f"no golden tokens for {name}; run with REPRO_REGOLD=1"
    assert tokens == golden[name]


def test_golden_runs_decode_in_shared_batches():
    """The fixture is only worth its name if requests really overlapped:
    every scenario generates more than one token for most requests."""
    golden = json.loads(GOLDEN.read_text())
    assert set(golden) == set(SCENARIOS)
    for name, tokens in golden.items():
        assert len(tokens) == N_REQUESTS, name
        assert sum(len(t) for t in tokens.values()) > 2 * N_REQUESTS, name
