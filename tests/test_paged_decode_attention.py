"""Batched paged decode attention against the per-request oracle.

``LlamaModel.forward`` attends all decode rows of an invocation in one
batched pass per layer (:func:`paged_decode_attention` over
``PagedKvData.decode_rows`` / ``write_decode`` / ``gather_decode``). The
implementation it replaced — one ``write_token`` + ``gather`` +
``causal_attention`` per request — lives on here as the oracle.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.simulator import ClusterSimulator
from repro.core.lora import LoraRegistry, random_lora_weights
from repro.kvcache.pool import PagedKvData
from repro.models.config import tiny_config
from repro.models.llama import causal_attention, paged_decode_attention
from repro.models.weights import random_llama_weights
from repro.runtime.backend import NumpyBackend
from repro.runtime.engine import EngineConfig, GpuEngine
from repro.runtime.request import Request
from repro.utils.rng import new_rng
from repro.workloads.trace import RequestSpec

HEAD_DIM = 4
LAYERS = 2
GARBAGE = 1e30
"""A finite value no real K/V takes: if a masked slot leaks, results move."""


def make_kv(page_size, num_kv_heads, total_pages=128):
    return PagedKvData(
        total_pages=total_pages, page_size=page_size, num_layers=LAYERS,
        num_kv_heads=num_kv_heads, head_dim=HEAD_DIM, dtype=np.float64,
    )


def fill(kv, rng, seq_id, length):
    """Allocate ``seq_id`` with ``length`` tokens of random history."""
    kv.allocate(seq_id, length)
    for layer in range(LAYERS):
        shape = (length, kv.num_kv_heads, HEAD_DIM)
        kv.write_tokens(seq_id, layer, 0, rng.standard_normal(shape), rng.standard_normal(shape))


def oracle_step(kv, layer, seq_ids, positions, q, k, v):
    """One decode step the per-request way: write, gather, attend."""
    group = q.shape[1] // kv.num_kv_heads
    out = np.empty_like(q)
    for i, (seq_id, pos) in enumerate(zip(seq_ids, positions)):
        kv.write_token(seq_id, layer, pos, k[i], v[i])
        k_hist, v_hist = kv.gather(seq_id, layer, pos + 1)
        if group > 1:
            k_hist = np.repeat(k_hist, group, axis=0)
            v_hist = np.repeat(v_hist, group, axis=0)
        out[i] = causal_attention(q[i : i + 1], k_hist, v_hist, np.asarray([pos]))[0]
    return out


def batched_step(kv, layer, seq_ids, positions, q, k, v):
    rows = kv.decode_rows(seq_ids, positions)
    kv.write_decode(rows, layer, k, v)
    return paged_decode_attention(q, kv, layer, rows)


def step_inputs(rng, n, num_kv_heads, group):
    q = rng.standard_normal((n, num_kv_heads * group, HEAD_DIM))
    k = rng.standard_normal((n, num_kv_heads, HEAD_DIM))
    v = rng.standard_normal((n, num_kv_heads, HEAD_DIM))
    return q, k, v


@st.composite
def ragged_histories(draw):
    page_size = draw(st.integers(1, 4))
    num_kv_heads = draw(st.sampled_from([1, 2]))
    group = draw(st.sampled_from([1, 2, 3]))
    # History lengths before the step: 0 (first token) up to several pages.
    pasts = draw(st.lists(st.integers(0, 13), min_size=1, max_size=6))
    return page_size, num_kv_heads, group, pasts, draw(st.integers(0, 2**31 - 1))


class TestBatchedEqualsPerRequest:
    @given(ragged_histories())
    @settings(max_examples=80, deadline=None)
    def test_ragged_histories_across_page_boundaries(self, problem):
        page_size, num_kv_heads, group, pasts, seed = problem
        rng = new_rng(seed)
        kv_a, kv_b = make_kv(page_size, num_kv_heads), make_kv(page_size, num_kv_heads)
        seq_ids = [f"s{i}" for i in range(len(pasts))]
        for kv in (kv_a, kv_b):
            fill_rng = new_rng(seed + 1)
            for seq_id, past in zip(seq_ids, pasts):
                fill(kv, fill_rng, seq_id, past + 1)  # room for the step's token
        for layer in range(LAYERS):
            q, k, v = step_inputs(rng, len(pasts), num_kv_heads, group)
            expected = oracle_step(kv_a, layer, seq_ids, pasts, q, k, v)
            got = batched_step(kv_b, layer, seq_ids, pasts, q, k, v)
            np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-14)
        # Same bytes stored, same written lengths.
        np.testing.assert_array_equal(kv_a.data, kv_b.data)
        for seq_id, past in zip(seq_ids, pasts):
            assert kv_a.written_len(seq_id) == kv_b.written_len(seq_id) == past + 1

    @given(ragged_histories())
    @settings(max_examples=60, deadline=None)
    def test_stale_slots_after_truncate_and_reappend_are_unobservable(self, problem):
        page_size, num_kv_heads, group, pasts, seed = problem
        rng = new_rng(seed)
        clean, dirty = make_kv(page_size, num_kv_heads), make_kv(page_size, num_kv_heads)
        seq_ids = [f"s{i}" for i in range(len(pasts))]
        for i, (seq_id, past) in enumerate(zip(seq_ids, pasts)):
            fill(clean, new_rng(seed + i), seq_id, past + 1)
            # The dirty cache speculated 5 tokens past the history, wrote
            # garbage there, and rolled back: the kept tail page and the
            # released-then-reacquired pages still hold it.
            fill(dirty, new_rng(seed + i), seq_id, past + 1)
            dirty.allocator.append(seq_id, 5)
            junk = np.full((6, num_kv_heads, HEAD_DIM), GARBAGE)
            for layer in range(LAYERS):
                dirty.write_tokens(seq_id, layer, past, junk, junk)
            dirty.truncate(seq_id, past)
            dirty.allocator.append(seq_id, 1)
            assert dirty.written_len(seq_id) == past
        for layer in range(LAYERS):
            q, k, v = step_inputs(rng, len(pasts), num_kv_heads, group)
            expected = oracle_step(clean, layer, seq_ids, pasts, q, k, v)
            got = batched_step(dirty, layer, seq_ids, pasts, q, k, v)
            np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-14)

    def test_padded_lanes_of_a_recycled_page_contribute_exact_zero(self):
        # Page 0 pads short rows' page tables. Fill every page with
        # garbage through a sequence that is then freed, so padding and
        # the unwritten tail of each last page read finite junk.
        kv = make_kv(page_size=4, num_kv_heads=2, total_pages=16)
        kv.allocate("junk", 64)
        junk = np.full((64, 2, HEAD_DIM), GARBAGE)
        for layer in range(LAYERS):
            kv.write_tokens("junk", layer, 0, junk, junk)
        kv.free("junk")
        rng = new_rng(3)
        fill(kv, rng, "short", 2)
        fill(kv, rng, "long", 14)
        q, k, v = step_inputs(rng, 2, 2, 2)
        both = batched_step(kv, 0, ["short", "long"], [1, 13], q, k, v)
        alone = batched_step(kv, 0, ["short"], [1], q[:1], k[:1], v[:1])
        assert np.isfinite(both).all() and np.abs(both).max() < 1e3
        np.testing.assert_allclose(both[0], alone[0], rtol=1e-12, atol=1e-14)
        k_hist, v_hist = kv.gather("short", 0, 2)
        expected = causal_attention(
            q[:1], np.repeat(k_hist, 2, axis=0), np.repeat(v_hist, 2, axis=0), np.asarray([1])
        )[0]
        np.testing.assert_allclose(both[0], expected, rtol=1e-12, atol=1e-14)


class TestDecodeRows:
    def test_layout(self):
        kv = make_kv(page_size=4, num_kv_heads=1)
        kv.allocate("a", 6)
        kv.allocate("b", 1)
        rows = kv.decode_rows(["a", "b"], [5, 0])
        pages_a, pages_b = kv.allocator.pages_of("a"), kv.allocator.pages_of("b")
        assert rows.table.tolist() == [pages_a, [pages_b[0], 0]]
        assert rows.write_page.tolist() == [pages_a[1], pages_b[0]]
        assert rows.write_slot.tolist() == [1, 0]
        assert rows.masked.tolist() == [
            [False] * 6 + [True] * 2,
            [False] + [True] * 7,
        ]

    def test_position_beyond_pages_rejected(self):
        kv = make_kv(page_size=4, num_kv_heads=1)
        kv.allocate("a", 4)
        with pytest.raises(IndexError, match="beyond allocated pages"):
            kv.decode_rows(["a"], [4])

    def test_unknown_sequence_and_bad_shapes_rejected(self):
        kv = make_kv(page_size=4, num_kv_heads=1)
        kv.allocate("a", 4)
        with pytest.raises(KeyError):
            kv.decode_rows(["nope"], [0])
        with pytest.raises(ValueError):
            kv.decode_rows([], [])
        with pytest.raises(ValueError):
            kv.decode_rows(["a"], [0, 1])
        rows = kv.decode_rows(["a"], [3])
        with pytest.raises(ValueError, match="shape"):
            kv.write_decode(rows, 0, np.zeros((2, 1, HEAD_DIM)), np.zeros((2, 1, HEAD_DIM)))

    def test_written_length_advances_at_the_last_layer_only(self):
        kv = make_kv(page_size=4, num_kv_heads=1)
        fill(kv, new_rng(0), "a", 3)
        kv.allocator.append("a", 1)
        rows = kv.decode_rows(["a"], [3])
        token = np.ones((1, 1, HEAD_DIM))
        kv.write_decode(rows, 0, token, token)
        assert kv.written_len("a") == 3
        kv.write_decode(rows, LAYERS - 1, token, token)
        assert kv.written_len("a") == 4
        kv.truncate("a", 2)  # spec rollback sees the same length write_token gave
        assert kv.written_len("a") == 2


class TestBatchInvariantTokens:
    """A request emits the same tokens decoded alone or next to longer
    neighbours (what the spec oracle and the ledger's probes rest on)."""

    @pytest.mark.parametrize("num_kv_heads", [None, 2])
    def test_alone_and_among_longer_neighbours(self, num_kv_heads):
        cfg = tiny_config(
            hidden_size=64, num_layers=2, num_heads=4, vocab_size=128,
            num_kv_heads=num_kv_heads,
        )
        weights = random_llama_weights(cfg, seed=4)
        registry = LoraRegistry()
        for i in range(4):
            registry.register(
                random_lora_weights(f"lora-{i}", cfg.num_layers, cfg.proj_dims(), 8, seed=40 + i)
            )
        rng = new_rng(9)

        def request(name, lora, prompt_len, response_len, prompt=None):
            spec = RequestSpec(
                request_id=name, lora_id=lora, arrival_time=0.0,
                prompt_len=prompt_len, response_len=response_len,
            )
            if prompt is None:
                prompt = [int(t) for t in rng.integers(0, cfg.vocab_size, size=prompt_len)]
            return Request(spec=spec, prompt_tokens=list(prompt))

        def serve(requests):
            backend = NumpyBackend(weights, registry, total_pages=64, page_size=4)
            engine = GpuEngine("gpu0", backend, EngineConfig(max_batch_size=8))
            ClusterSimulator([engine]).run(requests)
            return requests

        probe_prompt = [int(t) for t in rng.integers(0, cfg.vocab_size, size=3)]
        alone = serve([request("probe", "lora-0", 3, 12, probe_prompt)])[0]
        crowd = serve(
            [request(f"n{i}", f"lora-{i}", 17 + 5 * i, 12) for i in range(1, 4)]
            + [request("probe", "lora-0", 3, 12, probe_prompt)]
        )
        assert len(alone.generated_tokens) == 12
        assert crowd[-1].generated_tokens == alone.generated_tokens
