"""SGMV reading adapters in place, and the BLAS attention and RMSNorm.

:func:`~repro.core.ops.add_lora_sgmv_slots` hands SGMV the slab's
resident tables and each segment's slot instead of a stacked copy. It
must equal the stacked operator over :meth:`LoraRegistry.stack_padded`
(bitwise), and the per-row reference. The forward built on it must give
bitwise the logits of the stacked-copy forward, kept here as the oracle.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.batch import BatchEntry, plan_batch
from repro.core.lora import LoraRegistry, random_lora_weights
from repro.core.ops import add_lora_sgmv, add_lora_sgmv_slots
from repro.core.sgmv import _segment_plan, sgmv_expand_reference, sgmv_shrink_reference
from repro.kvcache.pool import PagedKvData
from repro.models.config import tiny_config
from repro.models.llama import LlamaModel, TokenBatch, causal_attention, rmsnorm
from repro.models.weights import random_llama_weights

H_IN, H_OUT = 24, 40
PROJ_DIMS = {p: (H_IN, H_OUT) for p in ("q", "k", "v", "o", "gate", "up", "down")}


def pool_of(ranks):
    """A registry of float32 adapters of the given ranks, and the padded
    slab tables holding them in registration order."""
    reg = LoraRegistry()
    for i, rank in enumerate(ranks):
        reg.register(random_lora_weights(f"m{i}", 1, PROJ_DIMS, rank, seed=300 + i))
    table_a, table_b = reg.stack_padded(reg.model_ids, 0, "q")
    return reg, table_a, table_b


def segments_from_sizes(sizes):
    """Cumulative segment indices; empty segments allowed."""
    return np.concatenate(([0], np.cumsum(sizes))).astype(np.int64)


@st.composite
def slot_problems(draw):
    ranks = draw(st.lists(st.sampled_from([1, 2, 4, 8]), min_size=1, max_size=6))
    sizes = draw(st.lists(st.integers(0, 5), min_size=1, max_size=8))
    slots = draw(
        st.lists(st.integers(0, len(ranks) - 1), min_size=len(sizes), max_size=len(sizes))
    )
    return ranks, sizes, slots, draw(st.integers(0, 2**16))


class TestSlotIndexedSgmv:
    @given(slot_problems())
    @settings(max_examples=80, deadline=None)
    def test_equals_stacked_operator_and_reference(self, problem):
        ranks, sizes, slots, seed = problem
        reg, table_a, table_b = pool_of(ranks)
        assert table_a.dtype == np.float32
        seg = segments_from_sizes(sizes)
        slots = np.asarray(slots)
        rank = max(ranks[s] for s in slots)
        x = np.random.default_rng(seed).standard_normal((seg[-1], H_IN))
        y = add_lora_sgmv_slots(np.zeros((seg[-1], H_OUT)), x, table_a, table_b, slots, rank, seg)

        ids = [reg.model_ids[s] for s in slots]
        wa, wb = reg.stack_padded(ids, 0, "q")
        assert wa.shape[2] == rank
        stacked = add_lora_sgmv(np.zeros_like(y), x, wa, wb, seg)
        np.testing.assert_array_equal(y, stacked)

        v_ref = sgmv_shrink_reference(np.zeros((seg[-1], rank)), x, wa, seg)
        y_ref = sgmv_expand_reference(np.zeros_like(y), v_ref, wb, seg)
        np.testing.assert_allclose(y, y_ref, rtol=1e-10, atol=1e-14)

    @pytest.mark.parametrize("sizes", [[7], [0, 7, 0], [3, 1, 1, 1, 4]])
    def test_one_segment_lanes_are_bitwise_the_stacked_launch(self, sizes):
        reg, table_a, table_b = pool_of([4, 8, 2, 8, 1])
        seg = segments_from_sizes(sizes)
        slots = np.asarray([3, 1, 0, 4, 2][: len(sizes)])
        x = np.random.default_rng(1).standard_normal((seg[-1], H_IN))
        y = add_lora_sgmv_slots(np.zeros((seg[-1], H_OUT)), x, table_a, table_b, slots, 8, seg)
        for lo, hi, s0, s1, _ in _segment_plan(seg).lanes:
            if s1 - s0 != 1:
                continue
            wa = table_a[slots[s0], :, :8]
            wb = table_b[slots[s0], :8]
            np.testing.assert_array_equal(y[lo:hi], (x[lo:hi] @ wa) @ wb)

    def test_reads_views_of_the_table_and_gathers_only_a_run(self, monkeypatch):
        import repro.core.ops as ops

        _, table_a, table_b = pool_of([4, 4, 4, 4])
        seen = []

        def shrink(v, x, wa, seg):
            seen.append((wa, seg))
            return sgmv_shrink_reference(v, x, wa, seg)

        monkeypatch.setattr(ops, "sgmv_shrink", shrink)
        seg = segments_from_sizes([5, 1, 1, 1])
        x = np.ones((8, H_IN))
        add_lora_sgmv_slots(np.zeros((8, H_OUT)), x, table_a, table_b, np.asarray([2, 0, 3, 1]), 4, seg)
        (one, one_seg), (run, run_seg) = seen
        # One matrix per segment of the launch's own segment vector.
        assert one.shape == (1, H_IN, 4) and one_seg.tolist() == [0, 5]
        assert np.shares_memory(one, table_a)
        assert run.shape == (3, H_IN, 4) and run_seg.tolist() == [0, 1, 2, 3]
        np.testing.assert_array_equal(run, table_a[[0, 3, 1]])

    @pytest.mark.parametrize("bad", [-1, 3])
    def test_out_of_range_slot_rejected(self, bad):
        _, table_a, table_b = pool_of([4, 4, 4])
        seg = segments_from_sizes([2, 2])
        x = np.ones((4, H_IN))
        with pytest.raises(IndexError, match="slots"):
            add_lora_sgmv_slots(np.zeros((4, H_OUT)), x, table_a, table_b, np.asarray([0, bad]), 4, seg)

    def test_slot_count_and_rank_checked(self):
        _, table_a, table_b = pool_of([4, 4])
        seg = segments_from_sizes([2, 2])
        x, y = np.ones((4, H_IN)), np.zeros((4, H_OUT))
        with pytest.raises(ValueError, match="slots for 2 segments"):
            add_lora_sgmv_slots(y, x, table_a, table_b, np.asarray([0]), 4, seg)
        with pytest.raises(ValueError, match="rank 5"):
            add_lora_sgmv_slots(y, x, table_a, table_b, np.asarray([0, 1]), 5, seg)


def attention_oracle(q, k, v, q_positions):
    """Per query and head, scalar softmax over the visible history."""
    n_q, heads, head_dim = q.shape
    out = np.zeros_like(q)
    for i in range(n_q):
        visible = int(q_positions[i]) + 1
        for h in range(heads):
            scores = [float(q[i, h] @ k[h, j]) / np.sqrt(head_dim) for j in range(visible)]
            top = max(scores)
            weights = [np.exp(s - top) for s in scores]
            total = sum(weights)
            out[i, h] = sum(w / total * v[h, j] for j, w in enumerate(weights))
    return out


class TestBlasAttentionAndNorm:
    @pytest.mark.parametrize("n_q,past,heads,head_dim", [(1, 0, 1, 4), (5, 3, 2, 8), (31, 0, 4, 32)])
    def test_causal_attention_matches_scalar_oracle(self, n_q, past, heads, head_dim):
        rng = np.random.default_rng(n_q)
        q = rng.standard_normal((n_q, heads, head_dim))
        k = rng.standard_normal((heads, past + n_q, head_dim))
        v = rng.standard_normal((heads, past + n_q, head_dim))
        positions = past + np.arange(n_q)
        out = causal_attention(q, k, v, positions)
        assert out.shape == (n_q, heads, head_dim)
        np.testing.assert_allclose(out, attention_oracle(q, k, v, positions), rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("shape", [(8,), (5, 8), (31, 128), (3, 4, 344)])
    def test_rmsnorm_is_bitwise_the_mean_form(self, shape):
        rng = np.random.default_rng(len(shape))
        x = rng.standard_normal(shape) * 3.0
        w = rng.standard_normal(shape[-1:])
        expected = x / np.sqrt(np.mean(x * x, axis=-1, keepdims=True) + 1e-6) * w
        np.testing.assert_array_equal(rmsnorm(x, w), expected)


class StackedCopyModel(LlamaModel):
    """The forward as it ran before SGMV read the slab in place: each
    addon stacks a fresh padded copy of its segments' weights."""

    def _lora_addon(self, y, h, plan, layer, proj):
        wa, wb = self.registry.stack_padded(list(plan.segment_lora_ids), layer, proj)
        add_lora_sgmv(y, h, wa, wb, plan.seg)


def test_forward_logits_are_bitwise_the_stacked_copy_path():
    cfg = tiny_config(hidden_size=32, num_layers=2, num_heads=4, vocab_size=64)
    weights = random_llama_weights(cfg, seed=7)
    reg = LoraRegistry()
    for i, rank in enumerate([4, 8, 2, 4, 1]):
        reg.register(random_lora_weights(f"m{i}", cfg.num_layers, cfg.proj_dims(), rank, seed=70 + i))
    rng = np.random.default_rng(17)
    # A shared adapter (m0 twice) and distinct ones among the decodes, so
    # the plan has one-segment lanes and a run of one-row segments.
    loras = {"d0": "m0", "d1": "m0", "d2": "m1", "d3": "m3", "d4": "m4"}
    prompts = {rid: rng.integers(0, cfg.vocab_size, size=3 + i) for i, rid in enumerate(loras)}
    fresh = {"p0": ("m2", rng.integers(0, cfg.vocab_size, size=6))}

    logits = []
    for cls in (LlamaModel, StackedCopyModel):
        kv = PagedKvData(64, 4, cfg.num_layers, cfg.num_kv_heads, cfg.head_dim, dtype=np.float64)
        model = cls(weights, kv, reg)
        for rid, prompt in prompts.items():
            kv.allocate(rid, len(prompt))
            plan = plan_batch([BatchEntry(rid, loras[rid], len(prompt), is_prefill=True)])
            model.forward(TokenBatch(plan, prompt, (0,)))
            kv.append_slot(rid)
        kv.allocate("p0", len(fresh["p0"][1]))
        plan = plan_batch(
            [BatchEntry("p0", fresh["p0"][0], len(fresh["p0"][1]), is_prefill=True)]
            + [BatchEntry(rid, lora, 1, is_prefill=False) for rid, lora in loras.items()]
        )
        lane_widths = [s1 - s0 for _, _, s0, s1, _ in _segment_plan(plan.seg).lanes]
        assert lane_widths == [1, 1, 3]
        tokens = [fresh["p0"][1]] + [[int(prompts[e.request_id][-1])] for e in plan.entries[1:]]
        pasts = (0,) + tuple(len(prompts[e.request_id]) for e in plan.entries[1:])
        logits.append(model.forward(TokenBatch(plan, np.concatenate(tokens), pasts)))
    np.testing.assert_array_equal(logits[0], logits[1])
