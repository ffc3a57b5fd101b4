"""Functional NumPy Llama with paged KvCache and batched multi-LoRA (SGMV).

This is a real transformer — RMSNorm, rotary embeddings, SwiGLU MLP,
optional grouped-query attention — executed exactly the way Punica's
runtime executes it (§5/§6):

* all tokens of one invocation (one prefill's prompt + one token per
  decode request) are concatenated along the sequence dimension;
* dense projections and the LoRA addon run *batched over all tokens*,
  with the LoRA addon computed by two SGMV launches over the plan's
  token-level segments;
* attention runs against the paged KvCache
  (:class:`~repro.kvcache.pool.PagedKvData`), prefill and decode through
  the same storage: each prefill on its own (the BatchPrefill side), all
  decode rows of the invocation in one batched pass per layer (the
  BatchDecode side, :func:`paged_decode_attention`).

At toy scale this proves the serving semantics numerically;
:func:`reference_forward_full` is the no-cache, single-request gold
standard the incremental path is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.batch import BatchPlan
from repro.core.lora import LoraRegistry, LoraSlab
from repro.core.ops import add_lora_sgmv_slots
from repro.kvcache.pool import DecodeRows, PagedKvData
from repro.models.weights import LlamaLayerWeights, LlamaWeights


def rmsnorm(x: np.ndarray, weight: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Root-mean-square LayerNorm (the variant Llama uses)."""
    # np.mean's own sum-then-divide, bitwise, without its dispatch.
    mean_sq = np.add.reduce(x * x, -1, keepdims=True) / x.shape[-1]
    scale = np.sqrt(mean_sq + eps)
    return x / scale * weight


def silu(x: np.ndarray) -> np.ndarray:
    return x / (1.0 + np.exp(-x))


def rope_tables(
    positions: np.ndarray, head_dim: int, theta: float
) -> tuple[np.ndarray, np.ndarray]:
    """The ``(cos, sin)`` rotation tables of ``positions``, each
    ``(tokens, 1, head_dim / 2)``: pair ``i`` turns by ``pos * theta^(-2i/d)``.
    They depend on the positions alone, so one invocation computes them
    once for ``q`` and ``k`` of every layer."""
    if head_dim % 2 != 0:
        raise ValueError(f"head_dim must be even for RoPE, got {head_dim}")
    half = head_dim // 2
    freq = theta ** (-np.arange(half, dtype=np.float64) / half)
    angles = positions[:, None].astype(np.float64) * freq[None, :]  # (tokens, half)
    return np.cos(angles)[:, None, :], np.sin(angles)[:, None, :]


def rope_apply(x: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    """Rotate the pairs ``(x[2i], x[2i+1])`` of ``x`` ``(tokens, heads,
    head_dim)`` by the tables of :func:`rope_tables`."""
    x_even, x_odd = x[..., 0::2], x[..., 1::2]
    out = np.empty_like(x)
    out[..., 0::2] = x_even * cos - x_odd * sin
    out[..., 1::2] = x_even * sin + x_odd * cos
    return out


def rope_rotate(x: np.ndarray, positions: np.ndarray, theta: float) -> np.ndarray:
    """Apply rotary position embeddings.

    ``x`` is ``(tokens, heads, head_dim)``; ``positions`` is ``(tokens,)``.
    Pairs ``(x[2i], x[2i+1])`` are rotated by ``pos * theta^(-2i/d)``.
    """
    return rope_apply(x, *rope_tables(positions, x.shape[-1], theta))


def causal_attention(q: np.ndarray, k: np.ndarray, v: np.ndarray, q_positions: np.ndarray) -> np.ndarray:
    """Multi-head attention of queries over a K/V history.

    ``q``: ``(n_q, H, D)``; ``k``/``v``: ``(H, S, D)``; query ``i`` may
    attend to history positions ``<= q_positions[i]``. Returns
    ``(n_q, H, D)``.
    """
    head_dim = q.shape[-1]
    # Both products are batched GEMMs over the heads, so they run on BLAS.
    scores = np.matmul(q.transpose(1, 0, 2), k.transpose(0, 2, 1)) / np.sqrt(head_dim)
    key_pos = np.arange(k.shape[1])
    mask = key_pos[None, :] > q_positions[:, None]  # (n_q, S)
    scores = np.where(mask[None, :, :], -np.inf, scores)
    scores -= scores.max(axis=-1, keepdims=True)
    weights = np.exp(scores)
    weights /= weights.sum(axis=-1, keepdims=True)
    return np.matmul(weights, v).transpose(1, 0, 2)


def paged_decode_attention(
    q: np.ndarray, kv: PagedKvData, layer: int, rows: DecodeRows
) -> np.ndarray:
    """Attention of every decode row over its paged history, batched.

    ``q`` is ``(n, H, D)``, one query per row of ``rows``; the result
    equals :func:`causal_attention` of each row over its own
    :meth:`PagedKvData.gather`. Rows are padded to the longest history;
    a padded or stale slot gets score ``-inf``, hence weight exactly
    ``0.0``, so a row's output does not depend on its neighbours. Query
    heads are grouped onto their K/V head (GQA) rather than repeating K/V.
    """
    n, num_heads, head_dim = q.shape
    q = q.reshape(n, kv.num_kv_heads, num_heads // kv.num_kv_heads, head_dim)
    k_hist = kv.gather_decode(rows, layer, 0)  # (n, N_kv, S, D)
    scores = np.matmul(q, k_hist.transpose(0, 1, 3, 2)) / np.sqrt(head_dim)
    scores = np.where(rows.masked[:, None, None, :], -np.inf, scores)
    scores -= scores.max(axis=-1, keepdims=True)
    weights = np.exp(scores)
    weights /= weights.sum(axis=-1, keepdims=True)
    del k_hist  # before V is gathered: one page set live at a time
    v_hist = kv.gather_decode(rows, layer, 1)
    return np.matmul(weights, v_hist).reshape(n, num_heads, head_dim)


@dataclass(frozen=True)
class TokenBatch:
    """One model invocation's inputs, aligned with a :class:`BatchPlan`.

    ``token_ids`` holds every input token in plan order (prefill prompts
    concatenated, then one token per decode request); ``past_lens[i]`` is
    how many tokens of ``plan.entries[i]``'s sequence are already in the
    KvCache (0 for a fresh prefill).
    """

    plan: BatchPlan
    token_ids: np.ndarray
    past_lens: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.token_ids.ndim != 1:
            raise ValueError("token_ids must be 1-D")
        if len(self.token_ids) != self.plan.total_tokens:
            raise ValueError(
                f"{len(self.token_ids)} token ids for a {self.plan.total_tokens}-token plan"
            )
        if len(self.past_lens) != len(self.plan.entries):
            raise ValueError("past_lens must align with plan entries")
        if any(p < 0 for p in self.past_lens):
            raise ValueError("past_lens must be nonnegative")

    def positions(self) -> np.ndarray:
        """Absolute sequence position of every input token."""
        pos = np.empty(self.plan.total_tokens, dtype=np.int64)
        cursor = 0
        for entry, past in zip(self.plan.entries, self.past_lens):
            pos[cursor : cursor + entry.num_tokens] = past + np.arange(entry.num_tokens)
            cursor += entry.num_tokens
        return pos

    def entry_token_slices(self) -> list[slice]:
        """Token-range of each entry, in plan order."""
        slices = []
        cursor = 0
        for entry in self.plan.entries:
            slices.append(slice(cursor, cursor + entry.num_tokens))
            cursor += entry.num_tokens
        return slices


class LlamaModel:
    """The functional backbone + multi-LoRA execution engine."""

    def __init__(
        self,
        weights: LlamaWeights,
        kv: PagedKvData,
        registry: LoraRegistry | None = None,
    ):
        cfg = weights.config
        if kv.num_layers != cfg.num_layers or kv.num_kv_heads != cfg.num_kv_heads:
            raise ValueError("KvCache geometry does not match the model config")
        if kv.head_dim != cfg.head_dim:
            raise ValueError("KvCache head_dim does not match the model config")
        self.weights = weights
        self.config = cfg
        self.kv = kv
        self.registry = registry
        self.slab = LoraSlab(registry) if registry is not None else None
        """Kernel-side copy of the adapters in flight; filled at first use."""

    # ------------------------------------------------------------------
    def _lora_addon(
        self,
        y: np.ndarray,
        h: np.ndarray,
        plan: BatchPlan,
        layer: int,
        proj: str,
    ) -> None:
        """Add the batched LoRA delta for one projection via SGMV in place.

        SGMV reads each segment's weights by slot from the resident slab,
        zero-padded to the batch's largest rank so tenants of *different*
        ranks batch into one launch (exact; identical to the strict stack
        when ranks are uniform).
        """
        if self.slab is None:
            return
        add_lora_sgmv_slots(y, h, *self.slab.resident(plan, layer, proj), plan.seg)

    def _project(
        self, h: np.ndarray, lw: LlamaLayerWeights, plan: BatchPlan, layer: int, proj: str
    ) -> np.ndarray:
        """Backbone GEMM plus SGMV LoRA addon for one projection."""
        y = h @ lw.projection(proj)
        self._lora_addon(y, h, plan, layer, proj)
        return y

    # ------------------------------------------------------------------
    def forward(self, batch: TokenBatch) -> np.ndarray:
        """Run one batched invocation; returns next-token logits per entry.

        Side effect: writes every input token's K/V into the paged cache
        (pages must already be allocated by the caller — the engine does
        this on admission/append).
        """
        cfg, w = self.config, self.weights
        plan = batch.plan
        positions = batch.positions()
        slices = batch.entry_token_slices()
        group = cfg.num_heads // cfg.num_kv_heads
        cos, sin = rope_tables(positions, cfg.head_dim, cfg.rope_theta)
        # Prefills come first in plan order, then one row per decode.
        prefills = list(
            zip(plan.entries[: len(plan.prefill_lens)], slices, batch.past_lens)
        )
        first_decode = plan.batchlen.num_prefill_tokens
        decode_rows = (
            self.kv.decode_rows(plan.decode_ids, positions[first_decode:])
            if plan.decode_ids
            else None
        )

        x = w.embedding[batch.token_ids]
        for layer_idx, lw in enumerate(w.layers):
            resid = x
            h = rmsnorm(x, lw.input_norm)
            q = self._project(h, lw, plan, layer_idx, "q")
            k = self._project(h, lw, plan, layer_idx, "k")
            v = self._project(h, lw, plan, layer_idx, "v")

            q = q.reshape(-1, cfg.num_heads, cfg.head_dim)
            k = k.reshape(-1, cfg.num_kv_heads, cfg.head_dim)
            v = v.reshape(-1, cfg.num_kv_heads, cfg.head_dim)
            q = rope_apply(q, cos, sin)
            k = rope_apply(k, cos, sin)

            # Write this invocation's K/V into the paged cache and attend:
            # each prefill over its own (paged) history, the decode rows
            # together.
            attn = np.empty_like(q)
            for entry, sl, past in prefills:
                self.kv.write_tokens(entry.request_id, layer_idx, past, k[sl], v[sl])
                k_hist, v_hist = self.kv.gather(
                    entry.request_id, layer_idx, past + entry.num_tokens
                )
                if group > 1:
                    k_hist = np.repeat(k_hist, group, axis=0)
                    v_hist = np.repeat(v_hist, group, axis=0)
                attn[sl] = causal_attention(q[sl], k_hist, v_hist, positions[sl])
            if decode_rows is not None:
                self.kv.write_decode(
                    decode_rows, layer_idx, k[first_decode:], v[first_decode:]
                )
                attn[first_decode:] = paged_decode_attention(
                    q[first_decode:], self.kv, layer_idx, decode_rows
                )

            attn_flat = attn.reshape(-1, cfg.num_heads * cfg.head_dim)
            o = self._project(attn_flat, lw, plan, layer_idx, "o")
            x = resid + o

            resid = x
            h = rmsnorm(x, lw.post_attn_norm)
            gate = self._project(h, lw, plan, layer_idx, "gate")
            up = self._project(h, lw, plan, layer_idx, "up")
            act = silu(gate) * up
            down = self._lora_down(act, lw, plan, layer_idx)
            x = resid + down

        x = rmsnorm(x, w.final_norm)
        last_token_idx = np.asarray([sl.stop - 1 for sl in slices])
        return x[last_token_idx] @ w.lm_head

    def _lora_down(
        self, act: np.ndarray, lw: LlamaLayerWeights, plan: BatchPlan, layer: int
    ) -> np.ndarray:
        y = act @ lw.w_down
        self._lora_addon(y, act, plan, layer, "down")
        return y


def reference_forward_full(
    weights: LlamaWeights,
    token_ids: np.ndarray,
    registry: LoraRegistry | None = None,
    lora_id: str | None = None,
) -> np.ndarray:
    """Gold standard: full-sequence forward for ONE request, no cache.

    Computes next-token logits for the last position by processing the
    whole history at once with dense causal attention, merging the LoRA
    delta directly into the weights (``W + A B``). The incremental paged
    path must match this exactly.
    """
    cfg = weights.config
    token_ids = np.asarray(token_ids)
    positions = np.arange(len(token_ids))
    group = cfg.num_heads // cfg.num_kv_heads

    def merged(lw: LlamaLayerWeights, layer_idx: int, proj: str) -> np.ndarray:
        base = lw.projection(proj)
        if registry is None or lora_id is None:
            return base
        return base + registry.get(lora_id).layers[layer_idx][proj].delta()

    x = weights.embedding[token_ids]
    for layer_idx, lw in enumerate(weights.layers):
        resid = x
        h = rmsnorm(x, lw.input_norm)
        q = (h @ merged(lw, layer_idx, "q")).reshape(-1, cfg.num_heads, cfg.head_dim)
        k = (h @ merged(lw, layer_idx, "k")).reshape(-1, cfg.num_kv_heads, cfg.head_dim)
        v = (h @ merged(lw, layer_idx, "v")).reshape(-1, cfg.num_kv_heads, cfg.head_dim)
        q = rope_rotate(q, positions, cfg.rope_theta)
        k = rope_rotate(k, positions, cfg.rope_theta)
        if group > 1:
            k = np.repeat(k, group, axis=1)
            v = np.repeat(v, group, axis=1)
        attn = causal_attention(
            q, np.swapaxes(k, 0, 1), np.swapaxes(v, 0, 1), positions
        )
        o = attn.reshape(-1, cfg.num_heads * cfg.head_dim) @ merged(lw, layer_idx, "o")
        x = resid + o
        resid = x
        h = rmsnorm(x, lw.post_attn_norm)
        act = silu(h @ merged(lw, layer_idx, "gate")) * (h @ merged(lw, layer_idx, "up"))
        x = resid + act @ merged(lw, layer_idx, "down")
    x = rmsnorm(x, weights.final_norm)
    return x[-1] @ weights.lm_head
