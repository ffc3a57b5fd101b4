"""Analytical step latency of one batched model invocation.

Bridges the kernel cost model (:mod:`repro.hw.kernels`) and the serving
runtime: given *what* a batch contains — prefill lengths, decode KvCache
lengths, token-level LoRA segments — these functions price one transformer
layer and one full model step on a :class:`~repro.hw.spec.GpuSpec`,
optionally sharded with Megatron tensor parallelism.

Capability flags (``flash``, ``fused_layernorm``, ``cache_concat``) exist
so the baseline frameworks of Fig 11 can be priced through the *same*
formulas with their documented inefficiencies switched on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.hw.kernels import KernelCostModel
from repro.hw.spec import FP16_BYTES
from repro.models.config import LlamaConfig
from repro.models.tp import TensorParallelConfig, SINGLE_GPU


@dataclass(frozen=True)
class StepWorkload:
    """The shape of one batched invocation.

    Attributes
    ----------
    prefill_lens:
        New-token counts of the prefill requests in the batch (Punica keeps
        at most one; baselines may prefill whole batches).
    decode_kv_lens:
        For each decode request, the KvCache length it attends over
        (past tokens; the new token adds one).
    lora_segments:
        Token-level SGMV segment sizes, or ``None`` when serving the bare
        backbone (the vLLM/FasterTransformer baselines).
    lora_rank:
        Rank of every LoRA model in the batch (16 in all paper experiments).
    """

    prefill_lens: tuple[int, ...] = ()
    decode_kv_lens: tuple[int, ...] = ()
    lora_segments: tuple[int, ...] | None = None
    lora_rank: int = 16

    def __post_init__(self) -> None:
        if any(l <= 0 for l in self.prefill_lens):
            raise ValueError(f"prefill lengths must be positive, got {self.prefill_lens}")
        if any(l < 0 for l in self.decode_kv_lens):
            raise ValueError(f"kv lengths must be nonnegative, got {self.decode_kv_lens}")
        if not self.prefill_lens and not self.decode_kv_lens:
            raise ValueError("workload must contain at least one request")
        if self.lora_segments is not None:
            if any(s <= 0 for s in self.lora_segments):
                raise ValueError("lora segments must be positive")
            if sum(self.lora_segments) != self.num_tokens:
                raise ValueError(
                    f"lora segments cover {sum(self.lora_segments)} tokens, "
                    f"batch has {self.num_tokens}"
                )
        if self.lora_rank <= 0:
            raise ValueError(f"lora_rank must be positive, got {self.lora_rank}")

    @property
    def num_tokens(self) -> int:
        """Tokens flowing through the dense projections this step."""
        return sum(self.prefill_lens) + len(self.decode_kv_lens)

    @property
    def batch_size(self) -> int:
        return len(self.prefill_lens) + len(self.decode_kv_lens)


@dataclass(frozen=True)
class PerfFlags:
    """Framework capability switches (all on = Punica; see baselines)."""

    flash_attention: bool = True
    fused_layernorm: bool = True
    cache_concat: bool = False
    """HF-style per-step KvCache reallocation (reads+writes the whole cache)."""
    framework_overhead_per_layer: float = 0.0
    """Extra eager-mode host time per layer (unoptimized frameworks)."""
    lora_impl: str = "sgmv"
    """Which batched LoRA operator the engine runs: "sgmv" (Punica),
    "gather_bmm", or "loop" — the Fig 8 comparison, end to end."""

    def __post_init__(self) -> None:
        if self.lora_impl not in ("sgmv", "gather_bmm", "loop"):
            raise ValueError(f"unknown lora_impl {self.lora_impl!r}")


PUNICA_FLAGS = PerfFlags()


def _lora_latency(
    kcm: KernelCostModel,
    work: StepWorkload,
    tokens: int,
    h_in: int,
    h_out: int,
    impl: str = "sgmv",
) -> float:
    """Batched LoRA addon for one projection under the chosen operator.

    ``tokens`` is ``work.num_tokens``, which :class:`StepWorkload` has
    checked the segments sum to — SGMV prices from that total and the
    segment count alone."""
    if work.lora_segments is None:
        return 0.0
    if impl == "sgmv":
        return kcm.lora_addon_total(
            tokens, len(work.lora_segments), h_in, h_out, work.lora_rank
        )
    if impl == "gather_bmm":
        return kcm.gather_bmm_lora(work.lora_segments, h_in, h_out, work.lora_rank)
    return kcm.loop_lora(work.lora_segments, h_in, h_out, work.lora_rank)


@dataclass(frozen=True, slots=True)
class StepLatencyTerms:
    """The kv-invariant pieces of :func:`model_step_latency`, pre-summed.

    Every term of the step-latency formula except batched decode attention
    depends only on the *shape* of the invocation (token counts, LoRA
    segments, prefill lengths) — which is exactly what a reused
    :class:`~repro.core.batch.BatchPlan` pins. Decode attention is the
    lone term that moves as KvCache lengths grow each step.

    Floating-point addition is not associative, so the split must preserve
    the original summation order exactly for trace byte-identity:
    ``layer_prefix`` is the running sum of every term *before* decode
    attention (a single float — identical to the accumulator's value at
    that point), ``layer_tails`` are the individual term values added
    *after* it, in order, and ``model_tails`` the three model-level terms.
    Re-evaluating via :func:`step_latency_from_terms` therefore performs
    the same float operations in the same order as the direct computation
    and returns the bit-identical result.
    """

    layer_prefix: float
    layer_tails: tuple[float, ...]
    model_tails: tuple[float, ...]
    num_decode: int
    heads_shard: int
    kv_heads_shard: int


def _layer_terms(
    config: LlamaConfig,
    kcm: KernelCostModel,
    work: StepWorkload,
    tp: TensorParallelConfig,
    flags: PerfFlags,
) -> "tuple[list[float], list[float]]":
    """Per-layer latency terms split around decode attention.

    Single source of truth for the layer formula: both the direct
    :func:`transformer_layer_latency` and the cached fast path fold these
    exact values, so they cannot drift apart.
    """
    tp.validate_for(config)
    w = tp.world_size
    h = config.hidden_size
    kv_dim_shard = max(config.kv_dim // w, config.head_dim)
    inter_shard = config.intermediate_size // w
    heads_shard = tp.shard_heads(config)
    kv_heads_shard = tp.shard_kv_heads(config)
    tokens = work.num_tokens

    prefix: "list[float]" = []
    prefix.append(2.0 * kcm.layernorm(fused=flags.fused_layernorm))

    # Attention block projections (column-parallel q/k/v, row-parallel o).
    prefix.append(kcm.gemm(tokens, h // w, h))  # q
    prefix.append(kcm.gemm(tokens, kv_dim_shard, h))  # k
    prefix.append(kcm.gemm(tokens, kv_dim_shard, h))  # v
    prefix.append(kcm.gemm(tokens, h, h // w))  # o
    prefix.append(_lora_latency(kcm, work, tokens, h, h // w, flags.lora_impl))  # q lora
    prefix.append(
        2.0 * _lora_latency(kcm, work, tokens, h, kv_dim_shard, flags.lora_impl)
    )  # k, v lora
    prefix.append(_lora_latency(kcm, work, tokens, h // w, h, flags.lora_impl))  # o lora

    # Self-attention kernels: one BatchPrefill per prefill request; the
    # BatchDecode over all decode requests goes *between* prefix and tail.
    for s in work.prefill_lens:
        prefix.append(
            kcm.attention_prefill(
                s, heads_shard, config.head_dim, kv_heads_shard,
                flash=flags.flash_attention,
            )
        )

    tail: "list[float]" = []
    # MLP (column-parallel gate/up, row-parallel down).
    tail.append(2.0 * kcm.gemm(tokens, inter_shard, h))  # gate, up
    tail.append(kcm.gemm(tokens, h, inter_shard))  # down
    tail.append(
        2.0 * _lora_latency(kcm, work, tokens, h, inter_shard, flags.lora_impl)
    )  # gate, up lora
    tail.append(_lora_latency(kcm, work, tokens, inter_shard, h, flags.lora_impl))  # down lora

    # RoPE + SiLU + two residual adds, all bandwidth-bound elementwise.
    tail.append(4.0 * kcm.elementwise(tokens * h * FP16_BYTES / w))

    # HF-style cache concatenation: the whole layer cache is copied.
    if flags.cache_concat:
        cache_tokens = sum(work.decode_kv_lens) + sum(work.prefill_lens)
        cache_bytes = cache_tokens * 2 * kv_heads_shard * config.head_dim * FP16_BYTES
        tail.append(kcm.elementwise(cache_bytes))

    tail.append(tp.layer_allreduce_time(config, tokens))  # two all-reduces
    tail.append(flags.framework_overhead_per_layer)
    return prefix, tail


def transformer_layer_latency(
    config: LlamaConfig,
    kcm: KernelCostModel,
    work: StepWorkload,
    tp: TensorParallelConfig = SINGLE_GPU,
    flags: PerfFlags = PUNICA_FLAGS,
) -> float:
    """Latency of one transformer layer for ``work`` on one GPU (Fig 10).

    Sums: two norms, Q/K/V/O projections (+LoRA), prefill and decode
    attention kernels, the SwiGLU MLP (+LoRA), RoPE/residual elementwise
    passes, and — under tensor parallelism — the two all-reduces.
    """
    prefix, tail = _layer_terms(config, kcm, work, tp, flags)
    t = 0.0
    for term in prefix:
        t += term
    if work.decode_kv_lens:
        t += kcm.attention_decode(
            [l + 1 for l in work.decode_kv_lens],
            tp.shard_heads(config),
            config.head_dim,
            tp.shard_kv_heads(config),
        )
    for term in tail:
        t += term
    return t


def step_latency_terms(
    config: LlamaConfig,
    kcm: KernelCostModel,
    work: StepWorkload,
    tp: TensorParallelConfig = SINGLE_GPU,
    flags: PerfFlags = PUNICA_FLAGS,
) -> StepLatencyTerms:
    """Precompute the kv-invariant terms of :func:`model_step_latency`.

    The caller caches the result against the batch plan and re-evaluates
    with :func:`step_latency_from_terms` as KvCache lengths advance.
    """
    prefix_terms, tail_terms = _layer_terms(config, kcm, work, tp, flags)
    prefix = 0.0
    for term in prefix_terms:
        prefix += term
    model_tails = (
        # Embedding lookup for every input token.
        kcm.elementwise(work.num_tokens * config.hidden_size * FP16_BYTES),
        # LM head only for tokens that produce logits (one per request).
        kcm.gemm(
            work.batch_size, config.vocab_size // tp.world_size, config.hidden_size
        ),
        kcm.layernorm(fused=flags.fused_layernorm),
    )
    return StepLatencyTerms(
        layer_prefix=prefix,
        layer_tails=tuple(tail_terms),
        model_tails=model_tails,
        num_decode=len(work.decode_kv_lens),
        heads_shard=tp.shard_heads(config),
        kv_heads_shard=tp.shard_kv_heads(config),
    )


def step_latency_from_terms(
    config: LlamaConfig,
    kcm: KernelCostModel,
    terms: StepLatencyTerms,
    total_kv,
):
    """Re-evaluate :func:`model_step_latency` from cached invariant terms.

    ``total_kv`` is ``sum(past + 1)`` over the decode requests the terms
    were built for, as an exact integer: decode attention reads their
    KvCache lengths only through that sum and their count
    (:meth:`~repro.hw.kernels.KernelCostModel.attention_decode_total`).
    Bit equality with the direct computation is guaranteed by the
    summation contract documented on :class:`StepLatencyTerms`. A float64
    array of totals prices one step per element — elementwise array
    operations round identically to their scalar counterparts.
    """
    t = terms.layer_prefix
    if terms.num_decode:
        t = t + kcm.attention_decode_total(
            total_kv,
            terms.num_decode,
            terms.heads_shard,
            config.head_dim,
            terms.kv_heads_shard,
        )
    for term in terms.layer_tails:
        t += term
    total = config.num_layers * t
    for term in terms.model_tails:
        total += term
    return total


def step_latency_steady_run(
    config: LlamaConfig,
    kcm: KernelCostModel,
    terms: StepLatencyTerms,
    total_kv: int,
    increment: int,
    count: int,
) -> np.ndarray:
    """:func:`step_latency_from_terms` over a run of decode steps of one
    unchanged all-decode batch, as one array expression.

    ``total_kv`` must equal ``sum(past + 1 for past in decode_past_lens)``
    at the first step, as an exact integer; step ``k`` then attends over
    ``total_kv + k * increment`` tokens (``increment`` is the batch size:
    every request's KvCache grows by one per step). The KV totals are
    exact integers, so element ``k`` equals the scalar evaluation of step
    ``k`` bit for bit. One array expression per run replaces ``count``
    Python-level evaluations; the engine's bulk decode lane is the only
    caller.
    """
    totals = (
        np.arange(count, dtype=np.int64) * increment + total_kv
    ).astype(np.float64)
    return step_latency_from_terms(config, kcm, terms, totals)


def model_step_latency(
    config: LlamaConfig,
    kcm: KernelCostModel,
    work: StepWorkload,
    tp: TensorParallelConfig = SINGLE_GPU,
    flags: PerfFlags = PUNICA_FLAGS,
) -> float:
    """One full model invocation: all layers + embedding + LM head."""
    layer = transformer_layer_latency(config, kcm, work, tp=tp, flags=flags)
    t = config.num_layers * layer
    # Embedding lookup for every input token.
    t += kcm.elementwise(work.num_tokens * config.hidden_size * FP16_BYTES)
    # LM head only for tokens that produce logits (one per request).
    t += kcm.gemm(work.batch_size, config.vocab_size // tp.world_size, config.hidden_size)
    t += kcm.layernorm(fused=flags.fused_layernorm)
    return t


def spec_verify_latency(
    config: LlamaConfig,
    kcm: KernelCostModel,
    work: StepWorkload,
    draft_len: int,
    tp: TensorParallelConfig = SINGLE_GPU,
    flags: PerfFlags = PUNICA_FLAGS,
) -> float:
    """Price the batched verify of one speculative round.

    Every decode request submits a ``draft_len + 1``-token chunk (the
    last committed token re-scored plus the drafts) in one target-model
    invocation. The dense/LoRA side is exactly a short prefill of that
    chunk per request — each LoRA segment widens by the chunk length —
    while attention pays the piece a prefill does not have: streaming
    each request's past KV under the chunk's causal block
    (:meth:`~repro.hw.kernels.KernelCostModel.attention_verify`).
    """
    if work.prefill_lens:
        raise ValueError("speculative verify prices an all-decode batch")
    if draft_len < 1:
        raise ValueError(f"draft_len must be >= 1, got {draft_len}")
    chunk = draft_len + 1
    segments = (
        tuple(s * chunk for s in work.lora_segments)
        if work.lora_segments is not None
        else None
    )
    # Build the chunked workload via the prefill shape so the dense
    # projections and LoRA segments price over chunk*batch tokens.
    verify_work = StepWorkload(
        prefill_lens=(chunk,) * len(work.decode_kv_lens),
        decode_kv_lens=(),
        lora_segments=segments,
        lora_rank=work.lora_rank,
    )
    prefix_terms, tail_terms = _layer_terms(config, kcm, verify_work, tp, flags)
    heads_shard = tp.shard_heads(config)
    kv_heads_shard = tp.shard_kv_heads(config)
    layer = 0.0
    for term in prefix_terms:
        layer += term
    # _layer_terms priced each chunk as a fresh prefill (no past); swap in
    # the verify kernel's past-aware cost by adding the difference term.
    for past in work.decode_kv_lens:
        layer += kcm.attention_verify(
            chunk, past, heads_shard, config.head_dim, kv_heads_shard,
            flash=flags.flash_attention,
        )
        layer -= kcm.attention_prefill(
            chunk, heads_shard, config.head_dim, kv_heads_shard,
            flash=flags.flash_attention,
        )
    for term in tail_terms:
        layer += term
    t = config.num_layers * layer
    t += kcm.elementwise(verify_work.num_tokens * config.hidden_size * FP16_BYTES)
    # Logits for every chunk position (each needs an accept/reject verdict).
    t += kcm.gemm(
        verify_work.num_tokens, config.vocab_size // tp.world_size,
        config.hidden_size,
    )
    t += kcm.layernorm(fused=flags.fused_layernorm)
    return t


def spec_round_latency(
    config: LlamaConfig,
    kcm: KernelCostModel,
    work: StepWorkload,
    draft_len: int,
    draft_cost_ratio: float,
    tp: TensorParallelConfig = SINGLE_GPU,
    flags: PerfFlags = PUNICA_FLAGS,
) -> float:
    """One full speculative round: ``draft_len`` cheap draft decode steps
    plus the batched verify.

    The draft model runs the bare backbone (no LoRA — adapters only
    steer the verified output) at ``draft_cost_ratio`` of a target decode
    step; its KvCache mirrors the target's and grows one token per draft
    step. ``work`` must be the all-decode workload of the round's batch,
    with ``decode_kv_lens`` holding each request's *past* KV length.
    """
    if work.prefill_lens:
        raise ValueError("speculative rounds run on all-decode batches")
    if not 0.0 < draft_cost_ratio <= 1.0:
        raise ValueError(
            f"draft_cost_ratio must be within (0, 1], got {draft_cost_ratio}"
        )
    total = 0.0
    kv = work.decode_kv_lens
    for k in range(draft_len):
        draft_work = StepWorkload(
            prefill_lens=(),
            decode_kv_lens=tuple(l + k for l in kv),
            lora_segments=None,
            lora_rank=work.lora_rank,
        )
        total += draft_cost_ratio * model_step_latency(
            config, kcm, draft_work, tp=tp, flags=flags
        )
    total += spec_verify_latency(config, kcm, work, draft_len, tp=tp, flags=flags)
    return total


def decode_step_workload(
    kv_lens: "list[int]",
    lora_segments: "list[int] | None" = None,
    lora_rank: int = 16,
) -> StepWorkload:
    """Convenience: a pure decode step over ``kv_lens`` requests."""
    return StepWorkload(
        prefill_lens=(),
        decode_kv_lens=tuple(kv_lens),
        lora_segments=tuple(lora_segments) if lora_segments is not None else None,
        lora_rank=lora_rank,
    )
