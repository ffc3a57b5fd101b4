"""Compute backends: how one batched invocation actually executes.

Both backends expose the same narrow interface the engine drives —
KvCache admission/append/release (backed by the page allocator) plus
``execute(plan, past_lens)`` returning the step latency and one new token
per request:

* :class:`SimulatedBackend` prices the invocation with the analytical A100
  model and emits placeholder tokens; response lengths come from the trace.
* :class:`NumpyBackend` runs the functional Llama on real token ids and
  samples real next tokens; it can *also* price the step with the cost
  model, so the same run yields both semantics and timing.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from collections.abc import Mapping
from typing import TYPE_CHECKING

import numpy as np

from repro.core.batch import BatchEntry, BatchPlan, plan_batch
from repro.core.lora import LoraRegistry
from repro.hw.kernels import KernelCostModel
from repro.hw.spec import A100_80G, GpuSpec
from repro.kvcache.pool import KvPool, PagedKvData
from repro.models.config import LlamaConfig
from repro.models.llama import LlamaModel, TokenBatch
from repro.models.perf import (
    PUNICA_FLAGS,
    PerfFlags,
    StepWorkload,
    model_step_latency,
    spec_round_latency,
    step_latency_from_terms,
    step_latency_steady_run,
    step_latency_terms,
)
from repro.models.tp import SINGLE_GPU, TensorParallelConfig
from repro.models.weights import LlamaWeights
from repro.runtime.request import Request
from repro.runtime.sampler import GreedySampler
from repro.utils.units import GIB

if TYPE_CHECKING:
    import random

    from repro.runtime.spec import SpecConfig


@dataclass(frozen=True)
class StepExecution:
    """Result of one batched invocation."""

    latency: float
    tokens: dict[str, int]
    """request_id -> the one token this invocation produced for it."""


@dataclass(frozen=True)
class SpecExecution:
    """Result of one speculative draft/verify round (docs/speculative.md)."""

    latency: float
    committed: dict[str, tuple[int, ...]]
    """request_id -> the 1..draft_len+1 tokens the round committed for it
    (accepted drafts plus the target's bonus/correction token)."""
    accepted: dict[str, int]
    """request_id -> accepted draft-token count (``len(committed) - 1``)."""
    proposed: int
    """Draft tokens proposed per request this round (= ``spec.draft_len``)."""


def workload_from_plan(
    plan: BatchPlan,
    past_lens: Mapping[str, int],
    serve_lora: bool,
    lora_rank: int,
) -> StepWorkload:
    """Translate a planned batch into the analytical workload description:
    the plan's shape fields plus the per-step ``decode_kv`` lookup."""
    return StepWorkload(
        prefill_lens=plan.prefill_lens,
        decode_kv_lens=tuple(past_lens[rid] for rid in plan.decode_ids),
        lora_segments=plan.segment_sizes if serve_lora else None,
        lora_rank=lora_rank,
    )


_TERMS_MEMO_LIMIT = 4096
"""Shapes ``SimulatedBackend._terms_memo`` holds before it is cleared
wholesale (as ``hw.kernels._MEMO_LIMIT``): terms are cheap to rebuild,
the limit only bounds memory on a run of unboundedly many batch shapes."""


class SimulatedBackend:
    """Analytical-latency backend for full-scale (7B/13B/70B) experiments."""

    def __init__(
        self,
        config: LlamaConfig,
        gpu: GpuSpec = A100_80G,
        tp: TensorParallelConfig = SINGLE_GPU,
        flags: PerfFlags = PUNICA_FLAGS,
        lora_rank: int = 16,
        serve_lora: bool = True,
        page_size: int = 16,
        kv_capacity_bytes: float | None = None,
        workspace_bytes: float = 2 * GIB,
        step_overhead: float = 0.0005,
        unified_pool=None,
        fast_path: bool | None = None,
    ):
        """``kv_capacity_bytes`` defaults to HBM minus the (sharded) backbone
        weights minus a workspace reserve — the paper's "large fraction of
        GPU memory is reserved for KvCache". ``step_overhead`` is the
        per-invocation host time (scheduling, sampling, token streaming).

        With a :class:`~repro.adapters.pool.UnifiedMemoryPool` as
        ``unified_pool``, KvCache accounting is delegated to it so KvCache
        and adapter weights share one byte budget (adapters are demoted to
        host RAM under KvCache pressure); ``kv_capacity_bytes`` is then
        ignored — the pool's budget governs.

        ``fast_path`` is accepted and ignored: the backend prices every
        step one way on both paths (the lanes it feeds are the engine's
        and the simulator's to select)."""
        self.config = config
        self.gpu = gpu
        self.tp = tp
        self.flags = flags
        self.lora_rank = lora_rank
        self.serve_lora = serve_lora
        self.step_overhead = step_overhead
        self.supports_steady = not flags.cache_concat
        """Whether a plan has latency terms that hold across its steps —
        what the shape memo and the engine's armed batch and bulk decode
        lane rest on. Under ``cache_concat`` one layer term
        reads the KV lengths, so nothing is plan-invariant: every step is
        priced with ``model_step_latency`` and the engine never arms."""
        self.cost_model = KernelCostModel(gpu)
        self._terms_memo: dict = {}
        """:class:`StepLatencyTerms` by batch *shape*, at most
        ``_TERMS_MEMO_LIMIT`` of them. Rotating batch membership yields
        thousands of distinct plans whose shapes (token counts, LoRA
        segment sizes) repeat heavily; the terms are a pure function of
        shape (``supports_steady`` rules out ``cache_concat``, the one
        flag that would make them read the decode KV lengths)."""
        self.pool = unified_pool
        self._token_counter = 0
        if unified_pool is not None:
            self.kv = unified_pool
            return
        if kv_capacity_bytes is None:
            weights = config.weight_bytes() // tp.world_size
            kv_capacity_bytes = gpu.hbm_capacity - weights - workspace_bytes
            if kv_capacity_bytes <= 0:
                raise ValueError(
                    f"{config.name} does not fit on {gpu.name} with tp={tp.world_size}"
                )
        # Under TP the KvCache is sharded too; capacity stays per-GPU but
        # each token's bytes shrink by the shard factor, so pool tokens in
        # *logical* (unsharded) units for scheduler accounting.
        bytes_per_token = max(1, config.kv_bytes_per_token() // tp.world_size)
        self.kv = KvPool(
            capacity_bytes=kv_capacity_bytes,
            page_size=page_size,
            bytes_per_token=bytes_per_token,
        )

    @property
    def pricing_identity(self) -> tuple:
        """Everything :meth:`step_seconds` reads besides its arguments:
        backends with equal identities price every shape alike."""
        return (
            self.gpu, self.config, self.tp, self.flags,
            self.lora_rank, self.serve_lora, self.step_overhead,
        )

    # -- KvCache interface ------------------------------------------------
    # Unconditional forwards to ``self.kv``: a :class:`KvPool`, or the
    # unified pool (a ``KvPool`` that also gates on the shared byte budget).
    def kv_can_admit(self, prompt_len: int, headroom_tokens: int = 0) -> bool:
        return self.kv.can_admit(prompt_len, headroom_tokens)

    def kv_admit(self, request_id: str, prompt_len: int) -> None:
        self.kv.allocate(request_id, prompt_len)

    def kv_can_append(self, request_id: str, n: int = 1) -> bool:
        """Whether ``n`` more KV slots fit this sequence (1 per decode
        step; a speculative round reserves ``draft_len + 1``)."""
        return self.kv.can_append(request_id, n)

    def kv_append(self, request_id: str, n: int = 1) -> None:
        self.kv.append(request_id, n)

    def kv_append_many(self, request_ids) -> None:
        """Batched one-slot decode append for the engine's fast lane.

        Semantically ``for rid in request_ids: kv_append(rid)``. The fast
        lane only runs when a free page per request is guaranteed, so no
        append here can fail mid-batch.
        """
        self.kv.append_many(request_ids)

    def kv_truncate(self, request_id: str, new_len: int) -> int:
        """Roll a sequence back to ``new_len`` KV slots; returns pages freed
        (under a unified pool, straight back to the shared budget)."""
        return self.kv.truncate(request_id, new_len)

    def kv_release(self, request_id: str) -> None:
        if request_id in self.kv:
            self.kv.free(request_id)

    def kv_free_tokens(self) -> int:
        return self.kv.free_tokens

    def kv_headroom_pages(self) -> int:
        """Pages guaranteed allocatable right now, under every budget.

        If this is ``>= len(batch)`` then one decode append per request
        cannot fail (each consumes at most one page), so the fast lane can
        skip the per-slot can-append/evict checks entirely.
        """
        return self.kv.free_pages

    # -- KV handoff (disaggregated prefill/decode) ------------------------
    def kv_export(self, request_id: str) -> "tuple[int, None]":
        """Release a sequence for transfer; returns its token count and
        its payload, ``None``: only the accounting moves here."""
        return self.kv.export_sequence(request_id), None

    def kv_import(self, request_id: str, num_tokens: int, payload: None) -> None:
        """Admit a sequence whose KV history arrived over the interconnect."""
        self.kv.import_sequence(request_id, num_tokens)

    def kv_bytes_of(self, num_tokens: int) -> float:
        """Wire bytes of ``num_tokens`` of KV history on this GPU."""
        return self.kv.bytes_of(num_tokens)

    # -- execution ----------------------------------------------------------
    def execute(
        self,
        plan: BatchPlan,
        past_lens: Mapping[str, int],
        requests: Mapping[str, Request] | None = None,
    ) -> StepExecution:
        decode_ids = plan.decode_ids
        total_kv = len(decode_ids)
        for rid in decode_ids:
            total_kv += past_lens[rid]
        seconds = self.step_seconds(
            plan.prefill_lens, len(decode_ids), total_kv, plan.segment_sizes
        )
        tokens = {}
        for entry in plan.entries:
            self._token_counter += 1
            tokens[entry.request_id] = self._token_counter
        return StepExecution(latency=seconds, tokens=tokens)

    def execute_spec(
        self,
        plan: BatchPlan,
        past_lens: Mapping[str, int],
        spec: "SpecConfig",
        rng: "random.Random",
        requests: Mapping[str, Request] | None = None,
    ) -> SpecExecution:
        """One speculative draft/verify round over an all-decode plan.

        Pricing goes through :func:`~repro.models.perf.spec_round_latency`
        on both the fast and reference paths — the round has no term
        memo, so armed runs are trivially float-identical across paths.
        Acceptance counts come from a geometric model at
        ``spec.acceptance_rate`` using the engine-owned ``rng`` (seeded
        per GPU), drawn in plan decode order so replays are deterministic.
        ``past_lens`` holds the pre-reservation KV lengths (``T - 1``),
        exactly what a non-speculative decode step would see.
        """
        work = workload_from_plan(plan, past_lens, self.serve_lora, self.lora_rank)
        latency = spec_round_latency(
            self.config,
            self.cost_model,
            work,
            spec.draft_len,
            spec.draft_cost_ratio,
            tp=self.tp,
            flags=self.flags,
        )
        committed: dict[str, tuple[int, ...]] = {}
        accepted: dict[str, int] = {}
        counter = self._token_counter
        for rid in plan.decode_ids:
            m = 0
            while m < spec.draft_len and rng.random() < spec.acceptance_rate:
                m += 1
            toks = []
            for _ in range(m + 1):
                counter += 1
                toks.append(counter)
            committed[rid] = tuple(toks)
            accepted[rid] = m
        self._token_counter = counter
        return SpecExecution(
            latency=latency + self.step_overhead,
            committed=committed,
            accepted=accepted,
            proposed=spec.draft_len,
        )

    def steady_run_latencies(self, plan: BatchPlan, total_kv: int, count: int):
        """Per-step latencies for a ``count``-step decode run of one batch.

        ``total_kv`` is ``sum(past + 1)`` over the all-decode ``plan``'s
        requests at the run's first step. Step ``k`` prices exactly like
        :meth:`execute` with every past length ``k`` tokens on — decode
        attention reads the lengths only through their total,
        ``total_kv + k * batch`` — overhead included; see
        :func:`~repro.models.perf.step_latency_steady_run` for the
        bit-identity argument.
        """
        batch = len(plan.decode_ids)
        return (
            step_latency_steady_run(
                self.config, self.cost_model,
                self._terms(plan.prefill_lens, batch, total_kv, plan.segment_sizes),
                total_kv, batch, count,
            )
            + self.step_overhead
        )

    def commit_steady_run(self, request_ids, count: int) -> int:
        """Apply ``count`` decode steps' KvCache and token effects in bulk.

        ``request_ids`` iterates in the same order the per-step
        :meth:`kv_append_many` call would (the engine's slot order), so
        page assignment replays exactly. Returns the token counter value
        *before* the run: step ``k``'s token for the request at workload
        position ``p`` is ``base + k * batch + p + 1``, matching ``count``
        :meth:`execute` calls. Only valid without a unified pool (the
        lane gates on ``backend.pool is None``): a bulk append bypasses
        the shared byte budget.
        """
        self.kv.allocator.append_tokens_run(request_ids, count)
        base = self._token_counter
        self._token_counter = base + count * len(request_ids)
        return base

    def step_seconds(
        self,
        prefill_lens: "tuple[int, ...]",
        n_decode: int,
        total_kv: int,
        segments: "tuple[int, ...] | None" = None,
    ) -> float:
        """Seconds of one invocation, host overhead included, from its
        *shape* and the decode requests' KV total — the one way this
        backend prices a step, for the engine (:meth:`execute`) and for
        the control plane's placement quotes alike.

        ``total_kv`` is ``sum(past + 1)`` over the ``n_decode`` decode
        requests: the analytical model reads their KvCache lengths through
        that sum alone. ``segments`` are the LoRA segment sizes in batch
        order; ``None`` puts every request on its own adapter (a quote's
        assumption about a batch that does not exist yet). Equal, bit for
        bit, to ``model_step_latency`` over the per-request workload plus
        ``step_overhead`` (``tests/test_cluster_control.py``, the quote
        oracle).
        """
        if self.supports_steady:
            latency = step_latency_from_terms(
                self.config,
                self.cost_model,
                self._terms(prefill_lens, n_decode, total_kv, segments),
                total_kv,
            )
        else:
            latency = model_step_latency(
                self.config,
                self.cost_model,
                self._shape_workload(prefill_lens, n_decode, total_kv, segments),
                tp=self.tp,
                flags=self.flags,
            )
        return latency + self.step_overhead

    def _shape_workload(
        self, prefill_lens, n_decode: int, total_kv: int, segments
    ) -> StepWorkload:
        """A validated workload of the given shape and decode KV total.
        Nothing downstream reads the individual decode lengths — decode
        attention and the ``cache_concat`` copy sum them — so the first
        decode request carries the whole past."""
        if not self.serve_lora:
            segments = None
        elif segments is None:
            segments = prefill_lens + (1,) * n_decode
        past = (total_kv - n_decode,) + (0,) * (n_decode - 1) if n_decode else ()
        return StepWorkload(prefill_lens, past, segments, self.lora_rank)

    def _terms(self, prefill_lens, n_decode: int, total_kv: int, segments):
        """Memoized :func:`step_latency_terms` for one invocation shape.

        Every term is shape-invariant in the decode KV lengths, so the
        memo keys on the shape alone and batches that recompose the same
        shape — an engine's plans and the router's quotes against that
        engine — share one build; on a hit the :class:`StepWorkload`
        (validation plus one tuple per batch) is never built, and
        ``total_kv`` is only what a miss builds it from.

        Under the SGMV and Gather-BMM operators the LoRA terms depend on
        the segment vector only through its sum and count (see
        :meth:`~repro.hw.kernels.KernelCostModel.lora_addon_total`) — and
        the sum is the token total the other key parts already fix — so
        the key collapses the segments to their count and rotating LoRA
        membership stops defeating the memo. The Loop operator prices
        each segment individually, so it keeps the full tuple.
        """
        if not self.serve_lora:
            seg_key = None
        elif self.flags.lora_impl != "loop":
            seg_key = (
                len(segments) if segments is not None
                else len(prefill_lens) + n_decode
            )
        else:
            seg_key = (
                segments if segments is not None
                else prefill_lens + (1,) * n_decode
            )
        key = (prefill_lens, n_decode, seg_key, self.lora_rank)
        memo = self._terms_memo
        terms = memo.get(key)
        if terms is None:
            # A mixed prefill nobody has run (``segments is None``: a
            # quote) is looked up but not remembered, here or in the
            # kernel memo — a throwaway cost model prices it: its prompt
            # length is new on nearly every arrival (docs/performance.md).
            keep = segments is not None or not prefill_lens or not n_decode
            terms = step_latency_terms(
                self.config,
                self.cost_model if keep
                else KernelCostModel(self.gpu),
                self._shape_workload(prefill_lens, n_decode, total_kv, segments),
                tp=self.tp,
                flags=self.flags,
            )
            if keep:
                if len(memo) >= _TERMS_MEMO_LIMIT:
                    memo.clear()
                memo[key] = terms
        return terms


class NumpyBackend:
    """Functional backend: really generates tokens at toy scale."""

    def __init__(
        self,
        weights: LlamaWeights,
        registry: LoraRegistry | None = None,
        total_pages: int = 256,
        page_size: int = 8,
        sampler=None,
        lora_rank: int = 16,
        cost_model: KernelCostModel | None = None,
        step_overhead: float = 0.0,
    ):
        cfg = weights.config
        self.config = cfg
        self.registry = registry
        self.lora_rank = lora_rank
        self.serve_lora = registry is not None
        self.sampler = sampler or GreedySampler()
        self.cost_model = cost_model
        self.step_overhead = step_overhead
        self.kv_data = PagedKvData(
            total_pages=total_pages,
            page_size=page_size,
            num_layers=cfg.num_layers,
            num_kv_heads=cfg.num_kv_heads,
            head_dim=cfg.head_dim,
            dtype=np.float64,
        )
        self.model = LlamaModel(weights, self.kv_data, registry)
        self._draft_model: LlamaModel | None = None
        self._draft_kv: PagedKvData | None = None
        self._draft_synced: dict[str, int] = {}
        """request_id -> tokens of committed history in the draft cache."""

    # -- KvCache interface ------------------------------------------------
    def kv_can_admit(self, prompt_len: int, headroom_tokens: int = 0) -> bool:
        return self.kv_data.allocator.can_allocate(prompt_len + headroom_tokens)

    def kv_admit(self, request_id: str, prompt_len: int) -> None:
        self.kv_data.allocate(request_id, prompt_len)

    def kv_can_append(self, request_id: str, n: int = 1) -> bool:
        return self.kv_data.allocator.can_append(request_id, n)

    def kv_append(self, request_id: str, n: int = 1) -> None:
        self.kv_data.allocator.append(request_id, n)

    def kv_append_many(self, request_ids) -> None:
        self.kv_data.allocator.append_tokens(request_ids)

    def kv_truncate(self, request_id: str, new_len: int) -> int:
        released = self.kv_data.truncate(request_id, new_len)
        # The draft cache may hold entries past the new committed length
        # (e.g. the engine clipped a round at the response limit); drop
        # them so the next round's catch-up starts from real history.
        if (
            self._draft_kv is not None
            and request_id in self._draft_kv.allocator
            and self._draft_synced.get(request_id, 0) > new_len
        ):
            self._draft_kv.truncate(request_id, new_len)
            self._draft_synced[request_id] = new_len
        return released

    def kv_release(self, request_id: str) -> None:
        if request_id in self.kv_data.allocator:
            self.kv_data.free(request_id)
        self._drop_draft(request_id)

    def _drop_draft(self, request_id: str) -> None:
        if self._draft_kv is not None and request_id in self._draft_kv.allocator:
            self._draft_kv.free(request_id)
            self._draft_synced.pop(request_id, None)

    def kv_free_tokens(self) -> int:
        return self.kv_data.allocator.free_pages * self.kv_data.page_size

    def kv_headroom_pages(self) -> int:
        return self.kv_data.allocator.free_pages

    # -- KV handoff (disaggregated prefill/decode) ------------------------
    def kv_export(self, request_id: str) -> "tuple[int, np.ndarray]":
        """Release a sequence for transfer; returns its token count and
        the K/V it has written, ``(layers, 2, N_kv, written, D)`` — the
        payload its pages carry to the decode GPU."""
        kv = self.kv_data
        tokens = kv.allocator.seq_len(request_id)
        written = kv.written_len(request_id)
        payload = np.stack(
            [kv.gather(request_id, layer, written) for layer in range(kv.num_layers)]
        )
        kv.free(request_id)
        self._drop_draft(request_id)
        return tokens, payload

    def kv_import(self, request_id: str, num_tokens: int, payload: np.ndarray) -> None:
        """Admit a transferred sequence and write its payload back."""
        self.kv_data.allocate(request_id, num_tokens)
        for layer, (k, v) in enumerate(payload):
            self.kv_data.write_tokens(
                request_id, layer, 0, k.swapaxes(0, 1), v.swapaxes(0, 1)
            )

    def kv_bytes_of(self, num_tokens: int) -> float:
        return float(num_tokens) * self.config.kv_bytes_per_token()

    # -- execution ----------------------------------------------------------
    def execute(
        self,
        plan: BatchPlan,
        past_lens: Mapping[str, int],
        requests: Mapping[str, Request] | None = None,
    ) -> StepExecution:
        if requests is None:
            raise ValueError("NumpyBackend.execute needs the request objects")
        token_ids: list[int] = []
        pasts: list[int] = []
        for entry in plan.entries:
            req = requests[entry.request_id]
            if req.prompt_tokens is None:
                raise ValueError(
                    f"{entry.request_id} has no prompt tokens (functional mode needs them)"
                )
            if entry.is_prefill:
                history = list(req.prompt_tokens) + list(req.generated_tokens)
                if len(history) != entry.num_tokens:
                    raise ValueError(
                        f"prefill entry for {entry.request_id} covers {entry.num_tokens} "
                        f"tokens but history has {len(history)}"
                    )
                token_ids.extend(history)
            else:
                last = (
                    req.generated_tokens[-1]
                    if req.generated_tokens
                    else req.prompt_tokens[-1]
                )
                token_ids.append(int(last))
            pasts.append(past_lens[entry.request_id])

        batch = TokenBatch(plan, np.asarray(token_ids, dtype=np.int64), tuple(pasts))
        logits = self.model.forward(batch)
        tokens = {}
        for i, entry in enumerate(plan.entries):
            req = requests[entry.request_id]
            sampler = req.sampler if req.sampler is not None else self.sampler
            tokens[entry.request_id] = sampler.sample(logits[i])

        if self.cost_model is not None:
            work = workload_from_plan(plan, past_lens, self.serve_lora, self.lora_rank)
            latency = model_step_latency(self.config, self.cost_model, work)
        else:
            latency = 0.0
        return StepExecution(latency=latency + self.step_overhead, tokens=tokens)

    # -- speculative decoding ---------------------------------------------
    def _ensure_draft(self, spec: "SpecConfig") -> None:
        """Lazily build the truncated-layer draft model (docs/speculative.md).

        The draft shares the target's embedding, first ``k`` transformer
        layers, final norm and LM head — a self-drafting proxy — and owns
        a KvCache of the same page geometry. It never sees LoRA
        (``registry=None``): drafts only *propose*; verification is what
        must match the adapter-specific target distribution.
        """
        if self._draft_model is not None:
            return
        cfg = self.config
        k = (
            spec.draft_layers
            if spec.draft_layers is not None
            else max(1, cfg.num_layers // 2)
        )
        k = min(k, cfg.num_layers)
        draft_cfg = replace(cfg, name=f"{cfg.name}-draft", num_layers=k)
        w = self.model.weights
        draft_weights = LlamaWeights(
            config=draft_cfg,
            embedding=w.embedding,
            layers=w.layers[:k],
            final_norm=w.final_norm,
            lm_head=w.lm_head,
        )
        # Same page count as the target: the draft caches strictly fewer
        # slots per sequence (no +draft_len+1 reservation), so a round
        # that fit the target cannot exhaust the draft pool.
        self._draft_kv = PagedKvData(
            total_pages=self.kv_data.allocator.total_pages,
            page_size=self.kv_data.page_size,
            num_layers=k,
            num_kv_heads=cfg.num_kv_heads,
            head_dim=cfg.head_dim,
            dtype=np.float64,
        )
        self._draft_model = LlamaModel(draft_weights, self._draft_kv, None)

    def _forward_one(
        self, model: LlamaModel, rid: str, lora_id: str | None, toks, past: int
    ):
        """Single-entry forward of ``toks`` with ``past`` cached tokens.

        Returns the last position's logits. Single-token invocations use
        the decode entry shape — the same plan shape a non-speculative
        decode step of batch size one would build, which is what makes
        verification bit-comparable to the greedy baseline.
        """
        entry = BatchEntry(
            request_id=rid,
            lora_id=lora_id,
            num_tokens=len(toks),
            is_prefill=len(toks) > 1,
        )
        plan = plan_batch([entry])
        batch = TokenBatch(plan, np.asarray(toks, dtype=np.int64), (past,))
        return model.forward(batch)[0]

    def execute_spec(
        self,
        plan: BatchPlan,
        past_lens: Mapping[str, int],
        spec: "SpecConfig",
        rng: "random.Random",
        requests: Mapping[str, Request] | None = None,
    ) -> SpecExecution:
        """Real draft-then-verify round (``acceptance_rate`` is ignored).

        Per request: sync the draft cache to committed history, draft
        ``draft_len`` tokens autoregressively, then verify sequentially
        on the target — position ``j`` forwards the previous committed
        token and samples; the sampled token commits, and the round stops
        at the first draft mismatch. Because every verify forward sees
        exactly the KV state the greedy baseline's decode step ``j``
        would see, the committed stream is token-identical to
        non-speculative greedy decoding (tests/test_spec_oracle.py).
        """
        if requests is None:
            raise ValueError("NumpyBackend.execute_spec needs the request objects")
        self._ensure_draft(spec)
        draft_alloc = self._draft_kv.allocator
        d = spec.draft_len
        committed: dict[str, tuple[int, ...]] = {}
        accepted: dict[str, int] = {}
        for entry in plan.decode_entries():
            rid = entry.request_id
            req = requests[rid]
            toks = list(req.prompt_tokens) + list(req.generated_tokens)
            past = past_lens[rid]
            if past != len(toks) - 1:
                raise ValueError(
                    f"spec round for {rid}: past {past} != committed "
                    f"history {len(toks)} - 1"
                )
            sampler = req.sampler if req.sampler is not None else self.sampler
            # Sync the draft cache: positions [0, past) hold history up
            # to toks[past-1]; toks[past] seeds the first draft step.
            if rid not in draft_alloc:
                self._draft_kv.allocate(rid, past)
                self._draft_synced[rid] = 0
            synced = self._draft_synced[rid]
            if synced > past:  # safety net; kv_truncate normally handles this
                self._draft_kv.truncate(rid, past)
                synced = past
            if synced < past:
                need = past - draft_alloc.seq_len(rid)
                if need > 0:
                    draft_alloc.append(rid, need)
                self._forward_one(
                    self._draft_model, rid, entry.lora_id, toks[synced:past], synced
                )
            # Draft d tokens; step i writes its input at position past + i.
            drafts: list[int] = []
            cur = toks[past]
            for i in range(d):
                pos = past + i
                if draft_alloc.seq_len(rid) < pos + 1:
                    draft_alloc.append(rid, pos + 1 - draft_alloc.seq_len(rid))
                logits = self._forward_one(
                    self._draft_model, rid, entry.lora_id, [cur], pos
                )
                cur = sampler.sample(logits)
                drafts.append(cur)
            # Sequential verify on the target: the engine reserved d + 1
            # slots, so position past + j is writable for j in [0, d].
            out: list[int] = []
            v = toks[past]
            for j in range(d + 1):
                logits = self._forward_one(self.model, rid, entry.lora_id, [v], past + j)
                tok = sampler.sample(logits)
                out.append(tok)
                if j == d or tok != drafts[j]:
                    break
                v = drafts[j]
            committed[rid] = tuple(out)
            accepted[rid] = len(out) - 1
            # Keep only the draft-cache prefix that is committed history:
            # positions [0, past] plus accepted drafts still on the path.
            keep = past + 1 + min(len(out) - 1, d - 1)
            self._draft_kv.truncate(rid, keep)
            self._draft_synced[rid] = keep

        if self.cost_model is not None:
            work = workload_from_plan(plan, past_lens, self.serve_lora, self.lora_rank)
            latency = spec_round_latency(
                self.config, self.cost_model, work, d, spec.draft_cost_ratio
            )
        else:
            latency = 0.0
        return SpecExecution(
            latency=latency + self.step_overhead,
            committed=committed,
            accepted=accepted,
            proposed=d,
        )
