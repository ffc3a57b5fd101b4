"""Compute backends: how one batched invocation actually executes.

Both backends expose the same narrow interface the engine drives —
KvCache admission/append/release (backed by the page allocator) plus
``execute(plan, past_lens)`` returning the step latency and one new token
per request:

* :class:`SimulatedBackend` prices the invocation with the analytical A100
  model and emits placeholder tokens; response lengths come from the trace.
* :class:`NumpyBackend` runs the functional Llama on real token ids and
  samples real next tokens; it always prices the step too, so the same
  run yields both semantics and timing.

Both price through their :class:`~repro.runtime.pricing.StepPricer`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from collections.abc import Mapping
from typing import TYPE_CHECKING

import numpy as np

from repro.core.batch import BatchEntry, BatchPlan, plan_batch
from repro.core.lora import LoraRegistry
from repro.hw.spec import A100_80G, GpuSpec
from repro.kvcache.pool import KvPool, PagedKvData
from repro.models.config import LlamaConfig
from repro.models.llama import LlamaModel, TokenBatch
from repro.models.perf import PUNICA_FLAGS, PerfFlags
from repro.models.tp import SINGLE_GPU, TensorParallelConfig
from repro.models.weights import LlamaWeights
from repro.runtime.pricing import StepPricer
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


class SimulatedBackend:
    """Analytical-latency backend for full-scale (7B/13B/70B) experiments."""

    reads_requests = False
    """:meth:`execute` needs no request objects: the engine passes none."""

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
        self.pricer = StepPricer(
            config, gpu, tp, flags, lora_rank, serve_lora, step_overhead
        )
        self._step_seconds = self.pricer.step_seconds
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

    # -- KvCache interface ------------------------------------------------
    # Unconditional forwards to ``self.kv``: a :class:`KvPool`, or the
    # unified pool (a ``KvPool`` that also gates on the shared byte budget).
    def kv_can_admit(self, prompt_len: int) -> bool:
        return self.kv.can_admit(prompt_len)

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

    def kv_append_run(self, phases, start: int, count: int) -> None:
        """``count`` decode rounds' page appends for a batch held as
        offsets (:meth:`PageAllocator.append_tokens_run`); its lengths
        are written back through :meth:`kv_lengths`; its pages fit in
        :meth:`kv_headroom_pages`, so none demotes an adapter."""
        self.kv.allocator.append_tokens_run(phases, start, count)

    def kv_lengths(self) -> "dict[str, int]":
        """The allocator's live per-sequence lengths."""
        return self.kv.allocator.lengths

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
        """Pages allocatable right now, under every budget, demoting nothing.

        If this is ``>= len(batch)`` then one decode append per request
        cannot fail or demote (each takes at most one page), so the fast
        lane can skip the per-slot can-append/evict checks entirely.
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
        kv_total: "int | None" = None,
    ) -> StepExecution:
        """Price the step and hand each entry the next counter token.
        ``kv_total`` is ``sum(past + 1)`` over the decodes when the caller
        holds it (an armed engine's ``ArmedBatch.total``); otherwise it is
        summed from ``past_lens``."""
        decode_ids = plan.decode_ids
        if kv_total is None:
            kv_total = len(decode_ids)
            for rid in decode_ids:
                kv_total += past_lens[rid]
        seconds = self._step_seconds(
            plan.prefill_lens, len(decode_ids), kv_total, plan.segment_sizes
        )
        ids = (
            [e.request_id for e in plan.entries] if plan.prefill_lens else decode_ids
        )
        base = self._token_counter
        self._token_counter = base + len(ids)
        tokens = dict(zip(ids, range(base + 1, base + 1 + len(ids))))
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

        The pricer's round price has no term memo, so armed runs are
        trivially float-identical across the fast and reference paths.
        Acceptance counts come from a geometric model at
        ``spec.acceptance_rate`` using the engine-owned ``rng`` (seeded
        per GPU), drawn in plan decode order so replays are deterministic.
        ``past_lens`` holds the pre-reservation KV lengths (``T - 1``),
        exactly what a non-speculative decode step would see.
        """
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
            latency=self.pricer.spec_round_seconds(plan, past_lens, spec),
            committed=committed,
            accepted=accepted,
            proposed=spec.draft_len,
        )

    def commit_steady_run(self, phases, start: int, count: int, batch: int) -> int:
        """Apply ``count`` decode steps' KvCache and token effects in bulk.

        ``phases`` are the batch's page phases from round ``start``
        (:meth:`kv_append_run`), each in the engine's slot order, so page
        assignment replays exactly. Returns the token counter value
        *before* the run: step ``k``'s token for the request at workload
        position ``p`` is ``base + k * batch + p + 1``, matching ``count``
        :meth:`execute` calls.
        """
        self.kv_append_run(phases, start, count)
        base = self._token_counter
        self._token_counter = base + count * batch
        return base


class NumpyBackend:
    """Functional backend: really generates tokens at toy scale."""

    reads_requests = True
    """:meth:`execute` feeds each request's tokens to the model."""

    def __init__(
        self,
        weights: LlamaWeights,
        registry: LoraRegistry | None = None,
        total_pages: int = 256,
        page_size: int = 8,
        sampler=None,
        lora_rank: int = 16,
        gpu: GpuSpec = A100_80G,
        step_overhead: float = 0.0,
    ):
        """A step is priced as the toy model's time on ``gpu`` at
        ``lora_rank`` plus ``step_overhead``."""
        cfg = weights.config
        self.config = cfg
        self.registry = registry
        self.sampler = sampler or GreedySampler()
        self.pricer = StepPricer(
            cfg, gpu, lora_rank=lora_rank, serve_lora=registry is not None,
            step_overhead=step_overhead,
        )
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
    def kv_can_admit(self, prompt_len: int) -> bool:
        return self.kv_data.allocator.can_allocate(prompt_len)

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
        total_kv = 0
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
                total_kv += past_lens[entry.request_id] + 1
            pasts.append(past_lens[entry.request_id])

        batch = TokenBatch(plan, np.asarray(token_ids, dtype=np.int64), tuple(pasts))
        logits = self.model.forward(batch)
        tokens = {}
        for i, entry in enumerate(plan.entries):
            req = requests[entry.request_id]
            sampler = req.sampler if req.sampler is not None else self.sampler
            tokens[entry.request_id] = sampler.sample(logits[i])

        latency = self.pricer.step_seconds(
            plan.prefill_lens, len(plan.decode_ids), total_kv, plan.segment_sizes
        )
        return StepExecution(latency=latency, tokens=tokens)

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

        return SpecExecution(
            latency=self.pricer.spec_round_seconds(plan, past_lens, spec),
            committed=committed,
            accepted=accepted,
            proposed=d,
        )
