"""The single-GPU continuous-batching engine (paper §5).

Each call to :meth:`GpuEngine.step` runs one batched model invocation:

* every RUNNING request contributes one decode token;
* at most ``prefill_batch_limit`` (=1, §5) pending requests whose LoRA
  weights have finished loading are prefilled in the same invocation;
* decode requests needing a new KvCache slot that cannot get one trigger
  eviction of the *newest* requests (preserving FCFS, §5.3); evicted
  requests are reported so the cluster scheduler can re-place them;
* finished requests (length limit or EOS) leave the batch immediately —
  the separable paged KvCache makes this free (§5.4).

The engine is clock-free: callers pass ``now`` in and get the step latency
back, so the same code runs under the discrete-event cluster simulator and
under simple closed-loop drivers.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.adapters.store import GpuAdapterStore
from repro.core.batch import ArmedBatch, BatchEntry, plan_batch
from repro.obs.tracer import EventKind, Tracer, decode_step_attrs
from repro.runtime.request import Request
from repro.runtime.spec import SpecConfig
from repro.utils.fastpath import fastpath_enabled


@dataclass(frozen=True)
class EngineConfig:
    """Engine policy knobs (paper defaults)."""

    max_batch_size: int = 32
    """Profiled sweet spot on A100 (§5.1)."""
    prefill_batch_limit: int = 1
    """Prefills per invocation; 1 minimizes the latency penalty (§5)."""
    same_lora_only: bool = False
    """Baseline restriction: batch only requests of one LoRA model (§7)."""
    eos_token_id: int | None = None
    """Functional mode's end-of-sequence stopping condition; an engine
    rejects it on a backend of counter tokens (``SimulatedBackend``)."""
    spec: "SpecConfig | None" = None
    """Arm speculative decoding (docs/speculative.md): pure-decode
    invocations become draft/verify rounds committing 1..draft_len+1
    tokens per request; steps with pending work commit one token each."""

    def __post_init__(self) -> None:
        if self.max_batch_size < 1:
            raise ValueError(f"max_batch_size must be >= 1, got {self.max_batch_size}")
        if self.prefill_batch_limit < 1:
            # 0 used to pass validation but silently starves every queued
            # request: nothing pending can ever prefill, so the engine
            # reports no progress forever. Reject it outright.
            raise ValueError(
                "prefill_batch_limit must be >= 1 "
                "(0 would starve every queued request)"
            )


@dataclass(frozen=True)
class StepReport:
    """What one engine step did — the unit every metric aggregates over."""

    gpu_id: str
    start: float
    latency: float
    batch_size: int
    num_prefill: int
    num_decode: int
    num_lora_segments: int
    new_tokens: dict[str, int]
    finished: tuple[str, ...]
    evicted: tuple[str, ...]
    committed: "dict[str, tuple[int, ...]] | None" = None
    """Speculative rounds only: every token each request committed this
    step, in order (``new_tokens`` then holds the last of each). ``None``
    on classic steps, where each request commits exactly one token."""

    @property
    def end(self) -> float:
        return self.start + self.latency

    @property
    def tokens_generated(self) -> int:
        if self.committed is not None:
            return sum(len(toks) for toks in self.committed.values())
        return len(self.new_tokens)

    def committed_tokens(self) -> "dict[str, tuple[int, ...]]":
        """Tokens committed per request this step (singletons off-spec)."""
        if self.committed is not None:
            return self.committed
        return {rid: (tok,) for rid, tok in self.new_tokens.items()}


@dataclass(eq=False)
class _Slot:
    """One request's place on this GPU. Slots compare by identity: list
    removal needs the slot itself, never a deep comparison of the
    requests it holds."""

    request: Request
    admit_seq: int


class GpuEngine:
    """Continuous-batching engine for one GPU (or one TP group)."""

    def __init__(
        self,
        gpu_id: str,
        backend,
        config: EngineConfig | None = None,
        loader: GpuAdapterStore | None = None,
        tracer: "Tracer | None" = None,
        fast_path: bool | None = None,
        role: str = "both",
    ):
        self.gpu_id = gpu_id
        self.backend = backend
        self.config = config or EngineConfig()
        if loader is None:
            pool = getattr(backend, "pool", None)
            loader = (
                pool.adapters if pool is not None else GpuAdapterStore(gpu_id=gpu_id)
            )
        self.loader = loader
        """Who owns adapter residency on this GPU: the backend's unified
        pool's store when it has one, else a private unbudgeted store."""
        if role not in ("both", "prefill", "decode"):
            raise ValueError(f"role must be 'both', 'prefill' or 'decode', got {role!r}")
        self.role = role
        """Disaggregated-serving role: ``"prefill"`` engines hand finished
        prefills off to the decode pool, ``"decode"`` engines only admit
        imported KV. ``"both"`` (default) is the classic colocated mode."""
        self.tracer = tracer
        """Optional :class:`~repro.obs.tracer.Tracer` receiving PLACE /
        PREFILL / DECODE_STEP / FINISH / QUEUE(evicted) events."""
        self._working: dict[str, _Slot] = {}
        self._working_order: list[_Slot] = []
        """The slots of ``_working`` in ascending ``admit_seq`` — the batch
        iteration order, maintained incrementally instead of re-sorted
        every step."""
        self._pending: list[_Slot] = []
        self._num_importing = 0
        """Pending slots holding imported KV (``needs_prefill`` False) that
        wait only for their adapter load before joining the decode batch.
        Zero outside disaggregated mode, so the hot loop's promotion check
        is one falsy integer test."""
        self._admit_seq = 0
        self.fast_path = fastpath_enabled(fast_path)
        self._reads_requests = getattr(backend, "reads_requests", True)
        """Whether ``execute`` reads the request objects (the functional
        backend does); a step builds the ``requests`` dict only then."""
        if self.config.eos_token_id is not None and not self._reads_requests:
            raise ValueError(
                f"{gpu_id}: eos_token_id is set but backend "
                f"{type(backend).__name__} hands out counter tokens"
            )
        self._spec = self.config.spec
        if self._spec is not None and not hasattr(backend, "execute_spec"):
            raise ValueError(
                f"{gpu_id}: speculative decoding is armed but backend "
                f"{type(backend).__name__} has no execute_spec"
            )
        self._spec_rng = (
            random.Random(f"{self._spec.seed}:{gpu_id}")
            if self._spec is not None
            else None
        )
        """Acceptance RNG of the simulated backend's geometric model —
        engine-owned so the fast and reference paths consume identical
        draws (the backend has no per-path state of its own)."""
        self.spec_rounds = 0
        """Speculative rounds run (diagnostic, like ``fast_steps``)."""
        self._arms = self.fast_path and self._spec is None
        """Whether every step plans from the armed batch: one token per
        request per step (a speculative round commits 1..n)."""
        self._offsets = (
            self._arms
            and hasattr(backend, "commit_steady_run")
            and backend.pricer.supports_steady
        )
        """Whether the armed batch also advances KV lengths, pages and
        tokens as offsets of its step count (:meth:`write_back`) and
        stages bulk runs: counter tokens, shape-only latency terms."""
        self._steady = ArmedBatch(
            page_size=backend.kv.page_size if self._offsets else None,
        )
        """The working set's decode batch, edited by :meth:`_order_insert`,
        :meth:`_remove` and :meth:`fail` on an engine that arms; only its
        counters move on one that does not."""
        self._kv_lengths = backend.kv_lengths() if self._offsets else None
        """The allocator's per-sequence lengths, which :meth:`write_back`
        brings up to the armed batch's step count."""
        self._plan_cache = self._steady if self.fast_path else None
        """The armed-batch lane's counters under the name its ``hits`` /
        ``misses`` are read by; ``None`` on the reference path, where that
        lane is off and every step plans."""
        self._staged_run: "tuple[np.ndarray, int, object, float, int] | None" = None
        """(step-end times, batch size, armed plan, slowdown, adapter copies)
        priced by :meth:`steady_run_stage`; :meth:`commit_steady_run` applies
        it a prefix at a time, and :meth:`steady_run_valid` says whether it
        still prices the engine's next steps."""
        self._entry_cache: dict[str, BatchEntry] = {}
        """Decode :class:`BatchEntry` per request id on this GPU — entries
        are immutable, so each request's is built once and reused by every
        plan it joins, armed or not; dropped when the request leaves
        (:meth:`_remove`)."""
        self.fast_steps = 0
        """Decode steps committed in bulk by :meth:`commit_steady_run`
        (diagnostic only — deliberately not a registry metric so
        differential runs compare equal)."""
        self.slow_steps = 0
        """:meth:`step` invocations on a live engine."""
        self.alive = True
        """False once the GPU crashed; a dead engine accepts and runs nothing."""
        self.slowdown_factor = 1.0
        """Multiplier on step latency (fault injection: thermal throttling,
        a noisy neighbour, ECC retirement storms). 1.0 = healthy."""

    # ------------------------------------------------------------------
    # Scheduler-facing state
    # ------------------------------------------------------------------
    @property
    def working_set_size(self) -> int:
        """The LLM-invocation batch size the scheduler routes on (§5.1)."""
        return len(self._working) + len(self._pending)

    @property
    def is_idle(self) -> bool:
        return self.working_set_size == 0

    @property
    def has_free_slot(self) -> bool:
        """Alive and below ``max_batch_size``: the part of
        :meth:`can_accept` that does not depend on the request, so a
        router can test it once for a whole pass over its queue."""
        return self.alive and self.working_set_size < self.config.max_batch_size

    def kv_free_tokens(self) -> int:
        return self.backend.kv_free_tokens()

    def active_lora_ids(self) -> set[str]:
        slots = list(self._working.values()) + self._pending
        return {s.request.lora_id for s in slots}

    def can_accept(self, request: Request, kv_tokens: "int | None" = None) -> bool:
        """Admission test the cluster scheduler runs (§5.1 constraints).

        Besides batch-size and KvCache headroom, the request's adapter must
        fit: a non-resident adapter's bytes count against the (possibly
        KvCache-shared) memory budget, so a GPU whose pinned adapters leave
        no room declines rather than failing the load later. The KvCache
        check is sized by a prefill over the prompt, or — for a request
        arriving with its KV history (disagg decode routing) — by the
        ``kv_tokens`` it imports.
        """
        if not self.has_free_slot:
            return False
        if self.config.same_lora_only:
            active = self.active_lora_ids()
            if active and request.lora_id not in active:
                return False
        if not self.loader.can_admit_adapter(
            request.lora_id, self._default_lora_bytes
        ):
            return False
        return self.backend.kv_can_admit(
            request.effective_prompt_len if kv_tokens is None else kv_tokens
        )

    def adapter_tier(self, lora_id: str) -> int:
        """Residency tier of an adapter on this GPU (2 GPU / 1 HOST / 0 DISK)
        — the locality signal the cluster scheduler's routing consults."""
        return int(self.loader.tier(lora_id))

    @cached_property
    def _default_lora_bytes(self) -> float:
        """Fallback adapter size when the registry has no metadata — worked
        out once: the pricer's model config and rank never change."""
        pricer = self.backend.pricer
        return float(pricer.config.lora_bytes(pricer.lora_rank))

    def all_requests(self) -> list[Request]:
        """Every request currently on this GPU (working + pending), in
        admission order — what the migration pass iterates over."""
        self.write_back()
        return [s.request for s in self._all_slots()]

    def batch_load(self) -> "tuple[int, int, list[Request]]":
        """``(running, kv_total, waiting)``: the requests holding KV here
        (the working set and imports waiting on their adapter), ``sum(kv_len
        + 1)`` over them, and the requests waiting to prefill, in
        admission order — what a cost model prices this GPU from. An
        arming engine answers from its armed batch, with no write-back."""
        if self._arms:
            running, kv_total = len(self._steady.ids), self._steady.total
        else:
            running = len(self._working_order)
            kv_total = running + sum(s.request.kv_len for s in self._working_order)
        waiting = []
        for slot in self._pending:
            req = slot.request
            if req.needs_prefill:
                waiting.append(req)
            else:
                running += 1
                kv_total += req.kv_len + 1
        return running, kv_total, waiting

    def _all_slots(self) -> "list[_Slot]":
        """Working + pending slots in admission order. Both source lists are
        already ascending in ``admit_seq`` (working is maintained so;
        pending is append-ordered), so a linear merge replaces the old
        full sort — and is itself skipped when one side is empty."""
        if not self._pending:
            return list(self._working_order)
        if not self._working_order:
            return list(self._pending)
        return list(
            heapq.merge(self._working_order, self._pending, key=lambda s: s.admit_seq)
        )

    def next_ready_time(self) -> "float | None":
        """Earliest time a pending request's LoRA load completes.

        ``None`` when nothing is pending. The cluster simulator uses this to
        wake a GPU that returned an empty step while a weight copy was in
        flight (§5.2's overlap of loading and compute).
        """
        times = [self.loader.ready_time(s.request.lora_id) for s in self._pending]
        return min(times) if times else None

    def has_request(self, request_id: str) -> bool:
        return request_id in self._working or any(
            s.request.request_id == request_id for s in self._pending
        )

    # ------------------------------------------------------------------
    # Mutations
    # ------------------------------------------------------------------
    def add_request(self, request: Request, now: float) -> None:
        """Assign a request to this GPU; its LoRA load starts immediately.
        Refuses a request already here or one :meth:`can_accept` declines."""
        if self.has_request(request.request_id):
            raise ValueError(f"request {request.request_id} already on {self.gpu_id}")
        if not self.can_accept(request):
            raise RuntimeError(
                f"{self.gpu_id} cannot accept {request.request_id} "
                f"(working set {self.working_set_size}, "
                f"free kv tokens {self.kv_free_tokens()})"
            )
        self.place(request, now)

    def place(self, request: Request, now: float) -> None:
        """:meth:`add_request` without its guards, for a caller that has
        just had :meth:`can_accept` admit a request not on any GPU (the
        cluster scheduler's first fit)."""
        self.loader.request_load(request.lora_id, self._default_lora_bytes, now)
        self.loader.acquire(request.lora_id, now)
        request.needs_prefill = True
        request.mark_running(self.gpu_id, now)
        self._pending.append(_Slot(request=request, admit_seq=self._admit_seq))
        self._admit_seq += 1
        if self.tracer is not None:
            self.tracer.emit(
                now, EventKind.PLACE, request.request_id, self.gpu_id,
                lora=request.lora_id,
            )

    def cancel(self, request_id: str, requeue: bool = False) -> Request:
        """Remove a request: user cancellation, or migration step 1 (§5.3).

        With ``requeue=True`` the request keeps its generated prefix and
        returns to QUEUED (the migration path); otherwise it is CANCELLED.
        """
        slot = self._working.get(request_id) or next(
            (s for s in self._pending if s.request.request_id == request_id),
            None,
        )
        if slot is None:
            raise KeyError(f"request {request_id} not on {self.gpu_id}")
        self._remove(slot)
        if requeue:
            slot.request.evict()
        else:
            slot.request.mark_cancelled()
        return slot.request

    def _remove(self, slot: _Slot) -> None:
        """Detach a slot from this GPU — the one place a request leaves:
        batch membership, the armed batch, its KvCache pages, its adapter
        pin and its cached plan entry. Callers set the request's state."""
        rid = slot.request.request_id
        if rid in self._working:
            if self._arms:
                self.write_back()
                self._steady.leave(self._entry_cache[rid])
            del self._working[rid]
            self._working_order.remove(slot)
        else:
            self._pending.remove(slot)
            if not slot.request.needs_prefill:
                self._num_importing -= 1
        self._entry_cache.pop(rid, None)
        self.backend.kv_release(rid)
        self.loader.release(slot.request.lora_id)

    def fail(self, now: float) -> list[Request]:
        """GPU crash: mark the engine dead and displace every request.

        Displaced requests keep their generated prefix and return to QUEUED
        (the §5.3 migration semantics) so the cluster scheduler can re-place
        them with a re-prefill on a surviving GPU. KvCache and adapter pins
        die with the GPU, so no release bookkeeping survives the crash.
        """
        self.alive = False
        if self._arms:
            self.write_back()
            for slot in self._working_order:
                self._steady.leave(self._entry_cache[slot.request.request_id])
        slots = self._all_slots()
        self._working.clear()
        self._working_order.clear()
        self._pending.clear()
        self._entry_cache.clear()
        self._num_importing = 0
        displaced = []
        for slot in slots:
            slot.request.evict()
            displaced.append(slot.request)
        return displaced

    # ------------------------------------------------------------------
    # KV handoff (disaggregated prefill/decode serving)
    # ------------------------------------------------------------------
    def export_request(
        self, request_id: str, now: float
    ) -> "tuple[Request, int, object]":
        """Detach a prefilled request for handoff to a decode GPU.

        The request must be in the working (decoding) set — i.e. its
        prefill already ran here. Its KvCache pages are released locally
        (the bytes travel over the interconnect; the caller models that
        cost) and the adapter pin is dropped. Returns the request, the
        token count of the exported KV history and the backend's payload
        for :meth:`import_request` (the K/V itself on a functional
        backend, ``None`` on a simulated one).
        """
        slot = self._working.get(request_id)
        if slot is None:
            raise KeyError(f"request {request_id} not working on {self.gpu_id}")
        self.write_back()
        kv_tokens, payload = self.backend.kv_export(request_id)
        self._remove(slot)
        request = slot.request
        request.suspend_for_transfer()
        request.kv_len = kv_tokens
        return request, kv_tokens, payload

    def import_request(
        self, request: Request, kv_tokens: int, payload: object, now: float
    ) -> None:
        """Admit a request whose KV pages just arrived over the interconnect.

        ``kv_tokens`` and ``payload`` are what :meth:`export_request`
        returned on the source engine; the backend writes the payload
        into the pages it allocates here.

        No prefill is needed: the pages are materialized immediately and
        the request joins the decode batch as soon as its adapter is
        resident here (the load starts now and may overlap other work).
        """
        if self.has_request(request.request_id):
            raise ValueError(f"request {request.request_id} already on {self.gpu_id}")
        if not self.can_accept(request, kv_tokens):
            raise RuntimeError(
                f"{self.gpu_id} cannot import {request.request_id} "
                f"(working set {self.working_set_size}, "
                f"free kv tokens {self.kv_free_tokens()})"
            )
        self.loader.request_load(request.lora_id, self._default_lora_bytes, now)
        self.loader.acquire(request.lora_id, now)
        self.backend.kv_import(request.request_id, kv_tokens, payload)
        request.kv_len = kv_tokens
        request.needs_prefill = False
        request.mark_running(self.gpu_id, now)
        self._pending.append(_Slot(request=request, admit_seq=self._admit_seq))
        self._admit_seq += 1
        self._num_importing += 1
        if self.tracer is not None:
            self.tracer.emit(
                now, EventKind.PLACE, request.request_id, self.gpu_id,
                lora=request.lora_id, imported_kv=kv_tokens,
            )

    def _promote_imports(self, now: float) -> bool:
        """Move imported slots whose adapter is resident into the decode
        batch; they contribute a decode token in this very invocation.
        Returns whether any moved."""
        remaining: list[_Slot] = []
        for slot in self._pending:
            req = slot.request
            if not req.needs_prefill and self.loader.is_ready(req.lora_id, now):
                self._working[req.request_id] = slot
                self._order_insert(slot)
                self._num_importing -= 1
            else:
                remaining.append(slot)
        promoted = len(remaining) < len(self._pending)
        self._pending = remaining
        return promoted

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self, now: float) -> StepReport | None:
        """Run one batched invocation; ``None`` when nothing can run.

        The only way a request's token is computed (the bulk lane below
        replays this function's pure-decode case). Each working request
        reserves ``n`` KvCache slots and commits ``1..n`` tokens: ``n`` is
        1, or ``draft_len + 1`` on a speculative draft/verify round (the
        engine is armed and the batch is pure decode) — so a round that
        accepts no draft *is* a decode step.
        """
        if not self.alive:
            return None
        self._staged_run = None  # whatever was staged no longer prices
        self.loader.advance(now)
        promoted = bool(self._num_importing) and self._promote_imports(now)
        self.slow_steps += 1
        spec = self._spec
        spec_round = (
            spec is not None and not self._pending and bool(self._working_order)
        )
        n = spec.max_tokens_per_round if spec_round else 1
        # Reserve the decode requests' KvCache slots FIRST (evicting newest
        # requests on pressure), so prefill admission below can only use
        # pages genuinely left over. On an engine that holds its batch as
        # offsets, a step with a free page per request (and adapter) cannot
        # evict or demote: its decodes are the whole armed batch, advanced
        # like a one-step bulk commit — only the pages its round opens. A
        # promoted import commits slot by slot: its first decode is stamped.
        steady = self._steady
        offsets = (
            self._offsets
            and not promoted
            and self.backend.kv_headroom_pages() >= len(steady.ids)
        )
        evicted: list[str] = []
        if offsets:
            decode_slots = list(self._working_order)
            past_lens: "dict[str, int]" = {}
            if decode_slots:
                self.backend.kv_append_run(steady.pages, steady.steps, 1)
        else:
            self.write_back()
            decode_slots, past_lens = self._reserve(n, evicted)
        if self.tracer is not None:
            for rid in evicted:
                self.tracer.emit(
                    now, EventKind.QUEUE, rid, self.gpu_id, reason="evicted"
                )

        # Nothing is pending on a speculative round, so none is selected.
        prefill_slots = self._select_prefills(now)
        if not decode_slots and not prefill_slots:
            if evicted:
                # Memory pressure with nothing runnable: surface the evictions.
                return StepReport(
                    gpu_id=self.gpu_id, start=now, latency=0.0, batch_size=0,
                    num_prefill=0, num_decode=0, num_lora_segments=0,
                    new_tokens={}, finished=(), evicted=tuple(evicted),
                )
            return None

        prefills: list[BatchEntry] = []
        for slot in prefill_slots:
            req = slot.request
            prefills.append(
                BatchEntry(
                    request_id=req.request_id,
                    lora_id=req.lora_id,
                    num_tokens=req.effective_prompt_len,
                    is_prefill=True,
                )
            )
            past_lens[req.request_id] = 0
        # An arming engine's decode batch is its armed batch, kept current
        # through every join and leave, pending work or not: a pure decode
        # step runs on the laid plan (laying it first if an edit cleared
        # it), any other step lays the prefills in front of the armed LoRA
        # groups. An empty armed batch has nothing to group, and an engine
        # that does not arm groups its batch entry by entry.
        if self._arms and decode_slots:
            if prefills:
                plan = steady.plan(prefills)
                steady.misses += 1
            else:
                if steady.decode_plan is None:
                    steady.decode_plan = steady.plan([])
                    steady.misses += 1
                plan = steady.decode_plan
                steady.hits += 1
        else:
            entries = prefills  # then the decodes, in slot order
            cache = self._entry_cache
            for slot in decode_slots:
                rspec = slot.request.spec
                entries.append(
                    cache.get(rspec.request_id) or self._decode_entry(rspec)
                )
            plan = plan_batch(entries)
            steady.misses += 1

        requests = (
            {s.request.request_id: s.request for s in prefill_slots + decode_slots}
            if self._reads_requests
            else None
        )
        if spec_round:
            execution = self.backend.execute_spec(
                plan, past_lens, spec, self._spec_rng, requests=requests
            )
            self.spec_rounds += 1
        elif offsets:
            execution = self.backend.execute(plan, past_lens, kv_total=steady.total)
        else:
            execution = self.backend.execute(plan, past_lens, requests=requests)
        latency = execution.latency * self.slowdown_factor
        end = now + latency

        # Commit 1..n tokens per request, stopping at its finish condition.
        # Decodes first, so the armed batch advances before this step's
        # prefills join it. An offsets step commits in the write-back of
        # the batch's one-step lag, and a request finishes when its count
        # runs out; any other step commits slot by slot.
        steady.advance()
        done: "list[_Slot]" = []
        committed: "dict[str, tuple[int, ...]] | None" = {} if spec_round else None
        rollbacks: "dict[str, tuple[int, int]]" = {}
        lane = None
        if offsets:
            self.write_back(execution.tokens)
            if self.tracer is not None and decode_slots:
                # The decodes' trace lane, read off the armed batch before
                # this step's prefills join it and its finishes leave.
                lane = (
                    self.gpu_id, tuple(steady.ids), tuple(steady.tok0),
                    steady.steps - 1, [now, end],
                )
            if steady.steps == steady.next_fin:
                working = self._working
                done = [working[rid] for rid in steady.finishing()]
        else:
            if decode_slots:
                steady.member_passes += 1
            for slot in decode_slots:
                req = slot.request
                rid = req.request_id
                offered = (
                    execution.committed[rid] if spec_round
                    else (execution.tokens[rid],)
                )
                kept = 0
                for token in offered:
                    kept += 1
                    req.record_token(token, end)
                    if self._is_finished(req, token):
                        done.append(slot)
                        break
                if spec_round:
                    committed[rid] = offered[:kept]
                if kept < n:
                    # The request's inputs filled slots [past, past + kept)
                    # — its last committed token's KV lands next step — so
                    # the rest of the reservation rolls back. The
                    # allocator's free list is LIFO: the next reservation
                    # reacquires the same pages, a rejected draft leaves no
                    # footprint in page assignment.
                    req.kv_len = past_lens[rid] + kept
                    pages = self.backend.kv_truncate(rid, req.kv_len)
                    rollbacks[rid] = (n - kept, pages)
            steady.synced = steady.steps
        finished_slots: "list[_Slot]" = []
        for slot in prefill_slots:
            req = slot.request
            rid = req.request_id
            token = execution.tokens[rid]
            req.kv_len = req.effective_prompt_len
            req.needs_prefill = False
            req.record_token(token, end)
            self._working[rid] = slot
            self._order_insert(slot)
            if self._is_finished(req, token):
                finished_slots.append(slot)
        finished_slots += done

        for slot in finished_slots:
            self._remove(slot)
            slot.request.mark_finished(end)

        if self.tracer is not None:
            self._trace_step(
                now, end, prefill_slots, decode_slots, finished_slots,
                (execution, committed, rollbacks) if spec_round else None, lane,
            )
        return StepReport(
            gpu_id=self.gpu_id,
            start=now,
            latency=latency,
            batch_size=len(prefill_slots) + len(decode_slots),
            num_prefill=len(prefill_slots),
            num_decode=len(decode_slots),
            num_lora_segments=plan.num_lora_segments,
            new_tokens=(
                execution.tokens
                if committed is None
                else {rid: toks[-1] for rid, toks in committed.items()}
            ),
            finished=tuple(s.request.request_id for s in finished_slots),
            evicted=tuple(evicted),
            committed=committed,
        )

    def _reserve(
        self, n: int, evicted: list[str]
    ) -> "tuple[list[_Slot], dict[str, int]]":
        """Reserve ``n`` new KvCache slots for every working request, in
        admission order, evicting the newest requests on pressure (ids
        appended to ``evicted``). Returns the slots that got theirs and
        their pre-reservation (*past*) KV lengths."""
        work_slots = list(self._working_order)
        past_lens: dict[str, int] = {}
        if work_slots:
            self._steady.member_passes += 1
        if (
            n == 1
            and work_slots
            and self.backend.kv_headroom_pages() >= len(work_slots)
        ):
            # A free page per working request: no append can fail, so no
            # eviction can trigger — skip the per-slot checks and append
            # in one allocator pass (same request order, same pages).
            for slot in work_slots:
                req = slot.request
                past_lens[req.request_id] = req.kv_len
                req.kv_len += 1
            self.backend.kv_append_many(past_lens)
            return work_slots, past_lens
        decode_slots: list[_Slot] = []
        appended: set[str] = set()
        for slot in work_slots:
            req = slot.request
            rid = req.request_id
            if rid not in self._working:  # evicted as a victim earlier
                continue
            if not self._append_with_eviction(rid, n, appended, evicted):
                continue  # this request itself was evicted
            appended.add(rid)
            past_lens[rid] = req.kv_len
            req.kv_len += n
            decode_slots.append(slot)
        return decode_slots, past_lens

    # -- the bulk decode-run lane (gen-2 fast path) ---------------------
    _MAX_RUN = 8192
    """Upper bound on one vectorized run; bounds the array one staging
    prices."""
    _SCALAR_RUN = 16
    """Runs shorter than this price step by step: the array expression
    costs ~35-50 us whatever its length, the scalar loop ~2.2 us per step
    (LLaMA-2 7B, batch 4 and 16, Python 3.11 on a 2-vCPU x86 host), so
    they break even at ~16 steps."""

    def steady_run_stage(
        self, start: float
    ) -> "tuple[np.ndarray, int, bool] | None":
        """Price a vectorized run of steady decode steps starting at ``start``.

        Stages and returns ``(ends, batch, finishes)`` where
        ``ends[0] == start`` and ``ends[k]`` is the end of step ``k`` — so
        ``ends[:-1]`` are the step start times and ``len(ends) - 1`` steps
        are available. Returns ``None`` when not even one step is
        possible. The run is capped so that, by construction, no step
        inside it could deviate from :meth:`step` on the armed batch: it
        ends at the first step that finishes a request (the smallest
        countdown), and worst-case page consumption keeps KvCache headroom
        at one page per request before every step (no eviction, and no
        adapter demotion on a unified pool, can trigger). ``finishes`` is
        whether the run's last step is that finishing step; every earlier
        step is a pure tick. Call :meth:`commit_steady_run` to apply a
        prefix.
        """
        backend = self.backend
        if not self.steady_ready():
            return None
        steady = self._steady
        batch = len(steady.ids)
        rem_cap = steady.next_fin - steady.steps
        count = min(rem_cap, backend.kv_headroom_pages() // batch, self._MAX_RUN)
        if count < 1:
            return None
        finishes = count == rem_cap
        plan = steady.decode_plan
        if plan is None:
            plan = steady.decode_plan = steady.plan([])
            steady.misses += 1
        total = steady.total
        slowdown = self.slowdown_factor
        pricer = backend.pricer
        if count < self._SCALAR_RUN:
            # The scalar step's own pricing, step by step: element ``k``
            # of the array below equals it bit for bit.
            end = start
            chain = [start]
            for k in range(count):
                lat = pricer.step_seconds(
                    plan.prefill_lens, batch, total + k * batch, plan.segment_sizes
                )
                if slowdown != 1.0:
                    lat = lat * slowdown
                end += lat
                chain.append(end)
            ends = np.array(chain)
        else:
            lats = pricer.steady_run_latencies(plan, total, count)
            if slowdown != 1.0:
                lats = lats * slowdown
            # ends[k] = end of step k, chained exactly like the scalar
            # now + latency accumulation (cumsum adds sequentially).
            ends = np.cumsum(np.concatenate(((start,), lats)))
        self._staged_run = (ends, batch, plan, slowdown, self.loader.transfers)
        return ends, batch, finishes

    def steady_ready(self) -> bool:
        """Cheap pre-gate: is the next step a pure steady decode tick?

        The decode lane calls this before paying for
        :meth:`steady_run_stage`'s array pricing; an engine that fails it
        takes a scalar :meth:`step` instead.
        """
        return self._offsets and not self._pending and bool(self._steady.ids)

    def steady_run_valid(self) -> bool:
        """Does the staged run still price this engine's next steps?

        True while the armed plan, the empty pending set, liveness, the
        slowdown and the adapter copies issued here are the ones the run
        was staged under. Every change from outside — an admit, a cancel,
        a migration, a crash, a slowdown or its restore, a prefetch
        promotion taking shared budget the run's pages counted on —
        breaks one of them, so a stale run is never ticked on."""
        staged = self._staged_run
        return (
            staged is not None
            and staged[2] is self._steady.decode_plan
            and not self._pending
            and self.alive
            and staged[3] == self.slowdown_factor
            and staged[4] == self.loader.transfers
        )

    def commit_steady_run(self, n: int) -> None:
        """Apply the first ``n`` steps of the staged run in bulk.

        Replays what ``n`` :meth:`step` calls on the armed batch would do —
        KvCache pages (page ids included), token values, countdowns,
        loader clock, total-KV counter — as ``n`` more steps of the armed
        batch's step count plus the pages its rounds open: O(pages + n),
        whatever the batch size. Each request's ``kv_len`` and tokens and
        the allocator's lengths follow at the next :meth:`write_back`. The
        rest of the run stays staged, from the end of step ``n``, so a
        later commit continues it (the decode lane commits a prefix
        wherever another event may read this engine). When step ``n`` is
        the run's finishing step, its finished requests then leave as
        :meth:`step` lets them go: in slot order, each through
        :meth:`_remove` and then ``mark_finished`` at the step's end, with
        their FINISH events; the edited batch's plan is laid at its next
        step or staging.

        The run's ``DECODE_STEP`` events are not recorded here: the decode
        lane records them, from the armed batch's ids and token offsets
        (``ArmedBatch.tok0``), in run blocks in pop order — closed before
        a finish's FINISH events.
        """
        ends, batch, plan, slowdown, transfers = self._staged_run
        self._staged_run = (ends[n:], batch, plan, slowdown, transfers)
        steady = self._steady
        # Reference steps call loader.advance(step start) each step;
        # advance is a monotone clock max, so the last start subsumes
        # the sequence — and precedes a finish's adapter releases.
        self.loader.advance(float(ends[n - 1]))
        base = self.backend.commit_steady_run(steady.pages, steady.steps, n, batch)
        if steady.synced == steady.steps:
            steady.base = base
        steady.advance(n)
        steady.hits += n
        self.fast_steps += n
        if steady.steps < steady.next_fin:
            return
        self._staged_run = None
        end = float(ends[n])
        working = self._working
        finished = [working[rid] for rid in steady.finishing()]
        for slot in finished:
            self._remove(slot)
            slot.request.mark_finished(end)
        if self.tracer is not None:
            self._trace_finishes(end, finished)

    def write_back(self, tokens: "dict[str, int] | None" = None) -> None:
        """Bring each armed request's ``kv_len`` and tokens, and the
        allocator's lengths, up to the batch's step count, in one pass.

        Bulk commits leave them behind (:meth:`commit_steady_run`); every
        reader catches them up first: a join or a leave, a step that
        reserves slot by slot, :meth:`all_requests`, :meth:`cancel`,
        :meth:`fail`, :meth:`export_request`, and the decode lane before
        it feeds the token sink and before the event loop returns. The
        lagging steps' tokens are the backend counter's, ``base + k *
        batch + pos + 1`` for plan position ``pos`` (a lag of more than
        the current step only follows bulk commits, which run on the laid
        plan); a scalar step passes its own step's ``tokens``, which it
        has not handed out yet, and with no plan laid the members are
        walked in slot order."""
        steady = self._steady
        steps = steady.steps
        lag = steps - steady.synced
        if not lag:
            return
        steady.synced = steps
        plan = steady.decode_plan
        order = steady.ids if plan is None else plan.decode_ids
        if not order:
            return
        steady.member_passes += 1
        working = self._working
        lengths = self._kv_lengths
        kv0 = steady.kv0
        batch = len(order)
        first = steady.base + 1
        span = (lag if tokens is None else lag - 1) * batch
        for rid in order:
            req = working[rid].request
            req.kv_len = lengths[rid] = kv0[rid] + steps
            gen = req.generated_tokens
            if span:
                gen.extend(range(first, first + span, batch))
            if tokens is not None:
                gen.append(tokens[rid])
            first += 1

    def _decode_entry(self, spec) -> BatchEntry:
        """Build and cache a request's decode entry (an ``_entry_cache``
        miss: its first decode step on this GPU)."""
        entry = self._entry_cache[spec.request_id] = BatchEntry(
            request_id=spec.request_id, lora_id=spec.lora_id,
            num_tokens=1, is_prefill=False,
        )
        return entry

    def _order_insert(self, slot: _Slot) -> None:
        """Insert into ``_working_order`` keeping ascending ``admit_seq``,
        and into the armed batch at the same position. Loads complete
        nearly in admission order, so scanning from the end is O(1) in the
        common case."""
        order = self._working_order
        i = len(order)
        while i > 0 and order[i - 1].admit_seq > slot.admit_seq:
            i -= 1
        order.insert(i, slot)
        if self._arms:
            self.write_back()
            req = slot.request
            spec = req.spec
            generated = len(req.generated_tokens)
            self._steady.join(
                i,
                self._entry_cache.get(spec.request_id) or self._decode_entry(spec),
                req.kv_len,
                spec.response_len - generated,
                generated,
            )

    # ------------------------------------------------------------------
    def _trace_step(
        self,
        now: float,
        end: float,
        prefill_slots: "list[_Slot]",
        decode_slots: "list[_Slot]",
        finished_slots: "list[_Slot]",
        spec_round: "tuple | None" = None,
        lane: "tuple | None" = None,
    ) -> None:
        """Emit the invocation's per-request PREFILL / DECODE_STEP / FINISH
        events (time = step end; the ``start`` attr carries the step start,
        which the latency breakdown closes segments at). The decodes are
        one one-step run block: ``lane`` when the step read it off the
        armed batch, else built slot by slot. A speculative round
        (``spec_round`` = its execution, committed tokens and rollbacks)
        brackets them: one SPEC_DRAFT, then per request SPEC_VERIFY, a
        DECODE_STEP per committed token, and SPEC_ROLLBACK when reserved
        slots were released."""
        emit = self.tracer.emit
        gpu_id = self.gpu_id
        for slot in prefill_slots:
            req = slot.request
            emit(
                end, EventKind.PREFILL, req.request_id, gpu_id,
                start=now,
                tokens=req.spec.prompt_len + max(0, req.num_generated - 1),
            )
        if spec_round is not None:
            execution, committed, rollbacks = spec_round
            emit(
                end, EventKind.SPEC_DRAFT, None, gpu_id,
                start=now, batch=len(decode_slots), draft_len=execution.proposed,
            )
            for slot in decode_slots:
                req = slot.request
                rid = req.request_id
                kept = len(committed[rid])
                emit(
                    end, EventKind.SPEC_VERIFY, rid, gpu_id,
                    start=now, proposed=execution.proposed,
                    accepted=execution.accepted[rid], committed=kept,
                )
                base = req.num_generated - kept
                for i in range(kept):
                    emit(
                        end, EventKind.DECODE_STEP, rid, gpu_id,
                        **decode_step_attrs(now, base + i),
                    )
                rollback = rollbacks.get(rid)
                if rollback is not None:
                    emit(
                        end, EventKind.SPEC_ROLLBACK, rid, gpu_id,
                        tokens=rollback[0], pages=rollback[1],
                    )
        elif decode_slots:
            # The step's decode batch as a one-step run block: the same
            # events, expanded when the trace is read.
            if lane is None:
                lane = (
                    gpu_id,
                    [s.request.spec.request_id for s in decode_slots],
                    [len(s.request.generated_tokens) - 1 for s in decode_slots],
                    0,
                    [now, end],
                )
            self.tracer.decode_run((lane,))
        self._trace_finishes(end, finished_slots)

    def _trace_finishes(self, end: float, finished_slots: "list[_Slot]") -> None:
        """One FINISH per finished request, stamped with its step's end."""
        for slot in finished_slots:
            req = slot.request
            self.tracer.emit(
                end, EventKind.FINISH, req.request_id, self.gpu_id,
                tokens=req.num_generated,
            )

    def _is_finished(self, req: Request, token: int) -> bool:
        if req.reached_limit():
            return True
        eos = self.config.eos_token_id
        return eos is not None and token == eos

    def _append_with_eviction(
        self, rid: str, n: int, appended: set[str], evicted: list[str]
    ) -> bool:
        """Append ``n`` KvCache slots for ``rid``, evicting newest requests
        on pressure (§5.3: "evicts the newest request ... preserves FCFS").

        Requests that already got their slots this step are never victims.
        Returns False when ``rid`` itself had to be evicted.
        """
        while not self.backend.kv_can_append(rid, n):
            victim = self._newest_evictable(exclude=appended)
            if victim is None:
                raise MemoryError(
                    f"{self.gpu_id}: no evictable request can free "
                    f"{n} KvCache slots for {rid}"
                )
            victim_id = victim.request.request_id
            self._remove(victim)
            victim.request.evict()
            evicted.append(victim_id)
            if victim_id == rid:
                return False
        self.backend.kv_append(rid, n)
        return True

    def _newest_evictable(self, exclude: set[str]) -> "_Slot | None":
        """Newest-admitted working slot not in ``exclude`` — scanned from the
        tail of the admit-ordered list (the old ``max`` over all slots)."""
        for slot in reversed(self._working_order):
            if slot.request.request_id not in exclude:
                return slot
        return None

    def _select_prefills(self, now: float) -> list[_Slot]:
        """Pick pending requests ready to prefill, FIFO, up to the limit."""
        limit = self.config.prefill_batch_limit
        pending = self._pending
        if not pending:
            return []
        selected: list[_Slot] = []
        remaining: list[_Slot] = []
        for i, slot in enumerate(pending):
            if len(selected) == limit:
                remaining += pending[i:]
                break
            req = slot.request
            ready = (
                req.needs_prefill  # import slots wait for _promote_imports
                and self.loader.is_ready(req.lora_id, now)
                and self.backend.kv_can_admit(prompt := req.effective_prompt_len)
                and self._lora_compatible(req)
            )
            if ready:
                self.backend.kv_admit(req.request_id, prompt)
                selected.append(slot)
            else:
                remaining.append(slot)
        self._pending = remaining
        return selected

    def _lora_compatible(self, req: Request) -> bool:
        if not self.config.same_lora_only:
            return True
        active = {s.request.lora_id for s in self._working.values()}
        return not active or req.lora_id in active
