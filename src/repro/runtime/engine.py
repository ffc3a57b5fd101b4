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
from repro.core.batch import BatchEntry, BatchPlan, plan_batch
from repro.obs.tracer import EventKind, Tracer, decode_step_attrs
from repro.runtime.request import Request, RequestState
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
    """Functional mode's end-of-sequence stopping condition."""
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


@dataclass
class _Slot:
    request: Request
    admit_seq: int


class ArmedBatch:
    """The engine's one plan memo: the pure-decode batch its last step armed.

    Valid while the batch membership is unchanged and nothing is pending;
    ``plan is None`` means the next step must plan its batch from scratch
    and re-arm. The bulk lane reads the exact KV total and per-request
    countdowns, so they advance with every step taken on the armed plan.
    """

    def __init__(self) -> None:
        self.plan: "BatchPlan | None" = None
        self.past: dict[str, int] = {}
        """Arm-time ``request id -> kv_len`` snapshot, in slot order. Only
        its keys — the batch — stay current."""
        self.total = 0
        """``sum(kv_len + 1)`` over the batch at its next step."""
        self.rem: "list[int] | None" = None
        """Tokens left per request (slot order); ``None`` when a finish
        needs the per-token check (EOS armed, or a request at its limit)."""
        self.hits = 0
        """Steps that ran on the already-armed plan: armed ``step`` calls
        plus bulk-committed steps (diagnostic, like ``fast_steps``)."""
        self.misses = 0
        """Plans built."""


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
        # The armed batch and the bulk lane assume one token per request
        # per step and shape-only latency terms (``supports_steady``);
        # speculative engines and backends with no bulk run never arm.
        self._steady_ok = (
            self.fast_path
            and hasattr(backend, "commit_steady_run")
            and backend.pricer.supports_steady
            and self._spec is None
        )
        self._steady = ArmedBatch()
        self._plan_cache = self._steady if self.fast_path else None
        """The armed-batch lane's counters under the name its ``hits`` /
        ``misses`` are read by; ``None`` on the reference path, where that
        lane is off and every step plans."""
        self._staged_run: "tuple[np.ndarray, int] | None" = None
        """(step-end times, batch size) priced by :meth:`steady_run_stage`
        and awaiting :meth:`commit_steady_run` within the same event."""
        self._steady_lats: "tuple[object, int, float, np.ndarray] | None" = None
        """(plan, base KV total, slowdown, step-end array) staging cache. Step
        ``k`` of a run from total ``T`` prices with ``T + k * batch`` and
        the ends chain sequentially, so the array built from ``T``
        *contains* — bit for bit — every run from ``T + n * batch``:
        later stagings slice at offset ``n`` instead of re-pricing.
        Keyed by plan identity; every re-arm builds a new plan object and
        misses naturally."""
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
        return [s.request for s in self._all_slots()]

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
        """Assign a request to this GPU; its LoRA load starts immediately."""
        if self.has_request(request.request_id):
            raise ValueError(f"request {request.request_id} already on {self.gpu_id}")
        if not self.can_accept(request):
            raise RuntimeError(
                f"{self.gpu_id} cannot accept {request.request_id} "
                f"(working set {self.working_set_size}, "
                f"free kv tokens {self.kv_free_tokens()})"
            )
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
        self._steady.plan = None
        if self._working.pop(rid, None) is not None:
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
        self._steady.plan = None
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
        self._steady.plan = None
        if self.tracer is not None:
            self.tracer.emit(
                now, EventKind.PLACE, request.request_id, self.gpu_id,
                lora=request.lora_id, imported_kv=kv_tokens,
            )

    def _promote_imports(self, now: float) -> None:
        """Move imported slots whose adapter is resident into the decode
        batch; they contribute a decode token in this very invocation."""
        remaining: list[_Slot] = []
        for slot in self._pending:
            req = slot.request
            if not req.needs_prefill and self.loader.is_ready(req.lora_id, now):
                self._working[req.request_id] = slot
                self._order_insert(slot)
                self._num_importing -= 1
            else:
                remaining.append(slot)
        self._pending = remaining

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
        self.loader.advance(now)
        if self._num_importing:
            self._promote_imports(now)
        self.slow_steps += 1
        spec = self._spec
        spec_round = (
            spec is not None and not self._pending and bool(self._working_order)
        )
        n = spec.max_tokens_per_round if spec_round else 1
        # Reserve the decode requests' KvCache slots FIRST (evicting newest
        # requests on pressure), so prefill admission below can only use
        # pages genuinely left over.
        evicted: list[str] = []
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

        # Steady decode is the degenerate case: the batch is exactly the
        # one the last step armed (any eviction above disarmed it), so its
        # plan is reused instead of rebuilding entries and plan.
        steady = self._steady
        armed = (
            steady.plan is not None
            and not self._pending
            and not prefill_slots
        )
        if armed:
            plan = steady.plan
            steady.hits += 1
        else:
            entries: list[BatchEntry] = []
            for slot in prefill_slots:
                req = slot.request
                entries.append(
                    BatchEntry(
                        request_id=req.request_id,
                        lora_id=req.lora_id,
                        num_tokens=req.effective_prompt_len,
                        is_prefill=True,
                    )
                )
                past_lens[req.request_id] = 0
            cache = self._entry_cache
            for slot in decode_slots:
                rspec = slot.request.spec
                entries.append(
                    cache.get(rspec.request_id) or self._decode_entry(rspec)
                )
            plan = plan_batch(entries)
            steady.misses += 1

        batch = prefill_slots + decode_slots
        requests = {s.request.request_id: s.request for s in batch}
        if spec_round:
            execution = self.backend.execute_spec(
                plan, past_lens, spec, self._spec_rng, requests=requests
            )
            self.spec_rounds += 1
        else:
            execution = self.backend.execute(plan, past_lens, requests=requests)
        latency = execution.latency * self.slowdown_factor
        end = now + latency

        # Commit 1..n tokens per request, stopping at its finish condition.
        finished_slots: "list[_Slot]" = []
        committed: "dict[str, tuple[int, ...]] | None" = {} if spec_round else None
        rollbacks: "dict[str, tuple[int, int]]" = {}
        for slot in batch:
            req = slot.request
            rid = req.request_id
            if req.needs_prefill:
                req.kv_len = req.effective_prompt_len
                req.needs_prefill = False
                self._working[rid] = slot
                self._order_insert(slot)
            offered = (
                execution.committed[rid] if spec_round else (execution.tokens[rid],)
            )
            kept = 0
            for token in offered:
                kept += 1
                req.record_token(token, end)
                if self._is_finished(req, token):
                    finished_slots.append(slot)
                    break
            if spec_round:
                committed[rid] = offered[:kept]
            if kept < n:
                # The request's inputs filled slots [past, past + kept) —
                # its last committed token's KV lands next step — so the
                # rest of the reservation rolls back. The allocator's free
                # list is LIFO: the next reservation reacquires the same
                # pages, a rejected draft leaves no footprint in page
                # assignment.
                req.kv_len = past_lens[rid] + kept
                pages = self.backend.kv_truncate(rid, req.kv_len)
                rollbacks[rid] = (n - kept, pages)

        for slot in finished_slots:
            self._remove(slot)
            slot.request.mark_finished(end)

        if self.tracer is not None:
            self._trace_step(
                now, end, prefill_slots, decode_slots, finished_slots,
                (execution, committed, rollbacks) if spec_round else None,
            )

        if armed and not finished_slots:
            # Same batch again next step: advance the armed state in place
            # (what a full re-arm would recompute) — the bulk lane reads
            # the exact KV total and per-request countdowns.
            steady.total += len(decode_slots)
            rem = steady.rem
            if rem is not None:
                for i in range(len(rem)):
                    rem[i] -= 1
        else:
            self._refresh_steady()
        return StepReport(
            gpu_id=self.gpu_id,
            start=now,
            latency=latency,
            batch_size=len(batch),
            num_prefill=len(prefill_slots),
            num_decode=len(decode_slots),
            num_lora_segments=plan.num_lora_segments,
            new_tokens=(
                dict(execution.tokens)
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
        at one page per request before every step (no eviction can
        trigger). ``finishes`` is whether the run's last step is that
        finishing step; every earlier step is a pure tick. Call
        :meth:`commit_steady_run` to apply a prefix. Requires the
        length-limit countdown (``ArmedBatch.rem``).
        """
        backend = self.backend
        if not self.steady_ready() or getattr(backend, "pool", True) is not None:
            return None
        steady = self._steady
        batch = len(steady.past)
        rem_cap = min(steady.rem)
        count = min(rem_cap, backend.kv_headroom_pages() // batch, self._MAX_RUN)
        if count < 1:
            return None
        finishes = count == rem_cap
        plan = steady.plan
        total = steady.total
        slowdown = self.slowdown_factor
        # The run from (T + n*batch, start') is an offset slice of the
        # run staged earlier from (T, start): pricing is elementwise in
        # the exact integer KV totals, and cumsum chains ends
        # sequentially, so when start' == ends[n] (which it is — commits
        # walk the staged chain) the later ends ARE ends[n:], bit for
        # bit. Only a cache miss pays the array build.
        cached = self._steady_lats
        if cached is not None and cached[0] is plan and cached[2] == slowdown:
            off = total - cached[1]
            if off >= 0 and off % batch == 0:
                off //= batch
                ends_full = cached[3]
                if off + count < len(ends_full) and ends_full[off] == start:
                    ends = ends_full[off:off + count + 1]
                    self._staged_run = (ends, batch)
                    return ends, batch, finishes
        # Build to the finish cap, not the (tighter) headroom cap: the
        # headroom bound shrinks slower than the commit offset advances
        # (a decode append only consumes a page at page boundaries), so a
        # headroom-sized array would fall short of later slices and force
        # a rebuild per merge. Pricing past headroom is harmless — the
        # *returned* slice below stays capped at ``count``.
        steps = min(rem_cap, self._MAX_RUN)
        pricer = backend.pricer
        if steps < self._SCALAR_RUN:
            # The scalar step's own pricing, step by step: element ``k``
            # of the array below equals it bit for bit.
            end = start
            chain = [start]
            for k in range(steps):
                lat = pricer.step_seconds(
                    plan.prefill_lens, batch, total + k * batch, plan.segment_sizes
                )
                if slowdown != 1.0:
                    lat = lat * slowdown
                end += lat
                chain.append(end)
            ends_full = np.array(chain)
        else:
            lats = pricer.steady_run_latencies(plan, total, steps)
            if slowdown != 1.0:
                lats = lats * slowdown
            # ends[k] = end of step k, chained exactly like the scalar
            # now + latency accumulation (cumsum adds sequentially).
            ends_full = np.cumsum(np.concatenate(((start,), lats)))
        self._steady_lats = (plan, total, slowdown, ends_full)
        ends = ends_full[:count + 1]
        self._staged_run = (ends, batch)
        return ends, batch, finishes

    def steady_ready(self) -> bool:
        """Cheap pre-gate: is the next step a pure steady decode tick?

        The merge lane calls this before paying for
        :meth:`steady_run_stage`'s array pricing; engines that fail it
        keep their queued step event, which then bounds the merge horizon.
        """
        return (
            self._steady.rem is not None
            and self._steady.plan is not None
            and not self._pending
        )

    def step_is_plain(self) -> bool:
        """Will the next :meth:`step` surely run a batch and evict nothing?

        True for a live, non-speculative engine with requests decoding and
        a free KvCache page for each of them (``_reserve``'s no-eviction
        case). The merge lane replays such a step in pop order, prefills
        included; any other step stays a cut."""
        decoding = len(self._working_order)
        return (
            self.alive
            and self._spec is None
            and decoding > 0
            and self.backend.kv_headroom_pages() >= decoding
        )

    def steady_trace_lane(self, first: int, last: int) -> tuple:
        """Steps ``first .. last - 1`` of the staged run — counted from
        its first step not yet committed — as one
        :meth:`Tracer.decode_run` lane, read before those steps commit.

        The merge lane closes a run block wherever a committed finish
        or a scheduler pass must emit its own events, so one staged run
        may span several blocks; each block takes the lane of its own
        steps."""
        ends = self._staged_run[0]
        past = self._steady.past
        working = self._working
        return (
            self.gpu_id,
            tuple(past),  # request ids, in slot order
            [len(working[rid].request.generated_tokens) + first for rid in past],
            ends[first:last + 1].tolist(),
        )

    def commit_steady_run(self, n: int) -> None:
        """Apply the first ``n`` steps of the staged run in bulk.

        Replays exactly what ``n`` :meth:`step` calls on the armed batch
        would do — KvCache appends (page ids included), token values,
        per-request countdowns, loader clock, total-KV counter — without
        the per-step Python work. The rest of the run stays staged, from
        the end of step ``n``, so a later commit continues it (the merge
        lane commits a prefix wherever a scheduler pass must read this
        engine). When step ``n`` is the run's finishing step, its
        finished requests then leave as :meth:`step` lets them go: in
        slot order, each through :meth:`_remove` and then
        ``mark_finished`` at the step's end, with their FINISH events,
        and the engine re-arms over whatever remains.

        The run's ``DECODE_STEP`` events are not recorded here: the merge
        lane records them, from :meth:`steady_trace_lane`, in run blocks
        in pop order — closed before a finish's FINISH events.
        """
        ends, batch = self._staged_run
        self._staged_run = (ends[n:], batch)
        steady = self._steady
        working = self._working
        # Reference steps call loader.advance(step start) each step;
        # advance is a monotone clock max, so the last start subsumes
        # the sequence — and precedes a finish's adapter releases.
        self.loader.advance(float(ends[n - 1]))
        base = self.backend.commit_steady_run(steady.past, n)
        span = n * batch
        for pos, rid in enumerate(steady.plan.decode_ids):
            req = working[rid].request
            first_token = base + pos + 1
            req.kv_len += n
            req.generated_tokens.extend(
                range(first_token, first_token + span, batch)
            )
        rem = steady.rem = [left - n for left in steady.rem]
        steady.total += span
        steady.hits += n
        self.fast_steps += n
        if min(rem):
            return
        self._staged_run = None
        end = float(ends[n])
        finished = [working[rid] for rid, left in zip(steady.past, rem) if not left]
        for slot in finished:
            self._remove(slot)
            slot.request.mark_finished(end)
        if self.tracer is not None:
            self._trace_finishes(end, finished)
        self._refresh_steady()

    def _refresh_steady(self) -> None:
        """(Re)arm the steady batch after a step, when the *next* step is
        known to be a pure decode of the current working set."""
        steady = self._steady
        slots = self._working_order
        if not self._steady_ok or self._pending or not slots:
            steady.plan = None
            return
        cache = self._entry_cache
        entries = []
        past: dict[str, int] = {}
        total = 0
        rem: "list[int] | None" = (
            [] if self.config.eos_token_id is None else None
        )
        for s in slots:
            req = s.request
            spec = req.spec
            rid = spec.request_id
            entries.append(cache.get(rid) or self._decode_entry(spec))
            past[rid] = req.kv_len
            total += req.kv_len
            if rem is not None:
                left = spec.response_len - len(req.generated_tokens)
                if (
                    left <= 0
                    or not req.generated_tokens
                    or req.state is not RequestState.RUNNING
                ):
                    rem = None  # fall back to the per-token finish check
                else:
                    rem.append(left)
        steady.plan = plan_batch(entries)
        steady.misses += 1
        steady.past = past
        steady.total = total + len(slots)
        steady.rem = rem

    def _decode_entry(self, spec) -> BatchEntry:
        """Build and cache a request's decode entry (an ``_entry_cache``
        miss: its first decode step on this GPU)."""
        entry = self._entry_cache[spec.request_id] = BatchEntry(
            request_id=spec.request_id, lora_id=spec.lora_id,
            num_tokens=1, is_prefill=False,
        )
        return entry

    def _order_insert(self, slot: _Slot) -> None:
        """Insert into ``_working_order`` keeping ascending ``admit_seq``.
        Loads complete nearly in admission order, so scanning from the end
        is O(1) in the common case."""
        order = self._working_order
        i = len(order)
        while i > 0 and order[i - 1].admit_seq > slot.admit_seq:
            i -= 1
        order.insert(i, slot)

    # ------------------------------------------------------------------
    def _trace_step(
        self,
        now: float,
        end: float,
        prefill_slots: "list[_Slot]",
        decode_slots: "list[_Slot]",
        finished_slots: "list[_Slot]",
        spec_round: "tuple | None" = None,
    ) -> None:
        """Emit the invocation's per-request PREFILL / DECODE_STEP / FINISH
        events (time = step end; the ``start`` attr carries the step start,
        which the latency breakdown closes segments at). A speculative
        round (``spec_round`` = its execution, committed tokens and
        rollbacks) brackets them: one SPEC_DRAFT, then per request
        SPEC_VERIFY, a DECODE_STEP per committed token, and SPEC_ROLLBACK
        when reserved slots were released."""
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
            self.tracer.decode_run(((
                gpu_id,
                [s.request.spec.request_id for s in decode_slots],
                [len(s.request.generated_tokens) - 1 for s in decode_slots],
                [now, end],
            ),))
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
        if not self._pending:
            return []
        selected: list[_Slot] = []
        remaining: list[_Slot] = []
        for slot in self._pending:
            req = slot.request
            ready = (
                req.needs_prefill  # import slots wait for _promote_imports
                and len(selected) < limit
                and self.loader.is_ready(req.lora_id, now)
                and self.backend.kv_can_admit(req.effective_prompt_len)
                and self._lora_compatible(req)
            )
            if ready:
                self.backend.kv_admit(req.request_id, req.effective_prompt_len)
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
