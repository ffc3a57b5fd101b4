"""The Punica cluster scheduler (§5.1, §5.3).

Routing rule for a new (or re-queued) request: among GPUs that (1) have not
reached the max batch size and (2) have enough KvCache memory, pick the one
with the *largest* working set; break ties by highest GPU UUID. If none
qualifies, queue FCFS. The deliberately anti-balancing rule keeps busy GPUs
busy and lets lightly loaded GPUs drain to idle, enabling cluster scale-down.

:class:`PunicaScheduler` runs the only admission loops — ``submit``,
``drain_queue`` and ``route_decode`` — for every policy. A policy (the
SLO router, :mod:`repro.cluster.control.router`) overrides only its
prefill placement and decode ranking keys, its queue key and discipline,
its shed rule and what it records after an admit.

Consolidation migration: periodically, requests on lightly loaded GPUs are
migrated (cancel + re-add, §5.3) onto busier GPUs that can absorb them,
freeing the source GPU entirely.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter

from repro.obs.tracer import EventKind, Tracer
from repro.runtime.request import Request, RequestState

DEFAULT_MAX_BATCH_SIZE = 32
"""Fallback when no engine in the pool exposes ``.config`` (test doubles,
exotic backends): the paper's profiled A100 sweet spot (§5.1)."""


@dataclass(frozen=True)
class SchedulerConfig:
    """Cluster scheduling knobs."""

    migration_interval: float = 10.0
    """Seconds between consolidation passes (§3 "periodically migrates")."""
    consolidation: bool = True
    """Disable to ablate migration (``repro migration``)."""
    light_load_fraction: float = 0.5
    """A GPU below this fraction of max batch size counts as lightly loaded."""
    routing: str = "pack"
    """"pack" = Punica's largest-working-set rule (§5.1); "spread" = classic
    least-loaded balancing, kept as an ablation of the design choice."""

    def __post_init__(self) -> None:
        if self.migration_interval <= 0:
            raise ValueError("migration_interval must be positive")
        if not 0.0 < self.light_load_fraction <= 1.0:
            raise ValueError("light_load_fraction must be in (0, 1]")
        if self.routing not in ("pack", "spread"):
            raise ValueError(f"unknown routing policy {self.routing!r}")


class PunicaScheduler:
    """Routes requests over a pool of engines; owns the wait queue.

    Working-set ties always break by adapter residency tier (GPU > HOST >
    DISK) before the highest-UUID rule, so routing prefers GPUs that can
    skip all or part of the adapter load (CaraServe-style locality)."""

    def __init__(
        self,
        engines: "list",
        config: SchedulerConfig | None = None,
        prefetcher=None,
        tracer: "Tracer | None" = None,
    ):
        if not engines:
            raise ValueError("scheduler needs at least one GPU engine")
        ids = [e.gpu_id for e in engines]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate GPU ids: {ids}")
        self.engines = {e.gpu_id: e for e in engines}
        self.config = config or SchedulerConfig()
        self.prefetcher = prefetcher
        """Optional :class:`~repro.adapters.prefetch.Prefetcher` that gets
        routing hints (queued requests' adapters are staged host-side)."""
        self.tracer = tracer
        """Optional :class:`~repro.obs.tracer.Tracer` receiving QUEUE and
        MIGRATE events (engines emit their own PLACE/step events)."""
        self._queue: list[tuple[float, int, Request]] = []
        self._queue_seq = 0
        self.num_migrations = 0
        self.num_queued_total = 0
        self.migration_hook = None
        """Optional ``(request, source_id, target_id) -> None`` called
        after each consolidation move — the KV handoff uses it to keep
        its colocation bookkeeping consistent under role-aware
        consolidation."""

    # ------------------------------------------------------------------
    # Elastic pool membership (§5.1: allocate/deallocate GPU servers)
    # ------------------------------------------------------------------
    def add_engine(self, engine) -> None:
        """Bring a newly provisioned GPU into the pool."""
        if engine.gpu_id in self.engines:
            raise ValueError(f"GPU {engine.gpu_id} already in the pool")
        self.engines[engine.gpu_id] = engine

    def remove_engine(self, gpu_id: str):
        """Release an *idle* GPU back to the cloud provider."""
        engine = self.engines.get(gpu_id)
        if engine is None:
            raise KeyError(f"GPU {gpu_id} not in the pool")
        if not engine.is_idle:
            raise RuntimeError(f"cannot release busy GPU {gpu_id}")
        if len(self.engines) == 1:
            raise RuntimeError("cannot release the last GPU")
        return self.engines.pop(gpu_id)

    def fail_engine(self, gpu_id: str, now: float) -> "list[Request]":
        """A GPU died: drop it from the pool and return its displaced
        requests (QUEUED with their generated prefix preserved) so the
        caller can re-place them via the §5.3 evict + re-prefill path.

        Unlike :meth:`remove_engine` this succeeds on a *busy* GPU — that
        is the whole point — and may empty the pool (the caller sheds what
        cannot be re-placed).
        """
        engine = self.engines.pop(gpu_id, None)
        if engine is None:
            raise KeyError(f"GPU {gpu_id} not in the pool")
        displaced = engine.fail(now)
        if self.tracer is not None:
            for req in displaced:
                self.tracer.emit(
                    now, EventKind.QUEUE, req.request_id, gpu_id, reason="fault"
                )
        return displaced

    # ------------------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    def idle_gpus(self) -> list[str]:
        return [gid for gid, e in self.engines.items() if e.is_idle]

    # ------------------------------------------------------------------
    # The admission loops, run for every policy.
    def submit(self, request: Request, now: float) -> "str | None":
        """Route a request; returns the chosen GPU id, or None if it was
        queued or shed.

        Terminal requests are dropped, not routed: a user may cancel before
        the simulated arrival fires, and routing a CANCELLED request into
        ``engine.add_request`` would crash its ``mark_running`` transition.
        Under a blocking discipline a live waiter holds every later
        submission behind it (strict FCFS): the request queues, and the
        next drain admits in queue-key order.
        """
        if request.state.is_terminal:
            return None
        if self.queue_head_blocks and any(
            not entry[2].state.is_terminal for entry in self._queue
        ):
            self._enqueue(request, now)
            return None
        self._new_pass()
        gpu = self._route(request, now)
        if gpu is not None:
            self._admit(request, gpu, now)
        elif not self._shed_hopeless(request, now):
            self._enqueue(request, now)
        return gpu

    def drain_queue(self, now: float) -> "list[str]":
        """Place queued requests in queue-key order as capacity frees up.

        A waiter nobody admits is shed when the policy finds it hopeless;
        otherwise it keeps its place, and under a blocking discipline
        (:attr:`queue_head_blocks`) the pass ends there."""
        queue = self._queue
        if not queue:
            return []
        self._new_pass()
        placed, kept = [], []
        while queue:
            entry = queue[0]
            request = entry[2]
            if not request.state.is_terminal:
                gpu = self._route(request, now)
                if gpu is not None:
                    self._admit(request, gpu, now)
                    placed.append(gpu)
                elif not self._shed_hopeless(request, now):
                    if self.queue_head_blocks:
                        break
                    kept.append(entry)
            heapq.heappop(queue)
        if kept:
            # Only a non-blocking pass keeps waiters, and it ran the queue
            # dry; they left it in key order, so the list is a heap.
            self._queue = kept
        return placed

    def route_decode(self, request: Request, kv_tokens: int) -> "str | None":
        """Pick the decode GPU for a request whose KV handoff completed:
        first fit over :meth:`_decode_keys`. Returns None when no
        decode-capable engine can admit the imported history right now."""
        return self._first_fit(self._decode_keys(request), request, kv_tokens)

    def _route(self, request: Request, now: float) -> "str | None":
        """The prefill placement (§5.1), both routing modes under one
        rule: first fit in descending ``(load, adapter locality, GPU
        UUID)``, where ``load`` is the working-set size under "pack"
        (largest working set wins; ties -> GPU-resident beats HOST-staged
        beats DISK-only, then max UUID) and its negation under the
        "spread" ablation (least loaded wins, same tie-breaks) — the
        conventional balancing rule the paper argues against for
        consolidation.

        Each engine's working-set size is read once; the load levels are
        then walked from the best one, and only the engines on the level
        being walked are asked their adapter locality, so an arrival on a
        fleet of distinct loads asks one engine. New and re-queued
        requests need a prefill, so pure decode-pool engines are never
        candidates here; they admit work only through
        :meth:`route_decode`.
        """
        engines = self.engines
        loads = [
            (engine.working_set_size, gid)
            for gid, engine in engines.items()
            if self._prefill_capable(engine)
        ]
        loads.sort(reverse=self.config.routing == "pack")
        for _, level in groupby(loads, key=itemgetter(0)):
            gid = self._first_fit(
                [(self._adapter_locality(engines[g], request), g) for _, g in level],
                request,
            )
            if gid is not None:
                return gid
        return None

    def _first_fit(self, ranked: "list[tuple]", *admission) -> "str | None":
        """The placement rule, which :meth:`_route` applies level by
        level: "max key among the engines that can admit". ``ranked``
        holds a ``(..., gid)`` key per role-eligible engine; walk the keys
        in descending order and return the first GPU that admits
        ``admission`` — the request, plus its imported KV tokens on the
        decode route — or None. The admission test is a pure predicate,
        so only the winner and whatever ranks above it are asked."""
        ranked.sort(reverse=True)
        for *_, gid in ranked:
            if self.engines[gid].can_accept(*admission):
                return gid
        return None

    def _admit(self, request: Request, gpu: str, now: float) -> None:
        """Place a request on the GPU whose ``can_accept`` just admitted
        it: one admission test per placement."""
        self.engines[gpu].place(request, now)

    def _enqueue(self, request: Request, now: float) -> None:
        """Park a request in the wait queue under its :meth:`_queue_key`
        (ties -> FIFO)."""
        key, reason = self._queue_key(request)
        heapq.heappush(self._queue, (key, self._queue_seq, request))
        self._queue_seq += 1
        self.num_queued_total += 1
        if self.prefetcher is not None:
            self.prefetcher.hint_queued(request.lora_id, now)
        if self.tracer is not None:
            self.tracer.emit(
                now, EventKind.QUEUE, request.request_id,
                reason=reason, depth=len(self._queue),
            )

    def _adapter_locality(self, engine, request: Request) -> int:
        """Residency tier of the request's adapter on ``engine`` (2 GPU /
        1 HOST / 0 DISK); 0 when the engine has no tier view."""
        tier_of = getattr(engine, "adapter_tier", None)
        return tier_of(request.lora_id) if tier_of is not None else 0

    @staticmethod
    def _prefill_capable(engine) -> bool:
        """Whether an engine may run prefills — everything except pure
        decode-pool members (engines without a role are colocated)."""
        return getattr(engine, "role", "both") != "decode"

    @staticmethod
    def _decode_capable(engine) -> bool:
        return getattr(engine, "role", "both") != "prefill"

    # ------------------------------------------------------------------
    # Policy hooks (Punica's FCFS queue; its pack rule is ``_route``); a
    # policy overrides these, ``_route`` and nothing else.
    queue_head_blocks = True
    """Whether a waiter nobody admits blocks the waiters behind it."""

    def _new_pass(self) -> None:
        """Start one ``submit`` or ``drain_queue`` pass; a policy that
        keeps per-pass scratch resets it here."""

    def _decode_keys(self, request: Request) -> "list[tuple]":
        """CaraServe-style adapter locality leads: a GPU already holding
        the adapter skips the load stall entirely, which on the decode path
        is the dominant admission cost (the KV pages arrive either way).
        Ties fall back to Punica's pack rule (largest working set), then
        max UUID."""
        return [
            (self._adapter_locality(e, request), e.working_set_size, gid)
            for gid, e in self.engines.items()
            if self._decode_capable(e)
        ]

    def _queue_key(self, request: Request) -> "tuple[float, str]":
        """Wait-queue key and the QUEUE event's reason: FCFS by arrival."""
        return request.spec.arrival_time, "no_capacity"

    def _shed_hopeless(self, request: Request, now: float) -> bool:
        """Asked after a failed placement: shed the request instead of
        (re)queueing it; returns whether it was shed. Punica never sheds."""
        return False

    # The handoff's decode queue (docs/disagg.md) asks the scheduler for
    # its discipline: FCFS by handoff completion, the head blocks, and a
    # waiter never expires.
    decode_head_blocks = True

    def decode_queue_key(self, request: Request, ready: float, seq: int) -> tuple:
        return (ready, seq)

    def shed_if_expired(self, request: Request, now: float) -> bool:
        """Shed a decode-queue waiter that can no longer use the capacity
        it is waiting for; returns whether it was shed."""
        return False

    # ------------------------------------------------------------------
    def cancel(self, request: Request) -> "str | None":
        """User cancellation: drop from whichever GPU or queue holds it.

        Returns the GPU the request was running on (None if it was only
        queued or not yet arrived). Callers that own an event loop must
        drain the wait queue afterwards — the freed batch slot and KvCache
        pages admit nobody by themselves (see ClusterSimulator.cancel).
        """
        for gid, engine in self.engines.items():
            if engine.has_request(request.request_id):
                engine.cancel(request.request_id)
                return gid
        # Purge any queue entry eagerly: a later retry may reset this
        # request back to QUEUED, and a stale heap entry would then place
        # it twice. Lazy skipping in drain_queue remains as defense.
        before = len(self._queue)
        self._queue = [
            entry for entry in self._queue
            if entry[2].request_id != request.request_id
        ]
        if len(self._queue) != before:
            heapq.heapify(self._queue)
        request.mark_cancelled()
        return None

    def drain_all_queued(self) -> "list[Request]":
        """Empty the wait queue, returning the live requests it held (the
        shed path: the caller marks them FAILED when no capacity remains)."""
        out = [
            r for _, _, r in sorted(self._queue) if not r.state.is_terminal
        ]
        self._queue.clear()
        return out

    # ------------------------------------------------------------------
    def consolidate(self, now: float) -> int:
        """Migrate requests off lightly loaded GPUs onto busier ones.

        Sources are scanned lightest-first; each of their requests moves to
        the busiest other GPU that can accept it (same routing rule as new
        requests). Returns the number of requests migrated.
        """
        if not self.config.consolidation:
            return 0
        moved = 0
        threshold = max(
            1, int(self.config.light_load_fraction * self._max_batch_size())
        )
        order = sorted(
            (e.working_set_size, gid)
            for gid, e in self.engines.items()
            if 0 < e.working_set_size < threshold
        )
        for _, source_id in order:
            source = self.engines[source_id]
            for request in source.all_requests():
                target = self._migration_target(source_id, request)
                if target is None:
                    continue
                if self.tracer is not None:
                    self.tracer.emit(
                        now, EventKind.MIGRATE, request.request_id, source_id,
                        target=target,
                    )
                source.cancel(request.request_id, requeue=True)
                self.engines[target].place(request, now)
                moved += 1
                self.num_migrations += 1
                if self.migration_hook is not None:
                    self.migration_hook(request, source_id, target)
        return moved

    def _migration_target(self, source_id: str, request: Request) -> "str | None":
        """Busiest other GPU *of the source's role* that can absorb the
        request and is busier than the source (otherwise migrating would
        un-consolidate). The role-equality requirement makes consolidation
        role-aware: in a disaggregated pool requests consolidate within
        their role pool instead of leaking across the prefill/decode
        split (colocated pools all carry role ``"both"``, so the check is
        an identity there)."""
        source = self.engines[source_id]
        source_role = getattr(source, "role", "both")
        return self._first_fit(
            [
                (e.working_set_size, self._adapter_locality(e, request), gid)
                for gid, e in self.engines.items()
                if gid != source_id
                and getattr(e, "role", "both") == source_role
                and e.working_set_size > source.working_set_size
            ],
            request,
        )

    # ------------------------------------------------------------------
    def _max_batch_size(self) -> int:
        """Largest engine batch size, falling back to the paper default
        when no engine exposes ``.config`` (the empty-generator ValueError
        this used to raise took down consolidation under test doubles)."""
        return max(
            (
                e.config.max_batch_size
                for e in self.engines.values()
                if hasattr(e, "config")
            ),
            default=DEFAULT_MAX_BATCH_SIZE,
        )

    def scaling_hint(self) -> str:
        """Cloud elasticity signal (§5.1): grow, shrink, or hold the pool."""
        max_bs = self._max_batch_size()
        light = [
            e for e in self.engines.values()
            if e.working_set_size < self.config.light_load_fraction * max_bs
        ]
        if not light or self.queue_depth > 0:
            return "scale-up"
        if self.idle_gpus():
            return "scale-down"
        return "hold"
