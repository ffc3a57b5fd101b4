"""Disaggregated prefill/decode serving: the paged KV handoff.

:class:`KvHandoff` is what a
:class:`~repro.cluster.simulator.ClusterSimulator` composes when it is
built with ``handoff=DisaggConfig(...)`` over role-typed engines
(``GpuEngine(role="prefill" | "decode")``). It gives requests a
two-stage lifecycle (InfiniLoRA-style):

1. **Prefill** — new and re-queued requests route onto the *prefill pool*
   only (the scheduler's pack rule, restricted by engine role).
2. **Handoff** — the moment a request's prefill invocation completes, its
   paged KvCache is exported and a point-to-point transfer is scheduled,
   priced by :meth:`~repro.hw.interconnect.InterconnectSpec.transfer_time`
   over the configured link. The transfer is a real event-loop event, and
   the merge lane stands down under ``handoff=``: every engine steps one
   event at a time, so steps and transfers interleave in event order.
3. **Decode admission** — on arrival the request is admitted onto the
   decode GPU the scheduler's ``route_decode`` picks (adapter locality
   under the pack scheduler, ITL headroom under the SLO router); if none
   can admit it, it waits in a decode queue drained as decode capacity
   frees up, in the order and under the blocking/expiry rules the
   scheduler states (``decode_queue_key`` / ``decode_head_blocks`` /
   ``shed_if_expired``).

Backpressure falls back to colocated mode: when the decode pool is
saturated (queue + in-flight transfers at the configured bound) or gone,
a freshly prefilled request simply keeps decoding on its prefill GPU.

The first generated token travels with the KV pages — the decode GPU
delivers it with its first decode step (Splitwise-style accounting), so
time-to-first-token includes the handoff cost for transferred requests.

The transfer carries the backend's payload with the accounting: on the
functional backend the K/V rows themselves, written back on import, so
decode attends over the prefill GPU's history.

Fault story: a ``KV_TRANSFER_FAIL`` loses one in-flight handoff and its
payload; the request drops its KV copy and re-enters through the §5.3
evict + re-prefill path. A decode-pool GPU crash re-places its requests
through the prefill pool; if the whole decode pool dies, waiting
handoffs fall back to re-prefill too.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.disagg.config import DisaggConfig
from repro.cluster.events import EventHandle
from repro.cluster.faults import FaultSpec
from repro.obs.tracer import EventKind
from repro.runtime.request import Request, RequestState


@dataclass
class _Transfer:
    """One paged KV handoff in flight over the interconnect."""

    request: Request
    kv_tokens: int
    payload: object
    """The backend's K/V payload (``None`` on a simulated backend)."""
    nbytes: float
    start: float
    source: str
    handle: EventHandle


class KvHandoff:
    """In-flight transfers, decode queue and colocated set of one
    role-split simulator."""

    def __init__(self, sim, config: DisaggConfig):
        engines = list(sim.scheduler.engines.values())
        for role in ("prefill", "decode"):
            if not any(getattr(e, "role", "both") == role for e in engines):
                raise ValueError(
                    f"disaggregated serving needs at least one {role} engine"
                )
        for engine in engines:
            if not hasattr(engine.backend, "kv_export"):
                raise TypeError(
                    f"engine {engine.gpu_id} backend lacks the KV handoff "
                    "interface (kv_export/kv_import)"
                )
        self.sim = sim
        self.config = config
        self.transfers: "dict[str, _Transfer]" = {}
        self.decode_queue: "list[tuple[float, int, Request, int, object]]" = []
        """Waiting handoffs in completion order: (ready time, seq,
        request, kv tokens, payload). The scheduler's discipline orders
        each drain pass."""
        self._seq = 0
        self.colocated: "set[str]" = set()
        """Requests decoding on their prefill GPU (backpressure fallback);
        never exported again."""
        sim.scheduler.migration_hook = self.on_migrate

    def on_migrate(self, request, source_id: str, target_id: str) -> None:
        """Role-aware consolidation moved a request (§5.3 re-prefill on
        the target): its old colocation decision dies with its KvCache —
        after the move it is a fresh prefill on the target and eligible
        for export (or a fresh fallback decision) there."""
        self.colocated.discard(request.request_id)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def transfers_in_flight(self) -> int:
        return len(self.transfers)

    @property
    def decode_queue_depth(self) -> int:
        return sum(
            1 for _, _, r, _, _ in self.decode_queue if not r.state.is_terminal
        )

    def work_remaining(self) -> bool:
        return bool(self.transfers) or self.decode_queue_depth > 0

    def _decode_pool_alive(self) -> bool:
        scheduler = self.sim.scheduler
        return any(
            scheduler._decode_capable(e) and getattr(e, "alive", True)
            for e in scheduler.engines.values()
        )

    def _decode_saturated(self) -> bool:
        backlog = len(self.transfers) + self.decode_queue_depth
        return (
            backlog >= self.config.decode_queue_limit
            or not self._decode_pool_alive()
        )

    # ------------------------------------------------------------------
    # Per-step: export finished prefills, drain the decode queue
    # ------------------------------------------------------------------
    def on_step(self, engine, report) -> None:
        if engine.role == "prefill":
            for rid in report.evicted:
                # An evicted request re-prefills from scratch; its old
                # colocation decision dies with its KvCache.
                self.colocated.discard(rid)
            for rid in report.finished:
                self.colocated.discard(rid)
            end = report.end
            for req in engine.all_requests():
                rid = req.request_id
                if (
                    req.needs_prefill
                    or rid in self.colocated
                    or req.state is not RequestState.RUNNING
                ):
                    continue
                if self._decode_saturated():
                    self.colocated.add(rid)
                    self.sim.metrics.record_colocated_fallback(report.start)
                    continue
                self._start_transfer(engine, rid, end)
        elif report.finished or report.evicted:
            # Decode capacity freed: admit waiting handoffs.
            self.drain(report.end)

    def _start_transfer(self, engine, request_id: str, now: float) -> None:
        sim = self.sim
        request, kv_tokens, payload = engine.export_request(request_id, now)
        if request.num_generated == 1:
            # The prefill-produced token travels with the pages; the
            # decode GPU delivers it, so TTFT includes the handoff.
            request.first_token_time = None
        nbytes = engine.backend.kv_bytes_of(kv_tokens)
        duration = self.config.interconnect.transfer_time(nbytes)
        if sim.tracer is not None:
            sim.tracer.emit(
                now, EventKind.KV_TRANSFER_START, request_id, engine.gpu_id,
                nbytes=nbytes, duration=duration, kv_tokens=kv_tokens,
                link=self.config.interconnect.name,
            )
        handle = sim.loop.schedule(
            now + duration, self._make_transfer_done(request_id)
        )
        self.transfers[request_id] = _Transfer(
            request=request, kv_tokens=kv_tokens, payload=payload, nbytes=nbytes,
            start=now, source=engine.gpu_id, handle=handle,
        )

    def _make_transfer_done(self, request_id: str):
        def transfer_done(now: float) -> None:
            sim = self.sim
            tr = self.transfers.pop(request_id)
            sim.metrics.record_kv_transfer(now, now - tr.start, tr.nbytes)
            if sim.tracer is not None:
                sim.tracer.emit(
                    now, EventKind.KV_TRANSFER_DONE, request_id, tr.source,
                    nbytes=tr.nbytes,
                )
            req = tr.request
            if req.state.is_terminal:
                return
            self.decode_queue.append((now, self._seq, req, tr.kv_tokens, tr.payload))
            self._seq += 1
            handled = self.drain(now)
            if request_id not in handled and sim.tracer is not None:
                sim.tracer.emit(
                    now, EventKind.QUEUE, request_id, reason="decode_wait",
                    depth=self.decode_queue_depth,
                )

        return transfer_done

    def drain(self, now: float) -> "list[str]":
        """Admit waiting handoffs in the scheduler's decode-queue order;
        returns the ids that left the queue. With the decode pool gone
        entirely, waiters fall back to the §5.3 re-prefill path instead
        of starving."""
        handled: "list[str]" = []
        if not self.decode_queue:
            return handled
        sim = self.sim
        scheduler = sim.scheduler
        waiting = [e for e in self.decode_queue if not e[2].state.is_terminal]
        self.decode_queue = []
        if not self._decode_pool_alive():
            victims = [req for _, _, req, _, _ in waiting]
            self._reprefill(victims, now, "decode_pool_lost")
            return [req.request_id for req in victims]
        waiting.sort(key=lambda e: scheduler.decode_queue_key(e[2], e[0], e[1]))
        blocked = False
        for entry in waiting:
            _, _, req, kv_tokens, payload = entry
            if blocked:
                self.decode_queue.append(entry)
                continue
            if scheduler.shed_if_expired(req, now):
                handled.append(req.request_id)
                continue
            gpu = scheduler.route_decode(req, kv_tokens)
            if gpu is None:
                self.decode_queue.append(entry)
                blocked = scheduler.decode_head_blocks
                continue
            scheduler.engines[gpu].import_request(req, kv_tokens, payload, now)
            handled.append(req.request_id)
            sim._kick(gpu, now)
        self.decode_queue.sort()  # kept waiters back in completion order
        return handled

    # ------------------------------------------------------------------
    # Cancellation and faults
    # ------------------------------------------------------------------
    def abort_transfer(self, request: Request) -> bool:
        """Cancel a request caught mid-transfer: disarm the completion
        event (the pages are dropped on arrival). Returns False when the
        request is not in flight and the general cancel path applies."""
        self.colocated.discard(request.request_id)
        tr = self.transfers.pop(request.request_id, None)
        if tr is None:
            return False
        tr.handle.cancel()
        request.mark_cancelled()
        return True

    def fail_transfer(self, spec: FaultSpec, now: float) -> "tuple[str | None, bool]":
        """Lose one in-flight handoff (``KV_TRANSFER_FAIL``)."""
        sim = self.sim
        candidates = [
            rid
            for rid, tr in self.transfers.items()
            if not tr.request.state.is_terminal
        ]
        rid = sim.fault_injector.pick_transfer(candidates)
        if rid is None:
            return None, False
        tr = self.transfers.pop(rid)
        tr.handle.cancel()
        sim.metrics.record_fault(now)
        sim.metrics.record_kv_transfer_failure(now)
        self._reprefill([tr.request], now, "transfer_fail", tr.source)
        return tr.source, True

    def _reprefill(
        self, requests: "list[Request]", now: float, reason: str,
        gpu_id: "str | None" = None,
    ) -> None:
        """The handed-off KV is gone: drop the copies and re-enter through
        the §5.3 evict + re-prefill path."""
        sim = self.sim
        for req in requests:
            req.drop_kv()
            if sim.tracer is not None:
                sim.tracer.emit(
                    now, EventKind.QUEUE, req.request_id, gpu_id, reason=reason
                )
        sim._replace_requests(requests, now)
