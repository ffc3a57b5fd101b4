"""Backend bridges: one asyncio-facing interface over either engine.

The serving frontend runs against two very different backends through one
small surface (``start`` / ``stop`` / ``open`` / ``cancel``; ``open`` takes
the :class:`Outbox` that stream's wire bytes go on — one
:func:`~repro.serve.protocol.encode_tokens` per token chunk, one encoded
:class:`~repro.serve.protocol.EndFrame` last — the server's one outbox per
connection, streams told apart by ``request_id``):

* :class:`SimulatorBridge` — **time-warped cluster simulation**. The
  discrete-event loop advances in fixed virtual quanta from a pump
  coroutine; ``warp`` maps virtual seconds to wall seconds (``warp=60``
  replays a one-hour trace in a minute, ``warp=None`` runs as fast as the
  event loop allows). Client submissions and cancels land on the
  simulator at its current virtual time, so admission control, traces and
  metrics are all stamped with the backend clock.
* :class:`FunctionalBridge` — **real tokens** from a
  :class:`~repro.runtime.engine.GpuEngine` over the NumPy model. The pump
  steps the engine FCFS (same admission discipline as
  :func:`repro.runtime.serve.serve_requests`) and streams each generated
  token id the step it appears.

Both bridges are single-threaded asyncio: token callbacks fire inside the
pump coroutine, so ``Outbox.put`` needs no locking, and a slow reader only
ever blocks its own connection's writer task — the engine never waits on
a client socket (bytes buffer in the outbox, unbounded).
"""

from __future__ import annotations

import asyncio
import itertools
from collections import deque

from repro.runtime.request import Request, RequestState
from repro.serve.gateway import ServeGateway
from repro.serve.limits import AdmissionController, Decision
from repro.serve.metrics import ServeMetrics
from repro.serve.protocol import EndFrame, GenerateOp, encode_frame, encode_tokens
from repro.utils.rng import new_rng
from repro.workloads.trace import RequestSpec


class Outbox:
    """One connection's encoded frames, in order, until its writer takes
    them; ``open_ids`` are the streams admitted onto it whose end frame is
    not on it yet, which a disconnect cancels."""

    def __init__(self) -> None:
        self.chunks: "list[bytes]" = []
        self.open_ids: "set[str]" = set()
        self._ready = asyncio.Event()

    def put(self, data: bytes) -> None:
        self.chunks.append(data)
        self._ready.set()

    def end(self, request_id: str, data: bytes) -> None:
        self.open_ids.discard(request_id)
        self.put(data)

    async def take(self) -> bytes:
        """Wait until something is put, then take all of it as one buffer."""
        await self._ready.wait()
        self._ready.clear()
        chunks, self.chunks = self.chunks, []
        return b"".join(chunks)


class RefusedOp(ValueError):
    """``open`` refused a :class:`GenerateOp` before admission: no slot is
    taken and nothing is counted or traced. The server answers
    ``ErrorFrame(request_id, code, reason)``."""

    def __init__(self, code: int, reason: str):
        super().__init__(reason)
        self.code = code
        self.reason = reason


class DuplicateRequestId(RefusedOp):
    """``open`` was given a ``request_id`` the bridge already knows."""

    def __init__(self) -> None:
        super().__init__(409, "duplicate request id")


def _claim_id(requested: str, taken, ids, prefix: str) -> str:
    """``requested`` when it is free; with none requested, the next
    auto-assigned ``prefix-NNNNN`` id nobody has taken."""
    if requested:
        if taken(requested):
            raise DuplicateRequestId()
        return requested
    while taken(rid := f"{prefix}-{next(ids):05d}"):
        pass
    return rid


def _terminal_status(state: RequestState, cancelled: bool) -> str:
    """The end frame's status; a client-side cancel wins over the state."""
    if cancelled or state is RequestState.CANCELLED:
        return "cancelled"
    return "finished" if state is RequestState.FINISHED else "failed"


class SimulatorBridge:
    """Pump the cluster simulator's virtual clock under asyncio.

    ``quantum`` is the virtual-time slice advanced per pump iteration;
    ``warp`` is virtual seconds per wall second (``None`` = unthrottled).
    With a ``warp`` the pump keeps ticking even when idle so token buckets
    refill in virtual time; unthrottled, it parks on a wake event until
    the next submission (the virtual clock freezes while truly idle).
    """

    def __init__(
        self,
        gateway: ServeGateway,
        warp: "float | None" = None,
        quantum: float = 0.05,
    ):
        if warp is not None and warp <= 0:
            raise ValueError(f"warp must be positive, got {warp}")
        if quantum <= 0:
            raise ValueError(f"quantum must be positive, got {quantum}")
        self.gateway = gateway
        self.warp = warp
        self.quantum = float(quantum)
        self._outboxes: "dict[str, Outbox]" = {}
        self._wake: "asyncio.Event | None" = None
        self._task: "asyncio.Task | None" = None
        self._ids = itertools.count()

    # ------------------------------------------------------------------
    @property
    def simulator(self):
        return self.gateway.simulator

    @property
    def now(self) -> float:
        """The backend (virtual) clock."""
        return self.simulator.now

    async def start(self) -> None:
        if self._task is not None:
            raise RuntimeError("bridge already started")
        self._wake = asyncio.Event()
        self._task = asyncio.create_task(self._pump())

    async def stop(self) -> None:
        """Stop the pump and cancel every still-open stream."""
        if self._task is None:
            return
        task, self._task = self._task, None
        task.cancel()
        try:
            await task
        except asyncio.CancelledError:
            pass
        for stream in self.gateway.drain(self.now):
            self._push_end(stream)

    # ------------------------------------------------------------------
    def open(
        self, op: GenerateOp, outbox: "Outbox | None" = None
    ) -> "tuple[str, Outbox | None, Decision]":
        """Admit one :class:`GenerateOp` at the current virtual time.

        Returns ``(request_id, outbox, decision)``: the outbox the stream's
        bytes go on (its own when none is given), or ``None`` when shed.
        Raises :class:`DuplicateRequestId` for an id the frontend has
        already seen (it keeps every handle, finished ones included).
        """
        rid = _claim_id(
            op.request_id, self.gateway.frontend.has_request, self._ids, "sv"
        )
        now = self.now
        if outbox is None:
            outbox = Outbox()
        index = 0

        def on_tokens(_rid: str, tokens, times) -> None:
            # Metrics accounting already happened inside the gateway's own
            # wrapped callback; this layer only feeds the stream's outbox.
            nonlocal index
            outbox.put(encode_tokens(rid, index, tokens, times))
            index += len(tokens)

        stream, decision = self.gateway.open(
            tenant=op.effective_tenant,
            lora_id=op.lora_id,
            prompt_len=op.prompt_len,
            response_len=op.response_len,
            now=now,
            request_id=rid,
            prompt_tokens=(
                list(op.prompt_tokens) if op.prompt_tokens is not None else None
            ),
            on_tokens=on_tokens,
        )
        if stream is None:
            return rid, None, decision
        outbox.open_ids.add(rid)
        self._outboxes[rid] = outbox
        if self._wake is not None:
            self._wake.set()
        return rid, outbox, decision

    def cancel(self, request_id: str) -> bool:
        """Client cancel/disconnect; False when the id is unknown."""
        stream = self.gateway._streams.get(request_id)
        if stream is None:
            return False
        self.gateway.client_close(request_id, self.now)
        self._push_end(stream)
        if self._wake is not None:
            self._wake.set()
        return True

    # ------------------------------------------------------------------
    def _push_end(self, stream) -> None:
        outbox = self._outboxes.pop(stream.request_id, None)
        if outbox is None:
            return
        outbox.end(stream.request_id, encode_frame(EndFrame(
            request_id=stream.request_id,
            status=_terminal_status(stream.handle.state, stream.cancelled),
            num_tokens=stream.tokens_streamed,
        )))

    async def _pump(self) -> None:
        sim = self.simulator
        gateway = self.gateway
        while True:
            if self.warp is None and not sim.work_remaining():
                for stream in gateway.poll(sim.now):
                    self._push_end(stream)
                if not gateway.open_streams():
                    self._wake.clear()
                    if not sim.work_remaining() and not gateway.open_streams():
                        await self._wake.wait()
                    continue
            sim.loop.run(until=sim.now + self.quantum)
            for stream in gateway.poll(sim.now):
                self._push_end(stream)
            if self.warp is None:
                await asyncio.sleep(0)
            else:
                await asyncio.sleep(self.quantum / self.warp)


class _FuncStream:
    """FunctionalBridge-side state of one admitted stream."""

    __slots__ = (
        "request", "tenant", "outbox", "opened_at",
        "streamed", "cancelled", "ttfb_observed",
    )

    def __init__(self, request: Request, tenant: str, outbox, opened_at: float):
        self.request = request
        self.tenant = tenant
        self.outbox = outbox
        self.opened_at = opened_at
        self.streamed = 0
        self.cancelled = False
        self.ttfb_observed = False

    @property
    def request_id(self) -> str:
        return self.request.request_id


class FunctionalBridge:
    """Serve real token ids from one :class:`~repro.runtime.engine.GpuEngine`.

    The pump admits waiting requests FCFS (head blocks, matching
    :func:`repro.runtime.serve.serve_requests`) and advances the backend
    clock by each step's reported latency, so admission control runs on
    the same clock the engine's cost model produces. Prompts without
    explicit ``prompt_tokens`` get deterministic random ids from ``seed``.
    """

    def __init__(
        self,
        engine,
        controller: "AdmissionController | None" = None,
        metrics: "ServeMetrics | None" = None,
        vocab_size: int = 1000,
        seed: int = 0,
    ):
        self.engine = engine
        self.controller = controller or AdmissionController()
        self.metrics = metrics
        self.vocab_size = int(vocab_size)
        self._rng = new_rng(seed)
        self._clock = 0.0
        self._waiting: "deque[_FuncStream]" = deque()
        self._streams: "dict[str, _FuncStream]" = {}
        self._wake: "asyncio.Event | None" = None
        self._task: "asyncio.Task | None" = None
        self._ids = itertools.count()

    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        return self._clock

    async def start(self) -> None:
        if self._task is not None:
            raise RuntimeError("bridge already started")
        self._wake = asyncio.Event()
        self._task = asyncio.create_task(self._pump())

    async def stop(self) -> None:
        if self._task is None:
            return
        task, self._task = self._task, None
        task.cancel()
        try:
            await task
        except asyncio.CancelledError:
            pass
        for stream in list(self._streams.values()):
            stream.cancelled = True
            self._end_stream(stream)

    # ------------------------------------------------------------------
    def open(
        self, op: GenerateOp, outbox: "Outbox | None" = None
    ) -> "tuple[str, Outbox | None, Decision]":
        """Raises :class:`DuplicateRequestId` for the id of a stream that
        is still open, and :class:`RefusedOp` for an adapter the engine
        does not have (404) or a prompt id outside the vocabulary (400):
        either would fail only inside the pump, every stream with it."""
        registry = self.engine.backend.registry
        if registry is not None and op.lora_id not in registry:
            raise RefusedOp(404, "unknown adapter")
        if op.prompt_tokens is not None and max(op.prompt_tokens) >= self.vocab_size:
            raise RefusedOp(400, f"prompt token ids must be < {self.vocab_size}")
        rid = _claim_id(op.request_id, self._streams.__contains__, self._ids, "fn")
        now = self._clock
        if self.metrics is not None:
            self.metrics.record_connect(op.effective_tenant)
        decision = self.controller.admit(op.effective_tenant, now)
        if not decision.admitted:
            if self.metrics is not None:
                self.metrics.record_shed(op.effective_tenant, decision.value)
                self.metrics.record_disconnect()
            return rid, None, decision
        if op.prompt_tokens is not None:
            prompt = [int(t) for t in op.prompt_tokens]
        else:
            prompt = [
                int(t)
                for t in self._rng.integers(
                    0, self.vocab_size, size=op.prompt_len
                )
            ]
        spec = RequestSpec(
            request_id=rid,
            lora_id=op.lora_id,
            arrival_time=now,
            prompt_len=op.prompt_len,
            response_len=op.response_len,
        )
        stream = _FuncStream(
            request=Request(spec=spec, prompt_tokens=prompt),
            tenant=op.effective_tenant,
            outbox=outbox if outbox is not None else Outbox(),
            opened_at=now,
        )
        stream.outbox.open_ids.add(rid)
        self._streams[rid] = stream
        self._waiting.append(stream)
        if self.metrics is not None:
            self.metrics.record_admitted(op.effective_tenant)
        if self._wake is not None:
            self._wake.set()
        return rid, stream.outbox, decision

    def cancel(self, request_id: str) -> bool:
        stream = self._streams.get(request_id)
        if stream is None:
            return False
        stream.cancelled = True
        req = stream.request
        if self.engine.has_request(request_id):
            self.engine.cancel(request_id)
        elif not req.state.is_terminal:
            req.mark_cancelled()
        self._end_stream(stream)
        if self._wake is not None:
            self._wake.set()
        return True

    # ------------------------------------------------------------------
    def _end_stream(self, stream: _FuncStream) -> None:
        self._streams.pop(stream.request_id, None)
        self.controller.release(stream.tenant)
        stream.outbox.end(stream.request_id, encode_frame(EndFrame(
            request_id=stream.request_id,
            status=_terminal_status(stream.request.state, stream.cancelled),
            num_tokens=stream.streamed,
        )))
        if self.metrics is not None:
            self.metrics.record_end(stream.tenant, cancelled=stream.cancelled)
            self.metrics.record_disconnect()

    def _admit_waiting(self) -> None:
        """Place waiting requests FCFS; the head blocks (§5.1)."""
        while self._waiting:
            head = self._waiting[0]
            if head.request.state.is_terminal:
                self._waiting.popleft()
                continue
            if not self.engine.can_accept(head.request):
                break
            self._waiting.popleft()
            self.engine.add_request(head.request, self._clock)

    def _stream_step(self, report) -> None:
        """Frames for the tokens ``report``'s step committed, stamped with
        its end, then an end frame for each stream it finished. (Cancels
        and failures end their own streams.)"""
        end = report.end
        for rid, tokens in report.committed_tokens().items():
            stream = self._streams[rid]
            if self.metrics is not None:
                if not stream.ttfb_observed:
                    self.metrics.record_first_token(
                        max(0.0, end - stream.opened_at)
                    )
                self.metrics.record_tokens(len(tokens))
            stream.ttfb_observed = True
            stream.outbox.put(
                encode_tokens(rid, stream.streamed, tokens, (end,) * len(tokens))
            )
            stream.streamed += len(tokens)
        for rid in report.finished:
            self._end_stream(self._streams[rid])

    async def _pump(self) -> None:
        engine = self.engine
        while True:
            self._admit_waiting()
            report = engine.step(self._clock)
            if report is None:
                if engine.is_idle and self._waiting:
                    head = self._waiting[0].request
                    if not head.state.is_terminal and not engine.can_accept(head):
                        # Never admissible (e.g. prompt longer than the
                        # KvCache): fail it rather than wedge the queue.
                        stream = self._waiting.popleft()
                        stream.request.mark_failed(
                            "request cannot fit on the engine"
                        )
                        self._end_stream(stream)
                        continue
                if engine.is_idle and not self._waiting:
                    self._wake.clear()
                    if engine.is_idle and not self._waiting:
                        await self._wake.wait()
                    continue
                # Waiting on an in-flight adapter load.
                self._clock += 1e-3
                await asyncio.sleep(0)
                continue
            self._clock = report.end
            for rid in report.evicted:
                stream = self._streams.get(rid)
                if stream is not None:
                    self._waiting.appendleft(stream)
            self._stream_step(report)
            await asyncio.sleep(0)
