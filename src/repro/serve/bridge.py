"""The backend bridge: the cluster simulator under asyncio.

:class:`SimulatorBridge` is the server's one surface onto the backend
(``start`` / ``stop`` / ``open`` / ``cancel``; ``open`` takes the
:class:`Outbox` that stream's wire bytes go on — one
:func:`~repro.serve.protocol.encode_tokens` per token chunk, one encoded
:class:`~repro.serve.protocol.EndFrame` last — the server's one outbox per
connection, streams told apart by ``request_id``). The discrete-event
loop advances in fixed virtual quanta from a pump coroutine; ``warp``
maps virtual seconds to wall seconds (``warp=60`` replays a one-hour
trace in a minute, ``warp=None`` runs as fast as the event loop allows).
Client submissions and cancels land on the simulator at its current
virtual time, so admission control, traces and metrics are all stamped
with the backend clock.

The engines behind the simulator may simulate their tokens
(:class:`~repro.runtime.backend.SimulatedBackend`) or compute them
(:class:`~repro.runtime.backend.NumpyBackend`, real argmax ids from the
toy Llama); both are served through the same scheduler, frontend and
gateway. ``open`` reads what an op must fit off the served backends: the
KvCache size, and for a functional backend its adapter registry and
vocabulary.

The bridge is single-threaded asyncio: token callbacks fire inside the
pump coroutine, so ``Outbox.put`` needs no locking, and a slow reader only
ever blocks its own connection's writer task — the engine never waits on
a client socket (bytes buffer in the outbox, unbounded).
"""

from __future__ import annotations

import asyncio
import itertools

from repro.runtime.backend import NumpyBackend
from repro.runtime.request import RequestState
from repro.serve.gateway import ServeGateway
from repro.serve.limits import Decision
from repro.serve.protocol import EndFrame, GenerateOp, encode_frame, encode_tokens
from repro.utils.rng import new_rng


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


def _kv_tokens(backend) -> int:
    """Tokens ``backend``'s whole KvCache holds."""
    kv = backend.kv_data if isinstance(backend, NumpyBackend) else backend.kv
    return kv.allocator.total_pages * kv.page_size


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
    ``seed`` draws the prompt ids of ops that carry none, when the engines
    compute real tokens.
    """

    def __init__(
        self,
        gateway: ServeGateway,
        warp: "float | None" = None,
        quantum: float = 0.05,
        seed: int = 0,
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
        self._rng = new_rng(seed)
        backends = [
            e.backend for e in gateway.simulator.scheduler.engines.values()
        ]
        self._kv_tokens = max(map(_kv_tokens, backends))
        """The longest request (prompt plus response) an engine can hold."""
        self._functional = next(
            (b for b in backends if isinstance(b, NumpyBackend)), None
        )
        """A served backend that computes real tokens: the adapter
        registry and vocabulary an op must fit. ``None`` when the engines
        simulate their tokens."""

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

        Raises :class:`RefusedOp` for an op no engine could serve, which
        would otherwise queue forever or fail inside the pump every stream
        depends on: one longer (prompt plus response) than every engine's
        KvCache (400) or, on a functional backend, naming an adapter its
        registry lacks (404) or a prompt id outside its vocabulary (400).
        Raises :class:`DuplicateRequestId` for an id the frontend has
        already seen (it keeps every handle, finished ones included). A
        functional op without prompt ids gets ``prompt_len`` seeded ones,
        drawn in open order.
        """
        if op.prompt_len + op.response_len > self._kv_tokens:
            raise RefusedOp(
                400, f"prompt_len + response_len must be <= {self._kv_tokens}"
            )
        prompt = op.prompt_tokens
        functional = self._functional
        if functional is not None:
            registry = functional.registry
            if registry is not None and op.lora_id not in registry:
                raise RefusedOp(404, "unknown adapter")
            vocab = functional.config.vocab_size
            if prompt is not None and max(prompt) >= vocab:
                raise RefusedOp(400, f"prompt token ids must be < {vocab}")
        taken = self.gateway.frontend.has_request
        rid = op.request_id
        if not rid:
            while taken(rid := f"sv-{next(self._ids):05d}"):
                pass
        elif taken(rid):
            raise DuplicateRequestId()
        rng_state = None
        if prompt is not None:
            prompt = list(prompt)
        elif functional is not None:
            rng_state = self._rng.bit_generator.state
            prompt = self._rng.integers(0, vocab, size=op.prompt_len).tolist()
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
            prompt_tokens=prompt,
            on_tokens=on_tokens,
        )
        if stream is None:
            if rng_state is not None:
                # A shed op draws no ids: the streams after it keep the
                # prompts the same load gets when nothing is shed.
                self._rng.bit_generator.state = rng_state
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
