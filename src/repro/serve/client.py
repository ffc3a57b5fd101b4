"""Asyncio load-generation client for the serving frontend.

:class:`ServeClient` is one TCP connection speaking
:mod:`repro.serve.protocol`; :class:`LoadGenerator` drives hundreds of
them concurrently from a :class:`LoadSpec` — the tool behind the
acceptance smoke (≥100 concurrent streaming connections against the
time-warped simulator) and its two adversarial variants:

* **cancellation storms** — a seeded fraction of clients cancels
  mid-stream after a few tokens (or disconnects without the courtesy
  :class:`~repro.serve.protocol.CancelOp` at all), exercising the
  disconnect-to-eviction path under concurrency;
* **slow readers** — a seeded fraction lags between reads, proving a
  stalled client backpressures only its own connection while the backend
  keeps streaming everyone else.

Nothing here waits on the wall clock. Slow readers *yield the event
loop* a configured number of times between reads instead of sleeping,
and staggered starts are chained connection waves (wave k+1 is released
when wave k has connected) instead of timed delays — so load runs are
insensitive to machine load and timing margins never flake
(tests/test_serve_async.py's deflake contract).

Everything random is drawn from one seeded RNG at spec-expansion time, so
a load run's *request mix* is reproducible even though asyncio
interleaving is not (the invariant-based assertions in
tests/test_serve_async.py don't need it to be).
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field

from repro.serve.protocol import (
    MAX_FRAME_BYTES,
    AcceptedFrame,
    CancelOp,
    EndFrame,
    ErrorFrame,
    GenerateOp,
    TokenFrame,
    decode_frame,
    encode_frame,
)
from repro.utils.rng import new_rng


async def yield_loop(times: int) -> None:
    """Cede the event loop ``times`` times without touching the wall clock.

    The event-driven replacement for ``asyncio.sleep(delay)`` in load
    plans: every ready task (other clients, the server, the bridge pump)
    gets ``times`` chances to run before the caller proceeds, however
    loaded the machine is.
    """
    for _ in range(times):
        await asyncio.sleep(0)


class ServeClient:
    """One client connection; supports sequential streaming requests."""

    def __init__(self, host: str, port: int):
        self.host = host
        self.port = port
        self._reader: "asyncio.StreamReader | None" = None
        self._writer: "asyncio.StreamWriter | None" = None

    async def connect(self) -> None:
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port, limit=MAX_FRAME_BYTES
        )

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._writer = None

    async def abort(self) -> None:
        """Hard disconnect: drop the socket with no CancelOp (the rude
        client the disconnect-propagation path exists for)."""
        if self._writer is not None:
            self._writer.transport.abort()
            self._writer = None

    async def send(self, frame) -> None:
        self._writer.write(encode_frame(frame))
        await self._writer.drain()

    async def read_frame(self):
        """Next server frame, or ``None`` on EOF."""
        line = await self._reader.readline()
        if not line:
            return None
        return decode_frame(line)

    async def generate(
        self,
        op: GenerateOp,
        cancel_after: "int | None" = None,
        read_yields: int = 0,
    ) -> "ClientResult":
        """Run one generation to completion (or cancellation).

        ``cancel_after=N`` sends a :class:`CancelOp` once N tokens have
        arrived; ``read_yields`` cedes the event loop that many times
        between reads (a slow reader, without wall-clock sleeps).
        """
        loop = asyncio.get_running_loop()
        start = loop.time()
        await self.send(op)
        result = ClientResult(request_id=op.request_id, tenant=op.effective_tenant)
        cancel_sent = False
        while True:
            frame = await self.read_frame()
            if frame is None:
                result.status = "disconnected"
                break
            if isinstance(frame, AcceptedFrame):
                result.request_id = frame.request_id
                continue
            if isinstance(frame, ErrorFrame):
                result.status = "shed" if frame.code == 429 else "error"
                result.reason = frame.reason
                break
            if frame.request_id != result.request_id:
                continue  # a frame for another stream on this connection
            if isinstance(frame, TokenFrame):
                if result.num_tokens == 0:
                    result.ttfb = loop.time() - start
                result.num_tokens += 1
                result.tokens.append(frame.token)
                if (
                    cancel_after is not None
                    and not cancel_sent
                    and result.num_tokens >= cancel_after
                ):
                    await self.send(CancelOp(request_id=result.request_id))
                    cancel_sent = True
                if read_yields > 0:
                    await yield_loop(read_yields)
                continue
            if isinstance(frame, EndFrame):
                result.status = frame.status
                break
        result.duration = loop.time() - start
        return result


@dataclass
class ClientResult:
    """Outcome of one client request, as the client observed it."""

    request_id: str = ""
    tenant: str = ""
    status: str = "pending"
    """finished | cancelled | failed | shed | error | disconnected."""
    reason: str = ""
    num_tokens: int = 0
    tokens: "list[int]" = field(default_factory=list)
    ttfb: "float | None" = None
    """Wall seconds from send to first token frame."""
    duration: float = 0.0


@dataclass(frozen=True)
class LoadSpec:
    """Shape of one load-generation run (expanded deterministically)."""

    num_clients: int = 100
    tenants: "tuple[str, ...]" = ("tenant-a", "tenant-b", "tenant-c")
    lora_ids: "tuple[str, ...]" = ("lora-0", "lora-1", "lora-2", "lora-3")
    prompt_len: "tuple[int, int]" = (8, 64)
    """Inclusive (lo, hi) range prompts are drawn from."""
    response_len: "tuple[int, int]" = (4, 32)
    cancel_fraction: float = 0.0
    """Fraction of clients that cancel after ``cancel_after`` tokens."""
    cancel_after: int = 2
    abort_fraction: float = 0.0
    """Fraction that hard-disconnect (no CancelOp) after ``cancel_after``
    tokens — the rude variant of a cancellation storm."""
    slow_fraction: float = 0.0
    """Fraction of clients that lag between reads (slow readers)."""
    slow_yields: int = 20
    """Event-loop yields a slow reader cedes between token reads — the
    load-insensitive replacement for a wall-clock read delay."""
    stagger: int = 0
    """Stagger starts in connection waves of this size: wave k+1 is
    released once every client in wave k has connected (0 = all at once).
    Event-driven; no timed ramp, so no wall-clock sensitivity."""
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_clients < 1:
            raise ValueError("num_clients must be >= 1")
        if self.slow_yields < 0 or self.stagger < 0:
            raise ValueError("slow_yields and stagger must be >= 0")
        for frac in (self.cancel_fraction, self.abort_fraction, self.slow_fraction):
            if not 0.0 <= frac <= 1.0:
                raise ValueError(f"fractions must be in [0, 1], got {frac}")


@dataclass(frozen=True)
class _ClientPlan:
    index: int
    op: GenerateOp
    cancel_after: "int | None"
    abort_after: "int | None"
    read_yields: int


def expand_plans(spec: LoadSpec) -> "list[_ClientPlan]":
    """Deterministically expand a spec into per-client plans."""
    rng = new_rng(spec.seed)
    plans = []
    for i in range(spec.num_clients):
        op = GenerateOp(
            request_id=f"load-{spec.seed}-{i:05d}",
            tenant=spec.tenants[int(rng.integers(len(spec.tenants)))],
            lora_id=spec.lora_ids[int(rng.integers(len(spec.lora_ids)))],
            prompt_len=int(rng.integers(spec.prompt_len[0], spec.prompt_len[1] + 1)),
            response_len=int(
                rng.integers(spec.response_len[0], spec.response_len[1] + 1)
            ),
        )
        roll = float(rng.random())
        cancel_after = abort_after = None
        if roll < spec.cancel_fraction:
            cancel_after = spec.cancel_after
        elif roll < spec.cancel_fraction + spec.abort_fraction:
            abort_after = spec.cancel_after
        read_yields = (
            spec.slow_yields if float(rng.random()) < spec.slow_fraction else 0
        )
        plans.append(
            _ClientPlan(
                index=i, op=op, cancel_after=cancel_after,
                abort_after=abort_after, read_yields=read_yields,
            )
        )
    return plans


class LoadGenerator:
    """Run a :class:`LoadSpec` against a serving frontend, concurrently."""

    def __init__(self, host: str, port: int, spec: "LoadSpec | None" = None):
        self.host = host
        self.port = port
        self.spec = spec or LoadSpec()

    async def run(self) -> "list[ClientResult]":
        plans = expand_plans(self.spec)
        gates = self._wave_gates(len(plans))
        return list(
            await asyncio.gather(
                *(self._run_client(p, g) for p, g in zip(plans, gates))
            )
        )

    def _wave_gates(self, n: int) -> "list[tuple[asyncio.Event | None, object | None]]":
        """Per-client (wait-for, mark-connected) pairs for staggered starts.

        Wave ``k``'s event fires when every client of wave ``k - 1`` has
        connected — a causal chain, not a timer, so the stagger shape is
        identical on an idle laptop and a saturated CI runner.
        """
        stagger = self.spec.stagger
        if stagger <= 0 or n <= stagger:
            return [(None, None)] * n
        waves = [list(range(i, min(i + stagger, n))) for i in range(0, n, stagger)]
        events = [asyncio.Event() for _ in waves]
        gates: "list[tuple[asyncio.Event | None, object | None]]" = [None] * n
        for w, members in enumerate(waves):
            remaining = {"count": len(members)}
            release = events[w]

            def connected(remaining=remaining, release=release) -> None:
                remaining["count"] -= 1
                if remaining["count"] == 0:
                    release.set()

            wait = events[w - 1] if w > 0 else None
            for i in members:
                gates[i] = (wait, connected)
        return gates

    async def _run_client(
        self,
        plan: "_ClientPlan",
        gate: "tuple[asyncio.Event | None, object | None]" = (None, None),
    ) -> ClientResult:
        wait, connected = gate
        if wait is not None:
            await wait.wait()
        client = ServeClient(self.host, self.port)
        try:
            await client.connect()
        finally:
            # Release the next wave even on a failed connect — a single
            # refused socket must not deadlock the rest of the load run.
            if connected is not None:
                connected()
        try:
            if plan.abort_after is not None:
                return await self._run_aborting(client, plan)
            return await client.generate(
                plan.op,
                cancel_after=plan.cancel_after,
                read_yields=plan.read_yields,
            )
        finally:
            await client.close()

    async def _run_aborting(
        self, client: ServeClient, plan: "_ClientPlan"
    ) -> ClientResult:
        """Stream until ``abort_after`` tokens, then drop the socket."""
        result = ClientResult(
            request_id=plan.op.request_id, tenant=plan.op.effective_tenant
        )
        await client.send(plan.op)
        while True:
            frame = await client.read_frame()
            if frame is None:
                result.status = "disconnected"
                return result
            if isinstance(frame, ErrorFrame):
                result.status = "shed" if frame.code == 429 else "error"
                result.reason = frame.reason
                return result
            if isinstance(frame, TokenFrame):
                result.num_tokens += 1
                result.tokens.append(frame.token)
                if result.num_tokens >= plan.abort_after:
                    await client.abort()
                    result.status = "aborted"
                    return result
            elif isinstance(frame, EndFrame):
                # Finished before we got around to aborting.
                result.status = frame.status
                return result


def summarize(results: "list[ClientResult]") -> "dict[str, object]":
    """Aggregate a load run into the numbers the CLI prints."""
    by_status: "dict[str, int]" = {}
    for r in results:
        by_status[r.status] = by_status.get(r.status, 0) + 1
    ttfbs = sorted(r.ttfb for r in results if r.ttfb is not None)
    mid = len(ttfbs) // 2
    return {
        "clients": len(results),
        "by_status": dict(sorted(by_status.items())),
        "tokens": sum(r.num_tokens for r in results),
        "ttfb_p50": ttfbs[mid] if ttfbs else None,
        "ttfb_max": ttfbs[-1] if ttfbs else None,
    }
