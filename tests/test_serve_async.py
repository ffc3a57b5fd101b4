"""End-to-end asyncio serving tests: the acceptance smoke for PR 6.

Every test here runs the full stack — asyncio TCP server, newline-framed
protocol, backend bridge, admission control — via :mod:`repro.serve.harness`
builders, driven by the load-generation client. ``REPRO_SERVE_SEED`` (CI
runs a small seed matrix) varies the request mix; assertions are
invariants, not golden values, because asyncio interleaving is not
reproducible even when the mix is.

The headline guarantees exercised:

* >= 100 concurrent streaming clients against the time-warped simulator;
* a client disconnect mid-stream reaches the engine as a CANCEL trace
  event with ``reason="disconnect"`` (both polite CancelOp and rude
  socket-abort variants);
* per-tenant rate limiting sheds the over-limit tenant without starving
  compliant ones;
* a slow reader backpressures only its own connection;
* the functional stack — the same simulator, gateway and bridge over
  NumPy engines — streams real, deterministic token ids.

No pytest-asyncio in the image: each test is a sync function running its
coroutine through :func:`run`, which also fails the test on anything the
event loop would have logged (a dead connection handler, a dead bridge
pump, "Task exception was never retrieved").
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import random

import pytest

from repro.cluster.simulator import ClusterSimulator
from repro.obs.tracer import EventKind
from repro.runtime.request import Request
from repro.serve.bridge import DuplicateRequestId, Outbox
from repro.serve.client import LoadSpec, ServeClient, expand_plans
from repro.serve.harness import (
    build_functional_stack,
    build_sim_stack,
    run_load,
)
from repro.serve.limits import TenantPolicy
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
from repro.workloads.trace import RequestSpec
from tests.test_serve_protocol import reference_encode

SEED = int(os.environ.get("REPRO_SERVE_SEED", "0"))


def collect_task_errors() -> "list[dict]":
    """Everything the loop would log ("Task exception was never
    retrieved", unhandled callback errors) lands in the returned list."""
    errors: "list[dict]" = []
    asyncio.get_running_loop().set_exception_handler(
        lambda _loop, context: errors.append(context)
    )
    return errors


def run(coro, loop_errors: "list[dict] | None" = None):
    """``asyncio.run(coro)``, failing on any context the loop would have
    logged. A test that expects some passes ``loop_errors`` and gets them
    appended there instead."""
    errors: "list[dict]" = []

    async def main():
        nonlocal errors
        errors = collect_task_errors()
        return await coro

    result = asyncio.run(main())
    gc.collect()  # an unretrieved task exception is logged on collection
    if loop_errors is None:
        assert errors == [], f"the event loop logged: {errors}"
    else:
        loop_errors.extend(errors)
    return result


def test_run_fails_on_what_the_loop_would_log():
    async def boom():
        raise RuntimeError("dead pump")

    async def orphan():
        asyncio.get_running_loop().create_task(boom())  # never awaited
        await asyncio.sleep(0)

    with pytest.raises(AssertionError, match="dead pump"):
        run(orphan())
    expected: "list[dict]" = []
    run(orphan(), loop_errors=expected)
    assert [repr(c["exception"]) for c in expected] == [
        "RuntimeError('dead pump')"
    ]


class TestConcurrentLoad:
    def test_hundred_concurrent_streaming_clients(self):
        """The acceptance floor: 100 clients stream concurrently against
        the simulator and every admitted stream runs to completion with
        exactly its requested number of tokens."""
        stack = build_sim_stack(warp=None)
        spec = LoadSpec(num_clients=100, seed=SEED)
        summary, results = run(run_load(stack, spec))
        assert summary["clients"] == 100
        assert summary["by_status"] == {"finished": 100}
        for plan, result in zip(expand_plans(spec), results):
            assert result.num_tokens == plan.op.response_len
        reg = stack.metrics.registry
        assert reg.get("serve_requests_finished_total").total() == 100
        assert reg.get("serve_tokens_streamed_total").total() == summary["tokens"]
        assert reg.get("serve_active_streams").total() == 0
        assert reg.get("serve_active_connections").total() == 0

    def test_token_frames_are_ordered_and_indexed(self):
        stack = build_sim_stack(warp=None)
        spec = LoadSpec(num_clients=16, seed=SEED)
        _, results = run(run_load(stack, spec))
        for result in results:
            assert result.status == "finished"
            assert result.num_tokens == len(result.tokens)


class TestCancellationStorm:
    def test_disconnect_mid_stream_reaches_engine_as_cancel(self):
        """A storm of mid-stream cancels (polite CancelOp) and rude socket
        aborts, over a time-warped simulator slow enough that responses
        are genuinely in flight when the disconnects land. Every cancel
        the client observed must appear at the engine boundary as a CANCEL
        trace event carrying ``reason="disconnect"``."""
        stack = build_sim_stack(warp=8.0, quantum=0.05)
        spec = LoadSpec(
            num_clients=100,
            response_len=(24, 48),
            cancel_fraction=0.15,
            abort_fraction=0.10,
            cancel_after=2,
            seed=SEED,
        )
        summary, results = run(run_load(stack, spec))
        by_status = summary["by_status"]
        assert by_status.get("finished", 0) > 0
        storm = by_status.get("cancelled", 0) + by_status.get("aborted", 0)
        assert storm > 0, f"no disconnects landed mid-stream: {by_status}"

        cancel_events = [
            e for e in stack.tracer.by_kind(EventKind.CANCEL)
            if e.attrs.get("reason") == "disconnect"
        ]
        cancelled_ids = {
            r.request_id for r in results if r.status in ("cancelled", "aborted")
        }
        traced_ids = {e.request_id for e in cancel_events}
        # Every client-observed cancellation that was still in flight shows
        # up at the engine; the engine never invents disconnects.
        assert traced_ids, "no CANCEL(reason=disconnect) reached the engine"
        assert traced_ids <= cancelled_ids
        # Exactly-once at the engine boundary.
        assert len(cancel_events) == len(traced_ids)

        reg = stack.metrics.registry
        assert reg.get("serve_client_cancels_total").total() == storm
        assert reg.get("serve_active_streams").total() == 0

    def test_cancelled_stream_stops_promptly(self):
        """After a CancelOp the client sees its EndFrame without having to
        drain the full response."""
        stack = build_sim_stack(warp=8.0)
        spec = LoadSpec(
            num_clients=12, response_len=(32, 48),
            cancel_fraction=1.0, cancel_after=2, seed=SEED,
        )
        _, results = run(run_load(stack, spec))
        for plan, result in zip(expand_plans(spec), results):
            if result.status == "cancelled":
                assert result.num_tokens < plan.op.response_len


class TestRateLimiting:
    def test_over_limit_tenant_sheds_without_starving_compliant(self):
        """One tenant gets a tight policy; the default stays permissive.
        The tight tenant is shed past its burst, the compliant tenants all
        finish, and sheds never consume engine capacity."""
        tight = TenantPolicy(rate=1.0, burst=3.0, max_inflight=4)
        stack = build_sim_stack(
            warp=None, tenant_policies={"greedy": tight},
        )
        spec = LoadSpec(
            num_clients=90,
            tenants=("greedy", "good-a", "good-b"),
            response_len=(4, 8),
            seed=SEED,
        )
        summary, results = run(run_load(stack, spec))
        shed = [r for r in results if r.status == "shed"]
        assert shed, "the greedy tenant was never shed"
        assert {r.tenant for r in shed} == {"greedy"}
        for r in results:
            if r.tenant != "greedy":
                assert r.status == "finished", (
                    f"compliant tenant starved: {r.tenant} -> {r.status}"
                )
        # Some greedy requests (the burst) do get through.
        assert any(
            r.tenant == "greedy" and r.status == "finished" for r in results
        )
        reg = stack.metrics.registry
        assert reg.get("serve_requests_shed_total").value(
            tenant="greedy", reason="rate_limited"
        ) == len(shed)
        # A shed connection never reached the scheduler: finished count
        # equals admitted count.
        assert (
            reg.get("serve_requests_finished_total").total()
            == reg.get("serve_requests_admitted_total").total()
        )


class TestSlowReaders:
    def test_slow_reader_does_not_stall_other_connections(self):
        """A fifth of the clients lag between reads (event-loop yields,
        not wall-clock sleeps — this test must not be load-sensitive).
        Everyone still finishes with a full response — the backend buffers
        into the slow streams' queues instead of blocking on their
        sockets."""
        stack = build_sim_stack(warp=None)
        spec = LoadSpec(
            num_clients=60, response_len=(4, 16),
            slow_fraction=0.2, slow_yields=40, seed=SEED,
        )
        summary, results = run(run_load(stack, spec))
        assert summary["by_status"] == {"finished": 60}
        for plan, result in zip(expand_plans(spec), results):
            assert result.num_tokens == plan.op.response_len


class TestStaggeredStarts:
    def test_wave_ramp_is_event_driven_and_completes(self):
        """Client starts chained in waves of 8: wave k+1 connects only
        after wave k has. The ramp shape comes from causality, not
        timers, so the test is immune to machine load; every admitted
        stream still finishes with its full response."""
        stack = build_sim_stack(warp=None)
        spec = LoadSpec(
            num_clients=48, response_len=(4, 12), stagger=8, seed=SEED,
        )
        summary, results = run(run_load(stack, spec))
        assert summary["by_status"] == {"finished": 48}
        for plan, result in zip(expand_plans(spec), results):
            assert result.num_tokens == plan.op.response_len
        reg = stack.metrics.registry
        assert reg.get("serve_active_connections").total() == 0


class TestFunctionalBackend:
    def test_streams_real_deterministic_tokens(self):
        """The functional NumPy backend serves real argmax token ids:
        identical prompts through the same adapter yield identical
        streams regardless of asyncio interleaving."""
        async def scenario():
            stack = build_functional_stack(seed=SEED)
            await stack.server.start()
            try:
                prompt = (1, 2, 3, 4, 5, 6, 7, 8)

                async def one(rid: str, lora: str):
                    client = ServeClient("127.0.0.1", stack.server.port)
                    await client.connect()
                    try:
                        return await client.generate(
                            GenerateOp(
                                request_id=rid, tenant="t", lora_id=lora,
                                prompt_len=len(prompt), response_len=6,
                                prompt_tokens=prompt,
                            )
                        )
                    finally:
                        await client.close()

                return await asyncio.gather(
                    one("fa", "lora-0"), one("fb", "lora-0"),
                    one("fc", "lora-1"),
                )
            finally:
                await stack.server.stop()

        a, b, c = run(scenario())
        for r in (a, b, c):
            assert r.status == "finished"
            assert len(r.tokens) == 6
            assert all(0 <= t < 128 for t in r.tokens)
        # Same prompt + same adapter => same tokens, independent of timing.
        assert a.tokens == b.tokens

    def test_functional_load_with_cancels(self):
        stack = build_functional_stack(seed=SEED)
        spec = LoadSpec(
            num_clients=24, prompt_len=(4, 12), response_len=(8, 16),
            cancel_fraction=0.25, cancel_after=2, seed=SEED,
        )
        summary, results = run(run_load(stack, spec))
        assert summary["clients"] == 24
        assert set(summary["by_status"]) <= {"finished", "cancelled"}
        assert summary["by_status"].get("finished", 0) > 0
        reg = stack.metrics.registry
        assert reg.get("serve_active_streams").total() == 0

    def test_streams_equal_the_greedy_oracle(self):
        """A seeded load through the stack's own bridge: 20 streams over 8
        batch slots, long enough to overrun the KvCache, one cancelled
        while queued and one mid-stream. Each finished stream's ids are
        the ones a one-engine simulator generates greedily for its prompt and
        adapter, every stream's indices run 0..n-1, and the token and
        TTFB metrics count exactly what was streamed."""
        stack, ops, frames = run(drive_functional_load(SEED))
        frontend = stack.bridge.gateway.frontend
        requests = {op.request_id: frontend.handle(op.request_id).request
                    for op in ops}
        # A KvCache eviction counts as a migration on the evicted request.
        assert sum(r.num_migrations for r in requests.values()) > 0
        ends = {rid: f[-1] for rid, f in frames.items()}
        assert all(isinstance(e, EndFrame) for e in ends.values())
        assert ends["f19"] == EndFrame(
            request_id="f19", status="cancelled", num_tokens=0
        )
        cancels = stack.tracer.by_kind(EventKind.CANCEL)
        assert [(e.request_id, e.gpu_id) for e in cancels] == [
            ("f19", None), ("f03", "gpu0")
        ]
        assert ends["f03"].status == "cancelled"
        assert 3 <= ends["f03"].num_tokens < requests["f03"].spec.response_len
        finished = [rid for rid, e in ends.items() if e.status == "finished"]
        assert len(finished) == len(ops) - 2

        oracle = build_functional_stack(seed=SEED).bridge.simulator
        replay = [
            Request(spec=RequestSpec(
                request_id=rid, lora_id=requests[rid].lora_id,
                arrival_time=0.0, prompt_len=requests[rid].spec.prompt_len,
                response_len=requests[rid].spec.response_len,
            ), prompt_tokens=list(requests[rid].prompt_tokens))
            for rid in finished
        ]
        ClusterSimulator([oracle.scheduler.engines["gpu0"]]).run(replay)
        for req in replay:
            tokens = frames[req.request_id][:-1]
            assert [f.token for f in tokens] == req.generated_tokens
        for rid, stream in frames.items():
            tokens = stream[:-1]
            assert [f.index for f in tokens] == list(range(len(tokens)))
            assert ends[rid].num_tokens == len(tokens)
        reg = stack.metrics.registry
        streamed = [f[:-1] for f in frames.values()]
        assert reg.get("serve_tokens_streamed_total").total() == sum(
            map(len, streamed)
        )
        assert reg.get("serve_ttfb_seconds").count == sum(map(bool, streamed))

    def test_streams_are_traced_and_a_dropped_connection_cancels(self):
        """Every functional stream is one CONNECT and one DISCONNECT in the
        stack's trace, and dropping a socket mid-stream reaches the engine
        as a CANCEL with ``reason="disconnect"``."""
        kept_ids = [f"kept-{k}" for k in range(4)]

        async def scenario():
            stack = build_functional_stack(seed=SEED)
            await stack.server.start()
            reg = stack.metrics.registry
            try:
                kept = await RawConnection.open(stack.server.port)
                dropped = await RawConnection.open(stack.server.port)
                for k, rid in enumerate(kept_ids):
                    kept.send(GenerateOp(
                        request_id=rid, tenant="t", lora_id=f"lora-{k}",
                        prompt_len=4, response_len=8,
                    ))
                dropped.send(GenerateOp(
                    request_id="dropped", tenant="t", lora_id="lora-0",
                    prompt_len=4, response_len=500,
                ))
                await dropped.read_until(streaming(["dropped"]))
                dropped.writer.transport.abort()
                await kept.read_until(ended(kept_ids))
                await kept.close()
                assert await settle(
                    lambda: reg.get("serve_active_connections").total() == 0
                )
            finally:
                await stack.server.stop()
            return stack

        stack = run(scenario())

        def conns(kind):
            return sorted(
                (e.attrs["conn"], e.attrs.get("cause"))
                for e in stack.tracer.by_kind(kind)
            )

        assert conns(EventKind.CONNECT) == sorted(
            (rid, None) for rid in kept_ids + ["dropped"]
        )
        assert conns(EventKind.DISCONNECT) == sorted(
            [(rid, "served") for rid in kept_ids] + [("dropped", "client")]
        )
        assert disconnect_cancels(stack) == ["dropped"]


async def drive_functional_load(seed: int):
    """A seeded load on one ``build_functional_stack`` bridge, no server:
    more streams than batch slots, long enough to overrun the KvCache,
    all on one outbox, none carrying prompt ids. ``f19`` is cancelled at
    the first token frame, still queued; ``f03`` after its third token.
    Returns the stack, the ops and each stream's decoded frames."""
    stack = build_functional_stack(seed=seed)
    bridge = stack.bridge
    rng = random.Random(seed)
    ops = [
        GenerateOp(
            request_id=f"f{k:02d}", tenant="t", lora_id=f"lora-{k % 4}",
            prompt_len=rng.randint(2, 24), response_len=rng.randint(60, 240),
        )
        for k in range(20)
    ]
    outbox = Outbox()
    frames = {op.request_id: [] for op in ops}
    for op in ops:
        bridge.open(op, outbox)
    await bridge.start()
    try:
        ended = 0
        queued_cancelled = False
        while ended < len(ops):
            data = await asyncio.wait_for(outbox.take(), 20.0)
            for line in data.splitlines(keepends=True):
                frame = decode_frame(line)
                frames[frame.request_id].append(frame)
                if isinstance(frame, EndFrame):
                    ended += 1
                    continue
                if not queued_cancelled:
                    queued_cancelled = bridge.cancel("f19")
                if frame.request_id == "f03" and frame.index == 2:
                    bridge.cancel("f03")
    finally:
        await bridge.stop()
    return stack, ops, frames


class TestServerProtocolErrors:
    def test_malformed_line_and_unknown_cancel(self):
        async def scenario():
            stack = build_sim_stack(warp=None)
            await stack.server.start()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", stack.server.port
                )
                writer.write(b"this is not json\n")
                await writer.drain()
                bad = decode_frame(await reader.readline())
                writer.write(encode_frame(CancelOp(request_id="ghost")))
                await writer.drain()
                missing = decode_frame(await reader.readline())
                writer.close()
                await writer.wait_closed()
                return bad, missing
            finally:
                await stack.server.stop()

        bad, missing = run(scenario())
        assert isinstance(bad, ErrorFrame) and bad.code == 400
        assert isinstance(missing, ErrorFrame) and missing.code == 404


# ---------------------------------------------------------------------------
# One writer per connection: what the bytes on the wire must look like
# ---------------------------------------------------------------------------
def build_stack(backend: str):
    if backend == "sim":
        return build_sim_stack(warp=None)
    return build_functional_stack(seed=SEED)


def capture_server_writes(stack) -> "list[bytes]":
    """Wrap every connection's ``writer.write`` (call before ``start``);
    the returned list grows by one buffer per server-side write."""
    writes: "list[bytes]" = []
    handle = stack.server._handle_connection

    async def captured(reader, writer):
        write = writer.write

        def capturing_write(data):
            writes.append(bytes(data))
            write(data)

        writer.write = capturing_write
        await handle(reader, writer)

    stack.server._handle_connection = captured
    return writes


async def settle(done, turns: int = 2000) -> bool:
    """Cede the loop until ``done()`` holds; False if it never did."""
    for _ in range(turns):
        if done():
            return True
        await asyncio.sleep(0)
    return done()


class RawConnection:
    """One socket to the server: operations out, undecoded lines in."""

    def __init__(self, reader, writer):
        self.reader, self.writer = reader, writer
        self.lines: "list[bytes]" = []

    @classmethod
    async def open(cls, port: int) -> "RawConnection":
        return cls(*await asyncio.open_connection(
            "127.0.0.1", port, limit=MAX_FRAME_BYTES
        ))

    def send(self, frame) -> None:
        self.writer.write(encode_frame(frame))

    async def read_until(self, done, timeout: float = 20.0) -> None:
        """Append lines until ``done(self.lines)`` holds (or EOF); a server
        silent for ``timeout`` seconds (a dead bridge pump) fails the test
        instead of hanging it."""
        while not done(self.lines):
            line = await asyncio.wait_for(self.reader.readline(), timeout)
            if not line:
                return
            self.lines.append(line)

    def by_stream(self) -> "dict[str, list[bytes]]":
        out: "dict[str, list[bytes]]" = {}
        for line in self.lines:
            out.setdefault(decode_frame(line).request_id, []).append(line)
        return out

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


def ended(rids):
    """``read_until`` predicate: every stream in ``rids`` saw its end."""
    want = len(rids)
    prefix = b'{"event":"end"'
    return lambda lines: sum(l.startswith(prefix) for l in lines) >= want


def streaming(rids):
    """``read_until`` predicate: every stream in ``rids`` has a token."""
    def done(lines) -> bool:
        seen = [decode_frame(line).request_id for line in lines]
        return all(seen.count(rid) >= 2 for rid in rids)
    return done


def disconnect_cancels(stack) -> "list[str]":
    """Request ids of the CANCEL(reason="disconnect") trace events."""
    return [
        e.request_id for e in stack.tracer.by_kind(EventKind.CANCEL)
        if e.attrs.get("reason") == "disconnect"
    ]


def assert_stream_lines(rid: str, lines: "list[bytes]", num_tokens: int) -> None:
    """One finished stream, byte for byte: accepted, tokens 0..n-1 in
    index order, end(num_tokens=n) — each line the canonical encoding."""
    frames = [decode_frame(line) for line in lines]
    assert [reference_encode(f) for f in frames] == lines
    assert frames[0] == AcceptedFrame(request_id=rid)
    tokens = frames[1:-1]
    assert all(isinstance(f, TokenFrame) for f in tokens)
    assert [f.index for f in tokens] == list(range(num_tokens))
    assert frames[-1] == EndFrame(
        request_id=rid, status="finished", num_tokens=num_tokens
    )


@pytest.mark.parametrize("backend", ["sim", "functional"])
class TestWireOrder:
    CONNECTIONS, STREAMS, TOKENS = 2, 8, 32

    def test_concurrent_streams_are_whole_ordered_and_coalesced(self, backend):
        async def scenario():
            stack = build_stack(backend)
            writes = capture_server_writes(stack)
            await stack.server.start()
            try:
                conns = [
                    await RawConnection.open(stack.server.port)
                    for _ in range(self.CONNECTIONS)
                ]
                rids = [
                    [f"c{c}-s{k}" for k in range(self.STREAMS)]
                    for c in range(self.CONNECTIONS)
                ]
                for conn, mine in zip(conns, rids):
                    for k, rid in enumerate(mine):
                        conn.send(GenerateOp(
                            request_id=rid, tenant="t", lora_id=f"lora-{k % 4}",
                            prompt_len=4, response_len=self.TOKENS,
                        ))
                await asyncio.gather(*(
                    conn.read_until(ended(mine))
                    for conn, mine in zip(conns, rids)
                ))
                for conn in conns:
                    await conn.close()
                return conns, rids, writes
            finally:
                await stack.server.stop()

        conns, rids, writes = run(scenario())
        frames = 0
        for conn, mine in zip(conns, rids):
            streams = conn.by_stream()
            # No line of the other connection's streams, none unaddressed.
            assert set(streams) == set(mine)
            for rid in mine:
                assert_stream_lines(rid, streams[rid], self.TOKENS)
            frames += len(conn.lines)
        assert frames == self.CONNECTIONS * self.STREAMS * (self.TOKENS + 2)
        assert sum(map(len, writes)) == sum(len(l) for c in conns for l in c.lines)
        if backend == "sim":
            # Everything ready in one loop turn is one write: a write per
            # frame (the per-stream writer this replaced) fails here.
            assert len(writes) <= frames // 2

    def test_polite_cancel_ends_the_stream_exactly_once(self, backend):
        async def scenario():
            stack = build_stack(backend)
            await stack.server.start()
            try:
                conn = await RawConnection.open(stack.server.port)
                conn.send(GenerateOp(
                    request_id="victim", tenant="t", lora_id="lora-0",
                    prompt_len=4, response_len=200,
                ))
                await conn.read_until(lambda lines: len(lines) >= 4)
                conn.send(CancelOp(request_id="victim"))
                # A second stream on the same socket, run to completion
                # after the cancel: anything the server still wrote for
                # the victim would arrive before this stream's end.
                conn.send(GenerateOp(
                    request_id="after", tenant="t", lora_id="lora-1",
                    prompt_len=4, response_len=8,
                ))
                await conn.read_until(ended(["victim", "after"]))
                await conn.close()
                return conn.by_stream()
            finally:
                await stack.server.stop()

        streams = run(scenario())
        victim = [decode_frame(line) for line in streams["victim"]]
        ends = [f for f in victim if isinstance(f, EndFrame)]
        assert len(ends) == 1 and ends[0].status == "cancelled"
        assert victim[-1] is ends[0], "a frame followed the end of the stream"
        tokens = [f for f in victim if isinstance(f, TokenFrame)]
        assert ends[0].num_tokens == len(tokens) < 200
        assert [f.index for f in tokens] == list(range(len(tokens)))
        assert_stream_lines("after", streams["after"], 8)


class TestDisconnectTopology:
    def test_aborted_connection_leaks_nothing_and_spares_the_survivor(self):
        """Abort a socket with 8 streams mid-burst while a second keeps
        streaming: the dead connection's streams are cancelled at the
        engine, its reader and writer tasks go away, the other connection
        never notices."""
        doomed_ids = [f"doomed-{k}" for k in range(8)]
        survivor_ids = [f"alive-{k}" for k in range(8)]

        async def scenario():
            before_start = len(asyncio.all_tasks())
            stack = build_sim_stack(warp=None)
            await stack.server.start()
            before_connect = len(asyncio.all_tasks())
            reg = stack.metrics.registry
            try:
                doomed = await RawConnection.open(stack.server.port)
                survivor = await RawConnection.open(stack.server.port)
                for k in range(8):
                    doomed.send(GenerateOp(
                        request_id=doomed_ids[k], tenant="t", lora_id="lora-0",
                        prompt_len=4, response_len=400,
                    ))
                    survivor.send(GenerateOp(
                        request_id=survivor_ids[k], tenant="t", lora_id="lora-1",
                        prompt_len=4, response_len=64,
                    ))
                # Mid-burst: every doomed stream has tokens on the wire.
                await doomed.read_until(streaming(doomed_ids))
                doomed.writer.transport.abort()
                await survivor.read_until(ended(survivor_ids))
                await survivor.close()
                assert await settle(
                    lambda: len(asyncio.all_tasks()) == before_connect
                ), "connection tasks outlived their sockets"
                assert reg.get("serve_active_streams").total() == 0
                assert reg.get("serve_active_connections").total() == 0
            finally:
                await stack.server.stop()
            await asyncio.sleep(0)
            assert len(asyncio.all_tasks()) == before_start
            return stack, survivor

        stack, survivor = run(scenario())
        streams = survivor.by_stream()
        assert set(streams) == set(survivor_ids)
        for rid in survivor_ids:
            assert_stream_lines(rid, streams[rid], 64)
        assert sorted(disconnect_cancels(stack)) == sorted(doomed_ids)


class TestFrameSizeBound:
    def test_frame_past_the_stream_reader_default_is_served(self):
        """A valid 118 KB GenerateOp (20 000 prompt ids) is well inside
        MAX_FRAME_BYTES; asyncio's 64 KiB default reader limit must not
        be what decides."""
        async def scenario():
            stack = build_sim_stack(warp=None)
            await stack.server.start()
            try:
                op = GenerateOp(
                    request_id="big", tenant="t", lora_id="lora-0",
                    prompt_len=20_000, response_len=3,
                    prompt_tokens=tuple(range(20_000)),
                )
                assert 65_536 < len(encode_frame(op)) < MAX_FRAME_BYTES
                client = ServeClient("127.0.0.1", stack.server.port)
                await client.connect()
                try:
                    return await client.generate(op)
                finally:
                    await client.close()
            finally:
                await stack.server.stop()

        result = run(scenario())
        assert result.status == "finished" and result.num_tokens == 3

    def test_line_past_the_bound_is_answered_and_the_connection_closed(self):
        async def scenario():
            stack = build_sim_stack(warp=None)
            await stack.server.start()
            reg = stack.metrics.registry
            try:
                conn = await RawConnection.open(stack.server.port)
                conn.send(GenerateOp(
                    request_id="open", tenant="t", lora_id="lora-0",
                    prompt_len=4, response_len=100_000,
                ))
                await conn.read_until(lambda lines: len(lines) >= 3)
                conn.writer.write(b"x" * (MAX_FRAME_BYTES + 16) + b"\n")
                await conn.read_until(lambda lines: False)  # to EOF
                await conn.close()
                await settle(
                    lambda: reg.get("serve_active_connections").total() == 0
                )
                return stack, conn.lines
            finally:
                await stack.server.stop()

        stack, lines = run(scenario())
        last = decode_frame(lines[-1])
        assert last == ErrorFrame(
            code=400, reason=f"frame exceeds {MAX_FRAME_BYTES} bytes"
        )
        assert not any(isinstance(decode_frame(l), EndFrame) for l in lines)
        reg = stack.metrics.registry
        assert reg.get("serve_active_streams").total() == 0
        assert reg.get("serve_active_connections").total() == 0
        assert disconnect_cancels(stack) == ["open"]


async def take_frames(outbox: Outbox, done) -> list:
    """Decode the bytes a bridge put on ``outbox`` until ``done(frames)``;
    an outbox silent for 20 s (a dead bridge pump) fails the test."""
    frames: list = []
    while not done(frames):
        data = await asyncio.wait_for(outbox.take(), 20.0)
        frames += [decode_frame(line) for line in data.splitlines(keepends=True)]
    return frames


class TestBridgeSink:
    def test_streams_sharing_a_sink_are_told_apart_by_request_id(self):
        """``open`` feeds the outbox it is given; with none given, an
        outbox of the stream's own (the bridge driven without a server)."""
        async def scenario():
            stack = build_sim_stack(warp=None)
            bridge = stack.bridge
            await bridge.start()
            try:
                shared = Outbox()
                ops = [
                    GenerateOp(request_id=rid, tenant="t", lora_id="lora-0",
                               prompt_len=4, response_len=n)
                    for rid, n in (("a", 3), ("b", 5), ("solo", 2))
                ]
                for op in ops[:2]:
                    assert bridge.open(op, shared)[1] is shared
                _, own, decision = bridge.open(ops[2])
                assert decision.admitted and own is not shared
                updates = await take_frames(
                    shared, lambda fs: sum(f.event == "end" for f in fs) >= 2
                )
                solo = await take_frames(own, lambda fs: len(fs) >= 3)
                return updates, solo
            finally:
                await bridge.stop()

        updates, solo = run(scenario())
        for rid, n in (("a", 3), ("b", 5)):
            mine = [u for u in updates if u.request_id == rid]
            assert [u.index for u in mine[:-1]] == list(range(n))
            assert mine[-1].event == "end" and mine[-1].num_tokens == n
        assert {u.request_id for u in solo} == {"solo"}
        assert [u.event for u in solo] == ["token", "token", "end"]


class TestOutbox:
    def test_an_end_closes_its_id_and_a_disconnect_cancels_the_open_ones(self):
        """A stream's end frame takes its id out of the connection's
        ``open_ids``; dropping the socket cancels exactly the ids still
        there."""
        async def scenario():
            stack = build_sim_stack(warp=None)
            bridge = stack.bridge
            outboxes, cancelled = [], []
            open_, cancel = bridge.open, bridge.cancel

            def recording_open(op, outbox=None):
                outboxes.append(outbox)
                return open_(op, outbox)

            def recording_cancel(rid):
                cancelled.append(rid)
                return cancel(rid)

            bridge.open, bridge.cancel = recording_open, recording_cancel
            await stack.server.start()
            reg = stack.metrics.registry
            try:
                conn = await RawConnection.open(stack.server.port)
                for rid, n in (("short", 2), ("long", 100_000)):
                    conn.send(GenerateOp(request_id=rid, tenant="t",
                                         lora_id="lora-0", prompt_len=4,
                                         response_len=n))
                await conn.read_until(ended(["short"]))
                outbox, again = outboxes
                assert outbox is again
                still_open = set(outbox.open_ids)
                conn.writer.transport.abort()
                assert await settle(
                    lambda: reg.get("serve_active_connections").total() == 0
                )
            finally:
                await stack.server.stop()
            return still_open, cancelled, disconnect_cancels(stack)

        still_open, cancelled, traced = run(scenario())
        assert still_open == {"long"}
        assert cancelled == traced == ["long"]


# ---------------------------------------------------------------------------
# A reused request id: refused before admission, everything else carries on
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("backend", ["sim", "functional"])
class TestDuplicateRequestId:
    def test_reused_id_is_refused_and_the_connection_carries_on(self, backend):
        """A GenerateOp reusing a live stream's id is answered with a 409
        before admission: no slot is taken, nothing is traced, and the
        connection, its other streams and the bridge pump carry on."""
        async def scenario():
            stack = build_stack(backend)
            await stack.server.start()
            try:
                conn = await RawConnection.open(stack.server.port)
                conn.send(GenerateOp(
                    request_id="dup", tenant="t", lora_id="lora-0",
                    prompt_len=4, response_len=32,
                ))
                await conn.read_until(lambda lines: len(lines) >= 2)
                for rid, n in (("dup", 4), ("next", 8)):
                    conn.send(GenerateOp(
                        request_id=rid, tenant="t", lora_id="lora-1",
                        prompt_len=4, response_len=n,
                    ))
                await conn.read_until(ended(["dup", "next"]))
                inflight = stack.bridge.gateway.controller.total_inflight
                await conn.close()
                return stack, conn.by_stream(), inflight
            finally:
                await stack.server.stop()

        stack, streams, inflight = run(scenario())
        refusal = encode_frame(
            ErrorFrame(request_id="dup", code=409, reason="duplicate request id")
        )
        assert streams["dup"].count(refusal) == 1
        assert_stream_lines(
            "dup", [l for l in streams["dup"] if l != refusal], 32
        )
        assert_stream_lines("next", streams["next"], 8)
        assert inflight == 0
        assert stack.metrics.registry.get("serve_connections_total").total() == 2
        assert len(stack.tracer.by_kind(EventKind.CONNECT)) == 2

    def test_auto_assigned_ids_skip_taken_ones(self, backend):
        """Auto-assigned ``sv-…`` ids skip one a client already chose, and
        a finished id stays taken: the frontend keeps every handle."""

        def op(rid: str, n: int = 64) -> GenerateOp:
            return GenerateOp(request_id=rid, tenant="t", lora_id="lora-0",
                              prompt_len=4, response_len=n)

        async def scenario():
            stack = build_stack(backend)
            bridge = stack.bridge
            await bridge.start()
            try:
                taken = "sv-00000"
                assert bridge.open(op(taken))[0] == taken
                auto = bridge.open(op(""))[0]
                with pytest.raises(DuplicateRequestId):
                    bridge.open(op(taken))
                inflight = stack.bridge.gateway.controller.total_inflight
                _, outbox, _ = bridge.open(op("short", 1))
                await take_frames(
                    outbox, lambda fs: any(isinstance(f, EndFrame) for f in fs)
                )
                with pytest.raises(DuplicateRequestId):
                    bridge.open(op("short"))
                return auto, inflight
            finally:
                await bridge.stop()

        auto, inflight = run(scenario())
        assert auto == "sv-00001"
        assert inflight == 2


# ---------------------------------------------------------------------------
# An op the stack cannot serve: refused, never admitted
# ---------------------------------------------------------------------------
def generate(**fields) -> dict:
    """A ``generate`` op as the client writes it, ``fields`` overriding."""
    return {"op": "generate", "request_id": "bad", "tenant": "t",
            "lora_id": "lora-0", "prompt_len": 2, "response_len": 8, **fields}


BOTH, FUNCTIONAL = ("sim", "functional"), ("functional",)
BAD_OPS = {
    "unknown-adapter": (generate(lora_id="nope"), 404, FUNCTIONAL),
    "id-past-the-vocabulary": (generate(prompt_tokens=[1, 10 ** 6]), 400,
                               FUNCTIONAL),
    "prompt-len-mismatch": (generate(prompt_tokens=[1, 2], prompt_len=39), 400,
                            BOTH),
    "negative-id": (generate(prompt_tokens=[1, -2]), 400, BOTH),
    "float-prompt-len": (generate(prompt_len=2.5), 400, BOTH),
    "bool-prompt-len": (generate(prompt_len=True), 400, BOTH),
    "list-tenant": (generate(tenant=["x"]), 400, BOTH),
    "list-lora-id": (generate(lora_id=["a"]), 400, BOTH),
    "int-request-id": (generate(request_id=7), 400, BOTH),
    "string-prompt-ids": (generate(prompt_tokens=["3", "4"]), 400, BOTH),
    "float-prompt-ids": (generate(prompt_tokens=[1.5, 2]), 400, BOTH),
    "list-cancel-id": ({"op": "cancel", "request_id": ["x"]}, 400, BOTH),
    "fits-no-kv-cache": (generate(prompt_len=100_000_000), 400, BOTH),
}


class TestBadGenerateOp:
    @pytest.mark.parametrize("backend, bad, code", [
        pytest.param(backend, bad, code, id=f"{name}-{backend}")
        for name, (bad, code, backends) in BAD_OPS.items()
        for backend in backends
    ])
    def test_refused_and_the_streams_around_it_complete(self, backend, bad, code):
        """Each op used to be admitted and then raise inside the bridge
        pump, kill the connection, wait forever for a KvCache no engine
        has, or be served with a coerced field. It is answered with an
        error before admission, and the streams opened on the connection
        before and after it finish."""
        async def scenario():
            stack = build_stack(backend)
            await stack.server.start()
            try:
                conn = await RawConnection.open(stack.server.port)
                good = {"tenant": "t", "lora_id": "lora-1", "prompt_len": 4,
                        "response_len": 8}
                conn.send(GenerateOp(request_id="before", **good))
                conn.writer.write(json.dumps(bad).encode() + b"\n")
                conn.send(GenerateOp(request_id="after", **good))
                both_ended = ended(["before", "after"])

                def done(lines) -> bool:
                    refused = any(l.startswith(b'{"code":') for l in lines)
                    return refused and both_ended(lines)

                await conn.read_until(done)
                inflight = stack.bridge.gateway.controller.total_inflight
                await conn.close()
                return stack, conn, inflight
            finally:
                await stack.server.stop()

        stack, conn, inflight = run(scenario())
        frames = [decode_frame(line) for line in conn.lines]
        errors = [f for f in frames if isinstance(f, ErrorFrame)]
        assert [e.code for e in errors] == [code]
        assert all(isinstance(f, ErrorFrame) for f in frames if f.request_id == "bad")
        streams = conn.by_stream()
        for rid in ("before", "after"):
            assert_stream_lines(rid, streams[rid], 8)
        assert inflight == 0
        reg = stack.metrics.registry
        assert reg.get("serve_connections_total").total() == 2
        assert reg.get("serve_requests_admitted_total").total() == 2


class TestFunctionalWireBytes:
    def test_every_line_the_server_wrote_re_encodes_through_the_oracle(self):
        """Every byte the functional stack's server wrote — accepted,
        tokens, finished and cancelled ends, 400 / 404 / 409 errors —
        decodes and re-encodes through the ``asdict`` oracle to the
        identical line."""
        ids = [f"s{k}" for k in range(4)]

        async def scenario():
            stack = build_functional_stack(seed=SEED)
            writes = capture_server_writes(stack)
            await stack.server.start()
            try:
                conn = await RawConnection.open(stack.server.port)
                for k, rid in enumerate(ids + ["s0"]):
                    conn.send(GenerateOp(
                        request_id=rid, tenant="t", lora_id=f"lora-{k % 4}",
                        prompt_len=4 + k, response_len=12,
                    ))
                conn.send(CancelOp(request_id="ghost"))
                conn.writer.write(b"not json\n")
                conn.send(GenerateOp(
                    request_id="victim", tenant="t", lora_id="lora-2",
                    prompt_len=4, response_len=500,
                ))
                victim_token = b'{"event":"token","index":2,"request_id":"victim"'
                await conn.read_until(
                    lambda lines: any(l.startswith(victim_token) for l in lines)
                )
                conn.send(CancelOp(request_id="victim"))
                await conn.read_until(ended(ids + ["victim"]))
                await conn.close()
                return conn.lines, writes
            finally:
                await stack.server.stop()

        lines, writes = run(scenario())
        wrote = b"".join(writes).splitlines(keepends=True)
        assert wrote == lines
        frames = [decode_frame(line) for line in wrote]
        assert [reference_encode(f) for f in frames] == wrote
        assert {type(f) for f in frames} == {
            AcceptedFrame, TokenFrame, EndFrame, ErrorFrame
        }
        assert sorted(f.code for f in frames if isinstance(f, ErrorFrame)) == [
            400, 404, 409
        ]
        assert sorted(f.status for f in frames if isinstance(f, EndFrame)) == [
            "cancelled"] + ["finished"] * 4
