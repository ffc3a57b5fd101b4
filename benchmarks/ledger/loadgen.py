"""Lean closed-loop load generator for the ``serve_stream`` workload.

The library's ``repro.serve.client.LoadGenerator`` opens one connection
per request and JSON-decodes every frame; under a cap of ``nproc``
connections it cannot be used, and its own cost would dominate the
measurement. This client multiplexes a fixed number of streams over a
few TCP connections on one event loop:

* **closed loop** — each stream sends its next ``GenerateOp`` only when
  the previous one's ``EndFrame`` (or ``ErrorFrame``) arrived;
* token frames are recognised by their canonical prefix and only the
  index and request id are sliced out of the bytes (to check that indices
  are contiguous); only end and error frames are JSON-decoded;
* it runs on the server's own event loop (one process, one thread), so
  it reports its own ``loadgen_share``: the time spent inside its
  callbacks over the wall of the timed region. Above ~0.7 the generator,
  not the server, is what was measured.

It deliberately shares no code with ``repro``: a change to the program's
frame encoder must not change what the generator costs.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field

_TOKEN_PREFIX = b'{"event":"token","index":'
_RID_KEY = b',"request_id":"'


@dataclass
class _Req:
    lora_id: str
    sent: float = 0.0
    first: float = 0.0
    last: float = 0.0
    next_index: int = 0
    received: int = 0
    status: str = ""


@dataclass
class LoadResult:
    wall_s: float
    loadgen_share: float
    attempted: int
    finished: int
    tokens: int
    ttfb_ms: "list[float]"
    gap_ms: "list[float]"
    problems: "list[str]" = field(default_factory=list)


class _Conn(asyncio.Protocol):
    def __init__(self, gen: "ClosedLoopGenerator"):
        self.gen = gen
        self.transport = None
        self.buf = b""

    def connection_made(self, transport) -> None:
        self.transport = transport

    def data_received(self, data: bytes) -> None:
        now = time.perf_counter()
        lines = (self.buf + data).split(b"\n")
        self.buf = lines.pop()
        on_line = self.gen.on_line
        for line in lines:
            if line:
                on_line(self, line, now)
        self.gen.busy_s += time.perf_counter() - now

    def connection_lost(self, exc) -> None:
        self.gen.on_lost(exc)


class ClosedLoopGenerator:
    """``connections`` sockets x ``streams_per_connection`` streams."""

    def __init__(self, host: str, port: int, lora_ids: "list[str]",
                 connections: int, streams_per_connection: int,
                 prompt_len: int, response_len: int):
        self.host, self.port = host, port
        self.plan = lora_ids
        self.connections = connections
        self.streams = streams_per_connection
        self.prompt_len, self.response_len = prompt_len, response_len
        self.requests: "dict[bytes, _Req]" = {}
        self.gaps: "list[float]" = []
        self.problems: "list[str]" = []
        self.busy_s = 0.0
        self._next = 0
        self._open = 0
        self._done: "asyncio.Future | None" = None
        self._closing = False

    # -- sending -------------------------------------------------------
    def _send_next(self, conn: _Conn) -> None:
        k = self._next
        if k >= len(self.plan):
            if self._open == 0 and self._done and not self._done.done():
                self._done.set_result(None)
            return
        self._next = k + 1
        self._open += 1
        rid = f"q{k:06d}"
        req = _Req(lora_id=self.plan[k])
        self.requests[rid.encode()] = req
        payload = json.dumps({
            "op": "generate", "request_id": rid, "lora_id": req.lora_id,
            "prompt_len": self.prompt_len, "response_len": self.response_len,
        }, separators=(",", ":")).encode() + b"\n"
        req.sent = time.perf_counter()
        conn.transport.write(payload)

    # -- receiving -----------------------------------------------------
    def on_line(self, conn: _Conn, line: bytes, now: float) -> None:
        if line.startswith(_TOKEN_PREFIX):
            try:
                comma = line.index(b",", len(_TOKEN_PREFIX))
                index = int(line[len(_TOKEN_PREFIX):comma])
                start = comma + len(_RID_KEY)
                rid = line[start:line.index(b'"', start)]
                req = self.requests[rid]
            except (ValueError, KeyError):
                self._slow_line(conn, line, now)
                return
            self._on_token(req, rid, index, now)
            return
        self._slow_line(conn, line, now)

    def _on_token(self, req: _Req, rid: bytes, index: int, now: float) -> None:
        if index != req.next_index:
            self.problems.append(
                f"{rid.decode()}: token index {index}, expected {req.next_index}"
            )
        req.next_index = index + 1
        req.received += 1
        if index == 0:
            req.first = now
        else:
            self.gaps.append(now - req.last)
        req.last = now

    def _slow_line(self, conn: _Conn, line: bytes, now: float) -> None:
        """Every frame that is not a canonical token frame."""
        try:
            frame = json.loads(line)
            event = frame["event"]
        except (ValueError, KeyError, TypeError):
            self.problems.append(f"undecodable frame: {line[:80]!r}")
            return
        rid = str(frame.get("request_id", "")).encode()
        req = self.requests.get(rid)
        if event == "accepted":
            return
        if req is None:
            self.problems.append(f"frame for unknown request: {line[:80]!r}")
            return
        if event == "token":
            self._on_token(req, rid, int(frame["index"]), now)
            return
        if event == "end":
            req.status = frame["status"]
            if frame["num_tokens"] != req.received:
                self.problems.append(
                    f"{rid.decode()}: end says {frame['num_tokens']} tokens, "
                    f"{req.received} arrived"
                )
        elif event == "error":
            req.status = f"error:{frame.get('code')}:{frame.get('reason')}"
        else:
            self.problems.append(f"unexpected frame: {line[:80]!r}")
            return
        self._open -= 1
        self._send_next(conn)

    def on_lost(self, exc) -> None:
        if not self._closing and self._done is not None and not self._done.done():
            self._done.set_exception(
                ConnectionError(f"server closed a connection: {exc!r}")
            )

    # -- driving -------------------------------------------------------
    async def run(self, timeout: float) -> LoadResult:
        loop = asyncio.get_running_loop()
        self._done = loop.create_future()
        conns = []
        for _ in range(self.connections):
            _, conn = await loop.create_connection(
                lambda: _Conn(self), self.host, self.port
            )
            conns.append(conn)
        t0 = time.perf_counter()
        try:
            for _ in range(self.streams):
                for conn in conns:
                    self._send_next(conn)
            self.busy_s = time.perf_counter() - t0
            await asyncio.wait_for(self._done, timeout)
            wall = time.perf_counter() - t0
        finally:
            self._closing = True
            for conn in conns:
                conn.transport.close()
        reqs = list(self.requests.values())
        finished = [r for r in reqs if r.status == "finished"]
        for rid, r in self.requests.items():
            if r.status != "finished":
                self.problems.append(f"{rid.decode()}: ended {r.status or 'never'}")
            elif r.received != self.response_len:
                self.problems.append(
                    f"{rid.decode()}: {r.received} tokens, "
                    f"expected {self.response_len}"
                )
        return LoadResult(
            wall_s=wall,
            loadgen_share=self.busy_s / wall if wall > 0 else 0.0,
            attempted=len(self.plan),
            finished=len(finished),
            tokens=sum(r.received for r in reqs),
            ttfb_ms=[(r.first - r.sent) * 1e3 for r in finished if r.first],
            gap_ms=[g * 1e3 for g in self.gaps],
            problems=self.problems[:20],
        )
