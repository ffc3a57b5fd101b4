"""The asyncio serving frontend: newline-framed JSON over TCP.

:class:`ServeServer` accepts client connections, decodes
:mod:`repro.serve.protocol` frames, and drives the backend bridge
(:class:`~repro.serve.bridge.SimulatorBridge`):

* a :class:`~repro.serve.protocol.GenerateOp` is admitted (or shed with a
  429 :class:`~repro.serve.protocol.ErrorFrame`); admitted streams get an
  :class:`~repro.serve.protocol.AcceptedFrame` and then token frames as
  the backend produces them, each connection multiplexing any number of
  concurrent streams by request id; an op the bridge refuses before
  admission (a reused ``request_id``, an unknown adapter, an op no
  engine's KvCache holds) is answered with the
  :class:`~repro.serve.bridge.RefusedOp`'s code;
* a :class:`~repro.serve.protocol.CancelOp` cancels one stream;
* EOF on the socket with streams still open is a client disconnect: every
  open stream of that connection is cancelled, which propagates down to
  engine eviction (the trace shows CANCEL ``reason="disconnect"``).

One reader loop and one writer task per connection, joined by one
:class:`~repro.serve.bridge.Outbox` of encoded bytes: the reader's answers
and every stream's frames go on it in order, and the writer sends all
that is on it when it wakes as one buffer — what became ready in one
event-loop turn is one ``send``. A slow reader backpressures only its own
connection (its outbox buffers; ``drain()`` blocks only its writer) and
the backend clock never waits on a client.
"""

from __future__ import annotations

import asyncio

from repro.serve.bridge import Outbox, RefusedOp
from repro.serve.protocol import (
    MAX_FRAME_BYTES,
    AcceptedFrame,
    CancelOp,
    ErrorFrame,
    GenerateOp,
    decode_frame,
    encode_frame,
)


class ServeServer:
    """Serve a bridge over TCP; ``port=0`` binds an ephemeral port."""

    def __init__(self, bridge, host: str = "127.0.0.1", port: int = 0):
        self.bridge = bridge
        self.host = host
        self.port = port
        self._server: "asyncio.base_events.Server | None" = None
        self._conn_tasks: "set[asyncio.Task]" = set()
        self._conn_writers: "set[asyncio.StreamWriter]" = set()

    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Start the bridge pump and bind the listening socket."""
        await self.bridge.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port,
            limit=MAX_FRAME_BYTES,
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Stop accepting, drop live connections, stop the bridge.

        Connections are dropped by aborting their transports, not by
        cancelling their handler tasks: the handlers see EOF and run
        their own disconnect cleanup (stream cancellation included).
        """
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for writer in list(self._conn_writers):
            writer.transport.abort()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        self._conn_tasks.clear()
        await self.bridge.stop()

    async def serve_forever(self) -> None:
        await self._server.serve_forever()

    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        self._conn_writers.add(writer)
        outbox = Outbox()
        pump = asyncio.create_task(self._pump_outbox(outbox, writer))
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:
                    # A line beyond ``limit``, part of it already dropped:
                    # say why and hang up (``close`` flushes the frame).
                    writer.write(encode_frame(ErrorFrame(
                        code=400, reason=f"frame exceeds {MAX_FRAME_BYTES} bytes",
                    )))
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                try:
                    frame = decode_frame(line)
                except ValueError as exc:
                    outbox.put(encode_frame(ErrorFrame(code=400, reason=str(exc))))
                    continue
                if isinstance(frame, GenerateOp):
                    # ``accepted`` precedes the first token: nothing yields
                    # here, and tokens come only from the bridge's own pump.
                    try:
                        rid, admitted, decision = self.bridge.open(frame, outbox)
                    except RefusedOp as exc:
                        answer = ErrorFrame(
                            request_id=frame.request_id, code=exc.code,
                            reason=exc.reason,
                        )
                    else:
                        answer = (
                            AcceptedFrame(request_id=rid) if admitted is not None
                            else ErrorFrame(
                                request_id=rid, code=429, reason=decision.value
                            )
                        )
                elif isinstance(frame, CancelOp):
                    if self.bridge.cancel(frame.request_id):
                        continue
                    answer = ErrorFrame(
                        request_id=frame.request_id, code=404,
                        reason="unknown request",
                    )
                else:
                    answer = ErrorFrame(
                        code=400, reason="clients may only send operations",
                    )
                outbox.put(encode_frame(answer))
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            # Disconnect: cancel every stream the client left open, then
            # the writer — there is no one left to write their ends to.
            for rid in list(outbox.open_ids):
                self.bridge.cancel(rid)
            pump.cancel()
            await asyncio.gather(pump, return_exceptions=True)
            self._conn_writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._conn_tasks.discard(task)

    @staticmethod
    async def _pump_outbox(outbox: Outbox, writer: asyncio.StreamWriter) -> None:
        """The connection's writer: all that is put when it wakes is one write."""
        try:
            while True:
                writer.write(await outbox.take())
                await writer.drain()
        except (ConnectionError, OSError):
            pass
