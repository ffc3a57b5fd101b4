"""Async serving frontend: an asyncio token-streaming server over the engine.

The paper's deployment (§6, Figure 2) runs frontends as separate processes
that accept client requests, forward them to the scheduler, and stream
generated tokens back over websockets. This package is that layer for the
reproduction: a real :mod:`asyncio` server speaking a newline-delimited
JSON request/stream/cancel protocol (:mod:`repro.serve.protocol`, whose
token frames carry the engine steps' token chunks), with per-tenant
token-bucket rate limits and bounded admission before anything reaches the
scheduler (:mod:`repro.serve.limits`). One bridge
(:class:`~repro.serve.bridge.SimulatorBridge`) serves the time-warped
cluster simulator: its discrete-event clock is bridged to asyncio so large
traces replay at a configurable multiple of wall speed, over engines that
simulate their tokens or compute real token ids with the toy NumPy Llama.

Client disconnects propagate all the way down to engine eviction through
the same cancellation path the fault and migration layers hardened; the
:mod:`repro.serve.client` load generator drives hundreds of concurrent
streaming connections, cancellation storms and slow readers against it.
See docs/serving.md.
"""

from repro.serve.bridge import SimulatorBridge
from repro.serve.client import ClientResult, LoadGenerator, LoadSpec, ServeClient
from repro.serve.gateway import ServeGateway
from repro.serve.limits import (
    AdmissionController,
    Decision,
    TenantPolicy,
    TokenBucket,
)
from repro.serve.metrics import ServeMetrics
from repro.serve.protocol import (
    CancelOp,
    EndFrame,
    ErrorFrame,
    GenerateOp,
    TokenFrame,
    decode_frame,
    encode_frame,
)
from repro.serve.server import ServeServer

__all__ = [
    "AdmissionController",
    "CancelOp",
    "ClientResult",
    "Decision",
    "EndFrame",
    "ErrorFrame",
    "GenerateOp",
    "LoadGenerator",
    "LoadSpec",
    "ServeClient",
    "ServeGateway",
    "ServeMetrics",
    "ServeServer",
    "SimulatorBridge",
    "TenantPolicy",
    "TokenBucket",
    "TokenFrame",
    "decode_frame",
    "encode_frame",
]
