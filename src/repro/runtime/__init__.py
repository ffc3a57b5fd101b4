"""Single-GPU serving runtime: the paper's §5 on one device.

The :class:`GpuEngine` keeps a working set of requests, runs batched model
invocations mixing at most one prefill with a batch of decodes, loads LoRA
weights on demand over PCIe (overlapped with compute), tracks KvCache pages
through the backend's allocator, and evicts the newest requests under
memory pressure (preserving FCFS). Two interchangeable backends execute
the batches: :class:`SimulatedBackend` prices them on the analytical A100
model at 7B/13B/70B scale, :class:`NumpyBackend` really generates tokens
with the toy functional Llama.
"""

from repro.runtime.backend import (
    NumpyBackend,
    SimulatedBackend,
    SpecExecution,
    StepExecution,
)
from repro.runtime.engine import EngineConfig, GpuEngine, StepReport
from repro.runtime.spec import SpecConfig
from repro.runtime.layered_loading import (
    LayeredTransferPlan,
    pipelined_prefill_finish,
    plan_layered_transfer,
    time_to_first_token,
)
from repro.runtime.latency import (
    LatencyBreakdown,
    LatencyStats,
    breakdown_of,
)
from repro.runtime.request import Request, RequestState
from repro.runtime.sampler import GreedySampler, TemperatureSampler
from repro.runtime.serve import requests_from_trace

__all__ = [
    "EngineConfig",
    "GpuEngine",
    "GreedySampler",
    "LatencyBreakdown",
    "LatencyStats",
    "LayeredTransferPlan",
    "NumpyBackend",
    "Request",
    "RequestState",
    "SimulatedBackend",
    "SpecConfig",
    "SpecExecution",
    "StepExecution",
    "StepReport",
    "TemperatureSampler",
    "breakdown_of",
    "pipelined_prefill_finish",
    "plan_layered_transfer",
    "requests_from_trace",
    "time_to_first_token",
]
