"""Per-request latency breakdowns and fleet-level latency statistics.

Serving papers (this one included) report *normalized latency* — seconds
per generated token end to end. This module decomposes it into the phases
operators actually tune: queue wait (scheduler backlog), time-to-first-
token (admission + LoRA load + prefill), and the decode phase, plus
percentile aggregation across a set of finished requests. Attainment of
TTFT and ITL deadlines is :func:`repro.cluster.control.slo_attainment`.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterable

import numpy as np

from repro.runtime.request import Request, RequestState


@dataclass(frozen=True)
class LatencyBreakdown:
    """One finished request's latency, phase by phase (seconds)."""

    request_id: str
    queue_wait: float
    time_to_first_token: float
    decode_time: float
    total: float
    num_tokens: int

    def __post_init__(self) -> None:
        if self.num_tokens < 1:
            raise ValueError("breakdown requires at least one generated token")
        for name in ("queue_wait", "time_to_first_token", "decode_time", "total"):
            if getattr(self, name) < -1e-9:
                raise ValueError(f"{name} must be nonnegative")

    @property
    def normalized(self) -> float:
        """Seconds per generated token — the paper's latency metric."""
        return self.total / self.num_tokens

    @property
    def inter_token_time(self) -> float:
        """Mean gap between generated tokens during the decode phase."""
        if self.num_tokens == 1:
            return 0.0
        return self.decode_time / (self.num_tokens - 1)


def breakdown_of(request: Request) -> LatencyBreakdown:
    """Decompose one FINISHED request's latency."""
    if request.state is not RequestState.FINISHED:
        raise ValueError(f"{request.request_id} is {request.state}, not finished")
    if not request.generated_tokens:
        raise ValueError(f"{request.request_id} generated no tokens")
    return LatencyBreakdown(
        request_id=request.request_id,
        queue_wait=request.queue_wait(),
        time_to_first_token=request.time_to_first_token(),
        decode_time=request.decode_time(),
        total=request.finish_time - request.spec.arrival_time,
        num_tokens=request.num_generated,
    )


@dataclass(frozen=True)
class LatencyStats:
    """Aggregate latency statistics over a fleet of finished requests."""

    count: int
    mean_normalized: float
    p50_normalized: float
    p99_normalized: float
    mean_ttft: float
    p99_ttft: float
    mean_queue_wait: float

    @classmethod
    def from_requests(cls, requests: Iterable[Request]) -> "LatencyStats":
        breakdowns = [
            breakdown_of(r)
            for r in requests
            if r.state is RequestState.FINISHED and r.num_generated > 0
        ]
        if not breakdowns:
            raise ValueError("no finished requests to aggregate")
        normalized = np.asarray([b.normalized for b in breakdowns])
        ttft = np.asarray([b.time_to_first_token for b in breakdowns])
        queue = np.asarray([b.queue_wait for b in breakdowns])
        return cls(
            count=len(breakdowns),
            mean_normalized=float(normalized.mean()),
            p50_normalized=float(np.percentile(normalized, 50)),
            p99_normalized=float(np.percentile(normalized, 99)),
            mean_ttft=float(ttft.mean()),
            p99_ttft=float(np.percentile(ttft, 99)),
            mean_queue_wait=float(queue.mean()),
        )

