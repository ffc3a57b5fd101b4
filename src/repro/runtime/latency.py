"""The one latency definition: request stamps to numbers.

A :class:`~repro.runtime.request.Request` records only stamps — its
spec's arrival time, first admission, first token and finish — plus its
generated tokens. This module is the only place that turns them into
latencies:

* **queue wait** — arrival to first GPU admission;
* **TTFT** — arrival to first token (queue wait, adapter load, prefill
  and any disagg KV handoff all count);
* **decode time** — first token to finish;
* **ITL** — decode time over the ``n - 1`` gaps between ``n`` tokens
  (0 for a one-token request);
* **normalized latency** — arrival to finish per generated token, the
  paper's serving metric (§7).

:class:`LatencyStats` aggregates a fleet with ``np.percentile``, the one
percentile definition. Attainment of TTFT and ITL deadlines is
:func:`repro.cluster.control.score_requests`, a predicate over
:func:`breakdown_of`. The trace-derived TPOT, which leaves out the
prefill-to-first-decode gap, is :func:`repro.obs.analysis.request_tpots`.
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
    """Decompose one FINISHED request's latency from its stamps."""
    if request.state is not RequestState.FINISHED:
        raise ValueError(f"{request.request_id} is {request.state}, not finished")
    if not request.generated_tokens:
        raise ValueError(f"{request.request_id} generated no tokens")
    arrival = request.spec.arrival_time
    return LatencyBreakdown(
        request_id=request.request_id,
        queue_wait=request.first_admitted_time - arrival,
        time_to_first_token=request.first_token_time - arrival,
        decode_time=request.finish_time - request.first_token_time,
        total=request.finish_time - arrival,
        num_tokens=request.num_generated,
    )


def _percentile(values: "list[float]", q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


@dataclass(frozen=True)
class LatencyStats:
    """Aggregate latency statistics over a fleet of finished requests.

    ITL figures cover requests with at least two tokens (a one-token
    request has no gap) and read 0 when there are none.
    """

    count: int
    mean_normalized: float
    p50_normalized: float
    p99_normalized: float
    mean_ttft: float
    p50_ttft: float
    p99_ttft: float
    mean_itl: float
    p50_itl: float
    p99_itl: float
    mean_queue_wait: float

    @classmethod
    def from_requests(cls, requests: Iterable[Request]) -> "LatencyStats":
        breakdowns = [
            breakdown_of(r) for r in requests if r.state is RequestState.FINISHED
        ]
        if not breakdowns:
            raise ValueError("no finished requests to aggregate")
        normalized = [b.normalized for b in breakdowns]
        ttft = [b.time_to_first_token for b in breakdowns]
        itl = [b.inter_token_time for b in breakdowns if b.num_tokens > 1]
        return cls(
            count=len(breakdowns),
            mean_normalized=float(np.mean(normalized)),
            p50_normalized=_percentile(normalized, 50),
            p99_normalized=_percentile(normalized, 99),
            mean_ttft=float(np.mean(ttft)),
            p50_ttft=_percentile(ttft, 50),
            p99_ttft=_percentile(ttft, 99),
            mean_itl=float(np.mean(itl)) if itl else 0.0,
            p50_itl=_percentile(itl, 50),
            p99_itl=_percentile(itl, 99),
            mean_queue_wait=float(np.mean([b.queue_wait for b in breakdowns])),
        )
