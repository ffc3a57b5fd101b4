"""Single-GPU serving drivers: feed a trace through one engine and measure.

The Fig 11 experiment is exactly this: 1000 requests served FCFS on one
GPU, max batch size 32, reporting generated tokens per second. The driver
is also used open-loop (requests admitted at their arrival times) and by
the functional examples (with real token ids).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from repro.obs.tracer import EventKind, Tracer
from repro.runtime.engine import GpuEngine, StepReport
from repro.runtime.latency import LatencyStats
from repro.runtime.request import Request, RequestState
from repro.utils.rng import new_rng
from repro.workloads.trace import Trace


def requests_from_trace(
    trace: Trace,
    with_prompt_tokens: bool = False,
    vocab_size: int | None = None,
    seed: "int | np.random.Generator | None" = 0,
) -> list[Request]:
    """Materialize runtime Requests from a workload trace.

    ``with_prompt_tokens=True`` draws random prompt ids (functional mode);
    simulation mode leaves them ``None``.
    """
    rng = new_rng(seed)
    requests = []
    for spec in trace:
        prompt = None
        if with_prompt_tokens:
            if vocab_size is None:
                raise ValueError("vocab_size required when generating prompt tokens")
            prompt = [int(t) for t in rng.integers(0, vocab_size, size=spec.prompt_len)]
        requests.append(Request(spec=spec, prompt_tokens=prompt))
    return requests


@dataclass
class ServeResult:
    """Aggregate outcome of serving one trace on one engine."""

    duration: float
    tokens_generated: int
    requests_finished: int
    steps: list[StepReport] = field(default_factory=list)
    requests: list[Request] = field(default_factory=list)

    @property
    def throughput(self) -> float:
        """Generated tokens per second — the paper's headline metric."""
        return self.tokens_generated / self.duration if self.duration > 0 else 0.0

    @property
    def mean_batch_size(self) -> float:
        """Time-weighted mean LLM-invocation batch size."""
        busy = [(s.batch_size, s.latency) for s in self.steps if s.batch_size > 0]
        if not busy:
            return 0.0
        total_t = sum(t for _, t in busy)
        return sum(b * t for b, t in busy) / total_t if total_t > 0 else 0.0

    def summary(self) -> str:
        """One human-readable line — what an operator dashboard would show."""
        line = (
            f"{self.requests_finished} requests, {self.tokens_generated} tokens "
            f"in {self.duration:.2f}s | {self.throughput:.0f} tok/s | "
            f"mean batch {self.mean_batch_size:.1f}"
        )
        if not self.requests_finished:
            return line
        stats = LatencyStats.from_requests(self.requests)
        return f"{line} | p50 latency {stats.p50_normalized * 1e3:.1f} ms/tok"


def serve_requests(
    engine: GpuEngine,
    requests: "list[Request]",
    start_time: float = 0.0,
    max_steps: int | None = None,
    keep_steps: bool = True,
    tracer: "Tracer | None" = None,
) -> ServeResult:
    """Serve ``requests`` to completion on one engine, FCFS.

    Requests become eligible at their arrival times; the head of the queue
    blocks admission (strict FCFS, §5.1). Evicted requests re-enter the
    queue keyed by their original arrival time, which reproduces the
    paper's "scheduling for the evicted request is the same as adding a
    new request" under FCFS order.

    With a ``tracer``, the driver emits SUBMIT at each arrival and wires
    the engine to emit PLACE / PREFILL / DECODE_STEP / FINISH, so the
    single-GPU path produces the same event stream the cluster does.
    """
    clock = start_time
    if tracer is not None:
        engine.tracer = tracer
        for req in requests:
            tracer.emit(
                req.spec.arrival_time, EventKind.SUBMIT, req.request_id,
                lora=req.lora_id, prompt=req.spec.prompt_len,
                response=req.spec.response_len, retries=req.num_retries,
            )
    by_id = {req.request_id: req for req in requests}
    heap: list[tuple[float, int, Request]] = []
    seq = 0
    for req in requests:
        heapq.heappush(heap, (req.spec.arrival_time, seq, req))
        seq += 1

    steps: list[StepReport] = []
    tokens = 0
    finished = 0
    n_steps = 0
    first_arrival = min((r.spec.arrival_time for r in requests), default=start_time)
    clock = max(clock, first_arrival)

    while heap or not engine.is_idle:
        # Admit eligible requests FCFS; the queue head blocks.
        while heap and heap[0][0] <= clock:
            req = heap[0][2]
            if req.state is RequestState.CANCELLED:
                heapq.heappop(heap)
                continue
            if engine.can_accept(req):
                heapq.heappop(heap)
                engine.add_request(req, clock)
            else:
                break

        report = engine.step(clock)
        if report is None:
            if heap:
                next_arrival = heap[0][0]
                if engine.is_idle:
                    if next_arrival > clock:
                        clock = next_arrival  # jump to the next arrival
                        continue
                    # The head has arrived, the engine is idle, and it still
                    # cannot be admitted: it will never fit. Stop rather
                    # than spin (strict FCFS keeps everything behind it
                    # queued too).
                    head = heap[0][2]
                    if not engine.can_accept(head):
                        break
                clock += 1e-4  # waiting on an in-flight LoRA load
            elif engine.is_idle:
                break
            else:
                clock += 1e-4  # waiting on an in-flight LoRA load
            continue

        clock = report.end
        tokens += report.tokens_generated
        finished += len(report.finished)
        if keep_steps:
            steps.append(report)
        for rid in report.evicted:
            req = by_id[rid]
            heapq.heappush(heap, (req.spec.arrival_time, seq, req))
            seq += 1
        n_steps += 1
        if max_steps is not None and n_steps >= max_steps:
            break

    return ServeResult(
        duration=clock - start_time,
        tokens_generated=tokens,
        requests_finished=finished,
        steps=steps,
        requests=list(requests),
    )
