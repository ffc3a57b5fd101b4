"""Per-request latency attribution from a trace (the §6 breakdowns).

A request's end-to-end latency decomposes into six phases, reconstructed
by walking its event timeline:

* **queue** — SUBMIT (or a post-cancel wait) until first placement, plus
  the decode-admission wait after a disaggregated KV handoff lands;
* **load_stall** — on a GPU but waiting for the LoRA copy / prefill slot;
* **prefill** — inside prefill invocations;
* **decode** — inside decode invocations;
* **transfer** — paged KV handoff in flight between the prefill and
  decode pools (disaggregated mode only);
* **migration** — off-GPU after an eviction, migration or fault, until
  re-placed (the §5.3 re-prefill tax shows up as extra prefill time).

The walk closes one segment per event, so by construction the components
tile ``[submit, terminal]`` and sum to the end-to-end latency exactly —
an invariant the hypothesis suite (tests/test_trace_properties.py) checks
on every generated workload.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.tracer import EventKind, TraceEvent, Tracer
from repro.utils.tables import format_table

COMPONENTS = ("queue", "load_stall", "prefill", "decode", "transfer", "migration")


@dataclass
class RequestBreakdown:
    """Where one request's wall-clock time went."""

    request_id: str
    submit_time: float
    end_time: float
    terminal: str
    """"FINISH", "SHED" or "CANCEL" — how the timeline ended."""
    phases: "dict[str, float]" = field(
        default_factory=lambda: {c: 0.0 for c in COMPONENTS}
    )
    num_migrations: int = 0
    num_decode_steps: int = 0

    @property
    def total(self) -> float:
        """End-to-end latency (equals the sum of the phase components)."""
        return self.end_time - self.submit_time

    def components_sum(self) -> float:
        return sum(self.phases.values())

    def __getattr__(self, name: str):
        if name in COMPONENTS:
            return self.phases[name]
        raise AttributeError(name)


def compute_breakdowns(trace: "Tracer | list[TraceEvent]") -> "dict[str, RequestBreakdown]":
    """Reconstruct every request's latency breakdown from its events."""
    events = trace.events if isinstance(trace, Tracer) else list(trace)
    per_request: "dict[str, list[TraceEvent]]" = {}
    for event in sorted(events, key=lambda e: (e.time, e.seq)):
        if event.request_id is not None:
            per_request.setdefault(event.request_id, []).append(event)
    return {
        rid: _walk_timeline(rid, timeline)
        for rid, timeline in sorted(per_request.items())
    }


def request_tpots(tracer: Tracer) -> "list[float]":
    """Per-request TPOT (time per output token), one value per request
    with at least two decode steps.

    The mean gap between that request's consecutive ``DECODE_STEP``
    events. Unlike the stamp ITL of :mod:`repro.runtime.latency`, it
    leaves out the prefill-to-first-decode gap: that gap is TTFT
    territory (and where disagg pays its transfer), not decode
    smoothness. A colocated request's gaps absorb every prefill its
    engine ran while it was decoding; a disaggregated request's never
    do. The spec table reads TPOT because a speculative round's burst
    is what it measures; folding in the first gap flattens the batch-1
    speedup below the batch-8 one (the MagicDec ordering).
    """
    per: "dict[str, list[float]]" = {}
    for e in tracer.by_kind(EventKind.DECODE_STEP):
        per.setdefault(e.request_id, []).append(e.time)
    tpots: "list[float]" = []
    for times in per.values():
        if len(times) < 2:
            continue
        times.sort()
        tpots.append((times[-1] - times[0]) / (len(times) - 1))
    return tpots


def _walk_timeline(request_id: str, timeline: "list[TraceEvent]") -> RequestBreakdown:
    first = timeline[0]
    if first.kind is not EventKind.SUBMIT:
        raise ValueError(
            f"{request_id}: timeline starts with {first.kind.value}, not SUBMIT"
        )
    bd = RequestBreakdown(
        request_id=request_id,
        submit_time=first.time,
        end_time=first.time,
        terminal="",
    )
    phase = "queue"
    cursor = first.time
    placed_once = False
    awaiting_decode = False
    """Between KV_TRANSFER_DONE and the decode-pool PLACE: the wait is
    admission queueing, not migration, even though the request was placed
    before."""

    def close(upto: float, into: str) -> float:
        # Clamp rather than reject overlap: a fault can displace a request
        # while its GPU's step is still in flight, so the step's events
        # (stamped at step *end*) land after the re-placement. The clamped
        # segments still tile [submit, terminal] exactly.
        bd.phases[into] += max(0.0, upto - cursor)
        return max(cursor, upto)

    for event in timeline[1:]:
        kind = event.kind
        if kind is EventKind.QUEUE:
            cursor = close(event.time, phase)
            phase = (
                "queue"
                if awaiting_decode or not placed_once
                else "migration"
            )
        elif kind is EventKind.PLACE:
            cursor = close(event.time, phase)
            phase = "load_stall"
            placed_once = True
            awaiting_decode = False
        elif kind is EventKind.PREFILL:
            start = float(event.attrs.get("start", event.time))
            cursor = close(start, phase)
            cursor = close(event.time, "prefill")
            phase = "decode"
        elif kind is EventKind.DECODE_STEP:
            if phase != "decode":
                # An imported request has no PREFILL on its decode GPU;
                # the adapter wait before its first decode invocation is
                # a load stall, closed at the step's start mark.
                start = float(event.attrs.get("start", event.time))
                cursor = close(start, phase)
            cursor = close(event.time, "decode")
            phase = "decode"
            bd.num_decode_steps += 1
        elif kind is EventKind.KV_TRANSFER_START:
            cursor = close(event.time, phase)
            phase = "transfer"
        elif kind is EventKind.KV_TRANSFER_DONE:
            cursor = close(event.time, "transfer")
            phase = "queue"
            awaiting_decode = True
        elif kind is EventKind.MIGRATE:
            cursor = close(event.time, phase)
            phase = "migration"
            bd.num_migrations += 1
        elif kind is EventKind.FINISH:
            cursor = close(event.time, phase)
            bd.terminal = "FINISH"
        elif kind is EventKind.SHED:
            cursor = close(event.time, phase)
            bd.terminal = "SHED"
        elif kind is EventKind.CANCEL:
            cursor = close(event.time, phase)
            bd.terminal = "CANCEL"
            # A retry may re-SUBMIT later; until then the request waits.
            phase = "queue"
        elif kind is EventKind.SUBMIT:
            # Retry re-submission: the backoff interval counted as queue.
            cursor = close(event.time, phase)
            bd.terminal = ""
            phase = "queue"
        # ADAPTER_LOAD / FAULT never carry a request_id; nothing to do.
        bd.end_time = max(bd.end_time, event.time)

    return bd


def breakdown_table(
    breakdowns: "dict[str, RequestBreakdown]", limit: "int | None" = None
) -> str:
    """Render per-request breakdowns as an aligned text table."""
    headers = [
        "request", "end_to_end_s", *(f"{c}_s" for c in COMPONENTS),
        "decode_steps", "migrations", "terminal",
    ]
    rows = []
    for rid, bd in sorted(breakdowns.items()):
        rows.append(
            [
                rid, f"{bd.total:.4f}",
                *(f"{bd.phases[c]:.4f}" for c in COMPONENTS),
                str(bd.num_decode_steps), str(bd.num_migrations),
                bd.terminal or "-",
            ]
        )
        if limit is not None and len(rows) >= limit:
            break
    return format_table(headers, rows)


def breakdown_totals(breakdowns: "dict[str, RequestBreakdown]") -> "dict[str, float]":
    """Aggregate phase seconds over every request (dashboard roll-up)."""
    totals = {c: 0.0 for c in COMPONENTS}
    for bd in breakdowns.values():
        for c in COMPONENTS:
            totals[c] += bd.phases[c]
    totals["end_to_end"] = sum(bd.total for bd in breakdowns.values())
    return totals
