"""Structured request-level tracing (the §6 per-request timelines).

Every component of the serving stack emits typed, timestamped
:class:`TraceEvent` records into one :class:`Tracer`: the cluster
simulator stamps SUBMIT/SHED, the scheduler QUEUE/MIGRATE, the engine
PLACE/PREFILL/DECODE_STEP/FINISH (plus SPEC_DRAFT/SPEC_VERIFY/
SPEC_ROLLBACK when the speculative lane is armed), the fault injector FAULT, the frontend
CANCEL, the adapter store ADAPTER_LOAD, the disaggregated serving
layer KV_TRANSFER_START/KV_TRANSFER_DONE, and the async serving frontend
CONNECT/DISCONNECT (plus SHED for door rejections). Timestamps come from the
simulated clock, so under a fixed seed a trace is *byte-identical* across
runs — the property the golden-trace harness (tests/test_trace_golden.py)
turns into a whole-stack regression fixture.

The fast path commits runs of pure decode steps in bulk; it records each
as one compact *run block* (:meth:`Tracer.decode_run`) in the same ordered
log, and the block expands to the exact per-token ``DECODE_STEP`` events
only when the trace is read — so attaching a tracer does not change which
lanes a run takes.

Serialization is canonical JSONL: one event per line, keys sorted,
minimal separators, floats via ``repr`` round-tripping (see
docs/observability.md for the schema).
"""

from __future__ import annotations

import enum
import json
from collections.abc import Mapping, Sequence
from types import MappingProxyType
from typing import Any, NamedTuple


class EventKind(enum.Enum):
    """The event taxonomy — one request's life, plus cluster-level marks."""

    SUBMIT = "SUBMIT"
    """Request arrival reached the cluster (attrs: lora, prompt, response)."""
    QUEUE = "QUEUE"
    """Request entered (or re-entered) the FCFS wait queue (attrs: reason)."""
    PLACE = "PLACE"
    """Request admitted onto a GPU engine's working set."""
    PREFILL = "PREFILL"
    """Prefill invocation finished (time = step end; attrs: start, tokens)."""
    DECODE_STEP = "DECODE_STEP"
    """One decode token landed (time = step end; attrs: start, token_index)."""
    ADAPTER_LOAD = "ADAPTER_LOAD"
    """Demand adapter load on a GPU (attrs: lora, tier, copy_s, nbytes)."""
    MIGRATE = "MIGRATE"
    """Consolidation moved the request (attrs: source, target)."""
    KV_TRANSFER_START = "KV_TRANSFER_START"
    """Paged KV handoff left the prefill GPU (attrs: nbytes, duration,
    link, target hints; gpu_id = source GPU)."""
    KV_TRANSFER_DONE = "KV_TRANSFER_DONE"
    """Paged KV handoff landed; the request awaits decode admission
    (attrs: nbytes; gpu_id = source GPU the bytes came from)."""
    CONNECT = "CONNECT"
    """Serving frontend opened a client stream (attrs: conn, tenant;
    request_id is None — the connection may be shed before any request
    exists, so connection lifecycle never joins a request timeline)."""
    DISCONNECT = "DISCONNECT"
    """Serving frontend closed a client stream (attrs: conn, tenant,
    cause = served | client | shed; request_id is None)."""
    FAULT = "FAULT"
    """Injected fault fired (attrs: fault, applied; request_id is None)."""
    SPEC_DRAFT = "SPEC_DRAFT"
    """Speculative round drafted tokens for a decode batch (time = round
    end; attrs: start, batch, draft_len; request_id is None)."""
    SPEC_VERIFY = "SPEC_VERIFY"
    """One request's draft verified against the target model (attrs:
    start, proposed, accepted, committed)."""
    SPEC_ROLLBACK = "SPEC_ROLLBACK"
    """Rejected draft tokens released their KV slots (attrs: tokens,
    pages — both counts of what was rolled back)."""
    SLO_ADMIT = "SLO_ADMIT"
    """SLO router placed the request with positive modelled deadline
    headroom (attrs: headroom seconds, ttft predicted; emitted at the same
    timestamp as the companion PLACE so attribution tiling is unchanged)."""
    SLO_SHED = "SLO_SHED"
    """SLO router rejected the request because no engine could meet its
    deadline even under the optimistic floor (attrs: reason, headroom;
    emitted at the same timestamp as the terminal SHED)."""
    SCALE_UP = "SCALE_UP"
    """Predictive autoscaler requested new capacity (attrs: forecast
    req/s, pool size before the grow, add count; request_id is None)."""
    SCALE_DOWN = "SCALE_DOWN"
    """Predictive autoscaler released an idle engine whose capacity the
    forecast no longer needs (attrs: forecast, pool; request_id is None,
    gpu_id = the released engine)."""
    CANCEL = "CANCEL"
    """Request cancelled (attrs: reason = user | deadline)."""
    FINISH = "FINISH"
    """Request completed normally (attrs: tokens)."""
    SHED = "SHED"
    """Request dropped with a FAILED terminal state (attrs: reason)."""


TERMINAL_KINDS = (EventKind.FINISH, EventKind.SHED, EventKind.CANCEL)
"""Kinds that end a request's timeline (CANCEL may be followed by a retry
re-SUBMIT, in which case the timeline continues)."""


class TraceEvent(NamedTuple):
    """One timestamped, typed record in a request trace (immutable)."""

    seq: int
    """Global emission order — ties on ``time`` replay deterministically."""
    time: float
    kind: EventKind
    request_id: "str | None" = None
    gpu_id: "str | None" = None
    attrs: "Mapping[str, Any]" = MappingProxyType({})

    def to_json_obj(self) -> "dict[str, Any]":
        obj: "dict[str, Any]" = {
            "seq": self.seq, "t": self.time, "kind": self.kind.value,
        }
        if self.request_id is not None:
            obj["req"] = self.request_id
        if self.gpu_id is not None:
            obj["gpu"] = self.gpu_id
        if self.attrs:
            obj["attrs"] = self.attrs
        return obj

    @classmethod
    def from_json_obj(cls, obj: "dict[str, Any]") -> "TraceEvent":
        return cls(
            seq=int(obj["seq"]),
            time=float(obj["t"]),
            kind=EventKind(obj["kind"]),
            request_id=obj.get("req"),
            gpu_id=obj.get("gpu"),
            attrs=dict(obj.get("attrs", {})),
        )


def decode_step_attrs(start: float, token_index: int) -> "dict[str, Any]":
    """The ``DECODE_STEP`` attribute schema: the step's start time (the
    event's own ``time`` is the step end) and the landed token's index in
    the response. Scalar emitters and run-block expansion both build their
    attrs here, so the two cannot drift apart."""
    return {"start": start, "token_index": token_index}


class _DecodeRun:
    """A run of pure decode steps, recorded as one log entry.

    ``lanes`` holds, per engine, ``(gpu_id, request_ids, token_offsets,
    shift, ends)``: the batch in slot order, each request's token index
    at the run's first step less ``shift``, and the step boundary times
    (``ends[k]`` starts step ``k``, ``ends[k + 1]`` ends it). So step
    ``k`` lands token ``token_offsets[i] + shift + k`` of request ``i``;
    an armed batch hands its token offsets and step count over as they
    are. ``order`` names the lane of every step in the order the event
    loop popped them. The run owns one ``seq`` per (step, request),
    consecutive from ``seq0``; :meth:`expand` turns it into exactly the
    events per-step emission produces — step by step, slot by slot.
    """

    __slots__ = ("seq0", "lanes", "order")

    def __init__(self, seq0: int, lanes, order) -> None:
        self.seq0 = seq0
        self.lanes = lanes
        self.order = order

    def expand(self) -> "list[TraceEvent]":
        lanes = self.lanes
        seq = self.seq0
        taken = [0] * len(lanes)
        out: "list[TraceEvent]" = []
        for lane in self.order:
            gpu_id, request_ids, offsets, shift, ends = lanes[lane]
            k = taken[lane]
            taken[lane] = k + 1
            start = ends[k]
            end = ends[k + 1]
            shift += k
            for rid, offset in zip(request_ids, offsets):
                out.append(TraceEvent(
                    seq, end, EventKind.DECODE_STEP, rid, gpu_id,
                    decode_step_attrs(start, offset + shift),
                ))
                seq += 1
        return out


class _EventsView(Sequence):
    """Read-only sequence over a tracer's events, in emission order.

    ``len()`` is O(1) and leaves run blocks compact; indexing, iteration
    and comparison expand them (once — see :meth:`Tracer._expanded`).
    """

    __slots__ = ("_tracer",)

    def __init__(self, tracer: "Tracer") -> None:
        self._tracer = tracer

    def __len__(self) -> int:
        return len(self._tracer)

    def __getitem__(self, index):
        return self._tracer._expanded()[index]

    def __iter__(self):
        return iter(self._tracer._expanded())

    def __eq__(self, other) -> bool:
        if isinstance(other, _EventsView):
            other = other._tracer._expanded()
        elif not isinstance(other, list):
            return NotImplemented
        return self._tracer._expanded() == other


class Tracer:
    """Collects :class:`TraceEvent` records from instrumentation hooks.

    A tracer is per-run state, like :class:`~repro.cluster.metrics.ClusterMetrics`:
    construct a fresh one per simulation and thread it through the
    components (``ClusterSimulator(..., tracer=...)`` does the threading).

    Everything recorded lands in one ordered log. :meth:`emit` appends a
    single event; :meth:`decode_run` appends one compact run block for a
    whole bulk-committed decode run. Blocks expand into their events the
    first time the trace is read, in place, so a run that is only ever
    counted (``len``) never pays for them.
    """

    def __init__(self) -> None:
        self._log: list = []
        self._seq = 0
        self._first_block: "int | None" = None
        """Log position of the earliest run block not yet expanded."""
        self._absent = 0
        """Seq numbers below ``_seq`` that a loaded (filtered or truncated)
        trace does not contain; 0 for every tracer filled by emission."""

    def __len__(self) -> int:
        return self._seq - self._absent

    @property
    def events(self) -> _EventsView:
        """Every event in emission (``seq``) order, as a read-only view."""
        return _EventsView(self)

    def emit(
        self,
        time: float,
        kind: EventKind,
        request_id: "str | None" = None,
        gpu_id: "str | None" = None,
        **attrs: Any,
    ) -> TraceEvent:
        """Record one event; attrs must be JSON-serializable."""
        if time.__class__ is not float:
            time = float(time)
        seq = self._seq
        event = TraceEvent(seq, time, kind, request_id, gpu_id, attrs)
        self._log.append(event)
        self._seq = seq + 1
        return event

    def decode_run(self, lanes, order: "Sequence[int] | None" = None) -> None:
        """Record a bulk-committed run of pure decode steps as one block.

        ``lanes`` is a sequence of ``(gpu_id, request_ids, token_offsets,
        shift, ends)`` per engine — see :class:`_DecodeRun`; ``ends`` must
        be Python floats. ``order`` gives the lane index of each step in
        event-loop pop order and may be omitted for a single lane. The
        block reserves one ``seq`` per (step, request), exactly as if
        every ``DECODE_STEP`` had been emitted on its own. Empty runs,
        empty batches and a lane whose boundaries or offsets do not match
        its pops are rejected here, before any seq is taken: a block
        always stands for at least one event. The checks cost one count
        per lane, not a pass over the steps.
        """
        if order is None:
            if len(lanes) != 1:
                raise ValueError("a multi-lane decode run needs its pop order")
            order = (0,) * (len(lanes[0][4]) - 1)
        count = 0
        popped = 0
        for lane, (gpu_id, request_ids, offsets, _, ends) in enumerate(lanes):
            n = order.count(lane)
            if n < 1 or not request_ids:
                raise ValueError(
                    f"decode run lane {gpu_id!r} has {n} steps over "
                    f"{len(request_ids)} requests; both must be >= 1"
                )
            if len(offsets) != len(request_ids) or len(ends) != n + 1:
                raise ValueError(
                    f"decode run lane {gpu_id!r} is inconsistent: "
                    f"{len(request_ids)} requests, {len(offsets)} token "
                    f"offsets, {n} steps, {len(ends)} step boundaries"
                )
            count += n * len(request_ids)
            popped += n
        if count == 0:
            raise ValueError("a decode run needs at least one lane")
        if popped != len(order):
            raise ValueError(
                f"decode run pop order names {len(order) - popped} steps "
                "of no lane"
            )
        if self._first_block is None:
            self._first_block = len(self._log)
        self._log.append(_DecodeRun(self._seq, lanes, order))
        self._seq += count

    def _expanded(self) -> "list[TraceEvent]":
        """The log with every run block expanded in place (paid once per
        block; later emits and blocks extend the same list)."""
        first = self._first_block
        log = self._log
        if first is not None:
            tail = log[first:]
            del log[first:]
            for item in tail:
                if item.__class__ is _DecodeRun:
                    log.extend(item.expand())
                else:
                    log.append(item)
            self._first_block = None
        return log

    # -- queries ---------------------------------------------------------
    def for_request(self, request_id: str) -> list[TraceEvent]:
        """One request's timeline, in causal (time, seq) order."""
        return sorted(
            (e for e in self._expanded() if e.request_id == request_id),
            key=lambda e: (e.time, e.seq),
        )

    def request_ids(self) -> list[str]:
        return sorted({e.request_id for e in self._expanded() if e.request_id})

    def by_kind(self, kind: EventKind) -> list[TraceEvent]:
        return [e for e in self._expanded() if e.kind is kind]

    def sorted_events(self) -> list[TraceEvent]:
        """Every event in causal order (time, then emission order).

        Events appended late (e.g. adapter logs drained at run end) sort
        into their true timeline position; ``seq`` keeps ties stable.
        """
        return sorted(self._expanded(), key=lambda e: (e.time, e.seq))

    # -- serialization ---------------------------------------------------
    def dumps_jsonl(self) -> str:
        """Canonical JSONL: sorted keys, compact separators, repr floats.

        Identical event sequences serialize to byte-identical text — the
        contract the golden fixtures and the CI trace-determinism job
        enforce.
        """
        lines = [
            json.dumps(e.to_json_obj(), sort_keys=True, separators=(",", ":"))
            for e in self.sorted_events()
        ]
        return "\n".join(lines) + ("\n" if lines else "")

    def dump_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.dumps_jsonl())

    @classmethod
    def loads_jsonl(cls, text: str) -> "Tracer":
        tracer = cls()
        log = tracer._log
        for line in text.splitlines():
            if not line.strip():
                continue
            event = TraceEvent.from_json_obj(json.loads(line))
            log.append(event)
            tracer._seq = max(tracer._seq, event.seq + 1)
        tracer._absent = tracer._seq - len(log)
        return tracer

    @classmethod
    def load_jsonl(cls, path) -> "Tracer":
        with open(path) as fh:
            return cls.loads_jsonl(fh.read())
