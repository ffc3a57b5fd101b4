"""A minimal discrete-event loop.

Events are ``(time, seq, action)`` triples; ``seq`` breaks ties
deterministically in scheduling order, which keeps whole simulations
reproducible under a fixed seed. Actions may schedule further events.
:meth:`EventLoop.schedule` returns an :class:`EventHandle` so timers that
become moot (a request's deadline after it finished, a retry after a
cancel) can be disarmed instead of firing as no-ops.

One binary heap backs the loop on every path. It pops in the total
order ``(time, seq)``; the tie-break contract (equal times pop in
scheduling order) is part of the public determinism guarantee and is
pinned against a separate heap oracle in ``tests/test_event_order.py``.
The heap stays small because a trace's arrivals stream in one at a
time (each queues its successor under a seq set aside by
:meth:`EventLoop.reserve`), so a trace run's queue holds about one event
per engine plus a few timers. Event times must be finite: a NaN would
corrupt the heap order, and an infinite time would never fire.

The loop knows one thing about what it runs: which events are engine
steps (:meth:`EventLoop.schedule_step`). A step may leave work staged —
the bulk decode lane pops a tick without applying it — so before any
other event runs, and before :meth:`EventLoop.run` returns, the loop
calls its ``settle`` callback, which applies what was staged.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from heapq import heappop, heappush
from math import inf, isfinite


@dataclass(slots=True)
class EventHandle:
    """Disarmable reference to one scheduled event.

    ``seq`` is the event's scheduling sequence number — the tie-break key
    the queue uses for equal times.
    """

    time: float
    cancelled: bool = field(default=False)
    seq: int = field(default=-1)

    def cancel(self) -> None:
        """Disarm: the loop drops the event instead of running its action."""
        self.cancelled = True


# An event record. Tuple comparison never reaches the (uncomparable)
# action element because ``seq`` is unique.
_Item = tuple[float, int, Callable[[float], None], EventHandle]

_STEP = EventHandle(0.0)
"""The handle slot of every engine step event: never cancelled, and the
mark that the event runs without a settle."""


class EventLoop:
    """Deterministic discrete-event executor over one binary heap."""

    def __init__(self, settle: "Callable[[bool], None] | None" = None) -> None:
        """``settle(False)`` runs before every event that is not a step,
        ``settle(True)`` before :meth:`run` returns to its caller."""
        self._heap: list[_Item] = []
        self._seq = 0
        self._now = 0.0
        self._processed = 0
        self._settle = settle

    @property
    def now(self) -> float:
        return self._now

    @property
    def pending(self) -> int:
        return len(self._heap)

    @property
    def processed(self) -> int:
        return self._processed

    def reserve(self, count: int) -> int:
        """Set aside the next ``count`` seqs and return the first.

        An event pushed later with one of them (``schedule(seq=)``) sorts
        exactly where it would have had it been scheduled now: a source
        of many known future events can keep one of them queued at a
        time without changing the pop order. ``reserve(0)`` just reads
        the next seq.
        """
        first = self._seq
        self._seq = first + count
        return first

    def schedule(
        self,
        time: float,
        action: Callable[[float], None],
        seq: "int | None" = None,
    ) -> EventHandle:
        """Enqueue ``action`` to run at ``time`` (finite, not in the past).

        A time within 1e-12 before ``now`` (float noise) runs at ``now``:
        the clock never moves backwards. ``seq`` is a key handed out by
        :meth:`reserve`; by default the event takes the next one.
        """
        time = self._checked(time)
        if seq is None:
            seq = self._seq
            self._seq = seq + 1
        handle = EventHandle(time, False, seq)
        heappush(self._heap, (time, seq, action, handle))
        return handle

    def schedule_step(self, time: float, action: Callable[[float], None]) -> None:
        """Enqueue an engine's step event under the next seq.

        A step runs without a settle, and it takes no handle: nothing
        cancels one (the step of an engine that left the pool fires and
        returns)."""
        if not self._now <= time < inf:
            time = self._checked(time)
        seq = self._seq
        self._seq = seq + 1
        heappush(self._heap, (time, seq, action, _STEP))

    def _checked(self, time: float) -> float:
        if not isfinite(time):
            raise ValueError(f"event time must be finite, got {time}")
        if time < self._now:
            if time < self._now - 1e-12:
                raise ValueError(f"cannot schedule at {time} before now={self._now}")
            return self._now
        return time

    def schedule_after(
        self, delay: float, action: Callable[[float], None]
    ) -> EventHandle:
        if delay < 0:
            raise ValueError(f"delay must be nonnegative, got {delay}")
        return self.schedule(self._now + delay, action)

    def run(self, until: float | None = None, max_events: int | None = None) -> float:
        """Process events in time order; returns the final clock.

        Stops when the queue is empty, the next event is beyond ``until``
        (left enqueued), or ``max_events`` have been processed.
        """
        heap = self._heap
        settle = self._settle
        while max_events is None or self._processed < max_events:
            while heap and heap[0][3].cancelled:
                heappop(heap)
            if not heap or (until is not None and heap[0][0] > until):
                break
            time, _, action, handle = heappop(heap)
            self._now = time
            if settle is not None and handle is not _STEP:
                settle(False)
            action(time)
            self._processed += 1
        if settle is not None:
            settle(True)
        if until is not None:
            self._now = max(self._now, until)
        return self._now
