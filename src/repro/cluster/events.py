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
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from heapq import heappop, heappush
from math import isfinite


@dataclass
class EventHandle:
    """Disarmable reference to one scheduled event.

    ``seq`` is the event's scheduling sequence number — the tie-break key
    the queue uses for equal times. The cross-engine merge lane reads it
    to replay the exact pop order the queue would produce.
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


class EventLoop:
    """Deterministic discrete-event executor over one binary heap."""

    def __init__(self) -> None:
        self._heap: list[_Item] = []
        self._seq = 0
        self._now = 0.0
        self._processed = 0
        self._until: float | None = None
        self._max_events: int | None = None
        self._running = False

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
        if not isfinite(time):
            raise ValueError(f"event time must be finite, got {time}")
        if time < self._now:
            if time < self._now - 1e-12:
                raise ValueError(f"cannot schedule at {time} before now={self._now}")
            time = self._now
        if seq is None:
            seq = self._seq
            self._seq = seq + 1
        handle = EventHandle(time=time, seq=seq)
        heappush(self._heap, (time, seq, action, handle))
        return handle

    def schedule_after(
        self, delay: float, action: Callable[[float], None]
    ) -> EventHandle:
        if delay < 0:
            raise ValueError(f"delay must be nonnegative, got {delay}")
        return self.schedule(self._now + delay, action)

    def peek_time_excluding(self, skip_ids: "set[int]") -> float | None:
        """Time of the next live event whose handle id is not in ``skip_ids``.

        The merge lane uses this to find its horizon: the first event that
        is *not* one of the decode ticks it is about to replay inline.
        Skipped heads are popped and pushed back with their original
        ``(time, seq)`` keys, so queue order is untouched; the cost is
        O(len(skip_ids)) heap operations.
        """
        heap = self._heap
        popped: list[_Item] = []
        while (item := self._head()) is not None and id(item[3]) in skip_ids:
            popped.append(heappop(heap))
        for skipped in popped:
            heappush(heap, skipped)
        return item[0] if item is not None else None

    def _head(self) -> "_Item | None":
        """Smallest live item, pruning cancelled heads in passing."""
        heap = self._heap
        while heap and heap[0][3].cancelled:
            heappop(heap)
        return heap[0] if heap else None

    def merge_info(self) -> "tuple[float | None, int] | None":
        """State the merge lane needs: ``(until, next_seq)``.

        Returns ``None`` outside :meth:`run` and under a ``max_events``
        budget: a replay then has no loop to account its pops against, or
        one that must stop after an exact event count, so the caller steps
        one event at a time like the reference path.
        """
        if not self._running or self._max_events is not None:
            return None
        return self._until, self._seq

    def consume_merged(self, count: int, final_time: float) -> None:
        """Account ``count`` events replayed inline by the merge lane.

        The caller has already verified every replayed pop against the
        ``until`` horizon (via :meth:`merge_info`), cancelled the real
        events it consumed, and is about to schedule their successors;
        this just moves the clock and the processed count exactly as the
        queue-driven pops would have.
        """
        self._now = max(self._now, final_time)
        self._processed += count

    def run(self, until: float | None = None, max_events: int | None = None) -> float:
        """Process events in time order; returns the final clock.

        Stops when the queue is empty, the next event is beyond ``until``
        (left enqueued), or ``max_events`` have been processed.
        """
        self._until = until
        self._max_events = max_events
        self._running = True
        heap = self._heap
        try:
            while max_events is None or self._processed < max_events:
                head = self._head()
                if head is None or (until is not None and head[0] > until):
                    break
                time, _, action, _ = heappop(heap)
                self._now = time
                action(time)
                self._processed += 1
            if until is not None:
                self._now = max(self._now, until)
            return self._now
        finally:
            self._until = None
            self._max_events = None
            self._running = False
