"""A minimal discrete-event loop.

Events are ``(time, seq, action)`` triples; ``seq`` breaks ties
deterministically in scheduling order, which keeps whole simulations
reproducible under a fixed seed. Actions may schedule further events.
:meth:`EventLoop.schedule` returns an :class:`EventHandle` so timers that
become moot (a request's deadline after it finished, a retry after a
cancel) can be disarmed instead of firing as no-ops.

One queue backs the loop on every path: a :class:`CalendarQueue`, a
bucketed scheduler tuned for the dense, near-monotone timestamp stream a
decode-heavy simulation produces. It implements the total order
``(time, seq)``; the tie-break contract (equal times pop in scheduling
order) is part of the public determinism guarantee and is pinned by a
property test against the binary-heap oracle kept in
``tests/test_calendar_queue.py``. Event times must be finite: a calendar
bucket is ``floor(time / width)``.
"""

from __future__ import annotations

import heapq
from bisect import insort
from collections.abc import Callable
from dataclasses import dataclass, field
from math import floor, isfinite


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


class CalendarQueue:
    """A bucketed priority queue over ``(time, seq)`` keys.

    Items hash into fixed-width time buckets (a dict keyed by
    ``floor(time / width)``, so sparse regions cost nothing). Buckets
    stay unsorted until they become the *front* bucket, at which point
    one in-place sort orders them by ``(time, seq)`` — the order a
    binary heap over the same items pops in, including the
    scheduling-order tie-break. A small lazy min-heap over bucket
    *indices* finds the next nonempty bucket, so heap traffic is
    per-bucket, not per-event: in the dense-timestamp decode regime most
    pushes and pops are O(1) appends/pointer bumps.

    Late pushes into the already-sorted front bucket are placed with
    ``bisect.insort``; their keys always land at or after the read
    pointer because anything already consumed had a strictly smaller
    ``(time, seq)`` key. A push into a bucket *before* the current front
    (possible when the front sits far in the future) demotes the front
    back into an ordinary bucket and re-resolves.
    """

    def __init__(self, bucket_width: float = 0.25) -> None:
        if bucket_width <= 0:
            raise ValueError(f"bucket_width must be > 0, got {bucket_width}")
        self._width = bucket_width
        self._buckets: dict[int, list[_Item]] = {}
        self._index_heap: list[int] = []
        self._front: int | None = None
        self._pos = 0
        self._len = 0

    def __len__(self) -> int:
        return self._len

    def _index(self, time: float) -> int:
        return floor(time / self._width)

    def push(self, item: _Item) -> None:
        idx = self._index(item[0])
        if idx == self._front:
            # Front bucket is sorted; keep it sorted. The new key is
            # strictly greater than every consumed key, so searching
            # from the read pointer is safe and keeps the insert cheap.
            insort(self._buckets[idx], item, lo=self._pos)
        else:
            bucket = self._buckets.get(idx)
            if bucket is None:
                self._buckets[idx] = [item]
                heapq.heappush(self._index_heap, idx)
            else:
                bucket.append(item)
            if self._front is not None and idx < self._front:
                self._demote_front()
        self._len += 1

    def _demote_front(self) -> None:
        """Return the partially-consumed front to ordinary-bucket status."""
        bucket = self._buckets.get(self._front, [])
        del bucket[: self._pos]
        if bucket:
            heapq.heappush(self._index_heap, self._front)
        else:
            self._buckets.pop(self._front, None)
        self._front = None
        self._pos = 0

    def _resolve_front(self) -> bool:
        """Sort the lowest nonempty bucket into front position."""
        if self._front is not None:
            return True
        heap = self._index_heap
        while heap:
            idx = heap[0]
            bucket = self._buckets.get(idx)
            if bucket is None:
                heapq.heappop(heap)  # stale entry for a drained bucket
                continue
            heapq.heappop(heap)
            bucket.sort(key=lambda it: (it[0], it[1]))
            self._front = idx
            self._pos = 0
            return True
        return False

    def peek(self) -> _Item | None:
        """Smallest live item, pruning cancelled heads in passing."""
        while self._resolve_front():
            bucket = self._buckets[self._front]
            while self._pos < len(bucket):
                item = bucket[self._pos]
                if not item[3].cancelled:
                    return item
                self._pos += 1
                self._len -= 1
            del self._buckets[self._front]
            self._front = None
            self._pos = 0
        return None

    def pop(self) -> _Item:
        item = self.peek()
        if item is None:
            raise IndexError("pop from an empty CalendarQueue")
        self._pos += 1
        self._len -= 1
        bucket = self._buckets[self._front]
        if self._pos >= len(bucket):
            del self._buckets[self._front]
            self._front = None
            self._pos = 0
        return item


class EventLoop:
    """Deterministic discrete-event executor over a :class:`CalendarQueue`."""

    def __init__(self, bucket_width: float = 0.25) -> None:
        self._queue = CalendarQueue(bucket_width)
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
        return len(self._queue)

    @property
    def processed(self) -> int:
        return self._processed

    def schedule(self, time: float, action: Callable[[float], None]) -> EventHandle:
        """Enqueue ``action`` to run at ``time`` (finite, not in the past)."""
        if not isfinite(time):
            raise ValueError(f"event time must be finite, got {time}")
        if time < self._now - 1e-12:
            raise ValueError(f"cannot schedule at {time} before now={self._now}")
        handle = EventHandle(time=time, seq=self._seq)
        self._queue.push((time, self._seq, action, handle))
        self._seq += 1
        return handle

    def schedule_after(
        self, delay: float, action: Callable[[float], None]
    ) -> EventHandle:
        if delay < 0:
            raise ValueError(f"delay must be nonnegative, got {delay}")
        return self.schedule(self._now + delay, action)

    def peek_time(self) -> float | None:
        """Time of the next live event, or ``None`` when the queue is empty.

        Cancelled heads are pruned in passing — in :meth:`run` they would
        be popped and skipped without touching the clock or the processed
        count, so discarding them here changes nothing observable. The
        fast lane compares a step's end against this: strictly earlier
        means running it inline is exactly what the loop would do next.
        """
        item = self._queue.peek()
        return item[0] if item is not None else None

    def peek_time_excluding(self, skip_ids: "set[int]") -> float | None:
        """Time of the next live event whose handle id is not in ``skip_ids``.

        The merge lane uses this to find its horizon: the first event that
        is *not* one of the decode ticks it is about to replay inline.
        Skipped heads are popped and pushed back with their original
        ``(time, seq)`` keys, so queue order is untouched; the cost is
        O(len(skip_ids)) heap operations.
        """
        queue = self._queue
        popped: list[_Item] = []
        result: float | None = None
        while True:
            item = queue.peek()
            if item is None:
                break
            if id(item[3]) in skip_ids:
                popped.append(queue.pop())
                continue
            result = item[0]
            break
        for item in popped:
            queue.push(item)
        return result

    def merge_info(self) -> "tuple[float | None, int | None, int] | None":
        """State the merge lane needs: ``(until, budget_left, next_seq)``.

        Returns ``None`` outside :meth:`run` — merged pops would then have
        no budget to account against, so the caller must fall back to
        scheduling real events.
        """
        if not self._running:
            return None
        budget = (
            None
            if self._max_events is None
            else self._max_events - self._processed
        )
        return self._until, budget, self._seq

    def consume_merged(self, count: int, final_time: float) -> None:
        """Account ``count`` events replayed inline by the merge lane.

        The caller has already verified every replayed pop against the
        ``until`` horizon and the ``max_events`` budget (via
        :meth:`merge_info`), cancelled the real events it consumed, and is
        about to schedule their successors; this just moves the clock and
        the processed count exactly as the queue-driven pops would have.
        """
        self._now = max(self._now, final_time)
        self._processed += count

    def try_advance(self, time: float) -> bool:
        """Account one event processed inline at ``time`` (the fast lane).

        Returns False — and changes nothing — when the loop is not inside
        :meth:`run`, ``time`` lies beyond the active ``until`` horizon, or
        the ``max_events`` budget is spent; the caller must then fall back
        to scheduling a real event so the queue ends up in the same state
        the slow path would leave. On success the clock and the processed
        count move exactly as if the event had gone through the queue.
        """
        if time < self._now - 1e-12:
            raise ValueError(f"cannot advance to {time} before now={self._now}")
        if not self._running:
            return False
        if self._until is not None and time > self._until:
            return False
        if self._max_events is not None and self._processed >= self._max_events:
            return False
        self._now = max(self._now, time)
        self._processed += 1
        return True

    def run(self, until: float | None = None, max_events: int | None = None) -> float:
        """Process events in time order; returns the final clock.

        Stops when the queue is empty, the next event is beyond ``until``
        (left enqueued), or ``max_events`` have been processed.
        """
        self._until = until
        self._max_events = max_events
        self._running = True
        queue = self._queue
        try:
            while True:
                if max_events is not None and self._processed >= max_events:
                    break
                head = queue.peek()
                if head is None:
                    break
                time = head[0]
                if until is not None and time > until:
                    self._now = until
                    return self._now
                _, _, action, handle = queue.pop()
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
