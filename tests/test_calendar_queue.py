"""Property test: the calendar queue against a binary-heap oracle.

The event loop runs on a bucketed calendar queue. The entire safety
argument is that it implements the total order ``(time, seq)`` a plain
binary heap pops in — including the tie-break contract that equal
timestamps pop in scheduling order. This suite drives both queues
through the same interleaved push/pop/cancel programs (dense, sparse and
tied timestamps; pushes below the resolved front bucket) and asserts
identical pop sequences; :class:`HeapQueue` is the oracle and lives only
here.
"""

from __future__ import annotations

import heapq

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.events import CalendarQueue, EventHandle, EventLoop


class HeapQueue:
    """The oracle queue: a plain binary heap over ``(time, seq)``."""

    def __init__(self) -> None:
        self._heap = []

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, item) -> None:
        heapq.heappush(self._heap, item)

    def peek(self):
        """Smallest live item, pruning cancelled heads in passing."""
        heap = self._heap
        while heap and heap[0][3].cancelled:
            heapq.heappop(heap)
        return heap[0] if heap else None

    def pop(self):
        return heapq.heappop(self._heap)


class HeapLoop:
    """The oracle dispatch: ``EventLoop.schedule`` / ``run`` over
    :class:`HeapQueue` — pop the smallest live ``(time, seq)`` item, run
    its action, count it."""

    def __init__(self) -> None:
        self._queue = HeapQueue()
        self._seq = 0
        self.processed = 0

    def schedule(self, time, action) -> EventHandle:
        handle = EventHandle(time=time, seq=self._seq)
        self._queue.push((time, self._seq, action, handle))
        self._seq += 1
        return handle

    def run(self) -> None:
        while self._queue.peek() is not None:
            time, _, action, _ = self._queue.pop()
            action(time)
            self.processed += 1


def _item(time, seq):
    return (time, seq, lambda now: None, EventHandle(time=time))


class TestPopOrder:
    def _drain_both(self, times, width):
        cal = CalendarQueue(bucket_width=width)
        oracle = []
        for seq, t in enumerate(times):
            item = _item(t, seq)
            cal.push(item)
            heapq.heappush(oracle, (item[0], item[1], item))
        got, want = [], []
        while oracle:
            want.append(heapq.heappop(oracle)[2][:2])
            got.append(cal.pop()[:2])
        assert cal.peek() is None and len(cal) == 0
        return got, want

    @pytest.mark.parametrize("width", [0.01, 0.25, 10.0])
    def test_dense_sparse_and_tied(self, width):
        times = [0.0, 0.0, 5.0, 0.25, 0.25, 1e6, 0.24999, 3.0, 3.0, 0.5]
        got, want = self._drain_both(times, width)
        assert got == want

    def test_ties_pop_in_scheduling_order(self):
        got, _ = self._drain_both([1.0] * 8, 0.25)
        assert got == [(1.0, s) for s in range(8)]


@settings(max_examples=200, deadline=None)
@given(
    program=st.lists(
        st.tuples(
            # op: 0 = push, 1 = pop, 2 = cancel a previously pushed item
            st.integers(min_value=0, max_value=2),
            # Times from a tiny grid force heavy ties and shared buckets.
            st.floats(min_value=0.0, max_value=4.0).map(lambda x: round(x, 1)),
            st.integers(min_value=0, max_value=63),
        ),
        min_size=1,
        max_size=64,
    ),
    width=st.sampled_from([0.05, 0.25, 1.0, 7.5]),
)
def test_interleaved_program_matches_heap_oracle(program, width):
    """Any interleaving of pushes, pops and cancels drains identically."""
    cal = CalendarQueue(bucket_width=width)
    ref = HeapQueue()
    pushed = []
    floor = 0.0  # pops raise the floor; later pushes must not precede it
    for op, t, pick in program:
        if op == 0:
            t = max(t, floor)
            a = _item(t, len(pushed))
            b = (t, len(pushed), a[2], a[3])  # share the handle for cancels
            pushed.append(a)
            cal.push(a)
            ref.push(b)
        elif op == 1:
            head_c, head_r = cal.peek(), ref.peek()
            assert (head_c is None) == (head_r is None)
            if head_c is not None:
                assert head_c[:2] == head_r[:2]
                floor = head_c[0]
                assert cal.pop()[:2] == ref.pop()[:2]
        elif pushed:
            pushed[pick % len(pushed)][3].cancel()
    while True:
        head_c, head_r = cal.peek(), ref.peek()
        assert (head_c is None) == (head_r is None)
        if head_c is None:
            break
        assert cal.pop()[:2] == ref.pop()[:2]
    assert len(cal) == 0


@settings(max_examples=50, deadline=None)
@given(
    entries=st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=9.0).map(lambda x: round(x, 2)),
            st.booleans(),
        ),
        min_size=1,
        max_size=40,
    ),
    seed_width=st.sampled_from([0.1, 0.5, 2.0]),
)
def test_event_loop_pop_order_matches_between_disciplines(entries, seed_width):
    """A full EventLoop run dispatches exactly as the heap oracle does."""

    def drive(loop):
        order = []
        handles = []
        for i, (t, cancel) in enumerate(entries):
            h = loop.schedule(t, lambda now, i=i: order.append((now, i)))
            if cancel:
                handles.append(h)
        for h in handles[::2]:
            h.cancel()
        loop.run()
        return order, loop.processed

    assert drive(EventLoop(bucket_width=seed_width)) == drive(HeapLoop())
