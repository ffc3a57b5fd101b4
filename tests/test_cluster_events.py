"""Tests for the discrete-event loop."""

import pytest

from repro.cluster.events import EventLoop


class TestEventLoop:
    def test_time_ordering(self):
        loop = EventLoop()
        fired = []
        loop.schedule(3.0, lambda t: fired.append(("c", t)))
        loop.schedule(1.0, lambda t: fired.append(("a", t)))
        loop.schedule(2.0, lambda t: fired.append(("b", t)))
        loop.run()
        assert fired == [("a", 1.0), ("b", 2.0), ("c", 3.0)]

    def test_fifo_within_same_time(self):
        loop = EventLoop()
        fired = []
        loop.schedule(1.0, lambda t: fired.append("first"))
        loop.schedule(1.0, lambda t: fired.append("second"))
        loop.run()
        assert fired == ["first", "second"]

    def test_actions_schedule_more_events(self):
        loop = EventLoop()
        fired = []

        def recurse(t):
            fired.append(t)
            if t < 3.0:
                loop.schedule(t + 1.0, recurse)

        loop.schedule(1.0, recurse)
        loop.run()
        assert fired == [1.0, 2.0, 3.0]

    def test_until_leaves_future_events(self):
        loop = EventLoop()
        fired = []
        loop.schedule(1.0, lambda t: fired.append(t))
        loop.schedule(10.0, lambda t: fired.append(t))
        end = loop.run(until=5.0)
        assert fired == [1.0]
        assert end == 5.0
        assert loop.pending == 1

    def test_resume_after_until(self):
        loop = EventLoop()
        fired = []
        loop.schedule(10.0, lambda t: fired.append(t))
        loop.run(until=5.0)
        loop.run()
        assert fired == [10.0]

    def test_cannot_schedule_in_past(self):
        loop = EventLoop()
        loop.schedule(5.0, lambda t: None)
        loop.run()
        with pytest.raises(ValueError):
            loop.schedule(1.0, lambda t: None)

    def test_clock_never_runs_backwards(self):
        # A time within float noise before ``now`` is accepted — and runs
        # at ``now``, not before it.
        loop = EventLoop()
        fired = []
        loop.schedule(1.0, lambda t: loop.schedule(1.0 - 5e-13, fired.append))
        assert loop.run() == 1.0
        assert fired == [1.0]
        assert loop.now == 1.0

    def test_schedule_after(self):
        loop = EventLoop()
        fired = []
        loop.schedule(2.0, lambda t: loop.schedule_after(3.0, lambda u: fired.append(u)))
        loop.run()
        assert fired == [5.0]

    def test_max_events(self):
        loop = EventLoop()
        fired = []
        for i in range(10):
            loop.schedule(float(i), lambda t: fired.append(t))
        loop.run(max_events=4)
        assert len(fired) == 4
        assert loop.processed == 4


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_times_are_refused(bad):
    """A NaN would corrupt the heap order and an infinite time never
    fires: a non-finite time is refused by name, before it reaches the
    queue — fault, elastic and handoff timers included."""
    loop = EventLoop()
    with pytest.raises(ValueError, match="finite"):
        loop.schedule(bad, lambda t: None)
    with pytest.raises(ValueError, match="finite"):
        loop.schedule_after(abs(bad), lambda t: None)
    assert loop.pending == 0
    loop.run()
    assert loop.now == 0.0
