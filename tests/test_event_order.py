"""The event loop's ordering contract.

The loop pops in the total order ``(time, seq)``: equal timestamps pop in
scheduling order. That tie-break is part of the public determinism
guarantee. This suite pins it three ways:

* a full :class:`EventLoop` dispatch against :class:`HeapLoop`, an
  independent binary-heap oracle that lives only here, including
  interleaved cancels and one-event ``run`` slices;
* ``ClusterSimulator.run`` streams a workload's arrivals into the loop
  one at a time under reserved seqs; replaying tie-heavy workloads with
  every request handed to ``schedule_arrival`` up front instead must
  give identical traces and request stamps;
* streaming keeps the queue small: a ``fig13_1m`` slice never holds
  much more than one pending event per engine.
"""

from __future__ import annotations

import dataclasses
import heapq
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.fig13_cluster import build_cluster
from repro.cluster.events import EventHandle, EventLoop
from repro.cluster.faults import FaultInjector, FaultKind, FaultSpec
from repro.cluster.scheduler import SchedulerConfig
from repro.cluster.simulator import ClusterSimulator
from repro.models.config import LLAMA2_7B
from repro.obs.tracer import Tracer
from repro.runtime.backend import SimulatedBackend
from repro.runtime.engine import EngineConfig, GpuEngine
from repro.runtime.serve import requests_from_trace
from repro.workloads.arrivals import PoissonArrivals, constant_rate
from repro.workloads.lengths import ShareGptLengths
from repro.workloads.scale import FIG13_1M, scale_trace
from repro.workloads.trace import generate_trace


class HeapLoop:
    """The oracle dispatch: ``EventLoop.schedule`` / ``run`` over a plain
    binary heap — pop the smallest live ``(time, seq)`` item, run its
    action, count it."""

    def __init__(self) -> None:
        self._heap = []
        self._seq = 0
        self.processed = 0

    def schedule(self, time, action) -> EventHandle:
        handle = EventHandle(time=time, seq=self._seq)
        heapq.heappush(self._heap, (time, self._seq, action, handle))
        self._seq += 1
        return handle

    def run(self, max_events=None) -> None:
        heap = self._heap
        while max_events is None or self.processed < max_events:
            while heap and heap[0][3].cancelled:
                heapq.heappop(heap)
            if not heap:
                return
            time, _, action, _ = heapq.heappop(heap)
            action(time)
            self.processed += 1


class TestPopOrder:
    def test_ties_pop_in_scheduling_order(self):
        loop = EventLoop()
        order = []
        for i, t in enumerate([1.0, 0.5, 1.0, 1.0, 0.5, 2.0, 1.0]):
            loop.schedule(t, lambda now, i=i: order.append((now, i)))
        loop.run()
        assert order == [(0.5, 1), (0.5, 4), (1.0, 0), (1.0, 2), (1.0, 3),
                         (1.0, 6), (2.0, 5)]


@settings(max_examples=200, deadline=None)
@given(
    program=st.lists(
        st.tuples(
            # op: 0 = schedule, 1 = run one event, 2 = cancel an earlier event
            st.integers(min_value=0, max_value=2),
            # Times from a tiny grid force heavy ties.
            st.floats(min_value=0.0, max_value=4.0).map(lambda x: round(x, 1)),
            st.integers(min_value=0, max_value=63),
        ),
        min_size=1,
        max_size=64,
    ),
)
def test_interleaved_program_matches_heap_oracle(program):
    """Any interleaving of schedules, one-event runs and cancels
    dispatches identically."""
    loops = (EventLoop(), HeapLoop())
    orders = ([], [])
    handles = ([], [])
    for op, t, pick in program:
        if op == 0:
            t = max(t, loops[0].now)  # later events must not precede the clock
            for loop, order, hs in zip(loops, orders, handles):
                i = len(hs)
                hs.append(loop.schedule(t, lambda now, i=i, o=order: o.append((now, i))))
        elif op == 1:
            for loop in loops:
                loop.run(max_events=loop.processed + 1)
            assert orders[0] == orders[1]
        elif handles[0]:
            for hs in handles:
                hs[pick % len(hs)].cancel()
    for loop in loops:
        loop.run()
    assert orders[0] == orders[1]
    assert loops[0].processed == loops[1].processed
    assert loops[0].pending == 0


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
)
def test_event_loop_pop_order_matches_between_disciplines(entries):
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

    assert drive(EventLoop()) == drive(HeapLoop())


# ---------------------------------------------------------------------------
# Streamed arrivals == arrivals registered up front
# ---------------------------------------------------------------------------
def _tie_heavy_requests(seed, grid):
    """A shuffled workload whose arrivals sit on a coarse time grid, so
    many requests arrive at the same instant as each other and as the
    1 s migration ticks; the shuffle makes seq order differ from both
    arrival order and request-id order."""
    trace = generate_trace(
        80,
        "skewed",
        seed=seed,
        lengths=ShareGptLengths(max_prompt_len=40, max_response_len=8),
        arrivals=PoissonArrivals(rate=constant_rate(24.0), duration=3.0),
    )
    requests = requests_from_trace(trace)
    for req in requests:
        req.spec = dataclasses.replace(
            req.spec, arrival_time=round(req.spec.arrival_time / grid) * grid
        )
    random.Random(seed).shuffle(requests)
    return requests


def _run_tie_heavy(seed, grid, fast_path, mode):
    """One run of a tie-heavy workload; ``mode`` is how its arrivals
    reach the loop: ``streamed`` (``run(requests)``), ``registered``
    (``schedule_arrival`` each, then ``run([])``) or ``resumed``
    (streamed, stopped at ``until=1.0``, then the loop resumed)."""
    tracer = Tracer()
    sim = ClusterSimulator(
        [
            GpuEngine(
                f"gpu{i:02d}",
                SimulatedBackend(LLAMA2_7B, step_overhead=0.05, fast_path=fast_path),
                EngineConfig(max_batch_size=3),
                fast_path=fast_path,
            )
            for i in range(3)
        ],
        SchedulerConfig(migration_interval=1.0, light_load_fraction=0.5),
        fault_injector=FaultInjector(
            [FaultSpec(kind=FaultKind.GPU_SLOWDOWN, time=1.0, duration=1.0,
                       factor=3.0)],
            seed=seed,
        ),
        tracer=tracer,
        fast_path=fast_path,
    )
    requests = _tie_heavy_requests(seed, grid)
    # A timer queued before the run takes the seq ahead of the workload.
    sim.loop.schedule(grid, lambda now: None)
    if mode == "registered":
        for req in requests:
            sim.schedule_arrival(req)
        result = sim.run([])
    elif mode == "resumed":
        result = sim.run(requests, until=1.0)
        assert sim.loop.pending > 0
        sim.loop.run()
    else:
        result = sim.run(requests)
    stamps = [
        (r.request_id, r.state, r.first_admitted_time, r.first_token_time,
         r.finish_time, r.num_migrations, tuple(r.generated_tokens))
        for r in result.requests
    ]
    return tracer.dumps_jsonl(), stamps, sim.loop.processed, sim.loop.now


@pytest.mark.parametrize("fast_path", [True, False])
@pytest.mark.parametrize("seed,grid", [(0, 0.25), (1, 0.5), (2, 1.0)])
def test_streamed_arrivals_equal_registered_arrivals(seed, grid, fast_path):
    streamed = _run_tie_heavy(seed, grid, fast_path, "streamed")
    assert streamed == _run_tie_heavy(seed, grid, fast_path, "registered")


@pytest.mark.parametrize("fast_path", [True, False])
def test_streamed_run_resumes_after_until(fast_path):
    """A run stopped at ``until`` leaves the next arrival queued; resuming
    the loop finishes the stream exactly as one uninterrupted run."""
    streamed = _run_tie_heavy(0, 0.25, fast_path, "streamed")
    assert streamed == _run_tie_heavy(0, 0.25, fast_path, "resumed")


def test_fig13_1m_queue_holds_about_one_event_per_engine():
    """Arrivals stream in one at a time, so the queue never holds the
    trace: at most one event per engine plus a few timers and the next
    arrival."""
    trace = scale_trace(FIG13_1M, fraction=0.002, seed=0)
    sim = build_cluster(
        FIG13_1M.num_gpus, max_batch_size=FIG13_1M.max_batch_size, fast_path=True
    )
    loop = sim.loop
    peak = 0

    def watch(schedule):
        def watched(*args):
            nonlocal peak
            handle = schedule(*args)
            peak = max(peak, loop.pending)
            return handle

        return watched

    loop.schedule = watch(loop.schedule)
    loop.schedule_step = watch(loop.schedule_step)
    result = sim.run(trace)
    assert result.finished_requests + result.failed_requests == len(trace)
    assert 0 < peak <= FIG13_1M.num_gpus + 4
