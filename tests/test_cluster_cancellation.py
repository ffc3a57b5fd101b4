"""Cancellation lifecycle regression tests.

Three bugs used to live on these paths (each test here failed before the
fix landed):

1. **Crash** — cancelling a request before its simulated arrival left the
   arrival event live; when it fired, ``scheduler.submit`` routed the
   CANCELLED request into ``engine.add_request`` whose ``mark_running``
   raised and killed the whole event loop.
2. **Liveness** — ``GpuEngine.cancel`` frees batch/KvCache capacity, but
   the simulator only drained the FCFS queue when a step reported
   ``finished or evicted``; cancelling the *last running* request stranded
   every queued request forever.
3. **Edge case** — ``PunicaScheduler.consolidate`` / ``scaling_hint``
   computed ``max(...)`` over an empty generator when engines lack
   ``.config`` (test doubles) and raised ValueError.

Plus the full cancellation matrix: cancel before arrival, while
FCFS-queued, while pending on a LoRA load, and mid-decode with a queued
backlog — asserting no crash, no stranded requests, and correct terminal
states.
"""

import pytest

from repro.cluster.frontend import Frontend
from repro.cluster.scheduler import (
    DEFAULT_MAX_BATCH_SIZE,
    PunicaScheduler,
    SchedulerConfig,
)
from repro.cluster.simulator import ClusterSimulator
from repro.models.config import LLAMA2_7B
from repro.runtime.backend import SimulatedBackend
from repro.runtime.engine import EngineConfig, GpuEngine
from repro.runtime.request import Request, RequestState
from repro.workloads.trace import RequestSpec


def make_engine(gpu_id="gpu00", max_batch=8):
    return GpuEngine(
        gpu_id,
        SimulatedBackend(LLAMA2_7B, step_overhead=0.0),
        EngineConfig(max_batch_size=max_batch),
    )


def make_frontend(num_gpus=1, max_batch=8):
    engines = [make_engine(f"gpu{i:02d}", max_batch) for i in range(num_gpus)]
    sim = ClusterSimulator(engines)
    return Frontend(sim), sim


# ---------------------------------------------------------------------------
# Regression 1: cancel before the simulated arrival (used to crash the loop)
# ---------------------------------------------------------------------------
class TestCancelBeforeArrival:
    def test_no_crash_and_terminal_state(self):
        fe, _ = make_frontend()
        doomed = fe.submit("lora-a", prompt_len=16, response_len=8, at_time=5.0)
        survivor = fe.submit("lora-b", prompt_len=16, response_len=8, at_time=5.0)
        fe.cancel(doomed.request_id)
        fe.run()  # used to raise RuntimeError from mark_running
        assert doomed.state is RequestState.CANCELLED
        assert doomed.tokens == []
        assert survivor.state is RequestState.FINISHED
        assert len(survivor.tokens) == 8

    def test_scheduler_submit_drops_terminal_requests(self):
        engine = make_engine()
        sched = PunicaScheduler([engine])
        req = Request(
            spec=RequestSpec(
                request_id="r0", lora_id="lora-a", arrival_time=0.0,
                prompt_len=16, response_len=8,
            )
        )
        req.mark_cancelled()
        assert sched.submit(req, now=0.0) is None
        assert sched.queue_depth == 0
        assert not engine.has_request("r0")


# ---------------------------------------------------------------------------
# Regression 2: cancelling the last running request strands the FCFS queue
# ---------------------------------------------------------------------------
class TestCancelDrainsQueue:
    def test_queued_request_runs_after_blocking_cancel(self):
        # One GPU with batch size 1: the long request blocks the queue.
        fe, sim = make_frontend(max_batch=1)
        blocker = fe.submit("lora-a", prompt_len=16, response_len=100_000,
                            at_time=0.0)
        queued = fe.submit("lora-b", prompt_len=16, response_len=4, at_time=0.5)
        # Cancel mid-run, once the blocker is decoding and the other queued.
        sim.loop.schedule(1.0, lambda now: fe.cancel(blocker.request_id))
        end = fe.run()
        assert blocker.state is RequestState.CANCELLED
        # The fix: cancellation kicks a queue drain, so the queued request
        # is admitted and runs to completion instead of being stranded.
        assert queued.state is RequestState.FINISHED
        assert len(queued.tokens) == 4
        assert sim.scheduler.queue_depth == 0
        assert end < 100.0  # the loop terminated promptly, no livelock

    def test_cancel_queued_request_unblocks_head_of_line(self):
        fe, sim = make_frontend(max_batch=1)
        blocker = fe.submit("lora-a", prompt_len=16, response_len=500, at_time=0.0)
        head = fe.submit("lora-b", prompt_len=16, response_len=4, at_time=0.5)
        tail = fe.submit("lora-c", prompt_len=16, response_len=4, at_time=0.6)
        sim.loop.schedule(1.0, lambda now: fe.cancel(head.request_id))
        fe.run()
        assert head.state is RequestState.CANCELLED
        assert blocker.state is RequestState.FINISHED
        assert tail.state is RequestState.FINISHED


# ---------------------------------------------------------------------------
# Regression 3: consolidate/scaling_hint on engines without .config
# ---------------------------------------------------------------------------
class _EngineDouble:
    """Minimal scheduler-facing engine stub with no ``.config``."""

    def __init__(self, gpu_id, working=0):
        self.gpu_id = gpu_id
        self.working_set_size = working
        self.alive = True

    @property
    def is_idle(self):
        return self.working_set_size == 0

    def can_accept(self, request):
        return False

    def all_requests(self):
        return []


class TestConfiglessEngines:
    def test_consolidate_does_not_raise(self):
        sched = PunicaScheduler([_EngineDouble("a", 1), _EngineDouble("b", 2)])
        assert sched.consolidate(now=0.0) == 0  # used to raise ValueError

    def test_scaling_hint_does_not_raise(self):
        sched = PunicaScheduler([_EngineDouble("a"), _EngineDouble("b")])
        assert sched.scaling_hint() in ("scale-up", "scale-down", "hold")

    def test_fallback_value_is_paper_default(self):
        sched = PunicaScheduler([_EngineDouble("a")])
        assert sched._max_batch_size() == DEFAULT_MAX_BATCH_SIZE

    def test_mixed_pool_uses_real_configs(self):
        sched = PunicaScheduler([make_engine("real", max_batch=4),
                                 _EngineDouble("double")])
        assert sched._max_batch_size() == 4


# ---------------------------------------------------------------------------
# The cancellation lifecycle matrix
# ---------------------------------------------------------------------------
class TestCancellationMatrix:
    def test_cancel_before_arrival(self):
        fe, sim = make_frontend()
        h = fe.submit("lora-a", prompt_len=16, response_len=8, at_time=3.0)
        fe.cancel(h.request_id)
        fe.run()
        assert h.state is RequestState.CANCELLED
        assert sim.scheduler.queue_depth == 0

    def test_cancel_while_fcfs_queued(self):
        fe, sim = make_frontend(max_batch=1)
        blocker = fe.submit("lora-a", prompt_len=16, response_len=500, at_time=0.0)
        queued = fe.submit("lora-b", prompt_len=16, response_len=8, at_time=0.5)
        sim.loop.schedule(1.0, lambda now: fe.cancel(queued.request_id))
        fe.run()
        assert queued.state is RequestState.CANCELLED
        assert queued.tokens == []
        assert blocker.state is RequestState.FINISHED
        assert sim.scheduler.queue_depth == 0

    def test_cancel_while_pending_on_lora_load(self):
        # Throttle PCIe so the adapter copy is still in flight at cancel
        # time: the request sits in the engine's pending list, never
        # prefilled.
        from repro.hw.pcie import PcieSpec
        from repro.adapters import GpuAdapterStore

        slow_pcie = PcieSpec(name="slow", effective_bandwidth=1e6)  # ~1 MB/s
        engine = GpuEngine(
            "gpu00",
            SimulatedBackend(LLAMA2_7B, step_overhead=0.0),
            EngineConfig(max_batch_size=8),
            loader=GpuAdapterStore(pcie=slow_pcie),
        )
        sim = ClusterSimulator([engine])
        fe = Frontend(sim)
        h = fe.submit("lora-a", prompt_len=16, response_len=8, at_time=0.0)
        sim.loop.schedule(0.1, lambda now: fe.cancel(h.request_id))
        end = fe.run()
        assert h.state is RequestState.CANCELLED
        assert h.tokens == []
        assert engine.is_idle
        # The loop must not wait out the (multi-second) copy for a request
        # nobody wants anymore; it may observe the armed wake-up but no
        # token is ever generated.
        assert end < 120.0

    def test_cancel_mid_decode_with_backlog(self):
        fe, sim = make_frontend(max_batch=2)
        victims = [
            fe.submit(f"lora-{i}", prompt_len=16, response_len=200, at_time=0.0)
            for i in range(2)
        ]
        backlog = [
            fe.submit(f"lora-b{i}", prompt_len=16, response_len=4, at_time=0.5)
            for i in range(3)
        ]
        sim.loop.schedule(1.0, lambda now: fe.cancel(victims[0].request_id))
        fe.run()
        assert victims[0].state is RequestState.CANCELLED
        assert 0 < len(victims[0].tokens) < 200  # was genuinely mid-decode
        assert victims[1].state is RequestState.FINISHED
        for h in backlog:
            assert h.state is RequestState.FINISHED, "backlog request stranded"
            assert len(h.tokens) == 4
        assert sim.scheduler.queue_depth == 0

    def test_double_cancel_is_idempotent(self):
        fe, _ = make_frontend()
        h = fe.submit("lora-a", prompt_len=16, response_len=8, at_time=2.0)
        fe.cancel(h.request_id)
        fe.cancel(h.request_id)  # no-op, no raise
        fe.run()
        assert h.state is RequestState.CANCELLED
